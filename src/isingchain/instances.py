"""Reproducible random instance generation for sweeps and tests.

An InstanceSpec describes the distribution of one chain: the site count, one
distribution each for couplings and fields, and optional sign-flip
probabilities applied after the magnitude draw. Draw order is fixed
(couplings, fields, coupling flips, field flips), so instances are a pure
function of (spec, seed).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .chain import ChainParams, _check_integer
from .errors import CapacityError, ParseError, PreconditionError

# Seeds are integers in [0, SEED_LIMIT).
SEED_LIMIT = 2**63


@dataclass(frozen=True)
class DistSpec:
    """A scalar distribution: constant(value) or uniform(low, high)."""

    kind: str
    low: float = 0.0
    high: float = 0.0
    value: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "uniform"):
            raise PreconditionError(f"unknown distribution kind {self.kind!r}")
        for name in ("low", "high", "value"):
            v = _number(getattr(self, name))
            if not math.isfinite(v):
                raise PreconditionError(f"distribution {name} must be finite")
            object.__setattr__(self, name, v)
        if self.kind == "uniform" and self.high < self.low:
            raise PreconditionError("uniform needs low <= high")

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "constant":
            return np.full(size, self.value, dtype=np.float64)
        try:
            return rng.uniform(self.low, self.high, size=size)
        except OverflowError as exc:
            raise PreconditionError(f"cannot draw from uniform: {exc}") from None

    @staticmethod
    def from_json(obj: Any) -> "DistSpec":
        if not isinstance(obj, dict) or "type" not in obj:
            raise ParseError("a distribution must be an object with a 'type' key")
        kind = obj["type"]
        try:
            if kind == "constant":
                return DistSpec(kind="constant", value=obj["value"])
            if kind == "uniform":
                return DistSpec(kind="uniform", low=obj["low"], high=obj["high"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"bad {kind} distribution: {exc}") from exc
        raise ParseError(f"unknown distribution type {kind!r}")


def _number(value: Any) -> float:
    """A JSON number as a float; bools, strings and null raise TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _flip_probs(raw: Any) -> tuple[float, float]:
    """Normalize a sign-flip setting to (coupling prob, field prob)."""
    try:
        if isinstance(raw, dict):
            extra = set(raw) - {"J", "h"}
            if extra:
                raise ParseError(f"unknown sign-flip keys {sorted(extra)}")
            pj, ph = _number(raw.get("J", 0.0)), _number(raw.get("h", 0.0))
        else:
            pj = ph = _number(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad sign_flip_prob: {exc}") from exc
    for p in (pj, ph):
        if not 0.0 <= p <= 1.0:
            raise PreconditionError("sign-flip probabilities must lie in [0, 1]")
    return pj, ph


@dataclass(frozen=True)
class InstanceSpec:
    """Distributional description of a random chain instance."""

    n_sites: int = 13
    coupling_dist: DistSpec = field(
        default_factory=lambda: DistSpec(kind="uniform", low=0.0, high=3.0)
    )
    field_dist: DistSpec = field(
        default_factory=lambda: DistSpec(kind="uniform", low=-2.0, high=2.0)
    )
    coupling_flip_prob: float = 0.0
    field_flip_prob: float = 0.0
    seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_sites", _check_integer(self.n_sites, "n_sites"))
        if self.n_sites < 1:
            raise PreconditionError("need at least one site")
        if self.seed is not None:
            seed = _check_integer(self.seed, "seed", 0, SEED_LIMIT)
            object.__setattr__(self, "seed", seed)
        _flip_probs({"J": self.coupling_flip_prob, "h": self.field_flip_prob})

    @staticmethod
    def from_json(text: str | bytes | dict[str, Any]) -> "InstanceSpec":
        if isinstance(text, (str, bytes)):
            try:
                obj = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc}") from exc
        else:
            obj = text
        if not isinstance(obj, dict):
            raise ParseError("an instance spec must be a JSON object")
        extra = set(obj) - {"n_sites", "J", "h", "sign_flip_prob", "seed"}
        if extra:
            raise ParseError(f"unknown instance-spec keys {sorted(extra)}")
        defaults = InstanceSpec()
        n_sites = obj.get("n_sites", defaults.n_sites)
        seed = obj.get("seed")
        for key, value in (("n_sites", n_sites), ("seed", seed)):
            if type(value) is not int and not (key == "seed" and value is None):
                raise ParseError(
                    f"bad instance-spec field: {key} must be an integer, "
                    f"got {json.dumps(value)}"
                )
        j_dist = (
            DistSpec.from_json(obj["J"]) if "J" in obj else defaults.coupling_dist
        )
        h_dist = DistSpec.from_json(obj["h"]) if "h" in obj else defaults.field_dist
        try:
            pj, ph = _flip_probs(obj.get("sign_flip_prob", 0.0))
            return InstanceSpec(
                n_sites=n_sites,
                coupling_dist=j_dist,
                field_dist=h_dist,
                coupling_flip_prob=pj,
                field_flip_prob=ph,
                seed=seed,
            )
        except PreconditionError as exc:
            raise ParseError(str(exc)) from exc


def _check_array_size(size: int, name: str) -> None:
    """Refuse, before numpy allocates, a size no 8-byte array can index
    (numpy indexes bytes with np.intp); a smaller size that memory cannot
    hold fails as a MemoryError."""
    if size > np.iinfo(np.intp).max // 8:
        raise CapacityError(f"{name} {size} exceeds the largest array numpy can index")


def generate_instance(spec: InstanceSpec, seed: int) -> ChainParams:
    """Draw one chain from the spec; a pure function of (spec, seed)."""
    _check_array_size(spec.n_sites, "n_sites")
    rng = np.random.default_rng(seed)
    n_edges = spec.n_sites - 1
    couplings = spec.coupling_dist.draw(rng, n_edges)
    fields = spec.field_dist.draw(rng, spec.n_sites)
    if spec.coupling_flip_prob > 0.0 and n_edges:
        flip = rng.random(n_edges) < spec.coupling_flip_prob
        couplings = np.where(flip, -couplings, couplings)
    if spec.field_flip_prob > 0.0:
        flip = rng.random(spec.n_sites) < spec.field_flip_prob
        fields = np.where(flip, -fields, fields)
    return ChainParams(tuple(couplings.tolist()), tuple(fields.tolist()))


def instance_seeds(root_seed: int, count: int) -> list[int]:
    """Per-instance seeds derived from one root seed."""
    if count < 0:
        raise PreconditionError("count must be nonnegative")
    _check_array_size(count, "count")
    rng = np.random.default_rng(root_seed)
    return [int(s) for s in rng.integers(0, SEED_LIMIT - 1, size=count)]
