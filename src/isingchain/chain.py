"""Chain model types and the exact enumeration oracle.

The model lives on sites 0..N with couplings J[x] on edges (x, x+1) and
fields h[x] on sites; the energy of a configuration is

    H(sigma) = - sum_x J[x] sigma_x sigma_{x+1} - sum_x h[x] sigma_x

and the Gibbs weight is exp(-H) (temperature absorbed into the parameters).
Everything in this module is ground truth for the rest of the package: sums
run over all 2^n_sites configurations in a fixed block order, so results are
reproducible bit for bit, and every operation refuses inputs above the
enumeration cap instead of approximating.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .errors import CapacityError, ParseError, PreconditionError

if TYPE_CHECKING:
    from .transfer import ChainSweep

# 2^24 configurations is the largest exact sum we allow.
ENUMERATION_CAP = 24

_BLOCK_BITS = 16


@dataclass(frozen=True)
class ChainParams:
    """Couplings J[0..N-1] and fields h[0..N] for one chain instance."""

    couplings: tuple[float, ...]
    fields: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "couplings", tuple(float(j) for j in self.couplings))
        object.__setattr__(self, "fields", tuple(float(v) for v in self.fields))
        if len(self.fields) < 1:
            raise PreconditionError("a chain needs at least one site")
        if len(self.couplings) != len(self.fields) - 1:
            raise PreconditionError(
                f"{len(self.fields)} sites need {len(self.fields) - 1} couplings, "
                f"got {len(self.couplings)}"
            )
        for v in self.couplings + self.fields:
            if not math.isfinite(v):
                raise PreconditionError("couplings and fields must be finite")

    @property
    def n_sites(self) -> int:
        return len(self.fields)

    @property
    def n_edges(self) -> int:
        return len(self.couplings)

    @cached_property
    def sweep(self) -> "ChainSweep":
        """The forward/backward message pass over this instance, built once."""
        from .transfer import ChainSweep

        return ChainSweep(self)

    @cached_property
    def _absolute(self) -> "ChainParams":
        return ChainParams(
            tuple(abs(j) for j in self.couplings),
            tuple(abs(v) for v in self.fields),
        )

    def absolute(self) -> "ChainParams":
        """The instance with |J|, |h| entrywise; built once per instance."""
        return self._absolute

    def reflected(self) -> "ChainParams":
        """The instance read right-to-left (site x -> N - x)."""
        return ChainParams(self.couplings[::-1], self.fields[::-1])

    def is_ferromagnetic(self) -> bool:
        return all(j >= 0.0 for j in self.couplings)

    def has_nonneg_fields(self) -> bool:
        return all(v >= 0.0 for v in self.fields)

    def to_json(self) -> str:
        return json.dumps({"J": list(self.couplings), "h": list(self.fields)})

    @classmethod
    def from_json(cls, text: str) -> "ChainParams":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
        if not isinstance(data, dict) or set(data) != {"J", "h"}:
            raise ParseError('instance JSON must be an object with keys "J" and "h"')
        for key in ("J", "h"):
            if not isinstance(data[key], list) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in data[key]
            ):
                raise ParseError(f'"{key}" must be a list of numbers')
        try:
            return cls(tuple(data["J"]), tuple(data["h"]))
        except PreconditionError as exc:
            raise ParseError(str(exc)) from exc


@dataclass(frozen=True)
class SpinConfig:
    """One configuration; spins[x] is +1 or -1."""

    spins: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "spins", tuple(int(s) for s in self.spins))
        if any(s not in (-1, 1) for s in self.spins):
            raise PreconditionError("spins must be +1 or -1")


@dataclass(frozen=True)
class SignSplit:
    """Entrywise decomposition v = plus - minus with plus, minus >= 0."""

    plus: tuple[float, ...]
    minus: tuple[float, ...]


def sign_split(values: Sequence[float]) -> SignSplit:
    return SignSplit(
        tuple(max(float(v), 0.0) for v in values),
        tuple(max(-float(v), 0.0) for v in values),
    )


def hamiltonian(params: ChainParams, config: SpinConfig) -> float:
    """H(sigma) for one explicit configuration."""
    s = config.spins
    if len(s) != params.n_sites:
        raise PreconditionError(
            f"configuration has {len(s)} spins, instance has {params.n_sites} sites"
        )
    energy = 0.0
    for x in range(params.n_edges):
        energy -= params.couplings[x] * s[x] * s[x + 1]
    for x in range(params.n_sites):
        energy -= params.fields[x] * s[x]
    return energy


def _require_enumerable(params: ChainParams) -> None:
    if params.n_sites > ENUMERATION_CAP:
        raise CapacityError(
            f"enumeration over {params.n_sites} sites exceeds the cap of {ENUMERATION_CAP}"
        )


def _check_site(params: ChainParams, x: int, name: str = "site") -> int:
    x = int(x)
    if not 0 <= x < params.n_sites:
        raise PreconditionError(f"{name} {x} out of range for {params.n_sites} sites")
    return x


def _energy_blocks(params: ChainParams) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (spins, energies) over all configurations in fixed index order.

    Configuration k has spin +1 at site x when bit x of k is 0. Block size is
    fixed, so the summation order never depends on the caller.
    """
    n = params.n_sites
    j_arr = np.asarray(params.couplings, dtype=np.float64)
    h_arr = np.asarray(params.fields, dtype=np.float64)
    total = 1 << n
    block = 1 << min(_BLOCK_BITS, n)
    bit_idx = np.arange(n, dtype=np.uint32)
    for start in range(0, total, block):
        idx = np.arange(start, min(start + block, total), dtype=np.uint32)
        spins = 1.0 - 2.0 * ((idx[:, None] >> bit_idx) & 1).astype(np.float64)
        energy = -(spins[:, :-1] * spins[:, 1:]) @ j_arr - spins @ h_arr
        yield spins, energy


def _weighted_blocks(
    params: ChainParams,
) -> Iterator[tuple[np.ndarray, np.ndarray, float, float]]:
    """Yield (spins, w, rescale, shift) per block, w = exp(-energy - shift).

    shift is the largest -energy seen so far, so no weight overflows however
    large |J| and |h| are. When a block raises it, sums carried over from the
    earlier blocks must be multiplied by rescale = exp(old - new shift) before
    the block's weights are added; otherwise rescale is 1. Ratios of sums are
    shift-free; log Z is the final shift plus the log of the weight sum.
    """
    shift = -math.inf
    for spins, energy in _energy_blocks(params):
        rescale = 1.0
        top = -float(energy.min())
        if top > shift:
            rescale = math.exp(shift - top)
            shift = top
        yield spins, np.exp(-shift - energy), rescale, shift


def partition_function_enum(params: ChainParams) -> float:
    """Z = sum over all configurations of exp(-H); strictly positive.

    Z itself overflows to inf once log Z passes about 709; enum_summary gives
    log Z for such instances.
    """
    _require_enumerable(params)
    z = 0.0
    for _, energy in _energy_blocks(params):
        z += float(np.exp(-energy).sum())
    return z


def expectation_enum(params: ChainParams, sites: Sequence[int]) -> float:
    """<prod_{x in sites} sigma_x> by exact enumeration; empty sites give 1."""
    _require_enumerable(params)
    cols = sorted({_check_site(params, x) for x in sites})
    num = 0.0
    den = 0.0
    for spins, w, rescale, _ in _weighted_blocks(params):
        den = den * rescale + float(w.sum())
        if cols:
            num = num * rescale + float((w * spins[:, cols].prod(axis=1)).sum())
        else:
            num = num * rescale + float(w.sum())
    return num / den


def covariance_enum(params: ChainParams, i: int, j: int) -> float:
    """<sigma_i sigma_j> - <sigma_i><sigma_j> by exact enumeration."""
    _require_enumerable(params)
    i = _check_site(params, i, "i")
    j = _check_site(params, j, "j")
    if i == j:
        raise PreconditionError("covariance needs two distinct sites")
    z = s_i = s_j = s_ij = 0.0
    for spins, w, rescale, _ in _weighted_blocks(params):
        si = spins[:, i]
        sj = spins[:, j]
        z = z * rescale + float(w.sum())
        s_i = s_i * rescale + float((w * si).sum())
        s_j = s_j * rescale + float((w * sj).sum())
        s_ij = s_ij * rescale + float((w * si * sj).sum())
    return s_ij / z - (s_i / z) * (s_j / z)


def window_marginal_enum(params: ChainParams, i: int, j: int) -> np.ndarray:
    """Marginal distribution of (sigma_i, ..., sigma_j) under the full model.

    Entry k is the probability of the window configuration whose site i+b
    carries spin +1 when bit b of k is 0 (same indexing as _energy_blocks).
    """
    _require_enumerable(params)
    i = _check_site(params, i, "i")
    j = _check_site(params, j, "j")
    if i > j:
        raise PreconditionError("window needs i <= j")
    width = j - i + 1
    out = np.zeros(1 << width, dtype=np.float64)
    weights_idx = 1 << np.arange(width, dtype=np.int64)
    for spins, w, rescale, _ in _weighted_blocks(params):
        bits = (spins[:, i : j + 1] < 0).astype(np.int64)
        out *= rescale
        out += np.bincount(bits @ weights_idx, weights=w, minlength=1 << width)
    return out / out.sum()


def enum_summary(
    params: ChainParams, i: int | None = None, j: int | None = None
) -> tuple[float, np.ndarray, float | None]:
    """One-pass enumeration of (log Z, all site means, optional covariance).

    Shares a single sweep over the configuration blocks, so cross-checking a
    whole instance costs one enumeration instead of one per site.
    """
    _require_enumerable(params)
    pair = i is not None or j is not None
    if pair:
        if i is None or j is None:
            raise PreconditionError("give both pair sites or neither")
        i = _check_site(params, i, "i")
        j = _check_site(params, j, "j")
        if i == j:
            raise PreconditionError("covariance needs two distinct sites")
    z = s_ij = shift = 0.0
    sums = np.zeros(params.n_sites, dtype=np.float64)
    for spins, w, rescale, shift in _weighted_blocks(params):
        z = z * rescale + float(w.sum())
        sums *= rescale
        sums += w @ spins
        if pair:
            s_ij = s_ij * rescale + float((w * spins[:, i] * spins[:, j]).sum())
    means = sums / z
    cov = s_ij / z - means[i] * means[j] if pair else None
    return shift + math.log(z), means, cov
