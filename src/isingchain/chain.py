"""Chain model types and the exact enumeration oracle.

The model lives on sites 0..N with couplings J[x] on edges (x, x+1) and
fields h[x] on sites; the energy of a configuration is

    H(sigma) = - sum_x J[x] sigma_x sigma_{x+1} - sum_x h[x] sigma_x

and the Gibbs weight is exp(-H) (temperature absorbed into the parameters).
Everything in this module is ground truth for the rest of the package: sums
run over all 2^n_sites configurations in a fixed block order, so results are
reproducible bit for bit, and every operation refuses inputs above the
enumeration cap instead of approximating. log Z, the means and the
covariances come from one such pass per instance, cached on it as
``params.enumeration``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import CapacityError, ParseError, PreconditionError

if TYPE_CHECKING:
    from .transfer import ChainSweep

# 2^24 configurations is the largest exact sum we allow.
ENUMERATION_CAP = 24

# Supported range of every coupling and field: |J|, |h| <= PARAM_LIMIT.
# Log-domain sums carry an absolute rounding error of about |J| * 2^-52 per
# term, which reaches the 1e-12 tolerance of the bound checks near this
# value: on chains with tied energies, the worst slack was -8.5e-13 at 1e3
# and bounds were falsely violated from 2e3 on. Past 1e15 ties are lost
# outright (a mean came out 0 instead of -1/3 at 1e100).
PARAM_LIMIT = 1e3

_BLOCK_BITS = 16


def _overflow_error(exc: OverflowError) -> PreconditionError:
    return PreconditionError(f"coupling or field outside the supported range: {exc}")


def _range_error(v: float) -> PreconditionError:
    if not math.isfinite(v):
        return PreconditionError("couplings and fields must be finite")
    return PreconditionError(
        f"coupling or field {v!r} outside the supported range "
        f"|J|, |h| <= {PARAM_LIMIT:g}"
    )


def _check_lengths(couplings: tuple[float, ...], fields: tuple[float, ...]) -> None:
    if len(fields) < 1:
        raise PreconditionError("a chain needs at least one site")
    if len(couplings) != len(fields) - 1:
        raise PreconditionError(
            f"{len(fields)} sites need {len(fields) - 1} couplings, "
            f"got {len(couplings)}"
        )


@dataclass(frozen=True)
class ChainParams:
    """Couplings J[0..N-1] and fields h[0..N] for one chain instance."""

    couplings: tuple[float, ...]
    fields: tuple[float, ...]

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "couplings", tuple(map(float, self.couplings)))
            object.__setattr__(self, "fields", tuple(map(float, self.fields)))
        except OverflowError as exc:
            raise _overflow_error(exc) from None
        _check_lengths(self.couplings, self.fields)
        for v in self.couplings + self.fields:
            if not abs(v) <= PARAM_LIMIT:
                raise _range_error(v)

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
    def enumeration(self) -> "Enumeration":
        """log Z, all means and all covariances by exact enumeration, built once.

        Needs n_sites <= ENUMERATION_CAP; one pass over all 2^N configurations.
        """
        _require_enumerable(self)
        return _enumerate(self)

    @classmethod
    def _derived(
        cls, couplings: tuple[float, ...], fields: tuple[float, ...]
    ) -> "ChainParams":
        """An instance built without a second validation pass.

        The entries must be finite floats, already checked or computed from a
        validated instance; computed ones may leave the input range (an
        effective end field can reach |h| + |J|).
        """
        out = object.__new__(cls)
        object.__setattr__(out, "couplings", couplings)
        object.__setattr__(out, "fields", fields)
        return out

    @cached_property
    def _has_sign_bit(self) -> bool:
        values = self.couplings + self.fields
        return bool(np.signbit(np.fromiter(values, float, len(values))).any())

    @cached_property
    def _absolute(self) -> "ChainParams":
        return ChainParams._derived(
            tuple(map(abs, self.couplings)), tuple(map(abs, self.fields))
        )

    def absolute(self) -> "ChainParams":
        """The instance with |J|, |h| entrywise; built once per instance.

        An instance with no sign bit set (no negative entry, no -0.0) is its
        own absolute instance, and its cached sweep serves both.
        """
        # Caching `self` in `_absolute` would make a reference cycle that
        # keeps large instances alive until the cyclic collector runs.
        return self._absolute if self._has_sign_bit else self

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
        # One pass over the values runs every check of the constructor. Type
        # errors come first; the errors found on the way are then raised in
        # the constructor's order: float overflow, lengths, supported range.
        columns = []
        overflow = outside = None
        for key in ("J", "h"):
            if not isinstance(data[key], list):
                raise ParseError(f'"{key}" must be a list of numbers')
            column = []
            for v in data[key]:
                kind = type(v)
                if kind is int:
                    try:
                        v = float(v)
                    except OverflowError as exc:
                        overflow = overflow or exc
                        continue
                elif kind is not float:
                    raise ParseError(f'"{key}" must be a list of numbers')
                if outside is None and not abs(v) <= PARAM_LIMIT:
                    outside = v
                column.append(v)
            columns.append(tuple(column))
        try:
            if overflow is not None:
                raise _overflow_error(overflow)
            couplings, fields = columns
            _check_lengths(couplings, fields)
            if outside is not None:
                raise _range_error(outside)
        except PreconditionError as exc:
            raise ParseError(str(exc)) from exc
        return cls._derived(couplings, fields)


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


def _low_spins(params: ChainParams) -> np.ndarray:
    """Spin table of the low sites 0..L-1, L = min(_BLOCK_BITS, n_sites).

    Row k carries spin -1 at site x when bit x of k is 1, +1 otherwise.
    """
    n_low = min(_BLOCK_BITS, params.n_sites)
    idx = np.arange(1 << n_low, dtype=np.uint32)
    spins = ((idx[:, None] >> np.arange(n_low, dtype=np.uint32)) & 1).astype(np.float64)
    spins *= -2.0
    spins += 1.0
    return spins


def _weighted_blocks(
    params: ChainParams, low: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, float, float]]:
    """Yield (high, w, rescale, shift) per block, w = exp(-energy - shift).

    Configuration k has spin +1 at site x when bit x of k is 0. Block b holds
    the configurations whose high sites L..N-1 (L = low.shape[1]) carry the
    spins ``high`` read off the bits of b; within a block, row k of the low
    spin table ``low`` gives sites 0..L-1, so blocks run in index order and
    the summation order never depends on the caller. A block's energies are
    the low-chain energy table, in its version for the spin on site L (which
    the link coupling J[L-1] sees), plus the high chain's energy.

    shift is the largest -energy seen so far, so no weight overflows however
    large |J| and |h| are. When a block raises it, sums carried over from the
    earlier blocks must be multiplied by rescale = exp(old - new shift) before
    the block's weights are added; otherwise rescale is 1. Ratios of sums are
    shift-free; log Z is the final shift plus the log of the weight sum.
    """
    n, n_low = params.n_sites, low.shape[1]
    j_arr = np.asarray(params.couplings, dtype=np.float64)
    h_arr = np.asarray(params.fields, dtype=np.float64)
    table = -(low[:, :-1] * low[:, 1:]) @ j_arr[: n_low - 1] - low @ h_arr[:n_low]
    if n_low == n:
        tables = (table,)
    else:
        link = j_arr[n_low - 1] * low[:, -1]
        tables = (table - link, table + link)
    j_high, h_high = j_arr[n_low:], h_arr[n_low:]
    bit_idx = np.arange(n - n_low)
    shift = -math.inf
    for b in range(1 << (n - n_low)):
        high = 1.0 - 2.0 * ((b >> bit_idx) & 1)
        e_high = -float((high[:-1] * high[1:]) @ j_high) - float(high @ h_high)
        energy = tables[b & 1] + e_high
        rescale = 1.0
        top = -float(energy.min())
        if top > shift:
            rescale = math.exp(shift - top)
            shift = top
        yield high, np.exp(-shift - energy), rescale, shift


class Enumeration(NamedTuple):
    """log Z, every site mean and the full covariance matrix of one instance.

    Built by one pass over all 2^N configurations (``params.enumeration``).
    ``means`` and ``cov`` are read-only arrays; ``cov`` is symmetric and its
    diagonal holds the site variances.
    """

    log_z: float
    means: np.ndarray
    cov: np.ndarray


def _enumerate(params: ChainParams) -> Enumeration:
    """One pass over the blocks, contracted against the low spin table once.

    Across blocks it keeps the low-index weight vectors W = sum_b w_b and,
    per high site h, W_h = sum_b s_h(b) w_b, plus the scalars
    sum_b (sum w_b) s_h(b) s_h'(b). The first and second moments of every
    site then follow from W, W_h and the spin table.
    """
    low = _low_spins(params)
    n, n_low = params.n_sites, low.shape[1]
    n_high = n - n_low
    w_low = np.zeros(len(low), dtype=np.float64)
    w_high = np.zeros((n_high, len(low)), dtype=np.float64)
    zz_high = np.zeros((n_high, n_high), dtype=np.float64)
    shift = 0.0
    for high, w, rescale, shift in _weighted_blocks(params, low):
        if rescale != 1.0:
            w_low *= rescale
            w_high *= rescale
            zz_high *= rescale
        w_low += w
        for row, s in zip(w_high, high):
            if s > 0.0:
                row += w
            else:
                row -= w
        zz_high += float(w.sum()) * np.outer(high, high)
    z = float(w_low.sum())
    first = np.concatenate((w_low @ low, w_high.sum(axis=1)))
    # Row x against the spin table: v_x = W s_x for a low site, W_h for a
    # high one. One vector-matrix product per row keeps temporaries at 2^L.
    second = np.empty((n, n), dtype=np.float64)
    for x in range(n):
        v = w_low * low[:, x] if x < n_low else w_high[x - n_low]
        second[x, :n_low] = v @ low
    second[:n_low, n_low:] = second[n_low:, :n_low].T
    second[n_low:, n_low:] = zz_high
    means = first / z
    cov = second / z - np.outer(means, means)
    cov = np.triu(cov) + np.triu(cov, 1).T
    means.flags.writeable = False
    cov.flags.writeable = False
    return Enumeration(shift + math.log(z), means, cov)


def partition_function_enum(params: ChainParams) -> float:
    """Z = sum over all configurations of exp(-H); strictly positive.

    Read from ``params.enumeration``. Z itself is inf once log Z passes about
    709; enum_summary gives log Z for such instances.
    """
    _require_enumerable(params)
    try:
        return math.exp(params.enumeration.log_z)
    except OverflowError:
        return math.inf


def expectation_enum(params: ChainParams, sites: Sequence[int]) -> float:
    """<prod_{x in sites} sigma_x> by exact enumeration; empty sites give 1."""
    _require_enumerable(params)
    cols = sorted({_check_site(params, x) for x in sites})
    low = _low_spins(params)
    n_low = low.shape[1]
    low_prod = low[:, [x for x in cols if x < n_low]].prod(axis=1)
    high_cols = [x - n_low for x in cols if x >= n_low]
    num = den = 0.0
    for high, w, rescale, _ in _weighted_blocks(params, low):
        den = den * rescale + float(w.sum())
        sign = float(high[high_cols].prod())
        num = num * rescale + sign * float((w * low_prod).sum())
    return num / den


def covariance_enum(params: ChainParams, i: int, j: int) -> float:
    """<sigma_i sigma_j> - <sigma_i><sigma_j> from ``params.enumeration``."""
    _require_enumerable(params)
    i = _check_site(params, i, "i")
    j = _check_site(params, j, "j")
    if i == j:
        raise PreconditionError("covariance needs two distinct sites")
    return float(params.enumeration.cov[i, j])


def window_marginal_enum(params: ChainParams, i: int, j: int) -> np.ndarray:
    """Marginal distribution of (sigma_i, ..., sigma_j) under the full model.

    Entry k is the probability of the window configuration whose site i+b
    carries spin +1 when bit b of k is 0 (same indexing as _weighted_blocks).
    """
    _require_enumerable(params)
    i = _check_site(params, i, "i")
    j = _check_site(params, j, "j")
    if i > j:
        raise PreconditionError("window needs i <= j")
    low = _low_spins(params)
    n_low = low.shape[1]
    # Window sites below n_low index entries within a block; the rest give
    # each block one offset of whole multiples of the low part's span.
    split = max(min(j + 1, n_low), i)
    low_idx = (low[:, i:split] < 0).astype(np.int64) @ (
        1 << np.arange(split - i, dtype=np.int64)
    )
    span = 1 << (split - i)
    high_sites = slice(max(split - n_low, 0), max(j + 1 - n_low, 0))
    high_bits = 1 << np.arange(split - i, j - i + 1, dtype=np.int64)
    out = np.zeros(1 << (j - i + 1), dtype=np.float64)
    for high, w, rescale, _ in _weighted_blocks(params, low):
        off = int((high[high_sites] < 0).astype(np.int64) @ high_bits)
        out *= rescale
        out[off : off + span] += np.bincount(low_idx, weights=w, minlength=span)
    return out / out.sum()


def enum_summary(
    params: ChainParams, i: int | None = None, j: int | None = None
) -> tuple[float, np.ndarray, float | None]:
    """(log Z, all site means, optional covariance) from ``params.enumeration``.

    The means array is the cached one and is read-only.
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
    oracle = params.enumeration
    cov = float(oracle.cov[i, j]) if pair else None
    return oracle.log_z, oracle.means, cov
