"""Chain model types and the exact enumeration oracle.

The model lives on sites 0..N with couplings J[x] on edges (x, x+1) and
fields h[x] on sites; the energy of a configuration is

    H(sigma) = - sum_x J[x] sigma_x sigma_{x+1} - sum_x h[x] sigma_x

and the Gibbs weight is exp(-H) (temperature absorbed into the parameters).
Everything in this module is ground truth for the rest of the package: sums
run over all 2^n_sites configurations, each weight a table entry times a
block factor (_factors), in a fixed order, so results are reproducible bit
for bit, and every operation refuses inputs above the enumeration cap
instead of approximating. log Z, the means and the covariances come from
one such pass per instance, cached on it as ``params.enumeration``; it folds
each weight table into a 2-D grid over the two halves of its sites, so each
moment is a contraction of row sums, column sums or one product.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, NamedTuple, Sequence

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


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


@dataclass(frozen=True, eq=False)
class ChainParams:
    """Couplings J[0..N-1] and fields h[0..N] for one chain instance.

    Both are read-only float64 arrays, copied from any 1-D sequences of
    numbers and validated once; == compares their values.
    """

    couplings: np.ndarray
    fields: np.ndarray

    def __post_init__(self) -> None:
        try:
            couplings = np.array(self.couplings, dtype=np.float64)
            fields = np.array(self.fields, dtype=np.float64)
        except OverflowError as exc:
            raise PreconditionError(
                f"coupling or field outside the supported range: {exc}"
            ) from None
        if couplings.ndim != 1 or fields.ndim != 1:
            raise PreconditionError("couplings and fields must be 1-D sequences")
        if len(fields) < 1:
            raise PreconditionError("a chain needs at least one site")
        if len(couplings) != len(fields) - 1:
            raise PreconditionError(
                f"{len(fields)} sites need {len(fields) - 1} couplings, "
                f"got {len(couplings)}"
            )
        values = np.concatenate((couplings, fields))
        inside = np.abs(values) <= PARAM_LIMIT
        if not inside.all():
            # the first offending entry, couplings before fields, decides
            v = values.item(inside.argmin())
            if not math.isfinite(v):
                raise PreconditionError("couplings and fields must be finite")
            raise PreconditionError(
                f"coupling or field {v!r} outside the supported range "
                f"|J|, |h| <= {PARAM_LIMIT:g}"
            )
        object.__setattr__(self, "couplings", _read_only(couplings))
        object.__setattr__(self, "fields", _read_only(fields))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChainParams):
            return NotImplemented
        return np.array_equal(self.couplings, other.couplings) and np.array_equal(
            self.fields, other.fields
        )

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
    def _derived(cls, couplings: np.ndarray, fields: np.ndarray) -> "ChainParams":
        """An instance built without a second validation pass, on the arrays
        given, which it makes read-only.

        The entries must be finite float64, already checked or computed from a
        validated instance; computed ones may leave the input range (an
        effective end field can reach |h| + |J|).
        """
        out = object.__new__(cls)
        object.__setattr__(out, "couplings", _read_only(couplings))
        object.__setattr__(out, "fields", _read_only(fields))
        return out

    @cached_property
    def _has_sign_bit(self) -> bool:
        return bool(np.signbit(np.concatenate((self.couplings, self.fields))).any())

    @cached_property
    def _absolute(self) -> "ChainParams":
        return ChainParams._derived(np.abs(self.couplings), np.abs(self.fields))

    def absolute(self) -> "ChainParams":
        """The instance with |J|, |h| entrywise; built once per instance.

        An instance with no sign bit set (no negative entry, no -0.0) is its
        own absolute instance, and its cached sweep serves both.
        """
        # Caching `self` in `_absolute` would make a reference cycle that
        # keeps large instances alive until the cyclic collector runs.
        return self._absolute if self._has_sign_bit else self

    def reflected(self) -> "ChainParams":
        """The instance read right-to-left (site x -> N - x).

        Reversing keeps a validated instance valid and a derived one derived,
        so the reversed views are not checked again.
        """
        return ChainParams._derived(self.couplings[::-1], self.fields[::-1])

    def is_ferromagnetic(self) -> bool:
        return bool((self.couplings >= 0.0).all())

    def has_nonneg_fields(self) -> bool:
        return bool((self.fields >= 0.0).all())

    @classmethod
    def from_json(cls, text: str) -> "ChainParams":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
        if not isinstance(data, dict) or set(data) != {"J", "h"}:
            raise ParseError('instance JSON must be an object with keys "J" and "h"')
        for key in ("J", "h"):
            values = data[key]
            if not isinstance(values, list) or not {*map(type, values)} <= {int, float}:
                raise ParseError(f'"{key}" must be a list of numbers')
        try:
            return cls(data["J"], data["h"])
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


def hamiltonian(params: ChainParams, config: SpinConfig) -> float:
    """H(sigma) for one explicit configuration."""
    s = config.spins
    if len(s) != params.n_sites:
        raise PreconditionError(
            f"configuration has {len(s)} spins, instance has {params.n_sites} sites"
        )
    couplings, fields = params.couplings.tolist(), params.fields.tolist()
    energy = 0.0
    for x in range(params.n_edges):
        energy -= couplings[x] * s[x] * s[x + 1]
    for x in range(params.n_sites):
        energy -= fields[x] * s[x]
    return energy


def _require_enumerable(params: ChainParams) -> None:
    if params.n_sites > ENUMERATION_CAP:
        raise CapacityError(
            f"enumeration over {params.n_sites} sites exceeds the cap of {ENUMERATION_CAP}"
        )


def _check_integer(
    x: int, name: str, low: int | None = None, high: int | None = None
) -> int:
    """x as an int in [low, high); a bound left as None is open."""
    # bool is an int subclass; a float or a bool would be truncated silently
    # by int(), so only Python and numpy integers pass.
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise PreconditionError(f"{name} must be an integer, got {x!r}")
    x = int(x)
    if (low is not None and x < low) or (high is not None and x >= high):
        span = f"at least {low}" if high is None else f"in [{low}, {high})"
        raise PreconditionError(f"{name} must be {span}, got {x}")
    return x


def _check_site(params: ChainParams, x: int, name: str = "site") -> int:
    x = _check_integer(x, name)
    if not 0 <= x < params.n_sites:
        raise PreconditionError(f"{name} {x} out of range for {params.n_sites} sites")
    return x


def _check_pair(
    params: ChainParams, i: int, j: int, name: str, ordered: bool = False
) -> tuple[int, int]:
    """Two distinct in-range sites, returned in increasing order.

    The precondition of every pair function; ``name`` starts the message. A
    symmetric function passes a pair given as (j, i) through swapped, an
    ``ordered`` one refuses it.
    """
    i, j = _check_site(params, i, "i"), _check_site(params, j, "j")
    if ordered and i >= j:
        raise PreconditionError(f"{name} needs i < j")
    if i == j:
        raise PreconditionError(f"{name} needs two distinct sites")
    return (i, j) if i < j else (j, i)


@lru_cache(maxsize=None)
def _low_spins(n_low: int) -> np.ndarray:
    """Spin table of the sites 0..n_low-1 (the low sites, or one half of them).

    Row k carries spin -1 at site x when bit x of k is 1, +1 otherwise. It
    depends only on n_low, so it is built once per width (at most
    _BLOCK_BITS + 1 of them) and shared read-only.
    """
    idx = np.arange(1 << n_low, dtype=np.uint32)
    spins = ((idx[:, None] >> np.arange(n_low, dtype=np.uint32)) & 1).astype(np.float64)
    spins *= -2.0
    spins += 1.0
    spins.flags.writeable = False
    return spins


def _factors(
    params: ChainParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """(low, tables, high, c, shift): every Gibbs weight as a product of two
    factors, weight = exp(shift) * c[b] * tables[b & 1][k].

    Configuration k + b * 2^L (L = low.shape[1] = min(_BLOCK_BITS, n_sites))
    has spin +1 at site x when bit x of its index is 0: row k of the low spin
    table ``low`` gives sites 0..L-1 and row b of ``high`` sites L..N-1. Once
    the spin on site L (bit 0 of b) is fixed, the low and high halves are
    independent, so the low chain's energy table in its version for that
    spin (the link coupling J[L-1] sees it) is shifted by its own minimum and
    exponentiated once, into ``tables``; a chain of at most L sites has one
    table and one block. The table's bond term is one product of the spin
    table with J, read at the Gray codes k ^ (k >> 1): bit x of that code is
    bit x XOR bit x+1 of k, so its row of the spin table holds the bond signs
    of configuration k. c[b] = exp(top - e_high[b] - shift) carries the high
    chain's energy and the table's shift top, and shift is the largest
    -energy, so the largest table entry, c and weight are exactly 1 and
    nothing overflows however large |J| and |h| are. Ratios of sums are
    shift-free; log Z is shift plus the log of the weight sum.
    """
    n, low = params.n_sites, _low_spins(min(_BLOCK_BITS, params.n_sites))
    n_low = low.shape[1]
    j_arr, h_arr = params.couplings, params.fields
    k = np.arange(len(low), dtype=np.uint32)
    bonds = (low[:, :-1] @ j_arr[: n_low - 1])[k ^ (k >> 1)]
    energy = -bonds - low @ h_arr[:n_low]
    if n_low == n:
        energies = energy[None]
    else:
        link = j_arr[n_low - 1] * low[:, -1]
        energies = np.stack((energy - link, energy + link))
    top = -energies.min(axis=1)
    tables = np.exp(-top[:, None] - energies)
    b = np.arange(1 << (n - n_low))
    high = 1.0 - 2.0 * ((b[:, None] >> np.arange(n - n_low)) & 1)
    e_high = -(high[:, :-1] * high[:, 1:]) @ j_arr[n_low:] - high @ h_arr[n_low:]
    exponent = top[b & (len(tables) - 1)] - e_high
    shift = float(exponent.max())
    return low, tables, high, np.exp(exponent - shift), shift


def _by_table(values: np.ndarray, n_tables: int) -> np.ndarray:
    """Per-block rows summed over the blocks of each table (block b reads
    table b & 1), one row per table."""
    rows = values.reshape(len(values) // n_tables, n_tables, *values.shape[1:])
    return rows.sum(axis=0)


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
    """Every moment off the factors (_factors), with no walk over the blocks.

    Per table p it sums c and c times each high spin over the blocks that
    read p. Each table, and W = c_sum . tables, is folded into a
    (2^(L-A), 2^A) grid [b, a] with A = ceil(L/2) and k = a + 2^A b, so the
    low spin table is the Kronecker product of sa (sites 0..A-1, read on a)
    and sb (sites A..L-1, read on b), and each sum over the 2^L entries is a
    2-D contraction. A table's low first moments are its sum over b times
    sa and its sum over a times sb; Z is c_sum times the tables' sums. The
    low x low second moments are (sa^T * W summed over b) @ sa, (sb^T * W
    summed over a) @ sb and, between the halves, sa^T W^T sb. The high x low
    block is the per-table sums of c times each high spin, times the tables'
    low first moments, and the high x high block is one product of the high
    spins weighted by each block's total weight.
    """
    low, tables, high, c, shift = _factors(params)
    n, n_low = params.n_sites, low.shape[1]
    half = (n_low + 1) // 2
    sa, sb = _low_spins(half), _low_spins(n_low - half)
    c_sum = _by_table(c, len(tables))
    c_high = _by_table(c[:, None] * high, len(tables))
    masses = tables.sum(axis=1)
    grids = tables.reshape(len(tables), len(sb), len(sa))
    table_low = np.concatenate((grids.sum(axis=1) @ sa, grids.sum(axis=2) @ sb), axis=1)
    # np.dot calls BLAS here; matmul over an inner dimension of 1 took 3x as long
    w = np.dot(c_sum, tables).reshape(len(sb), len(sa))
    z = float(c_sum @ masses)
    first = np.concatenate((c_sum @ table_low, masses @ c_high))
    # only the upper triangle is read (cov below mirrors it)
    second = np.zeros((n, n), dtype=np.float64)
    second[:half, :half] = (sa.T * w.sum(axis=0)) @ sa
    second[half:n_low, half:n_low] = (sb.T * w.sum(axis=1)) @ sb
    second[:half, half:n_low] = sa.T @ (w.T @ sb)
    second[:n_low, n_low:] = (c_high.T @ table_low).T
    block_mass = (c.reshape(-1, len(tables)) * masses).ravel()
    second[n_low:, n_low:] = (high.T * block_mass) @ high
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
    low, tables, high, c, _ = _factors(params)
    n_low = low.shape[1]
    low_prod = low[:, [x for x in cols if x < n_low]].prod(axis=1)
    sign = high[:, [x - n_low for x in cols if x >= n_low]].prod(axis=1)
    num = _by_table(c * sign, len(tables)) @ (tables @ low_prod)
    den = _by_table(c, len(tables)) @ tables.sum(axis=1)
    return float(num / den)


def covariance_enum(params: ChainParams, i: int, j: int) -> float:
    """<sigma_i sigma_j> - <sigma_i><sigma_j> from ``params.enumeration``."""
    _require_enumerable(params)
    i, j = _check_pair(params, i, j, "covariance")
    return float(params.enumeration.cov[i, j])


def window_marginal_enum(params: ChainParams, i: int, j: int) -> np.ndarray:
    """Marginal distribution of (sigma_i, ..., sigma_j) under the full model.

    Entry k is the probability of the window configuration whose site i+b
    carries spin +1 when bit b of k is 0 (same indexing as _factors).
    """
    _require_enumerable(params)
    i = _check_site(params, i, "i")
    j = _check_site(params, j, "j")
    if i > j:
        raise PreconditionError("window needs i <= j")
    low, tables, high, c, _ = _factors(params)
    n_low = low.shape[1]
    # Window sites below n_low index entries within a table; the rest pick
    # each block's row of the output, read as rows of the low part's span.
    split = max(min(j + 1, n_low), i)
    low_idx = (low[:, i:split] < 0).astype(np.int64) @ (
        1 << np.arange(split - i, dtype=np.int64)
    )
    span = 1 << (split - i)
    high_bits = high[:, max(split - n_low, 0) : max(j + 1 - n_low, 0)] < 0
    row = high_bits.astype(np.int64) @ (1 << np.arange(j + 1 - split, dtype=np.int64))
    row_c = np.zeros((1 << (j + 1 - split), len(tables)), dtype=np.float64)
    np.add.at(row_c, (row, np.arange(len(c)) & (len(tables) - 1)), c)
    counts = [np.bincount(low_idx, weights=t, minlength=span) for t in tables]
    out = (row_c @ np.array(counts)).ravel()
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
        i, j = _check_pair(params, i, j, "covariance")
    oracle = params.enumeration
    cov = float(oracle.cov[i, j]) if pair else None
    return oracle.log_z, oracle.means, cov
