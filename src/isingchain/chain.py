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
one such pass per instance, cached on it as ``params.enumeration``. The
sites are cut into three pieces of at most 8 sites each, and every reader sums
the weights against one matrix per piece in one contraction (_contract). What
depends only on the chain length (the cuts, the pieces' spin tables, their
bond products and the pass's matrices) is built once per length and shared,
read-only, by every instance of that length (_layout); only the weights are
computed per instance.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from functools import cached_property
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


class _Layout(NamedTuple):
    """The oracle's tables that depend only on the chain length (_layout).

    ``cuts`` is (0, A, L, N): the three pieces of sites [0, A), [A, L) and
    [L, N), with L = min(_BLOCK_BITS, N) low sites and A = ceil(L / 2).
    ``spins`` holds the spin table of each piece, at most 2^8 rows each: row
    k carries spin -1 at the piece's site x when bit x of k is 1, +1
    otherwise, and configuration a + 2^A b + 2^L h has rows a, b and h.
    ``bonds`` holds each table's products of neighbouring spins. ``columns``
    holds each piece's matrix [1 | its spins | the product of each pair
    x < y of its spins, ordered by y], which _enumerate contracts against.
    ``first`` indexes each site's first moment in that contraction, and
    ``second`` the second moment of each pair ``upper`` of
    np.triu_indices(N, 1).
    """

    cuts: tuple[int, int, int, int]
    spins: tuple[np.ndarray, ...]
    bonds: tuple[np.ndarray, ...]
    columns: tuple[np.ndarray, ...]
    first: tuple[np.ndarray, ...]
    second: tuple[np.ndarray, ...]
    upper: tuple[np.ndarray, np.ndarray]


@functools.lru_cache(maxsize=ENUMERATION_CAP)
def _layout(n_sites: int) -> _Layout:
    """The _Layout of an n_sites chain, built once per length; every array
    is read-only, as every instance of that length shares it."""
    n_low = min(_BLOCK_BITS, n_sites)
    cuts = 0, (n_low + 1) // 2, n_low, n_sites
    # piece a is the widest, and the other pieces' tables are corners of its table
    k = np.arange(1 << cuts[1])
    sa = _read_only(1.0 - 2.0 * ((k[:, None] >> np.arange(cuts[1])) & 1))
    spins = tuple(sa[: 1 << (hi - lo), : hi - lo] for lo, hi in zip(cuts, cuts[1:]))
    bonds = tuple(_read_only(s[:, :-1] * s[:, 1:]) for s in spins)
    # the pairs x < y of the first, widest piece, ordered by y: those of a
    # piece of width w are the first w (w - 1) / 2
    y, x = np.nonzero(np.tri(cuts[1], k=-1, dtype=bool))
    columns = []
    for s in spins:
        n_pairs = s.shape[1] * (s.shape[1] - 1) // 2
        products = s[:, x[:n_pairs]] * s[:, y[:n_pairs]]
        columns.append(_read_only(np.hstack((np.ones((len(s), 1)), s, products))))
    # per site, its piece and its spin column 1 + t in that piece's matrix;
    # the product of a piece's sites t < u is column 1 + w + u (u - 1) / 2 + t
    piece = np.repeat(np.arange(3), np.diff(cuts))
    spin = 1 + np.arange(n_sites) - np.take(cuts, piece)
    i, j = upper = np.triu_indices(n_sites, 1)
    product = np.diff(cuts)[piece[i]] + (spin[j] - 1) * (spin[j] - 2) // 2 + spin[i]
    first, second = [], []
    for q in range(3):
        first.append(np.where(piece == q, spin, 0))
        # a pair within piece q reads its product column, one across reads
        # the spin column of each of its two pieces
        own = np.where(piece[j] == q, product, spin[i])
        second.append(np.where(piece[i] == q, own, np.where(piece[j] == q, spin[j], 0)))
    first, second, upper = (tuple(map(_read_only, a)) for a in (first, second, upper))
    return _Layout(cuts, spins, bonds, tuple(columns), first, second, upper)


def _neg_energy(
    params: ChainParams, lo: int, spins: np.ndarray, bonds: np.ndarray
) -> np.ndarray:
    """-H of each row of the spin table of sites lo, lo + 1, ... on their own
    sub-chain (its own bonds and fields), given the table's bond products."""
    hi = lo + spins.shape[1]
    return bonds @ params.couplings[lo : hi - 1] + spins @ params.fields[lo:hi]


def _factors(params: ChainParams) -> tuple[np.ndarray, np.ndarray, float]:
    """(tables, c, shift): every Gibbs weight as a product of two factors,
    weight = exp(shift) * c[h] * tables[h & 1][b, a], with the rows a, b
    and h of the spin tables of _layout.

    Once the spin on site L (bit 0 of h) is fixed, the low sites [0, L) and
    the high ones are independent, so the low chain's -H in its version for
    that spin (the link coupling J[L-1] sees it) is shifted by its own
    maximum and exponentiated once, into ``tables``; a chain of at most L
    sites has one table and one h. On the grid [b, a] that -H is an outer
    sum, built in one pass: piece a's own -H plus, per row b and per spin on
    site A-1, piece b's own -H and the bonds J[A-1] and J[L-1] that leave it.
    No table of 2^L spin rows is formed. c[h] = exp(top + e_high[h] - shift)
    carries the high chain's -H and the table's shift top, and shift is the
    largest -H, so the largest table entry, c and weight are exactly 1 and
    nothing overflows however large |J| and |h| are. Ratios of sums are
    shift-free; log Z is shift plus the log of the weight sum.
    """
    layout = _layout(params.n_sites)
    _, half, n_low, _ = cuts = layout.cuts
    e_a, e_b, e_high = (
        _neg_energy(params, lo, s, b)
        for lo, s, b in zip(cuts, layout.spins, layout.bonds)
    )
    _, sb, sh = layout.spins
    # rest[p, b, q]: -H of piece b and of the bonds (A-1, A) and (L-1, L) for
    # spin (+1, -1)[q] on site A-1, the top bit of a, and (+1, -1)[p] on site L
    # (a one-site chain has no piece b and no bond A-1)
    cross = params.couplings[half - 1] * sb[:, 0] if n_low > half else 0.0
    rest = np.stack((e_b + cross, e_b - cross), axis=1)[None]
    if len(sh) > 1:
        link = params.couplings[n_low - 1] * sb[:, -1:]
        rest = np.concatenate((rest + link, rest - link))
    tables = (rest[..., None] + e_a.reshape(2, -1)).reshape(len(rest), len(sb), -1)
    top = tables.max(axis=(1, 2))
    tables -= top[:, None, None]
    np.exp(tables, out=tables)
    exponent = top[np.arange(len(sh)) & (len(tables) - 1)] + e_high
    shift = float(exponent.max())
    return tables, np.exp(exponent - shift), shift


def _contract(
    tables: np.ndarray, c: np.ndarray, pa: np.ndarray, pb: np.ndarray, ph: np.ndarray
) -> np.ndarray:
    """The sum over every configuration (a, b, h) of its weight c[h] *
    tables[h & 1][b, a] times pa[a, x] * pb[b, y] * ph[h, z], as [x, y, z].

    A reader of the factors picks one matrix per piece, whose rows are the
    rows of that piece's spin table. Per table, the weights meet pa and pb
    in two matrix products, in whichever order takes fewer multiplications;
    one product over the tables then brings in c and ph.
    """
    n_tables, rows_b, rows_a = tables.shape
    x, y = pa.shape[1], pb.shape[1]
    # per table, the sum of c[h] * ph[h] over the h that read it
    c_high = np.array([c[p::n_tables] @ ph[p::n_tables] for p in range(n_tables)])
    a_first = rows_b * x * (rows_a + y) <= y * rows_a * (rows_b + x)
    grid = pb.T @ (tables @ pa) if a_first else (pb.T @ tables) @ pa
    return (c_high.T @ grid.reshape(n_tables, -1)).reshape(-1, y, x).transpose()


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
    """Every moment off one contraction of the factors (_factors, _contract).

    Each piece's matrix is [1 | its spins | the product of each pair of its
    spins], so entry [x, y, z] of the contraction sums the weights times one
    column of each piece. Z reads the ones column of all three; a site's
    first moment reads its spin column and the others' ones; a pair within
    one piece reads that piece's product column, and a pair across two
    pieces their two spin columns. The second moment of a site with itself
    is Z, as sigma^2 = 1.
    """
    layout = _layout(params.n_sites)
    tables, c, shift = _factors(params)
    sums = _contract(tables, c, *layout.columns)
    z = float(sums[0, 0, 0])
    means = sums[layout.first] / z
    # only the upper triangle is read (cov below mirrors it)
    second = np.diag(np.full(params.n_sites, z))
    second[layout.upper] = sums[layout.second]
    cov = second / z - np.outer(means, means)
    cov = np.triu(cov) + np.triu(cov, 1).T
    return Enumeration(shift + math.log(z), _read_only(means), _read_only(cov))


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
    """<prod_{x in sites} sigma_x> by exact enumeration; empty sites give 1.

    Each piece's matrix is [1 | the product of its selected spins], so the
    contraction's [1, 1, 1] entry over its [0, 0, 0] entry is the mean.
    """
    _require_enumerable(params)
    cols = {_check_site(params, x) for x in sites}
    layout = _layout(params.n_sites)
    tables, c, _ = _factors(params)
    cuts = layout.cuts
    columns = []
    for s, lo, hi in zip(layout.spins, cuts, cuts[1:]):
        product = s[:, [x - lo for x in cols if lo <= x < hi]].prod(axis=1)
        columns.append(np.column_stack((np.ones(len(s)), product)))
    sums = _contract(tables, c, *columns)
    return float(sums[1, 1, 1] / sums[0, 0, 0])


def covariance_enum(params: ChainParams, i: int, j: int) -> float:
    """<sigma_i sigma_j> - <sigma_i><sigma_j> from ``params.enumeration``."""
    _require_enumerable(params)
    i, j = _check_pair(params, i, j, "covariance")
    return float(params.enumeration.cov[i, j])


def window_marginal_enum(params: ChainParams, i: int, j: int) -> np.ndarray:
    """Marginal distribution of (sigma_i, ..., sigma_j) under the full model.

    Entry k is the probability of the window configuration whose site i+b
    carries spin +1 when bit b of k is 0 (same indexing as _factors). Each
    piece's matrix is one-hot in the bits of its window sites, so the
    contraction's [x, y, z] entry is the mass of window configuration
    x + 2^(width in the first piece) y + ..., read off its transpose in order.
    """
    _require_enumerable(params)
    i, j = _check_site(params, i, "i"), _check_site(params, j, "j")
    if i > j:
        raise PreconditionError("window needs i <= j")
    tables, c, _ = _factors(params)
    cuts = _layout(params.n_sites).cuts
    one_hot = []
    for lo, hi in zip(cuts, cuts[1:]):
        width = max(min(j + 1, hi) - max(i, lo), 0)
        bits = (np.arange(1 << (hi - lo)) >> (max(i, lo) - lo)) & ((1 << width) - 1)
        one_hot.append((bits[:, None] == np.arange(1 << width)).astype(np.float64))
    out = _contract(tables, c, *one_hot).transpose().ravel()
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
