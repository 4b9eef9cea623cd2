"""Random-current sampling and the exact parity oracles for the chain.

A current on the ghost-extended chain assigns an arrival count to every
nearest-neighbour edge (rate |J_x|, indexed by the left site) and to every
site-to-ghost edge (rate |h_x|), all independent Poisson. The boundary of a
current is the set of vertices with odd total degree, the ghost included.
Signed parameters keep the same measure; estimators weight each sample by
(-1) to the number of arrivals on negative-parameter edges.

The public sampler draws Poisson counts, one PCG64 stream per edge split off
a root seed. The Monte-Carlo estimators read a current only through each
edge's class: absent, odd, or even and positive (the representatives 0, 1
and 2 realize every class, see `endpoint_event_counterexamples`). They draw
that class from one uniform per edge, all from one PCG64 stream per call,
filled sample by sample, so every estimate is reproducible bit for bit from
(parameters, seed, sample count) and does not depend on the chunk size.
Exact counterparts (parity-vector enumeration, truncated-support signed
sums) serve as oracles for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .chain import ChainParams, _check_site
from .errors import CapacityError, InconclusiveEstimateError, PreconditionError
from .transfer import covariance

# Exact parity enumeration walks 2^n_sites ghost parity vectors.
PARITY_ENUM_CAP = 16

# Samples per chunk. The estimators also cap a chunk at _CHUNK * 32 edge
# draws (a 16 MiB buffer of uniforms), so long chains get shorter chunks.
_CHUNK = 1 << 16

EVEN, ODD, NEITHER = "even", "odd", "neither"


@dataclass(frozen=True)
class Current:
    """Arrival counts: lattice_arrivals[x] on edge (x, x+1), ghost_arrivals[x] on site x."""

    lattice_arrivals: tuple[int, ...]
    ghost_arrivals: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "lattice_arrivals", tuple(int(v) for v in self.lattice_arrivals)
        )
        object.__setattr__(
            self, "ghost_arrivals", tuple(int(v) for v in self.ghost_arrivals)
        )
        if len(self.lattice_arrivals) != len(self.ghost_arrivals) - 1:
            raise PreconditionError(
                "a current needs one ghost edge per site and one lattice edge less"
            )
        if any(v < 0 for v in self.lattice_arrivals + self.ghost_arrivals):
            raise PreconditionError("arrival counts must be nonnegative")


@dataclass(frozen=True)
class BoundarySet:
    """Odd-degree vertices of a current; ghost_in marks the ghost vertex."""

    vertices: frozenset[int]
    ghost_in: bool

    def __post_init__(self) -> None:
        if (len(self.vertices) + int(self.ghost_in)) % 2 != 0:
            raise PreconditionError(
                "odd-degree vertices must be even in number, ghost included"
            )


@dataclass(frozen=True)
class ParityPattern:
    """Per-edge parity labels (EVEN or ODD) induced on the lattice edges."""

    edge_parities: tuple[str, ...]

    def __post_init__(self) -> None:
        if any(p not in (EVEN, ODD) for p in self.edge_parities):
            raise PreconditionError("edge parities must be 'even' or 'odd'")


@dataclass(frozen=True)
class McEstimate:
    """A Monte-Carlo ratio estimate with its propagated standard error."""

    mean: float
    std_error: float
    samples: int

    def to_dict(self) -> dict[str, float | int]:
        return {"mean": self.mean, "std_error": self.std_error, "samples": self.samples}


def poisson_parity(rate: float) -> tuple[float, float, float]:
    """(P(X = 0), P(X even), P(X odd)) for X ~ Poisson(rate).

    Evaluated as exp(-rate), (1 + exp(-2 rate))/2 and (1 - exp(-2 rate))/2,
    which equal exp(-rate)*cosh(rate) and exp(-rate)*sinh(rate) without
    overflow at any rate.
    """
    rate = float(rate)
    if not (math.isfinite(rate) and rate >= 0.0):
        raise PreconditionError("Poisson rate must be finite and nonnegative")
    p_zero = math.exp(-rate)
    p_even = 0.5 * (1.0 + math.exp(-2.0 * rate))
    p_odd = 0.5 * (-math.expm1(-2.0 * rate))
    return p_zero, p_even, p_odd


def poisson_tail_cap(rate: float, eps: float = 1e-12) -> int:
    """Smallest K with P(X > K) < eps for X ~ Poisson(rate)."""
    rate = float(rate)
    if not (math.isfinite(rate) and rate >= 0.0):
        raise PreconditionError("Poisson rate must be finite and nonnegative")
    if rate == 0.0:
        return 0
    k = 0
    p = math.exp(-rate)
    while True:
        p_next = p * rate / (k + 1)
        # geometric envelope: P(X > k) <= pmf(k+1) / (1 - rate/(k+2))
        if k + 2 > rate and p_next / (1.0 - rate / (k + 2)) < eps:
            return k
        k += 1
        p = p_next
        if k > 10_000_000:
            raise CapacityError("Poisson tail cap did not converge")


def _edge_rates(params: ChainParams) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.abs(np.asarray(params.couplings, dtype=np.float64)),
        np.abs(np.asarray(params.fields, dtype=np.float64)),
    )


def _current_chunks(
    params: ChainParams, seed: int, samples: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield chunks of sampled currents as (lattice, ghost) arrival matrices.

    One generator per edge is split off the root seed, and each chunk draws a
    column per edge, so the stream is a pure function of the seed.
    """
    if samples < 1:
        raise PreconditionError("need at least one sample")
    lat_rates, gho_rates = _edge_rates(params)
    seqs = np.random.SeedSequence(seed).spawn(params.n_edges + params.n_sites)
    gens = [np.random.Generator(np.random.PCG64(s)) for s in seqs]
    lat_gens = gens[: params.n_edges]
    gho_gens = gens[params.n_edges :]
    done = 0
    while done < samples:
        k = min(_CHUNK, samples - done)
        lat = np.empty((k, params.n_edges), dtype=np.int64)
        for e, gen in enumerate(lat_gens):
            lat[:, e] = gen.poisson(lat_rates[e], size=k)
        gho = np.empty((k, params.n_sites), dtype=np.int64)
        for x, gen in enumerate(gho_gens):
            gho[:, x] = gen.poisson(gho_rates[x], size=k)
        done += k
        yield lat, gho


def _class_chunks(
    params: ChainParams, seed: int, samples: int, copies: int
) -> Iterator[np.ndarray]:
    """Yield chunks of independent edge classes, shape (width, copies, k).

    width = n_edges + n_sites, lattice edges first. Each entry is 0 (no
    arrival), 1 (odd count) or 2 (even positive count), drawn from one
    uniform u as (u >= P(0)) + (u >= P(0) + P(odd)). The uniforms come from
    one generator, filled in C order as a (k, copies, width) block into one
    buffer, so sample s always reads the same uniforms whatever the chunk
    size. The classes are handed out edge axis first, so the estimators'
    per-site sums and tests run over long contiguous rows.
    """
    if samples < 1:
        raise PreconditionError("need at least one sample")
    lat_rates, gho_rates = _edge_rates(params)
    laws = [poisson_parity(r) for r in np.concatenate([lat_rates, gho_rates])]
    p_zero = np.array([law[0] for law in laws])
    p_zero_or_odd = p_zero + np.array([law[2] for law in laws])
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    rows = max(1, min(_CHUNK, _CHUNK * 32 // (copies * len(laws)), samples))
    uniforms = np.empty((rows, copies, len(laws)))
    classes = np.empty(uniforms.shape, dtype=np.int8)
    done = 0
    while done < samples:
        k = min(rows, samples - done)
        u = gen.random(out=uniforms[:k])
        np.greater_equal(u, p_zero, out=classes[:k])
        classes[:k] += u >= p_zero_or_odd
        done += k
        yield np.ascontiguousarray(classes[:k].transpose(2, 1, 0))


def sample_current_batch(
    params: ChainParams, seed: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sample `count` currents; returns (lattice, ghost) arrival matrices."""
    lats = []
    ghos = []
    for lat, gho in _current_chunks(params, seed, count):
        lats.append(lat)
        ghos.append(gho)
    return np.concatenate(lats), np.concatenate(ghos)


def sample_current(params: ChainParams, seed: int) -> Current:
    """Draw one current from the product Poisson measure."""
    lat, gho = sample_current_batch(params, seed, 1)
    return Current(tuple(lat[0].tolist()), tuple(gho[0].tolist()))


def boundary(current: Current) -> BoundarySet:
    """Vertices with odd total degree; ghost_in when the ghost degree is odd."""
    lat = current.lattice_arrivals
    gho = current.ghost_arrivals
    n = len(gho)
    vertices = []
    for x in range(n):
        deg = gho[x]
        if x > 0:
            deg += lat[x - 1]
        if x < n - 1:
            deg += lat[x]
        if deg % 2 == 1:
            vertices.append(x)
    return BoundarySet(frozenset(vertices), ghost_in=sum(gho) % 2 == 1)


def negative_arrivals(params: ChainParams, current: Current) -> int:
    """Total arrivals on edges whose parameter is negative."""
    if len(current.ghost_arrivals) != params.n_sites:
        raise PreconditionError("current and instance sizes differ")
    total = 0
    for jx, ax in zip(params.couplings, current.lattice_arrivals):
        if jx < 0.0:
            total += ax
    for hx, ax in zip(params.fields, current.ghost_arrivals):
        if hx < 0.0:
            total += ax
    return total


def ghost_split(ghost_arrivals: Sequence[int], x: int) -> str:
    """Classify edge x by the parities of the ghost mass on its two sides.

    Returns EVEN when both the prefix sum (sites <= x) and the suffix sum
    (sites > x) are even, ODD when both are odd, NEITHER otherwise. NEITHER
    happens exactly when the total ghost mass is odd, since the two sides sum
    to the total.
    """
    gho = [int(v) for v in ghost_arrivals]
    if not 0 <= x < len(gho) - 1:
        raise PreconditionError(f"edge {x} out of range for {len(gho)} sites")
    prefix = sum(gho[: x + 1]) % 2
    suffix = sum(gho[x + 1 :]) % 2
    if prefix == 0 and suffix == 0:
        return EVEN
    if prefix == 1 and suffix == 1:
        return ODD
    return NEITHER


def split_pattern(ghost_arrivals: Sequence[int]) -> ParityPattern | None:
    """Per-edge split labels, or None when the total ghost mass is odd."""
    gho = [int(v) for v in ghost_arrivals]
    if sum(gho) % 2 == 1:
        return None
    return ParityPattern(
        tuple(ghost_split(gho, x) for x in range(len(gho) - 1))
    )


def _boundary_parity(lat: np.ndarray, gho: np.ndarray) -> np.ndarray:
    """Per-site degree parity for stacked currents (edge axis first)."""
    degree = gho.copy()
    degree[:-1] += lat
    degree[1:] += lat
    degree &= 1
    return degree


def _boundary_is(parity: np.ndarray, sites: Sequence[int]) -> np.ndarray:
    """True where the boundary given by `parity` (site axis first) is `sites`."""
    off = parity.copy()
    off[list(sites)] ^= 1
    return ~off.any(axis=0)


def _ghost_disconnected(
    lat_open: np.ndarray, gho_open: np.ndarray, site: int
) -> np.ndarray:
    """True where `site` cannot reach the ghost through open edges.

    The component of a site is the maximal interval of open lattice edges
    around it; it reaches the ghost iff any site in that interval has an open
    ghost edge.
    """
    n_edges = lat_open.shape[-1]
    shape = lat_open.shape[:-1]
    if site > 0:
        left = np.cumprod(lat_open[..., site - 1 :: -1].astype(np.int64), axis=-1).sum(
            axis=-1
        )
    else:
        left = np.zeros(shape, dtype=np.int64)
    if site < n_edges:
        right = np.cumprod(lat_open[..., site:].astype(np.int64), axis=-1).sum(axis=-1)
    else:
        right = np.zeros(shape, dtype=np.int64)
    lo = site - left
    hi = site + right
    n_sites = gho_open.shape[-1]
    csum = np.zeros(gho_open.shape[:-1] + (n_sites + 1,), dtype=np.int64)
    np.cumsum(gho_open.astype(np.int64), axis=-1, out=csum[..., 1:])
    top = np.take_along_axis(csum, (hi + 1)[..., None], axis=-1)[..., 0]
    bot = np.take_along_axis(csum, lo[..., None], axis=-1)[..., 0]
    return (top - bot) == 0


def _negative_mask(params: ChainParams) -> np.ndarray:
    """True on edges with a negative parameter, lattice edges first."""
    return np.asarray(params.couplings + params.fields, dtype=np.float64) < 0.0


def _signs(currents: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """(-1) to the arrivals on negative edges (edge axis first)."""
    return 1.0 - 2.0 * (currents[negative].sum(axis=0) & 1)


def _moment_terms(
    classes: np.ndarray, n_edges: int, sites: Sequence[int], negative: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample terms (y, x) of `mc_moment` from edge classes (edge axis first).

    y is the signed indicator that the boundary equals `sites`, x the signed
    indicator that it is empty.
    """
    parity = _boundary_parity(classes[:n_edges], classes[n_edges:])
    sign = _signs(classes, negative)
    return sign * _boundary_is(parity, sites), sign * ~parity.any(axis=0)


def _paired_terms(
    classes: np.ndarray, n_edges: int, i: int, j: int, negative: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample terms (w, d) of `mc_switching_covariance` from edge classes.

    `classes` has shape (n_edges + n_sites, 2, ...): the two currents of a
    pair, edge axis first. The paired-current event at (i, j) holds where
    current 1 has empty boundary, current 2 has boundary {i, j}, and i
    cannot reach the ghost in the summed current; w is that event times both
    signs. d is the mean of the two currents' signed empty-boundary
    indicators.
    """
    parity = _boundary_parity(classes[:n_edges], classes[n_edges:])
    sign = _signs(classes, negative)
    empty = ~parity.any(axis=0)
    event = empty[0] & _boundary_is(parity[:, 1], (i, j))
    # The connectivity test runs only where both boundaries already match.
    hits = np.nonzero(event)
    open_edges = classes[(slice(None), slice(None)) + hits].any(axis=1)
    event[hits] = _ghost_disconnected(
        open_edges[:n_edges].T, open_edges[n_edges:].T, i
    )
    return sign.prod(axis=0) * event, 0.5 * (sign * empty).sum(axis=0)


def _sample_stats(
    terms: Iterable[tuple[np.ndarray, np.ndarray]],
) -> tuple[int, float, float, float, float, float]:
    """(n, a_bar, b_bar, var_a, var_b, cov_ab) of numerator and denominator
    terms summed chunk by chunk.

    Raises InconclusiveEstimateError when the denominator mean b_bar is not
    separated from zero by 4 standard errors.
    """
    n = 0
    s_a = s_b = s_aa = s_bb = s_ab = 0.0
    for a, b in terms:
        n += a.shape[0]
        s_a += float(a.sum())
        s_b += float(b.sum())
        s_aa += float((a * a).sum())
        s_bb += float((b * b).sum())
        s_ab += float((a * b).sum())
    a_bar = s_a / n
    b_bar = s_b / n
    if n > 1:
        var_a = max(s_aa - n * a_bar * a_bar, 0.0) / (n - 1)
        var_b = max(s_bb - n * b_bar * b_bar, 0.0) / (n - 1)
        cov_ab = (s_ab - n * a_bar * b_bar) / (n - 1)
    else:
        var_a = var_b = cov_ab = 0.0
    if abs(b_bar) <= 4.0 * math.sqrt(var_b / n):
        raise InconclusiveEstimateError(
            "denominator not separated from zero by 4 standard errors"
        )
    return n, a_bar, b_bar, var_a, var_b, cov_ab


def mc_moment(
    params: ChainParams, sites: Sequence[int], samples: int, seed: int
) -> McEstimate:
    """Estimate <prod_{x in sites} sigma_x> from sampled currents.

    Numerator and denominator indicators (boundary equals the site set /
    boundary empty, both sign-weighted) share one sample stream; the standard
    error propagates through the ratio. Raises InconclusiveEstimateError when
    the denominator is not separated from zero by 4 standard errors.
    """
    cols = sorted({_check_site(params, x) for x in sites})
    negative = _negative_mask(params)
    n, y_bar, x_bar, var_y, var_x, cov_yx = _sample_stats(
        _moment_terms(chunk[:, 0], params.n_edges, cols, negative)
        for chunk in _class_chunks(params, seed, samples, copies=1)
    )
    ratio = y_bar / x_bar
    var_ratio = (var_y - 2.0 * ratio * cov_yx + ratio * ratio * var_x) / (
        n * x_bar * x_bar
    )
    return McEstimate(mean=ratio, std_error=math.sqrt(max(var_ratio, 0.0)), samples=n)


def mc_switching_covariance(
    params: ChainParams, i: int, j: int, samples: int, seed: int
) -> McEstimate:
    """Estimate cov(sigma_i, sigma_j) from paired currents.

    The numerator is the sign-weighted paired-current event of pair (i, j);
    the denominator is the squared sign-weighted empty-boundary mean, both
    halves of each pair contributing. For ferromagnetic nonnegative-field
    instances all signs are +1 and the estimate is a ratio of probabilities.
    """
    i = _check_site(params, i, "i")
    j = _check_site(params, j, "j")
    if i == j:
        raise PreconditionError("covariance needs two distinct sites")
    if i > j:
        i, j = j, i
    negative = _negative_mask(params)
    n, w_bar, d_bar, var_w, var_d, cov_wd = _sample_stats(
        _paired_terms(chunk, params.n_edges, i, j, negative)
        for chunk in _class_chunks(params, seed, samples, copies=2)
    )
    ratio = w_bar / (d_bar * d_bar)
    var_ratio = (
        var_w / d_bar**4
        + 4.0 * w_bar * w_bar * var_d / d_bar**6
        - 4.0 * w_bar * cov_wd / d_bar**5
    ) / n
    return McEstimate(mean=ratio, std_error=math.sqrt(max(var_ratio, 0.0)), samples=n)


def _require_parity_enumerable(params: ChainParams) -> None:
    if params.n_sites > PARITY_ENUM_CAP:
        raise CapacityError(
            f"parity enumeration over {params.n_sites} sites exceeds the cap of "
            f"{PARITY_ENUM_CAP}"
        )


def boundary_match_probability(params: ChainParams) -> float:
    """P(boundary of the lattice part == boundary of the ghost part), exact.

    Enumerates all 2^n_sites ghost parity vectors; vectors of odd total never
    match. For an even vector the lattice parity on edge x is forced to the
    prefix parity up to site x, and edges are independent, so each vector
    contributes a product of per-edge parity probabilities.
    """
    _require_parity_enumerable(params)
    lat_rates, gho_rates = _edge_rates(params)
    n = params.n_sites
    vec = np.arange(1 << n, dtype=np.int64)
    bits = ((vec[:, None] >> np.arange(n)) & 1).astype(np.float64)
    even_total = bits.sum(axis=1) % 2 == 0
    pe_h = np.array([poisson_parity(r)[1] for r in gho_rates])
    po_h = np.array([poisson_parity(r)[2] for r in gho_rates])
    ghost_prob = np.where(bits == 1, po_h, pe_h).prod(axis=1)
    prefix = np.cumsum(bits, axis=1)[:, : n - 1] % 2
    pe_j = np.array([poisson_parity(r)[1] for r in lat_rates])
    po_j = np.array([poisson_parity(r)[2] for r in lat_rates])
    lat_prob = np.where(prefix == 1, po_j, pe_j).prod(axis=1)
    return float((ghost_prob * lat_prob)[even_total].sum())


def cov_identity_check(params: ChainParams) -> tuple[float, float]:
    """Both sides of the endpoint covariance identity; they agree exactly.

    lhs is the solver covariance of the end pair; rhs rebuilds it from parity
    probabilities: prod tanh(J) times the squared ratio of P(all lattice
    edges even) * P(no ghost arrivals) to the boundary match probability.
    """
    _require_parity_enumerable(params)
    if params.n_sites < 2:
        raise PreconditionError("the identity needs at least two sites")
    if not (params.is_ferromagnetic() and params.has_nonneg_fields()):
        raise PreconditionError("the identity needs J >= 0 and h >= 0")
    lhs = covariance(params, 0, params.n_sites - 1)
    tanh_prod = math.prod(math.tanh(j) for j in params.couplings)
    pe_lat = math.prod(poisson_parity(j)[1] for j in params.couplings)
    p_ghost_zero = math.exp(-math.fsum(params.fields))
    match = boundary_match_probability(params)
    rhs = tanh_prod * (pe_lat * p_ghost_zero / match) ** 2
    return lhs, rhs


def conditional_bound_check(params: ChainParams) -> tuple[float, float]:
    """(conditional match ratio, its certified lower bound).

    The ratio is P(lattice boundary == ghost boundary | total ghost mass even)
    over P(every lattice edge even); the lower bound is the product over edges
    of (1 + tanh J)/2.
    """
    _require_parity_enumerable(params)
    if not (params.is_ferromagnetic() and params.has_nonneg_fields()):
        raise PreconditionError("the conditional bound needs J >= 0 and h >= 0")
    match = boundary_match_probability(params)
    p_even_total = poisson_parity(math.fsum(abs(v) for v in params.fields))[1]
    pe_lat = math.prod(poisson_parity(j)[1] for j in params.couplings)
    ratio = match / p_even_total / pe_lat
    lower = math.prod(0.5 * (1.0 + math.tanh(j)) for j in params.couplings)
    return ratio, lower


def _mixed_radix_rows(radix: int, width: int) -> np.ndarray:
    total = radix**width
    if total > 1 << 23:
        raise CapacityError(f"{total} rows exceed the exhaustive-check budget")
    idx = np.arange(total, dtype=np.int64)
    powers = radix ** np.arange(width, dtype=np.int64)
    return (idx[:, None] // powers) % radix


def boundary_split_counterexamples(n_sites: int, max_entry: int = 3) -> int:
    """Exhaustively test: lattice boundary == ghost boundary iff every edge
    splits the ghost mass into two sides whose parities both match the edge's
    own arrival parity. Runs over ALL currents with entries <= max_entry;
    returns the number of disagreeing currents.
    """
    if n_sites < 2:
        raise PreconditionError("need at least one lattice edge")
    n_edges = n_sites - 1
    digits = _mixed_radix_rows(max_entry + 1, n_edges + n_sites)
    lat = digits[:, :n_edges]
    gho = digits[:, n_edges:]
    pad = np.pad(lat, ((0, 0), (1, 1)))
    lat_boundary = (pad[:, :-1] + pad[:, 1:]) & 1
    gho_parity = gho & 1
    total_even = gho.sum(axis=1) % 2 == 0
    lhs = (lat_boundary == gho_parity).all(axis=1) & total_even
    prefix = np.cumsum(gho, axis=1)[:, :n_edges] & 1
    suffix = (gho.sum(axis=1)[:, None] - np.cumsum(gho, axis=1)[:, :n_edges]) & 1
    lat_par = lat & 1
    rhs = ((lat_par == prefix) & (lat_par == suffix)).all(axis=1)
    return int((lhs != rhs).sum())


def endpoint_event_counterexamples(n_sites: int, max_entry: int = 3) -> int:
    """Exhaustively test the characterization of the endpoint pair event.

    Claim: for currents n1 with empty boundary and n2 with boundary {0, N},
    the event "0 cannot reach the ghost in n1 + n2" holds iff n1 is even on
    every lattice edge, n2 is odd on every lattice edge, and both ghost parts
    vanish. Both sides depend on a current only through per-edge (parity,
    support), and entries <= max_entry realize exactly the three classes
    (even, absent), (even, present), (odd, present); representatives 0, 2, 1
    therefore cover every current with entries <= max_entry. They are also
    the class codes the Monte-Carlo estimators draw, and pairs are fed
    through the estimator's own event code.
    Returns the number of disagreeing pairs.
    """
    if n_sites < 2:
        raise PreconditionError("need at least one lattice edge")
    if max_entry < 2:
        raise PreconditionError("entries <= 1 cannot realize an even positive count")
    n_edges = n_sites - 1
    width = n_edges + n_sites
    reps = np.array([0, 2, 1], dtype=np.int8)
    values = reps[_mixed_radix_rows(3, width)]
    lat = values[:, :n_edges]
    gho = values[:, n_edges:]
    parity = _boundary_parity(lat.T, gho.T)
    empty_boundary = ~parity.any(axis=0)
    pair_boundary = _boundary_is(parity, (0, n_sites - 1))
    all_even = (lat & 1 == 0).all(axis=1) & (gho == 0).all(axis=1)
    all_odd = (lat & 1 == 1).all(axis=1) & (gho == 0).all(axis=1)
    bad = int((all_even & ~empty_boundary).sum())
    bad += int((all_odd & ~pair_boundary).sum())
    first, rhs1 = values[empty_boundary].T, all_even[empty_boundary]
    second, rhs2 = values[pair_boundary].T, all_odd[pair_boundary]
    no_signs = np.zeros(width, dtype=bool)
    block = max(1, (1 << 20) // max(1, second.shape[1]))
    for start in range(0, first.shape[1], block):
        sl = slice(start, start + block)
        pairs = np.empty((width, 2, first[:, sl].shape[1], second.shape[1]), np.int8)
        pairs[:, 0] = first[:, sl, None]
        pairs[:, 1] = second[:, None, :]
        event, _ = _paired_terms(pairs, n_edges, 0, n_sites - 1, no_signs)
        rhs = rhs1[sl][:, None] & rhs2[None, :]
        bad += int(((event != 0.0) != rhs).sum())
    return bad


def signed_moment_sum(
    params: ChainParams, sites: Sequence[int], tail_eps: float = 1e-12
) -> float:
    """Truncated exact value of the sign-weighted current sum for zero field.

    Sums P(n) * (-1)^(arrivals on negative edges) over all lattice currents
    with the boundary equal to `sites`, each edge truncated at its Poisson
    tail cap. Equals Z / (2^n_sites * exp(sum |J|)) times the moment
    <prod_{x in sites} sigma_x>.
    """
    if any(v != 0.0 for v in params.fields):
        raise PreconditionError("the truncated exact sum is implemented for zero field")
    cols = sorted({_check_site(params, x) for x in sites})
    caps = [poisson_tail_cap(abs(j), tail_eps) for j in params.couplings]
    widths = [c + 1 for c in caps]
    total = math.prod(widths)
    if total > 1 << 22:
        raise CapacityError(f"{total} truncated currents exceed the budget")
    idx = np.arange(total, dtype=np.int64)
    lat = np.empty((total, params.n_edges), dtype=np.int64)
    stride = 1
    for e, width in enumerate(widths):
        lat[:, e] = (idx // stride) % width
        stride *= width
    log_pmf = np.zeros(total, dtype=np.float64)
    for e, jx in enumerate(params.couplings):
        lam = abs(jx)
        k = lat[:, e]
        if lam == 0.0:
            continue
        log_pmf += -lam + k * math.log(lam) - np.array(
            [math.lgamma(v + 1.0) for v in range(widths[e])]
        )[k]
    prob = np.exp(log_pmf)
    jneg = np.asarray(params.couplings) < 0.0
    sign = 1.0 - 2.0 * (lat[:, jneg].sum(axis=1) & 1)
    pad = np.pad(lat, ((0, 0), (1, 1)))
    parity = (pad[:, :-1] + pad[:, 1:]) & 1
    target = np.zeros(params.n_sites, dtype=np.int64)
    target[cols] = 1
    keep = (parity == target).all(axis=1)
    return float((prob * sign * keep).sum())
