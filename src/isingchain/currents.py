"""Random-current sampling and the exact parity oracles for the chain.

A current on the ghost-extended chain assigns an arrival count to every
nearest-neighbour edge (rate |J_x|, indexed by the left site) and to every
site-to-ghost edge (rate |h_x|), all independent Poisson. The boundary of a
current is the set of vertices with odd total degree, the ghost included.
Signed parameters keep the same measure; the estimator weights each sample by
(-1) to the number of arrivals on negative-parameter edges.

The public sampler draws Poisson counts, one PCG64 stream per edge split off
a root seed. The Monte-Carlo covariance estimator reads a current only
through each edge's class (absent, odd, or even and positive), drawn from
one uniform u per edge from one PCG64 stream per call, filled sample by
sample, and kept as two boolean planes: `opened` (u >= P(0)) and `odd`
(P(0) <= u < P(0) + P(odd)). A call cuts its samples into W contiguous
ranges, one per worker thread, W the smaller of the usable CPUs and the
number of chunks; each range draws its own slice of the one stream, a PCG64
jumped ahead (`advance`) to the range's first draw, in chunks 1/W as long as
one worker's. Every per-sample term is an integer or a half-integer, so
every sum over samples is exact (a count, or half of one) however it is
grouped, by chunk or by range, and an estimate is a bit-for-bit function of
(parameters, seed, sample count), whatever the CPU count.

The exact oracles cost O(N). The lattice boundary equals the ghost boundary
iff the total ghost mass is even and every lattice edge x carries the parity
of the ghost arrivals on sites 0..x, so the match probability is a 2-state
transfer over that prefix parity: the weights of an even and of an odd
prefix, renormalized at every site (the even one is never the smaller) with
the log scales summed by math.fsum. At zero field the boundary alone forces
every edge's parity, to that of the number of listed sites on its left, so
the signed moment sum is a product of per-edge parity probabilities.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .chain import ChainParams, _check_integer, _check_pair, _check_site
from .errors import CapacityError, InconclusiveEstimateError, PreconditionError
from .instances import SEED_LIMIT
from .transfer import covariance

# Samples per estimator chunk of a one-worker draw. A chunk holds one float64
# uniform and up to four plane bytes per edge draw (about 2 MiB for 6-site
# pairs), and at most _CHUNK_DRAWS edge draws (16 MiB of uniforms), which long
# chains reach. W workers each draw chunks of 1/W as many samples, so together
# they hold the memory one worker holds. Every sum is an exact count or half
# of one, so neither cap nor W can move an estimate.
_CHUNK = 1 << 13
_CHUNK_DRAWS = 1 << 21


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


def _chunk_rows(draws: int, samples: int) -> int:
    """Samples per chunk of a one-worker draw of `draws` uniforms per sample."""
    return max(1, min(_CHUNK, _CHUNK_DRAWS // draws, samples))


def _plane_chunks(
    params: ChainParams,
    seed: int,
    samples: int,
    workers: int = 1,
    worker: int = 0,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the planes (opened, odd) of each chunk of k independent samples
    of range `worker` of the `workers` contiguous ranges that cut
    [0, samples) in order; a sample is a pair of currents.

    width = n_edges + n_sites, lattice edges first. The uniforms are the
    call's one stream, PCG64(SeedSequence(seed)) advanced to the range's
    first draw, filled in C order as (k, 2, width) blocks, so sample s
    reads the same uniforms whatever the chunk size or the range count. Each
    sample's row is compared against the pair's 2 * width thresholds into
    `opened`, shape (k, 2, width), a buffer the next chunk overwrites; `odd`
    is copied once edge axis first, shape (width, 2, k), so parity, boundary
    and sign tests run along rows.
    """
    rates = np.abs(np.concatenate((params.couplings, params.fields)))
    laws = [poisson_parity(r) for r in rates]
    p_zero = np.array([[law[0] for law in laws]] * 2)
    p_zero_or_odd = p_zero + np.array([[law[2] for law in laws]] * 2)
    start, stop = (samples * w // workers for w in (worker, worker + 1))
    bitgen = np.random.PCG64(np.random.SeedSequence(seed))
    gen = np.random.Generator(bitgen.advance(start * p_zero.size))
    rows = max(1, _chunk_rows(p_zero.size, samples) // workers)
    uniforms = np.empty((rows,) + p_zero.shape)
    opened = np.empty(uniforms.shape, dtype=bool)
    odd = np.empty(uniforms.shape, dtype=bool)
    for done in range(start, stop, rows):
        k = min(rows, stop - done)
        u = gen.random(out=uniforms[:k])
        np.greater_equal(u, p_zero, out=opened[:k])
        np.less(u, p_zero_or_odd, out=odd[:k])
        odd[:k] &= opened[:k]
        yield opened[:k], np.ascontiguousarray(odd[:k].transpose(2, 1, 0))


def sample_current_batch(
    params: ChainParams, seed: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sample `count` currents; returns (lattice, ghost) arrival matrices.

    One PCG64 generator per edge is split off the root seed and draws all of
    that edge's counts, so the draws are a pure function of the seed and the
    first m rows do not depend on `count`. The matrices are transposed views
    of one edge-major buffer.
    """
    count = _check_integer(count, "count", 1)
    seed = _check_integer(seed, "seed", 0, SEED_LIMIT)
    rates = np.abs(np.concatenate((params.couplings, params.fields)))
    seqs = np.random.SeedSequence(seed).spawn(len(rates))
    arrivals = np.empty((len(rates), count), dtype=np.int64)
    for e, (rate, seq) in enumerate(zip(rates, seqs)):
        arrivals[e] = np.random.Generator(np.random.PCG64(seq)).poisson(rate, count)
    return arrivals[: params.n_edges].T, arrivals[params.n_edges :].T


def _boundary_parity(lat_odd: np.ndarray, gho_odd: np.ndarray) -> np.ndarray:
    """Per-site degree parity from edge parities (edge axis first)."""
    parity = gho_odd.copy()
    parity[:-1] ^= lat_odd
    parity[1:] ^= lat_odd
    return parity


def _boundary_is(parity: np.ndarray, sites: Sequence[int]) -> np.ndarray:
    """True where the boundary given by `parity` (site axis first) is `sites`."""
    off = parity.copy()
    off[list(sites)] ^= True
    return ~off.any(axis=0)


def _ghost_disconnected(
    lat_open: np.ndarray, gho_open: np.ndarray, site: int
) -> np.ndarray:
    """True where `site` cannot reach the ghost through open edges.

    Each site is labelled by the number of closed lattice edges to its left,
    so two sites share a label iff they are in the same component; `site`
    reaches the ghost iff an open ghost edge carries its label.
    """
    labels = np.zeros(gho_open.shape, dtype=np.int64)
    np.cumsum(~lat_open, axis=-1, out=labels[..., 1:])
    same = labels == labels[..., site, None]
    return ~(same & gho_open).any(axis=-1)


def _negative_mask(params: ChainParams) -> np.ndarray:
    """True on edges with a negative parameter, lattice edges first."""
    return np.concatenate((params.couplings, params.fields)) < 0.0


def _signs(odd: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """(-1) to the arrivals on negative edges, as int8, from the `odd` planes."""
    return 1 - 2 * np.bitwise_xor.reduce(odd[negative], axis=0).view(np.int8)


def _paired_terms(
    opened: np.ndarray,
    odd: np.ndarray,
    n_edges: int,
    i: int,
    j: int,
    negative: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample terms (w, d) of `mc_switching_covariance` from the planes.

    `odd` has shape (width, 2, *samples) and `opened` (*samples, 2, width):
    the two currents of a pair. The paired-current event at (i, j) holds where
    current 1 has empty boundary, current 2 has boundary {i, j}, and i
    cannot reach the ghost in the summed current; w is that event times both
    signs, d the mean of the two currents' signed empty-boundary indicators.
    """
    parity = _boundary_parity(odd[:n_edges], odd[n_edges:])
    sign = _signs(odd, negative)
    empty = ~parity.any(axis=0)
    event = empty[0] & _boundary_is(parity[:, 1], (i, j))
    # The connectivity test runs only where both boundaries already match.
    hits = np.nonzero(event)
    lat_open, gho_open = np.split(opened[hits].any(axis=1), [n_edges], axis=-1)
    event[hits] = _ghost_disconnected(lat_open, gho_open, i)
    w = sign[0] * sign[1] * event.view(np.int8)
    signed_empty = sign * empty.view(np.int8)
    return w.astype(float), 0.5 * (signed_empty[0] + signed_empty[1])


def _sample_stats(
    params: ChainParams, i: int, j: int, seed: int, samples: int
) -> tuple[int, float, float, float, float, float]:
    """(n, a_bar, b_bar, var_a, var_b, cov_ab) of the numerator and denominator
    terms `_paired_terms` of pair (i, j) over each chunk of `samples` samples,
    each sample the pair's two currents.

    W worker threads each sum one range of _plane_chunks, W the smaller of
    the usable CPUs and the chunks of a one-worker draw; the calling thread
    is worker 0 and starts no thread when W is 1. The ranges tile the
    samples, so n is `samples`. Each range's five term sums are exact, so
    adding them in range order gives the floats of one worker. An error in
    any worker, or an interrupt of the calling thread, stops every worker at
    its next chunk; every thread is joined, then the first error is raised.

    Raises InconclusiveEstimateError when the denominator mean b_bar is not
    separated from zero by 4 standard errors.
    """
    n = _check_integer(samples, "samples", 1)
    seed = _check_integer(seed, "seed", 0, SEED_LIMIT)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    negative = _negative_mask(params)
    draws = 2 * (params.n_edges + params.n_sites)
    workers = min(cpus, -(-n // _chunk_rows(draws, n)))
    sums = [np.zeros(5) for _ in range(workers)]
    errors: list[BaseException] = []
    failed = threading.Event()

    def work(worker: int) -> None:
        try:
            for planes in _plane_chunks(params, seed, n, workers, worker):
                if failed.is_set():
                    return
                a, b = _paired_terms(*planes, params.n_edges, i, j, negative)
                sums[worker] += (a.sum(), b.sum(), a @ a, b @ b, a @ b)
        except BaseException as exc:  # raised again by the calling thread
            errors.append(exc)
            failed.set()

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    try:
        for thread in threads:
            thread.start()
        work(0)
        for thread in threads:
            thread.join()
    except BaseException:
        failed.set()
        for thread in threads:
            if thread.is_alive():
                thread.join()
        raise
    if errors:
        raise errors[0]
    s_a, s_b, s_aa, s_bb, s_ab = sum(sums).tolist()
    a_bar = s_a / n
    b_bar = s_b / n
    # With one sample each difference below is exactly 0.0: no spread.
    var_a = max(s_aa - n * a_bar * a_bar, 0.0) / max(n - 1, 1)
    var_b = max(s_bb - n * b_bar * b_bar, 0.0) / max(n - 1, 1)
    cov_ab = (s_ab - n * a_bar * b_bar) / max(n - 1, 1)
    if abs(b_bar) <= 4.0 * math.sqrt(var_b / n):
        raise InconclusiveEstimateError(
            "denominator not separated from zero by 4 standard errors"
        )
    return n, a_bar, b_bar, var_a, var_b, cov_ab


def mc_switching_covariance(
    params: ChainParams, i: int, j: int, samples: int, seed: int
) -> McEstimate:
    """Estimate cov(sigma_i, sigma_j) from paired currents.

    The numerator is the sign-weighted paired-current event of pair (i, j);
    the denominator is the squared sign-weighted empty-boundary mean, both
    halves of each pair contributing. For ferromagnetic nonnegative-field
    instances all signs are +1 and the estimate is a ratio of probabilities.
    """
    i, j = _check_pair(params, i, j, "covariance")
    n, w_bar, d_bar, var_w, var_d, cov_wd = _sample_stats(params, i, j, seed, samples)
    ratio = w_bar / (d_bar * d_bar)
    var_ratio = (
        var_w / d_bar**4
        + 4.0 * w_bar * w_bar * var_d / d_bar**6
        - 4.0 * w_bar * cov_wd / d_bar**5
    ) / n
    return McEstimate(mean=ratio, std_error=math.sqrt(max(var_ratio, 0.0)), samples=n)


def _log_match_probability(params: ChainParams) -> float:
    """log P(lattice boundary == ghost boundary), by the parity transfer.

    After site x the state is the parity of the ghost arrivals on sites
    0..x, edge x is forced to carry it, and the match needs it even at the
    last site. The pair of weights is renormalized so that the even one is
    1; `odd` keeps their ratio, which stays in [0, 1].
    """
    couplings = params.couplings.tolist()
    odd = 0.0
    scales = []
    for x, hx in enumerate(params.fields.tolist()):
        _, pe, po = poisson_parity(abs(hx))
        even, odd = pe + odd * po, po + odd * pe
        if x < params.n_edges:
            _, pe_j, po_j = poisson_parity(abs(couplings[x]))
            even, odd = even * pe_j, odd * po_j
        scales.append(math.log(even))
        odd /= even
    return math.fsum(scales)


def boundary_match_probability(params: ChainParams) -> float:
    """P(boundary of the lattice part == boundary of the ghost part), exact.

    The parity transfer of the module docstring, O(n_sites).
    """
    return math.exp(_log_match_probability(params))


def _log_even_lattice(params: ChainParams) -> float:
    """log P(every lattice edge carries an even count)."""
    return math.fsum(math.log(poisson_parity(j)[1]) for j in params.couplings.tolist())


def cov_identity_check(params: ChainParams) -> tuple[float, float]:
    """Both sides of the endpoint covariance identity; they agree exactly.

    lhs is the solver covariance of the end pair; rhs rebuilds it from parity
    probabilities: prod tanh(J) times the squared ratio of P(all lattice
    edges even) * P(no ghost arrivals) to the boundary match probability.
    The factors are combined in logs, so the check runs at any length.
    """
    if params.n_sites < 2:
        raise PreconditionError("the identity needs at least two sites")
    if not (params.is_ferromagnetic() and params.has_nonneg_fields()):
        raise PreconditionError("the identity needs J >= 0 and h >= 0")
    lhs = covariance(params, 0, params.n_sites - 1)
    if 0.0 in params.couplings:
        return lhs, 0.0
    log_tanh = math.fsum(math.log(math.tanh(j)) for j in params.couplings.tolist())
    log_ratio = _log_even_lattice(params) - math.fsum(params.fields)
    log_ratio -= _log_match_probability(params)
    return lhs, math.exp(log_tanh + 2.0 * log_ratio)


def conditional_bound_check(params: ChainParams) -> tuple[float, float]:
    """(log of the conditional match ratio, log of its certified lower bound).

    The ratio is P(lattice boundary == ghost boundary | total ghost mass even)
    over P(every lattice edge even); the lower bound is the product over edges
    of (1 + tanh J)/2. Both are returned as logs: on long chains the two
    values underflow, at different lengths, long before their logs lose
    precision.
    """
    if not (params.is_ferromagnetic() and params.has_nonneg_fields()):
        raise PreconditionError("the conditional bound needs J >= 0 and h >= 0")
    log_even_total = math.log(poisson_parity(math.fsum(params.fields))[1])
    log_ratio = _log_match_probability(params) - _log_even_lattice(params)
    log_lower = math.fsum(
        math.log1p(math.tanh(j)) - math.log(2.0) for j in params.couplings.tolist()
    )
    return log_ratio - log_even_total, log_lower


# Rows of the largest grid an exhaustive check may build.
_GRID_BUDGET = 1 << 23


def _mixed_radix_rows(radix: int, width: int) -> np.ndarray:
    """Every digit vector over range(radix) of length `width`, one per row,
    digit 0 varying fastest. Needs radix >= 2.
    """
    # radix >= 2, so a width past the budget's bit length is over budget and
    # radix**width is never formed for it.
    if width >= _GRID_BUDGET.bit_length() or radix**width > _GRID_BUDGET:
        raise CapacityError(f"{radix}^{width} rows exceed the exhaustive-check budget")
    strides = radix ** np.arange(width, dtype=np.int64)
    return np.arange(radix**width, dtype=np.int64)[:, None] // strides % radix


def boundary_split_counterexamples(n_sites: int, max_entry: int = 3) -> int:
    """Exhaustively test: lattice boundary == ghost boundary iff every edge
    splits the ghost mass into two sides whose parities both match the edge's
    own arrival parity. Runs over ALL currents with entries <= max_entry;
    returns the number of disagreeing currents.
    """
    n_sites = _check_integer(n_sites, "n_sites", 2)
    max_entry = _check_integer(max_entry, "max_entry", 1)
    n_edges = n_sites - 1
    digits = _mixed_radix_rows(max_entry + 1, n_edges + n_sites).T
    lat, gho = digits[:n_edges], digits[n_edges:]
    # The two boundaries agree iff the summed current has none: every site's
    # degree is even, which makes the ghost's degree, the total mass, even.
    lat_par = lat & 1
    lhs = ~_boundary_parity(lat_par, gho & 1).any(axis=0)
    prefix = np.cumsum(gho, axis=0)[:n_edges]
    suffix = gho.sum(axis=0) - prefix
    rhs = ((lat_par == prefix & 1) & (lat_par == suffix & 1)).all(axis=0)
    return int((lhs != rhs).sum())


def endpoint_event_counterexamples(n_sites: int, max_entry: int = 3) -> int:
    """Exhaustively test the characterization of the endpoint pair event.

    Claim: for currents n1 with empty boundary and n2 with boundary {0, N},
    the event "0 cannot reach the ghost in n1 + n2" holds iff n1 is even on
    every lattice edge, n2 is odd on every lattice edge, and both ghost parts
    vanish. Both sides depend on a current only through per-edge (parity,
    support), and entries <= max_entry realize exactly the three classes
    (even, absent), (odd, present), (even, present); class codes 0, 1, 2
    therefore cover every current with entries <= max_entry. Each class is
    fed through the estimator's own event code as the planes the
    Monte-Carlo estimator draws: odd = (code == 1), opened = (code > 0).
    Returns the number of disagreeing pairs.
    """
    n_sites = _check_integer(n_sites, "n_sites", 2)
    # entries <= 1 cannot realize an even positive count
    _check_integer(max_entry, "max_entry", 2)
    n_edges = n_sites - 1
    width = n_edges + n_sites
    classes = _mixed_radix_rows(3, width)
    odd, opened = classes == 1, classes > 0
    parity = _boundary_parity(odd[:, :n_edges].T, odd[:, n_edges:].T)
    empty_boundary = ~parity.any(axis=0)
    pair_boundary = _boundary_is(parity, (0, n_sites - 1))
    no_ghost = ~opened[:, n_edges:].any(axis=1)
    all_even = ~odd[:, :n_edges].any(axis=1) & no_ghost
    all_odd = odd[:, :n_edges].all(axis=1) & no_ghost
    bad = int((all_even & ~empty_boundary).sum() + (all_odd & ~pair_boundary).sum())
    first, second = np.nonzero(empty_boundary)[0], np.nonzero(pair_boundary)[0]
    no_signs = np.zeros(width, dtype=bool)
    block = max(1, (1 << 19) // max(1, len(second)))
    for start in range(0, len(first), block):
        rows = first[start : start + block]
        pairs = np.stack(np.broadcast_arrays(rows[:, None], second), axis=-1)
        planes = opened[pairs], odd[pairs].transpose(3, 2, 0, 1)
        event, _ = _paired_terms(*planes, n_edges, 0, n_sites - 1, no_signs)
        rhs = all_even[rows][:, None] & all_odd[second]
        bad += int(((event != 0.0) != rhs).sum())
    return bad


def signed_moment_sum(params: ChainParams, sites: Sequence[int]) -> float:
    """Exact value of the sign-weighted current sum for zero field.

    Sums P(n) * (-1)^(arrivals on negative edges) over all lattice currents
    with the boundary equal to `sites`. Equals Z / (2^n_sites * exp(sum |J|))
    times the moment <prod_{x in sites} sigma_x>. The boundary forces edge x
    to the parity of the number of listed sites in 0..x, so the sum is 0.0
    for an odd site set and otherwise a product over edges of P(even) or of
    P(odd), the latter negated where J_x < 0.
    """
    if params.fields.any():
        raise PreconditionError("the signed moment sum is implemented for zero field")
    cols = {_check_site(params, x) for x in sites}
    if len(cols) % 2:
        return 0.0
    total = 1.0
    odd = False
    for x, jx in enumerate(params.couplings.tolist()):
        odd ^= x in cols
        _, pe, po = poisson_parity(abs(jx))
        total *= (-po if jx < 0.0 else po) if odd else pe
    return total
