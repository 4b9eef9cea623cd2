"""Precision gate for ChainSweep against per-site recursions.

The reference functions below rerun a partial forward and backward pass per
site, as the solver did before ChainSweep, and the end fields of a window come
from removing the outer sites one at a time with remove_end_site. From its own
passes each reference forms the site field f_x = left + right - h_x and the
two-site adjacent covariance of transfer.py's module docstring, in scalar
math. The cached sweep must reproduce log Z and every site field bit for bit,
also on the extreme-parameter instances of test_transfer.py.

The solver evaluates its per-site terms (site means, adjacent log
covariances, interior log variances) as numpy arrays, whose exp, log1p, tanh
and expm1 may round differently from libm's. So each term is gated against
its scalar reference at TERM_GATE units of roundoff of the term's scale
(assert_terms_match_scalar_references), and the means pin to numpy's tanh of
the reference site field. The covariance adds the solver's own terms as two
running sums (adjacent covariances, interior variances), so that one outward
pass serves every right end. That order is pinned exactly, and the sum is
gated against ref_covariance's order at the summation error bound of Higham
(2002), Thm 4.4 (see assert_covariance_within_gate). A high-precision mpmath
transfer run, whose working precision covers the cancellation in
<sigma_i sigma_j> - <sigma_i><sigma_j>, gates the covariances, log Z and every
site mean.

truncate reads its end fields off the sweep's message gaps, which round
differently from repeated removal, so those are gated at end_field_tolerance
(4 ulp of the instance's largest |J|, |h|) against repeated removal and
against a 50-digit mpmath run of the same removal recursion.
"""

import math

import mpmath
import numpy as np
import pytest

from isingchain import (
    ChainParams,
    bound_abs_envelope,
    compare,
    covariance,
    log_partition,
    pair_expectation,
    remove_end_site,
    site_mean,
    truncate,
)
from isingchain.numeric import log_add_exp, log_cosh
from isingchain.transfer import (
    SCAN_BLOCK,
    SCAN_MIN_SITES,
    _covariance_terms,
    _log_add,
    _matrix_product,
    _pass,
    _renormalized,
    _row_product,
    _row_sums,
    _scan_pass,
    log_abs_covariance,
)

from conftest import end_field_tolerance, random_params


def _forward_sweep(params, stop):
    out = [(0.0, 0.0)]
    lp = lm = 0.0
    for y in range(stop):
        hy = params.fields[y]
        jy = params.couplings[y]
        ap, am = lp + hy, lm - hy
        lp = log_add_exp(ap + jy, am - jy)
        lm = log_add_exp(ap - jy, am + jy)
        shift = lp if lp >= lm else lm
        lp, lm = lp - shift, lm - shift
        out.append((lp, lm))
    return out


def _backward_sweep(params, start):
    n = params.n_sites
    out = [(0.0, 0.0)] * (n - start)
    lp = lm = 0.0
    for y in range(n - 2, start - 1, -1):
        hy = params.fields[y + 1]
        jy = params.couplings[y]
        ap, am = lp + hy, lm - hy
        lp = log_add_exp(jy + ap, -jy + am)
        lm = log_add_exp(-jy + ap, jy + am)
        shift = lp if lp >= lm else lm
        lp, lm = lp - shift, lm - shift
        out[y - start] = (lp, lm)
    return out


def _end_field(params, x, msg):
    """Field on x with one side summed out, from that side's (lp, lm)."""
    return params.fields[x] + 0.5 * (msg[0] - msg[1])


def _site_field(params, x, fwd, bwd):
    """f_x: the field on x with both sides summed out."""
    return _end_field(params, x, fwd) + _end_field(params, x, bwd) - params.fields[x]


def _adjacent_log_cov(jk, a, b):
    """log |cov| of the two-site chain with coupling jk != 0 and fields a, b:
    the closed form of transfer.py's module docstring in scalar math."""
    if jk < 0.0:
        jk, b = -jk, -b
    log_den = log_add_exp(log_cosh(a + b), log_cosh(a - b) - 2.0 * jk)
    return math.log(-math.expm1(-4.0 * jk)) - 2.0 * log_den


def _adjacent_term(params, k, fwd, bwd):
    """log |cov(sigma_k, sigma_{k+1})| from the messages into k and k+1."""
    a, b = _end_field(params, k, fwd), _end_field(params, k + 1, bwd)
    return _adjacent_log_cov(params.couplings[k], a, b)


def ref_log_partition_terms(params):
    """The per-site log-scale shifts whose exact sum is log Z."""
    terms = []
    lp = lm = 0.0
    for y in range(params.n_edges):
        hy = params.fields[y]
        jy = params.couplings[y]
        ap, am = lp + hy, lm - hy
        nlp = log_add_exp(ap + jy, am - jy)
        nlm = log_add_exp(ap - jy, am + jy)
        shift = nlp if nlp >= nlm else nlm
        lp, lm = nlp - shift, nlm - shift
        terms.append(shift)
    h_last = params.fields[-1]
    terms.append(log_add_exp(lp + h_last, lm - h_last))
    return terms


def ref_log_partition(params):
    return math.fsum(ref_log_partition_terms(params))


def ref_site_field(params, x):
    fwd = _forward_sweep(params, x)[x]
    bwd = _backward_sweep(params, x)[0]
    return _site_field(params, x, fwd, bwd)


def ref_covariance(params, i, j):
    fwd = _forward_sweep(params, j)
    bwd = _backward_sweep(params, i)
    log_total = 0.0
    negative = False
    for k in range(i, j):
        if params.couplings[k] == 0.0:
            return 0.0
        if params.couplings[k] < 0.0:
            negative = not negative
        log_total += _adjacent_term(params, k, fwd[k], bwd[k + 1 - i])
    for k in range(i + 1, j):
        log_total += 2.0 * log_cosh(_site_field(params, k, fwd[k], bwd[k - i]))
    value = math.exp(log_total)
    return -value if negative else value


def ref_log_terms(params, i, j):
    """The log terms ref_covariance sums, in its order; None past a zero coupling."""
    if 0.0 in params.couplings[i:j]:
        return None
    fwd = _forward_sweep(params, j)
    bwd = _backward_sweep(params, i)
    terms = [_adjacent_term(params, k, fwd[k], bwd[k + 1 - i]) for k in range(i, j)]
    for k in range(i + 1, j):
        terms.append(2.0 * log_cosh(_site_field(params, k, fwd[k], bwd[k - i])))
    return terms


UNIT_ROUNDOFF = 2.0**-53


def gamma(m):
    """Higham's gamma_m = m u / (1 - m u)."""
    return m * UNIT_ROUNDOFF / (1.0 - m * UNIT_ROUNDOFF)


def solver_log_terms(params, i, j):
    """The solver's own terms of (i, j), ordered as in ref_log_terms; None past a
    zero coupling."""
    if 0.0 in params.couplings[i:j]:
        return None
    adjacent, interior, _ = _covariance_terms(params, i, j)
    return adjacent.tolist() + interior.tolist()


def assert_covariance_within_gate(params, i, j):
    """covariance and log_abs_covariance against the solver's own terms.

    The solver adds the j - i adjacent terms and the interior terms as two
    running sums in index order and adds the two at the end; that order is
    pinned bit for bit. Against ref_covariance's single running sum of the
    same m terms x_k: a recursive sum of m terms is off the exact sum by at
    most gamma_{m-1} sum |x_k| (Higham 2002, Thm 4.4), and the solver's two
    running sums plus their final addition obey the same bound, so the two
    logs differ by at most 2 gamma_m sum |x_k|. The covariances are exp of
    those logs, each rounded once.
    """
    terms = solver_log_terms(params, i, j)
    ref = ref_covariance(params, i, j)
    log_abs, negative = log_abs_covariance(params, i, j)
    covs = (covariance(params, i, j), covariance(params, j, i))
    if terms is None:
        assert (log_abs, negative) == (-math.inf, False)
        assert ref == 0.0
        assert all(c == 0.0 and math.copysign(1.0, c) == 1.0 for c in covs)
        return
    adjacent = interior = 0.0
    for term in terms[: j - i]:
        adjacent += term
    for term in terms[j - i :]:
        interior += term
    assert log_abs == adjacent + interior
    ref_log = 0.0
    for term in terms:
        ref_log += term
    bound = 2.0 * gamma(len(terms)) * math.fsum(map(abs, terms))
    assert abs(log_abs - ref_log) <= bound
    assert negative == (math.copysign(1.0, ref) < 0.0)
    ref = math.copysign(math.exp(ref_log), ref)
    for cov in covs:
        tol = math.expm1(bound) * max(abs(cov), abs(ref)) + 2.0 * (
            math.ulp(cov) + math.ulp(ref)
        )
        assert abs(cov - ref) <= tol


# A solver term and its scalar reference agree to TERM_GATE units of roundoff
# of the term's scale: the largest magnitude among its parts, and at least
# log 2, the constant that log cosh subtracts. Worst seen on 600 random chains
# with |J|, |h| from 0.01 to 1e3: 4.5 for an adjacent term, 2.9 for an
# interior term. Means are gated at MEAN_GATE ulp of math.tanh; worst seen 2.
TERM_GATE = 8.0
MEAN_GATE = 4.0


def assert_terms_match_scalar_references(params, i, j):
    """_covariance_terms over [i, j] against the scalar references, term by
    term, from the reference's own messages; the means likewise."""
    adjacent, interior, negative = _covariance_terms(params, i, j)
    fwd = _forward_sweep(params, j)
    bwd = _backward_sweep(params, i)
    log2 = math.log(2.0)
    flips = 0
    for k in range(i, j):
        jk = params.couplings[k]
        flips += jk < 0.0
        assert negative[k - i] == flips % 2
        if jk == 0.0:
            assert adjacent[k - i] == -math.inf
            continue
        a = _end_field(params, k, fwd[k])
        b = _end_field(params, k + 1, bwd[k + 1 - i])
        log_edge = math.log(-math.expm1(-4.0 * abs(jk)))
        scale = max(log2, abs(a) + abs(b) + 2.0 * abs(jk), -log_edge)
        ref = _adjacent_term(params, k, fwd[k], bwd[k + 1 - i])
        assert abs(adjacent[k - i] - ref) <= TERM_GATE * UNIT_ROUNDOFF * scale
    for k in range(i + 1, j):
        f = _site_field(params, k, fwd[k], bwd[k - i])
        ref = 2.0 * log_cosh(f)
        scale = 2.0 * max(log2, abs(f))
        assert abs(interior[k - i - 1] - ref) <= TERM_GATE * UNIT_ROUNDOFF * scale


def assert_means_match_scalar_references(params, sites):
    """Every site field bit for bit; each mean is numpy's tanh of it, within
    MEAN_GATE ulp of math.tanh."""
    sweep = params.sweep
    for x in sites:
        field = ref_site_field(params, x)
        assert sweep.site_fields[x] == field
        assert site_mean(params, x) == float(np.tanh(field))
        ref = math.tanh(field)
        assert abs(site_mean(params, x) - ref) <= MEAN_GATE * math.ulp(ref)


def mp_transfer(params, digits, pairs=()):
    """(log Z, site means, {pair: (log |cov|, cov < 0)}) at `digits` digits.

    Plain transfer recursion without renormalization: the left and right
    partial sums of every site, and <sigma_i sigma_j> by carrying sigma_i
    from i to j. The covariance is <sigma_i sigma_j> - <sigma_i><sigma_j>,
    a subtraction that loses about log10(1/|cov|) digits, so callers raise
    `digits` by that loss.
    """
    n = params.n_sites
    with mpmath.workdps(digits):
        edge = [(mpmath.exp(jx), mpmath.exp(-jx)) for jx in params.couplings]
        site = [(mpmath.exp(hx), mpmath.exp(-hx)) for hx in params.fields]

        def step(v, x):
            """Carry the pair (v+, v-) on site x - 1 across edge x - 1 onto x."""
            same, flip = edge[x - 1]
            return (
                (v[0] * same + v[1] * flip) * site[x][0],
                (v[0] * flip + v[1] * same) * site[x][1],
            )

        left = [site[0]]
        for x in range(1, n):
            left.append(step(left[-1], x))
        right = [(mpmath.mpf(1), mpmath.mpf(1))] * n
        for x in range(n - 2, -1, -1):
            same, flip = edge[x]
            a, b = right[x + 1][0] * site[x + 1][0], right[x + 1][1] * site[x + 1][1]
            right[x] = (a * same + b * flip, a * flip + b * same)
        z = left[0][0] * right[0][0] + left[0][1] * right[0][1]
        means = [(lv[0] * rv[0] - lv[1] * rv[1]) / z for lv, rv in zip(left, right)]
        covs = {}
        for i, j in pairs:
            carried = (left[i][0], -left[i][1])
            for x in range(i + 1, j + 1):
                carried = step(carried, x)
            pair = (carried[0] * right[j][0] - carried[1] * right[j][1]) / z
            cov = pair - means[i] * means[j]
            covs[i, j] = (float(mpmath.log(abs(cov))), bool(cov < 0))
        return float(mpmath.log(z)), [float(m) for m in means], covs


# Digits the high-precision reference keeps after the cancellation.
MP_DIGITS = 50
# Pairs whose covariance cancels more digits than this (|cov| below about
# 1e-400) are left to the summation gate alone, to bound the test's run time.
MP_MAX_LOSS = 400


def param_scale(params):
    """max(1, |J|, |h|) over the instance."""
    return max(1.0, *map(abs, np.concatenate((params.couplings, params.fields))))


def assert_log_z_and_means_match_high_precision(params):
    """log Z and every site mean against the high-precision transfer.

    Each of the N shifts that log Z sums is a log-sum-exp of parts up to
    about 2 max(|J|, |h|), rounded to a few ulp of that size, so their exact
    sum is within 16 u N param_scale of log Z. The loop sums them with
    math.fsum, so its log Z is that exact sum rounded once; the scan's
    shifts add in tree order within a block, which adds far less than the
    per-step allowance. A mean is tanh of a site field of size up to about
    max(|J|, |h|) that carries a few ulp of it, so it is gated at
    16 u param_scale. Largest errors seen on INSTANCES, the 3000-site chain
    and 150 further random chains, in these units: 1.94 for the shifts'
    exact sum and 2.0 for the means; on the two scan chains below, 1.09 for
    log Z (one ulp of it) and 4.0 for the means.
    """
    log_z, means, _ = mp_transfer(params, MP_DIGITS)
    scale = param_scale(params)
    steps = 16.0 * UNIT_ROUNDOFF * params.n_sites * scale
    assert abs(log_partition(params) - log_z) <= steps
    for x, mean in enumerate(means):
        assert abs(site_mean(params, x) - mean) <= 16.0 * UNIT_ROUNDOFF * scale


def mp_covariance_tolerance(params, i, j):
    """Allowance for log |cov| of (i, j) against the high-precision value.

    Unlike the summation gate this includes the sweep's own rounding: every
    one of the m = 2 (j - i) - 1 terms is a log-sum-exp of parts of size up
    to about 4 max(|J|, |h|), rounded to a few ulp of that size. The largest
    error seen was 11.5 u m max(1, |J|, |h|) on INSTANCES and 11.2 on 150
    further random chains of 2-39 sites with |J|, |h| up to 1e3.
    """
    return 64.0 * UNIT_ROUNDOFF * (2 * (j - i) - 1) * param_scale(params)


def assert_covariances_match_high_precision(params, pairs):
    """log |cov| and its sign against the high-precision transfer on every
    pair it can afford; returns how many pairs it checked."""
    checked = {}
    for i, j in pairs:
        terms = ref_log_terms(params, i, j)
        if terms is None:
            continue  # a zero coupling makes the two sides independent
        loss = max(0.0, -sum(terms) / math.log(10.0))
        if loss <= MP_MAX_LOSS:
            checked[i, j] = loss
    if not checked:
        return 0
    digits = MP_DIGITS + 10 + math.ceil(max(checked.values()))
    _, _, covs = mp_transfer(params, digits, checked)
    for (i, j), (mp_log, mp_negative) in covs.items():
        log_abs, negative = log_abs_covariance(params, i, j)
        assert negative == mp_negative
        assert abs(log_abs - mp_log) <= mp_covariance_tolerance(params, i, j)
    return len(checked)


def ref_end_fields(params, i, j):
    h_right = params.fields[-1]
    for k in range(params.n_sites - 2, j - 1, -1):
        h_right = params.fields[k] + remove_end_site(params.couplings[k], h_right).b_shift
    h_left = params.fields[0]
    for k in range(i):
        h_left = params.fields[k + 1] + remove_end_site(params.couplings[k], h_left).b_shift
    return h_left, h_right


def mp_end_fields(params):
    """(left, right) end field of every site, removal recursion at 50 digits."""

    def mp_log_cosh(x):
        return mpmath.log(mpmath.cosh(x))

    def removal(couplings, fields):
        h = mpmath.mpf(fields[0])
        out = [h]
        for jy, hy in zip(couplings, fields[1:]):
            h = hy + (mp_log_cosh(jy + h) - mp_log_cosh(jy - h)) / 2
            out.append(h)
        return [float(v) for v in out]

    with mpmath.workdps(50):
        left = removal(params.couplings, params.fields)
        right = removal(params.couplings[::-1], params.fields[::-1])[::-1]
    return left, right


def assert_end_fields_within_gate(params, model, want):
    tol = end_field_tolerance(params)
    assert abs(model.h_prime_i - want[0]) <= tol
    assert abs(model.h_prime_j - want[1]) <= tol


EXTREME = [
    ChainParams((1e3, -1e3, 0.0), (1e3, -1e3, 1e3, -1e3)),
    ChainParams((500.0, 500.0), (0.0, 0.0, 0.0)),
    ChainParams((0.1,) * 10, (1.5,) * 11),
    ChainParams((500.0,) * 40, (500.0,) * 41),
    ChainParams((1e3, 1e3, -1e3, 2.0, -1e3), (-1e3, 1e3, 0.5, -1e3, 1e3, -0.3)),
    ChainParams((), (0.5,)),
    ChainParams((1.0, 0.0, 2.0), (0.3, -0.7, 0.2, 0.1)),
]


def _random_instances():
    rng = np.random.default_rng(2024)
    out = [random_params(rng, int(rng.integers(1, 30))) for _ in range(30)]
    out += [
        random_params(rng, int(rng.integers(2, 12)), -1e3, 1e3, -1e3, 1e3)
        for _ in range(10)
    ]
    return out


INSTANCES = EXTREME + _random_instances()


@pytest.mark.parametrize("params", INSTANCES)
def test_solver_bit_identical_to_per_site_recursion(params):
    n = params.n_sites
    assert log_partition(params) == ref_log_partition(params)
    assert_means_match_scalar_references(params, range(n))
    for i in range(n):
        if i < n - 1:
            assert_terms_match_scalar_references(params, i, n - 1)
        for j in range(i + 1, n):
            assert_covariance_within_gate(params, i, j)


@pytest.mark.parametrize("params", INSTANCES)
def test_covariance_matches_high_precision_transfer(params):
    n = params.n_sites
    assert_covariances_match_high_precision(
        params, [(i, j) for i in range(n) for j in range(i + 1, n)]
    )


@pytest.mark.parametrize("params", INSTANCES)
def test_log_z_and_means_match_high_precision_transfer(params):
    assert_log_z_and_means_match_high_precision(params)


@pytest.mark.parametrize("params", INSTANCES)
def test_truncate_bit_identical_to_repeated_removal(params):
    # Gated, not bit-equal: the sweep's gaps and repeated removal round
    # differently in the last bits.
    n = params.n_sites
    for i in range(n):
        for j in range(i + 1, n):
            model = truncate(params, i, j)
            assert_end_fields_within_gate(params, model, ref_end_fields(params, i, j))


@pytest.mark.parametrize("params", INSTANCES)
def test_truncate_end_fields_match_high_precision_removal(params):
    left, right = mp_end_fields(params)
    n = params.n_sites
    for i in range(n):
        for j in range(i + 1, n):
            model = truncate(params, i, j)
            assert_end_fields_within_gate(params, model, (left[i], right[j]))


def test_long_chain_end_fields_match_high_precision_removal():
    rng = np.random.default_rng(78)
    params = random_params(rng, 2000, -1e3, 1e3, -1e3, 1e3)
    left, right = mp_end_fields(params)
    for x in range(params.n_sites - 1):
        model = truncate(params, x, x + 1)
        assert_end_fields_within_gate(params, model, (left[x], right[x + 1]))


def test_long_chain_bit_identical():
    rng = np.random.default_rng(77)
    params = random_params(rng, 3000)
    assert log_partition(params) == ref_log_partition(params)
    assert_means_match_scalar_references(params, (0, 1, 1499, 2998, 2999))
    for i, j in ((0, 2999), (1000, 1100), (2998, 2999)):
        assert_terms_match_scalar_references(params, i, j)
        assert_covariance_within_gate(params, i, j)
        model = truncate(params, i, j)
        assert_end_fields_within_gate(params, model, ref_end_fields(params, i, j))


def test_long_chain_covariance_matches_high_precision_transfer():
    rng = np.random.default_rng(77)
    params = random_params(rng, 3000)
    pairs = [(1000, 1100), (2998, 2999), (0, 60), (2900, 2999)]
    assert assert_covariances_match_high_precision(params, pairs) == len(pairs)


def test_long_chain_log_z_and_means_match_high_precision_transfer():
    rng = np.random.default_rng(77)
    assert_log_z_and_means_match_high_precision(random_params(rng, 3000))


def scan_chain():
    """A chain on the scan kernel that spans three blocks."""
    rng = np.random.default_rng(79)
    return random_params(rng, 2 * SCAN_BLOCK + 3617)


def extreme_scan_chain():
    """A scan-kernel chain with |J|, |h| up to 1e3, zero couplings and
    +-5e-324 entries."""
    rng = np.random.default_rng(80)
    n = SCAN_BLOCK + 808
    couplings = rng.uniform(-1e3, 1e3, n - 1)
    fields = rng.uniform(-1e3, 1e3, n)
    sites = rng.permutation(n - 1)
    couplings[sites[:20]] = 0.0
    couplings[sites[20:30]] = 5e-324
    couplings[sites[30:40]] = -5e-324
    sites = rng.permutation(n)
    fields[sites[:10]] = 5e-324
    fields[sites[10:20]] = -5e-324
    return ChainParams(couplings, fields)


def test_scan_chain_matches_high_precision_transfer():
    params = scan_chain()
    assert params.n_sites >= SCAN_MIN_SITES
    assert_log_z_and_means_match_high_precision(params)
    # windows at either end, across both block boundaries and mid-block
    pairs = [(0, 40), (8180, 8200), (16370, 16400), (18000, 18100), (19960, 20000)]
    assert assert_covariances_match_high_precision(params, pairs) == len(pairs)


def test_scan_chain_end_fields_match_repeated_removal():
    # every site, so the sites just past each block boundary are covered in
    # both directions
    params = scan_chain()

    def removal(couplings, fields):
        h = fields[0]
        out = [h]
        for jy, hy in zip(couplings, fields[1:]):
            h = hy + remove_end_site(jy, h).b_shift
            out.append(h)
        return out

    left = removal(params.couplings, params.fields)
    right = removal(params.couplings[::-1], params.fields[::-1])[::-1]
    sweep = params.sweep
    tol = end_field_tolerance(params)
    for x in range(params.n_sites):
        assert abs(sweep.left_field(x) - left[x]) <= tol
        assert abs(sweep.right_field(x) - right[x]) <= tol
    last = params.n_sites - 1
    model = truncate(params, 0, last)
    assert_end_fields_within_gate(params, model, ref_end_fields(params, 0, last))


def test_extreme_scan_chain_matches_high_precision():
    params = extreme_scan_chain()
    assert_log_z_and_means_match_high_precision(params)
    left, right = mp_end_fields(params)
    sweep = params.sweep
    tol = end_field_tolerance(params)
    for x in range(params.n_sites):
        assert abs(sweep.left_field(x) - left[x]) <= tol
        assert abs(sweep.right_field(x) - right[x]) <= tol


def drain(blocks):
    """(every gap, log Z) of a pass kernel's blocks."""
    gaps = []
    while True:
        try:
            gaps += next(blocks).tolist()
        except StopIteration as done:
            return gaps, done.value


@pytest.mark.parametrize("n_sites", [SCAN_MIN_SITES - 1, SCAN_MIN_SITES])
@pytest.mark.parametrize("scale", [1.0, 1e3])
def test_kernels_agree_at_the_switch(n_sites, scale):
    """The sweep takes the loop below SCAN_MIN_SITES sites and the scan from
    there on; both give the same gaps to 2 end_field_tolerance (a gap is twice
    an end field less h) and the same log Z to 16 u N param_scale."""
    rng = np.random.default_rng(81)
    params = random_params(rng, n_sites, -scale, scale, -scale, scale)
    couplings, fields = params.couplings, params.fields
    loop_gaps, loop_log_z = drain(_pass(couplings, fields))
    scan_gaps, scan_log_z = drain(_scan_pass(np.array(couplings), np.array(fields)))
    kernel_log_z = scan_log_z if n_sites >= SCAN_MIN_SITES else loop_log_z
    assert params.sweep.log_z == kernel_log_z
    tol = 2.0 * end_field_tolerance(params)
    assert len(loop_gaps) == len(scan_gaps) == n_sites
    assert max(abs(a - b) for a, b in zip(loop_gaps, scan_gaps)) <= tol
    steps = 16.0 * UNIT_ROUNDOFF * n_sites * param_scale(params)
    assert abs(loop_log_z - scan_log_z) <= steps


@pytest.mark.parametrize("n_sites", [3, SCAN_MIN_SITES])
def test_end_fields_are_python_floats(n_sites):
    # a numpy scalar would print as np.float64(...) in the CLI's CSV
    params = random_params(np.random.default_rng(82), n_sites)
    sweep = params.sweep
    for x in (0, n_sites // 2, n_sites - 1):
        assert type(sweep.left_field(x)) is float
        assert type(sweep.right_field(x)) is float
    assert type(sweep.log_z) is float


def test_sweep_built_once_per_instance():
    params = ChainParams((1.0, -0.5, 0.25), (0.3, -0.7, 0.2, 0.1))
    sweep = params.sweep
    covariance(params, 0, 3)
    pair_expectation(params, 0, 2)
    truncate(params, 1, 2)
    assert params.sweep is sweep
    assert params.absolute() is params.absolute()
    # the cache is not part of the value: equal parameters stay equal
    assert params == ChainParams(params.couplings, params.fields)


def _row_instances():
    rng = np.random.default_rng(83)
    out = [random_params(rng, n) for n in (2, 3, 13, 40)]
    out.append(random_params(rng, 25, -1e3, 1e3, -1e3, 1e3))
    out.append(EXTREME[0])
    out.append(EXTREME[6])
    couplings = list(random_params(rng, 30).couplings)
    couplings[4] = couplings[17] = 0.0
    couplings[9], couplings[11] = 5e-324, -5e-324
    out.append(ChainParams(tuple(couplings), random_params(rng, 30).fields))
    return out


@pytest.mark.parametrize("row_block", [1, 7, 64, None])
@pytest.mark.parametrize("params", _row_instances())
def test_rows_off_one_term_table_equal_single_rows(monkeypatch, params, row_block):
    """Every row of the blocked table is the single-row pass's floats and
    signs, whatever the block size (None: the default)."""
    import isingchain.transfer as transfer_mod

    if row_block is not None:
        monkeypatch.setattr(transfer_mod, "ROW_BLOCK", row_block)
    n = params.n_sites
    rows = []
    for window, (logs,), negatives, _, _ in _row_sums([params], 0, n - 1, n - 1):
        rows += zip(window[:, 0].tolist(), logs, negatives)
    assert [i for i, _, _ in rows] == list(range(n - 1))
    for i, logs, negatives in rows:
        ((_, (row_logs,), row_negatives, _, _),) = _row_sums([params], i, n - 1, 1)
        want_logs, want_negatives = row_logs[0], row_negatives[0]
        assert logs[: n - 1 - i].tobytes() == want_logs.tobytes()
        assert negatives[: n - 1 - i].tolist() == want_negatives.tolist()


def test_covariance_terms_are_elementwise():
    # a window's terms are the whole chain's terms at the same sites, so a
    # single pair, a row and the all-pairs table read the same floats
    params = random_params(np.random.default_rng(84), 300, -1e3, 1e3, -1e3, 1e3)
    adjacent, interior, negative = _covariance_terms(params, 0, 299)
    for i, stop in ((0, 1), (5, 6), (17, 250), (100, 299), (298, 299)):
        a, b, c = _covariance_terms(params, i, stop)
        assert a.tobytes() == adjacent[i:stop].tobytes()
        assert b.tobytes() == interior[i : stop - 1].tobytes()
        assert (c ^ (negative[i - 1] if i else False)).tolist() == negative[
            i:stop
        ].tolist()


def test_sweep_arrays_are_read_only():
    sweep = random_params(np.random.default_rng(85), 6).sweep
    for values in (sweep.left_fields, sweep.right_fields, sweep.site_fields, sweep.means):
        assert values.dtype == np.float64 and len(values) == 6
        with pytest.raises(ValueError):
            values[0] = 0.0


def test_stacked_products_equal_entrywise_log_adds():
    """_matrix_product and _row_product take the log-sum-exp of every entry
    in one stacked _log_add; each entry must be the floats of its own
    _log_add, so the scan's gaps do not depend on the stacking."""
    rng = np.random.default_rng(86)
    x, y = rng.uniform(-800.0, 800.0, (2, 5, 3000))
    x[:, ::7] = 0.0
    y[:4, 1::5] -= 1e3

    def log_add(a, b):
        out = np.zeros(len(a))
        _log_add(a + 0.0, b, out)
        return out

    xa, xb, xc, xd, xs = x
    ya, yb, yc, yd, ys = y
    entries = [
        log_add(xa + ya, xb + yc), log_add(xa + yb, xb + yd),
        log_add(xc + ya, xd + yc), log_add(xc + yb, xd + yd), xs + ys,
    ]
    assert _matrix_product(x, y).tobytes() == _renormalized(np.array(entries)).tobytes()
    rows = [log_add(xa + ya, xb + yc), log_add(xa + yb, xb + yd), xc + ys]
    got = _row_product(x[[0, 1, 2]], y)
    assert got.tobytes() == _renormalized(np.array(rows)).tobytes()


def _gauged(params, rng):
    """(eps, the instance with J_x -> eps_x eps_{x+1} J_x and h_x -> eps_x h_x)
    for a random eps in {-1, 1}^N: the spins sigma_x -> eps_x sigma_x."""
    eps = rng.choice([-1.0, 1.0], params.n_sites)
    return eps, ChainParams(eps[:-1] * eps[1:] * params.couplings, eps * params.fields)


@pytest.mark.parametrize(
    "n",
    [13, SCAN_MIN_SITES - 1, SCAN_MIN_SITES, 2 * SCAN_BLOCK - 1, 2 * SCAN_BLOCK + 1],
)
def test_gauge_flip_is_exact(n):
    # sigma_x -> eps_x sigma_x maps one instance's Gibbs measure onto the
    # other's, and the solver must keep that exact: log Z, eps_x <sigma_x>
    # and eps_i eps_j cov(i, j) are the same floats, on both sides of the
    # scan's size threshold and of its block seams.
    rng = np.random.default_rng(n)
    params = random_params(rng, n)
    eps, gauged = _gauged(params, rng)
    assert log_partition(gauged) == log_partition(params)
    assert np.array_equal(eps * gauged.sweep.means, params.sweep.means)
    seam = min(SCAN_BLOCK, n - 1)
    pairs = {(0, n - 1), (0, 1), (n - 2, n - 1), (seam - 1, seam), (1, n - 2)}
    pairs |= {tuple(sorted(rng.choice(n, 2, replace=False).tolist())) for _ in range(5)}
    for i, j in sorted(pairs):
        assert eps[i] * eps[j] * covariance(gauged, i, j) == covariance(params, i, j)


def test_gauge_flip_is_exact_on_all_rows():
    # All rows of a 300-site chain, in several row blocks: the same logs of
    # |cov|, and signs flipped exactly where eps_i eps_j = -1.
    n = 300
    rng = np.random.default_rng(n)
    params = random_params(rng, n)
    eps, gauged = _gauged(params, rng)
    rows = _row_sums([params], 0, n - 1, n - 1)
    rows_g = _row_sums([gauged], 0, n - 1, n - 1)
    blocks = list(zip(rows, rows_g))
    assert len(blocks) > 2
    for (window, (logs,), negatives, _, _), block_g in blocks:
        window_g, (logs_g,), negatives_g, _, _ = block_g
        assert np.array_equal(window, window_g)
        inside = window < n - 1
        flip = (eps[window[:, :1]] * eps[np.minimum(window + 1, n - 1)] < 0)[inside]
        assert logs_g[inside].tobytes() == logs[inside].tobytes()
        assert np.array_equal(negatives_g[inside] ^ flip, negatives[inside])


SYMMETRY_SIZES = [
    13, SCAN_MIN_SITES - 1, SCAN_MIN_SITES + 1, 2 * SCAN_BLOCK - 1, 2 * SCAN_BLOCK + 1
]


def _symmetry_pairs(n, rng):
    """The end pairs, the pair across the first scan block seam, and five
    random pairs."""
    seam = min(SCAN_BLOCK, n - 1)
    pairs = {(0, n - 1), (0, 1), (n - 2, n - 1), (seam - 1, seam), (1, n - 2)}
    pairs |= {tuple(sorted(rng.choice(n, 2, replace=False).tolist())) for _ in range(5)}
    return sorted(pairs)


@pytest.mark.parametrize("n", SYMMETRY_SIZES)
def test_gauge_flip_keeps_lemma3_exact(n):
    # The gauge leaves the absolute instance and Z unchanged, so lemma3 is
    # the same float, read alone and in a report. Past a few hundred sites
    # fields of |h| ~ 1 drive the partition ratio past the float range and
    # lemma3 to inf, so a weak-field instance keeps it finite there.
    rng = np.random.default_rng(n)
    for h in (2.0, 0.01):
        params = random_params(rng, n, h_low=-h, h_high=h)
        _, gauged = _gauged(params, rng)
        for i, j in _symmetry_pairs(n, rng):
            lemma3 = bound_abs_envelope(params, i, j)
            assert bound_abs_envelope(gauged, i, j) == lemma3
            assert compare(gauged, i, j).bounds["lemma3"] == lemma3
            assert compare(params, i, j).bounds["lemma3"] == lemma3


@pytest.mark.parametrize("n", SYMMETRY_SIZES)
def test_global_field_flip_is_exact(n):
    # h -> -h maps sigma to -sigma: log Z and every covariance are even in h
    # and the means odd, and the solver keeps that exact.
    rng = np.random.default_rng(n)
    params = random_params(rng, n)
    flipped = ChainParams(params.couplings, -params.fields)
    assert log_partition(flipped) == log_partition(params)
    assert np.array_equal(-flipped.sweep.means, params.sweep.means)
    for i, j in _symmetry_pairs(n, rng):
        assert log_abs_covariance(flipped, i, j) == log_abs_covariance(params, i, j)


@pytest.mark.parametrize("n", SYMMETRY_SIZES)
def test_reflection_within_rounding(n):
    """Site x of the reflected chain is site n - 1 - x.

    Its forward pass is the backward pass read back, so every site field and
    mean is the same float, and so is each covariance term (the adjacent
    term reads a + b and |a - b|); only the order of the running sums is
    reversed. Each order is within gamma_m sum |x_k| of the exact sum of the
    m terms (assert_covariance_within_gate), so the two logs differ by at
    most 2 gamma_m sum |x_k|. log Z comes off the other pass; it is gated as
    the two kernels are, at 16 u N param_scale.
    """
    rng = np.random.default_rng(n)
    params = random_params(rng, n)
    mirrored = params.reflected()
    steps = 16.0 * UNIT_ROUNDOFF * n * param_scale(params)
    assert abs(log_partition(mirrored) - log_partition(params)) <= steps
    assert np.array_equal(mirrored.sweep.means[::-1], params.sweep.means)
    for i, j in _symmetry_pairs(n, rng):
        log_abs, negative = log_abs_covariance(params, i, j)
        mirror_log, mirror_negative = log_abs_covariance(mirrored, n - 1 - j, n - 1 - i)
        terms = solver_log_terms(params, i, j)
        assert mirror_negative == negative
        bound = 2.0 * gamma(len(terms)) * math.fsum(map(abs, terms))
        assert abs(mirror_log - log_abs) <= bound
