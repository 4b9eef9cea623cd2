"""Precision gate for ChainSweep against the per-site recursions it replaced.

The reference functions below are the per-site solver that ChainSweep
replaced: every log_partition, site_mean and covariance call reran a partial
forward and backward pass, and the end fields of a window came from removing
the outer sites one at a time with remove_end_site. The cached sweep must
reproduce log Z, the means and the covariances bit for bit, also on the
extreme-parameter instances of test_transfer.py. truncate reads its end
fields off the sweep's message gaps, which round differently from repeated
removal, so those are gated at end_field_tolerance (4 ulp of the instance's
largest |J|, |h|) against repeated removal and against a 50-digit mpmath
run of the same removal recursion.
"""

import math

import mpmath
import numpy as np
import pytest

from isingchain import (
    ChainParams,
    covariance,
    log_partition,
    pair_expectation,
    remove_end_site,
    site_mean,
    truncate,
)
from isingchain.numeric import log_add_exp, log_cosh
from isingchain.transfer import _adjacent_log_cov

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


def _site_delta(params, x, fwd, bwd):
    hx = params.fields[x]
    return (fwd[0] + hx + bwd[0]) - (fwd[1] - hx + bwd[1])


def ref_log_partition(params):
    scale = 0.0
    lp = lm = 0.0
    for y in range(params.n_edges):
        hy = params.fields[y]
        jy = params.couplings[y]
        ap, am = lp + hy, lm - hy
        nlp = log_add_exp(ap + jy, am - jy)
        nlm = log_add_exp(ap - jy, am + jy)
        shift = nlp if nlp >= nlm else nlm
        lp, lm = nlp - shift, nlm - shift
        scale += shift
    h_last = params.fields[-1]
    return scale + log_add_exp(lp + h_last, lm - h_last)


def ref_site_mean(params, x):
    fwd = _forward_sweep(params, x)[x]
    bwd = _backward_sweep(params, x)[0]
    return math.tanh(0.5 * _site_delta(params, x, fwd, bwd))


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
        log_total += _adjacent_log_cov(params, k, fwd[k], bwd[k + 1 - i])
    for k in range(i + 1, j):
        delta = _site_delta(params, k, fwd[k], bwd[k - i])
        log_total += 2.0 * log_cosh(0.5 * delta)
    value = math.exp(log_total)
    return -value if negative else value


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
    for x in range(n):
        assert site_mean(params, x) == ref_site_mean(params, x)
    for i in range(n):
        for j in range(i + 1, n):
            assert covariance(params, i, j) == ref_covariance(params, i, j)
            assert covariance(params, j, i) == ref_covariance(params, i, j)


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
    for x in (0, 1, 1499, 2998, 2999):
        assert site_mean(params, x) == ref_site_mean(params, x)
    for i, j in ((0, 2999), (1000, 1100), (2998, 2999)):
        assert covariance(params, i, j) == ref_covariance(params, i, j)
        model = truncate(params, i, j)
        assert_end_fields_within_gate(params, model, ref_end_fields(params, i, j))


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
