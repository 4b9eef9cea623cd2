"""O(N) solver against the enumeration oracle and closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isingchain import (
    ChainParams,
    DecayRateUndefinedError,
    PreconditionError,
    covariance,
    covariance_enum,
    expectation_enum,
    finite_decay_rate,
    log_partition,
    pair_expectation,
    partition_function_enum,
    site_mean,
)
from isingchain.numeric import log_add_exp, log_cosh, log_sinh_abs

from conftest import end_field_tolerance, random_params


class TestNumericHelpers:
    @given(st.floats(-700.0, 700.0))
    def test_log_cosh_matches_direct(self, x):
        if abs(x) < 300:
            assert log_cosh(x) == pytest.approx(math.log(math.cosh(x)), rel=1e-13, abs=1e-13)
        assert log_cosh(x) >= 0.0
        assert log_cosh(x) == log_cosh(-x)

    def test_log_cosh_huge(self):
        # far beyond cosh overflow: log cosh x -> |x| - log 2
        assert log_cosh(1e6) == pytest.approx(1e6 - math.log(2.0), rel=1e-15)

    @given(st.floats(-700.0, 700.0))
    def test_log_sinh_abs(self, x):
        if x == 0.0:
            assert log_sinh_abs(x) == -math.inf
        elif abs(x) < 300:
            assert log_sinh_abs(x) == pytest.approx(
                math.log(abs(math.sinh(x))), rel=1e-12, abs=1e-12
            )

    @given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
    def test_log_add_exp(self, a, b):
        assert log_add_exp(a, b) == pytest.approx(
            np.logaddexp(a, b), rel=1e-14, abs=1e-14
        )

    def test_log_add_exp_neg_inf(self):
        assert log_add_exp(-math.inf, 3.0) == 3.0
        assert log_add_exp(3.0, -math.inf) == 3.0
        assert log_add_exp(-math.inf, -math.inf) == -math.inf


class TestLogPartition:
    def test_pinned_values(self):
        assert log_partition(ChainParams((1.0,), (0.0, 0.0))) == pytest.approx(
            1.8200751916029179, rel=1e-14
        )
        assert log_partition(ChainParams((), (0.5,))) == pytest.approx(
            0.8132616875182228, rel=1e-14
        )

    def test_matches_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 10))
            p = random_params(rng, n)
            assert log_partition(p) == pytest.approx(
                math.log(partition_function_enum(p)), rel=1e-12
            )

    def test_extreme_parameters_finite(self):
        p = ChainParams((1e3, -1e3, 0.0), (1e3, -1e3, 1e3, -1e3))
        assert math.isfinite(log_partition(p))

    def test_long_chain_runs(self):
        n = 200_000
        rng = np.random.default_rng(3)
        p = ChainParams(
            tuple(rng.uniform(-1, 1, n - 1).tolist()),
            tuple(rng.uniform(-1, 1, n).tolist()),
        )
        value = log_partition(p)
        assert math.isfinite(value) and value > n * math.log(2.0) * 0.5


class TestSiteMean:
    def test_single_site(self):
        assert site_mean(ChainParams((), (0.5,)), 0) == pytest.approx(
            math.tanh(0.5), rel=1e-14
        )

    def test_matches_enumeration(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            p = random_params(rng, n)
            for x in range(n):
                assert site_mean(p, x) == pytest.approx(
                    expectation_enum(p, (x,)), rel=1e-11, abs=1e-12
                )

    def test_messages_normalized(self):
        # Summing out one side shifts a site's field by at most the |J| of
        # the edge to that side, however long the side is.
        p = ChainParams((2.0, -1.0), (0.5, -0.5, 1.0))
        tol = end_field_tolerance(p)
        edges = (0.0,) + tuple(map(abs, p.couplings)) + (0.0,)
        for x in range(3):
            for field, edge in (
                (p.sweep.left_field(x), edges[x]),
                (p.sweep.right_field(x), edges[x + 1]),
            ):
                assert math.isfinite(field)
                assert abs(field - p.fields[x]) <= edge + tol


class TestPairExpectation:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            p = random_params(rng, n)
            i = int(rng.integers(0, n - 1))
            j = int(rng.integers(i + 1, n))
            assert pair_expectation(p, i, j) == pytest.approx(
                expectation_enum(p, (i, j)), rel=1e-11, abs=1e-12
            )

    def test_requires_ordered_pair(self):
        p = ChainParams((1.0,), (0.0, 0.0))
        with pytest.raises(PreconditionError):
            pair_expectation(p, 1, 0)
        with pytest.raises(PreconditionError):
            pair_expectation(p, 0, 0)


class TestCovariance:
    def test_pinned(self):
        p = ChainParams((1.0,), (0.3, -0.7))
        assert covariance(p, 0, 1) == pytest.approx(0.5900054157516147, rel=1e-13)

    def test_zero_field_product_form(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            couplings = rng.uniform(-2, 2, n - 1)
            p = ChainParams(tuple(couplings.tolist()), (0.0,) * n)
            i = int(rng.integers(0, n - 1))
            j = int(rng.integers(i + 1, n))
            expect = math.prod(math.tanh(c) for c in couplings[i:j])
            assert covariance(p, i, j) == pytest.approx(expect, rel=1e-12, abs=1e-15)

    def test_symmetric_in_pair(self):
        p = ChainParams((1.0, -0.5, 0.25), (0.3, -0.7, 0.2, 0.1))
        assert covariance(p, 3, 0) == covariance(p, 0, 3)

    def test_zero_coupling_cuts_chain(self):
        p = ChainParams((1.0, 0.0, 2.0), (0.3, -0.7, 0.2, 0.1))
        assert covariance(p, 0, 3) == 0.0
        assert covariance(p, 1, 2) == 0.0
        assert covariance(p, 0, 1) != 0.0

    def test_matches_enumeration(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(2, 10))
            p = random_params(rng, n)
            i = int(rng.integers(0, n - 1))
            j = int(rng.integers(i + 1, n))
            ref = covariance_enum(p, i, j)
            assert covariance(p, i, j) == pytest.approx(ref, rel=1e-9, abs=1e-11)

    def test_relative_precision_when_tiny(self):
        # strong suppression: the value is ~1e-11 but the product form keeps
        # full relative precision, verified against the agreeing difference
        # of the two independent formulations on the reflected chain
        p = ChainParams((0.1,) * 10, (1.5,) * 11)
        a = covariance(p, 0, 10)
        b = covariance(p.reflected(), 0, 10)
        assert a > 0.0
        assert a == pytest.approx(b, rel=1e-12)

    def test_extreme_parameters(self):
        p = ChainParams((500.0, 500.0), (0.0, 0.0, 0.0))
        val = covariance(p, 0, 2)
        assert 0.0 < val <= 1.0
        # tanh(500) rounds to 1, so the product form must not round to > 1
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_distinct_sites_required(self):
        with pytest.raises(PreconditionError):
            covariance(ChainParams((1.0,), (0.0, 0.0)), 1, 1)


class TestFiniteDecayRate:
    def test_zero_field_constant_rate(self):
        p = ChainParams((1.0,) * 6, (0.0,) * 7)
        for d in range(1, 7):
            assert finite_decay_rate(p, 0, d) == pytest.approx(
                0.2723414689118316, rel=1e-12
            )

    def test_needs_positive_distance_and_cov(self):
        p = ChainParams((1.0, 0.0), (0.0, 0.0, 0.0))
        with pytest.raises(PreconditionError):
            finite_decay_rate(p, 1, 1)
        with pytest.raises(DecayRateUndefinedError):
            finite_decay_rate(p, 0, 2)

    def test_negative_coupling_rate_undefined(self):
        p = ChainParams((-1.0,), (0.0, 0.0))
        with pytest.raises(DecayRateUndefinedError):
            finite_decay_rate(p, 0, 1)


@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.tuples(*[st.floats(-3, 3, allow_nan=False)] * (n - 1)),
            st.tuples(*[st.floats(-2, 2, allow_nan=False)] * n),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_solver_oracle_property(jh):
    params = ChainParams(jh[0], jh[1])
    n = params.n_sites
    assert log_partition(params) == pytest.approx(
        math.log(partition_function_enum(params)), rel=1e-11
    )
    assert covariance(params, 0, n - 1) == pytest.approx(
        covariance_enum(params, 0, n - 1), rel=1e-8, abs=1e-11
    )


class TestSolverSymmetries:
    def test_uniform_strong_long_chain_finite(self):
        n = 10_001
        p = ChainParams((500.0,) * (n - 1), (500.0,) * n)
        value = log_partition(p)
        assert math.isfinite(value) and value > 0.0
        assert site_mean(p, n // 2) == pytest.approx(1.0, abs=1e-12)

    def test_reversal_invariance(self):
        rng = np.random.default_rng(519)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            p = ChainParams(
                tuple(rng.uniform(-2.0, 2.0, n - 1)),
                tuple(rng.uniform(-2.0, 2.0, n)),
            )
            i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
            mirrored = p.reflected()
            assert log_partition(mirrored) == pytest.approx(
                log_partition(p), rel=1e-12
            )
            assert covariance(mirrored, n - 1 - j, n - 1 - i) == pytest.approx(
                covariance(p, i, j), rel=1e-12, abs=1e-300
            )
