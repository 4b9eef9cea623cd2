"""Current sampling, parity oracles, and the exhaustive equivalence checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isingchain import (
    BoundarySet,
    CapacityError,
    ChainParams,
    Current,
    PreconditionError,
    boundary,
    boundary_match_probability,
    boundary_split_counterexamples,
    conditional_bound_check,
    cov_identity_check,
    covariance,
    endpoint_event_counterexamples,
    expectation_enum,
    ghost_split,
    log_partition,
    negative_arrivals,
    poisson_parity,
    sample_current,
    sample_current_batch,
    signed_moment_sum,
    split_pattern,
)
from isingchain.currents import EVEN, NEITHER, ODD, poisson_tail_cap

rates = st.floats(0.0, 50.0, allow_nan=False)
arrival_lists = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.tuples(*[st.integers(0, 6)] * (n - 1)),
        st.tuples(*[st.integers(0, 6)] * n),
    )
)


class TestPoissonParity:
    def test_pinned(self):
        p_zero, p_even, p_odd = poisson_parity(0.7)
        assert p_zero == pytest.approx(0.4965853037914095, rel=1e-15)
        assert p_even == pytest.approx(0.6232984819708033, rel=1e-15)
        assert p_odd == pytest.approx(0.37670151802919677, rel=1e-15)

    def test_zero_rate(self):
        assert poisson_parity(0.0) == (1.0, 1.0, 0.0)

    @given(rates)
    def test_closed_forms(self, lam):
        p_zero, p_even, p_odd = poisson_parity(lam)
        assert p_zero == pytest.approx(math.exp(-lam), rel=1e-15)
        assert p_even + p_odd == pytest.approx(1.0, abs=1e-15)
        assert p_even == pytest.approx(
            math.exp(-lam) * math.cosh(lam), abs=1e-15
        )
        assert p_odd == pytest.approx(math.exp(-lam) * math.sinh(lam), abs=1e-15)
        assert p_zero <= p_even + 1e-15

    def test_rejects_bad_rates(self):
        with pytest.raises(PreconditionError):
            poisson_parity(-0.1)
        with pytest.raises(PreconditionError):
            poisson_parity(math.inf)


class TestPoissonTailCap:
    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0, 3.0, 10.0])
    def test_tail_below_eps(self, lam):
        eps = 1e-12
        cap = poisson_tail_cap(lam, eps)
        # direct tail sum over a generous horizon
        horizon = cap + 200
        pmf = math.exp(-lam)
        cdf = pmf
        for k in range(1, horizon):
            pmf *= lam / k
            if k <= cap:
                cdf += pmf
        assert 1.0 - cdf < eps

    def test_zero_rate(self):
        assert poisson_tail_cap(0.0) == 0

    def test_larger_eps_smaller_cap(self):
        assert poisson_tail_cap(3.0, 1e-6) <= poisson_tail_cap(3.0, 1e-12)


class TestCurrentTypes:
    def test_current_validation(self):
        with pytest.raises(PreconditionError):
            Current((1,), (0,))  # needs one more ghost entry than lattice
        with pytest.raises(PreconditionError):
            Current((), (-1,))

    def test_boundary_hand_example(self):
        b = boundary(Current((1, 2), (0, 1, 1)))
        assert b.vertices == frozenset({0, 2})
        assert b.ghost_in is False

    def test_boundary_ghost_in(self):
        b = boundary(Current((0,), (1, 0)))
        assert b.vertices == frozenset({0}) and b.ghost_in is True

    def test_handshake_enforced(self):
        with pytest.raises(PreconditionError):
            BoundarySet(frozenset({0}), ghost_in=False)

    @given(arrival_lists)
    def test_boundary_handshake_always_holds(self, arrivals):
        lat, gho = arrivals
        boundary(Current(lat, gho))  # constructor would raise on odd parity

    def test_negative_arrivals(self):
        p = ChainParams((-1.0, 2.0), (0.5, -0.25, 0.0))
        c = Current((3, 4), (1, 2, 5))
        assert negative_arrivals(p, c) == 3 + 2
        with pytest.raises(PreconditionError):
            negative_arrivals(ChainParams((1.0,), (0.0, 0.0)), c)


class TestGhostSplit:
    def test_pinned_cases(self):
        assert ghost_split((1, 0, 1), 0) == ODD
        assert ghost_split((1, 0, 1), 1) == ODD
        assert ghost_split((0, 0), 0) == EVEN
        assert ghost_split((1, 1), 0) == ODD
        assert ghost_split((2, 0), 0) == EVEN
        assert ghost_split((1, 0, 0), 0) == NEITHER
        assert ghost_split((1, 0, 0), 1) == NEITHER

    def test_edge_range_checked(self):
        with pytest.raises(PreconditionError):
            ghost_split((1, 0), 1)

    @given(st.lists(st.integers(0, 5), min_size=2, max_size=8))
    def test_neither_iff_odd_total(self, gho):
        odd_total = sum(gho) % 2 == 1
        labels = [ghost_split(gho, x) for x in range(len(gho) - 1)]
        if odd_total:
            assert all(label == NEITHER for label in labels)
        else:
            assert all(label in (EVEN, ODD) for label in labels)

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=8))
    def test_split_pattern(self, gho):
        pattern = split_pattern(gho)
        if sum(gho) % 2 == 1:
            assert pattern is None
        else:
            assert len(pattern.edge_parities) == len(gho) - 1
            for x, label in enumerate(pattern.edge_parities):
                assert label == ghost_split(gho, x)


class TestSampling:
    def test_deterministic(self):
        p = ChainParams((1.0, 0.5), (0.7, 0.0, 0.2))
        a = sample_current_batch(p, seed=5, count=100)
        b = sample_current_batch(p, seed=5, count=100)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = sample_current_batch(p, seed=6, count=100)
        assert not (np.array_equal(a[0], c[0]) and np.array_equal(a[1], c[1]))

    def test_pinned_poisson_counts(self):
        # Fixed-seed draws of the public sampler stay the same across releases.
        p = ChainParams((1.0, -0.5), (0.7, 0.0, 2.2))
        lat, gho = sample_current_batch(p, seed=5, count=4)
        assert lat.dtype == np.int64
        assert lat.tolist() == [[1, 0], [0, 0], [0, 1], [0, 0]]
        assert gho.tolist() == [[1, 0, 1], [1, 0, 1], [0, 0, 3], [1, 0, 4]]
        assert sample_current(p, seed=11) == Current((3, 1), (0, 0, 3))

    def test_first_row_matches_single_draw(self):
        p = ChainParams((1.0, 0.5), (0.7, 0.0, 0.2))
        lat, gho = sample_current_batch(p, seed=9, count=50)
        single = sample_current(p, seed=9)
        assert tuple(lat[0].tolist()) == single.lattice_arrivals
        assert tuple(gho[0].tolist()) == single.ghost_arrivals

    def test_zero_rate_column_is_zero(self):
        p = ChainParams((1.0, 0.5), (0.7, 0.0, 0.2))
        _, gho = sample_current_batch(p, seed=5, count=500)
        assert (gho[:, 1] == 0).all()

    def test_rates_use_absolute_values(self):
        p = ChainParams((-1.0,), (-0.7, 0.3))
        q = p.absolute()
        a = sample_current_batch(p, seed=21, count=64)
        b = sample_current_batch(q, seed=21, count=64)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_empirical_parity_frequencies(self):
        lam = 0.7
        p = ChainParams((1.0,), (lam, 0.0))
        n = 200_000
        _, gho = sample_current_batch(p, seed=123, count=n)
        frac_odd = float((gho[:, 0] % 2 == 1).mean())
        p_odd = poisson_parity(lam)[2]
        stderr = math.sqrt(p_odd * (1 - p_odd) / n)
        assert abs(frac_odd - p_odd) <= 4 * stderr

    def test_sample_count_validated(self):
        p = ChainParams((1.0,), (0.0, 0.0))
        with pytest.raises(PreconditionError):
            sample_current_batch(p, seed=1, count=0)

    def test_sampled_handshake_bulk(self):
        # Every sampled current must have an even number of odd-degree
        # endpoints (ghost included); check 10^5 draws vectorized.
        p = ChainParams((1.0, 0.5, 0.8), (0.7, 0.0, 0.2, 0.4))
        lat, gho = sample_current_batch(p, seed=77, count=100_000)
        degree = gho.copy()
        degree[:, :-1] += lat
        degree[:, 1:] += lat
        odd_sites = (degree % 2 == 1).sum(axis=1)
        ghost_odd = gho.sum(axis=1) % 2
        assert ((odd_sites + ghost_odd) % 2 == 0).all()


class TestBoundaryMatchProbability:
    def test_single_site_closed_form(self):
        p = ChainParams((), (0.8,))
        assert boundary_match_probability(p) == pytest.approx(
            poisson_parity(0.8)[1], rel=1e-15
        )

    def test_two_site_closed_form(self):
        j, h0, h1 = 1.0, 0.7, 0.4
        p = ChainParams((j,), (h0, h1))
        pe = [poisson_parity(v)[1] for v in (h0, h1, j)]
        po = [poisson_parity(v)[2] for v in (h0, h1, j)]
        expect = pe[0] * pe[1] * pe[2] + po[0] * po[1] * po[2]
        assert boundary_match_probability(p) == pytest.approx(expect, rel=1e-14)

    def test_against_direct_monte_carlo(self):
        p = ChainParams((1.0, 0.6), (0.7, 0.2, 0.9))
        exact = boundary_match_probability(p)
        n = 200_000
        lat, gho = sample_current_batch(p, seed=77, count=n)
        pad = np.pad(lat, ((0, 0), (1, 1)))
        lat_boundary = (pad[:, :-1] + pad[:, 1:]) & 1
        match = (lat_boundary == (gho & 1)).all(axis=1) & (gho.sum(axis=1) % 2 == 0)
        frac = float(match.mean())
        stderr = math.sqrt(exact * (1 - exact) / n)
        assert abs(frac - exact) <= 4 * stderr

    def test_cap(self):
        n = 17
        p = ChainParams((1.0,) * (n - 1), (0.1,) * n)
        with pytest.raises(CapacityError):
            boundary_match_probability(p)


class TestCovIdentity:
    def test_pinned(self):
        p = ChainParams((1.0, 0.5), (0.3, 0.2, 0.1))
        lhs, rhs = cov_identity_check(p)
        assert lhs == pytest.approx(0.27115717796995853, rel=1e-13)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_zero_field_reduces_to_product(self):
        p = ChainParams((1.0, 0.5), (0.0, 0.0, 0.0))
        lhs, rhs = cov_identity_check(p)
        assert lhs == pytest.approx(math.tanh(1.0) * math.tanh(0.5), rel=1e-13)
        assert rhs == pytest.approx(lhs, rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            cov_identity_check(ChainParams((-1.0,), (0.1, 0.1)))
        with pytest.raises(PreconditionError):
            cov_identity_check(ChainParams((1.0,), (-0.1, 0.1)))
        with pytest.raises(PreconditionError):
            cov_identity_check(ChainParams((), (0.5,)))


class TestConditionalBound:
    def test_single_site_equality(self):
        assert conditional_bound_check(ChainParams((), (0.8,))) == (1.0, 1.0)

    def test_holds_on_random_instances(self):
        rng = np.random.default_rng(89)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            p = ChainParams(
                tuple(rng.uniform(0, 3, n - 1).tolist()),
                tuple(rng.uniform(0, 2, n).tolist()),
            )
            ratio, lower = conditional_bound_check(p)
            assert ratio >= lower - 1e-12

    def test_lower_bound_formula(self):
        p = ChainParams((1.0, 0.5), (0.3, 0.2, 0.1))
        _, lower = conditional_bound_check(p)
        expect = 0.25 * (1 + math.tanh(1.0)) * (1 + math.tanh(0.5))
        assert lower == pytest.approx(expect, rel=1e-14)


class TestExhaustiveCheckers:
    @pytest.mark.parametrize("n_sites", [2, 3, 4])
    def test_boundary_split_no_counterexamples(self, n_sites):
        assert boundary_split_counterexamples(n_sites) == 0

    @pytest.mark.parametrize("n_sites", [2, 3, 4])
    def test_endpoint_event_no_counterexamples(self, n_sites):
        assert endpoint_event_counterexamples(n_sites) == 0

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            boundary_split_counterexamples(1)
        with pytest.raises(PreconditionError):
            endpoint_event_counterexamples(1)
        with pytest.raises(PreconditionError):
            endpoint_event_counterexamples(3, max_entry=1)
        with pytest.raises(CapacityError):
            boundary_split_counterexamples(10, max_entry=9)


class TestSignedMomentSum:
    @staticmethod
    def scaled_moment(params, sites):
        scale = math.exp(
            log_partition(params)
            - params.n_sites * math.log(2.0)
            - math.fsum(abs(j) for j in params.couplings)
        )
        return scale * expectation_enum(params, sites)

    def test_matches_scaled_moment(self):
        p = ChainParams((1.2, 0.8, 0.5), (0.0,) * 4)
        for sites in [(), (0, 3), (1, 2), (0, 1, 2, 3)]:
            assert signed_moment_sum(p, sites) == pytest.approx(
                self.scaled_moment(p, sites), abs=1e-10
            )

    def test_signed_couplings(self):
        p = ChainParams((-1.2, 0.8), (0.0,) * 3)
        assert signed_moment_sum(p, (0, 2)) == pytest.approx(
            self.scaled_moment(p, (0, 2)), abs=1e-10
        )
        assert signed_moment_sum(p, (0, 2)) < 0.0

    def test_odd_sets_vanish(self):
        p = ChainParams((1.0, 0.5), (0.0,) * 3)
        assert signed_moment_sum(p, (1,)) == 0.0

    def test_requires_zero_field(self):
        with pytest.raises(PreconditionError):
            signed_moment_sum(ChainParams((1.0,), (0.1, 0.0)), (0, 1))


class TestSwitchEstimatorAgainstSolver:
    def test_endpoint_covariance_consistency(self):
        # the exhaustive endpoint characterization plus the match probability
        # reproduce the solver covariance (cross-checked analytically in
        # cov_identity_check); here spot-check a longer ferromagnetic chain
        rng = np.random.default_rng(97)
        for _ in range(10):
            n = int(rng.integers(2, 10))
            p = ChainParams(
                tuple(rng.uniform(0.1, 2, n - 1).tolist()),
                tuple(rng.uniform(0, 1.5, n).tolist()),
            )
            lhs, rhs = cov_identity_check(p)
            assert lhs == pytest.approx(rhs, rel=1e-11)
            cov = covariance(p, 0, n - 1)
            assert lhs == cov
