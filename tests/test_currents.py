"""Current sampling, parity oracles, and the exhaustive equivalence checks."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isingchain import (
    CapacityError,
    ChainParams,
    PreconditionError,
    boundary_match_probability,
    boundary_split_counterexamples,
    conditional_bound_check,
    cov_identity_check,
    covariance,
    endpoint_event_counterexamples,
    expectation_enum,
    log_partition,
    mc_switching_covariance,
    poisson_parity,
    sample_current_batch,
    signed_moment_sum,
)
from isingchain.currents import _CHUNK
from test_acceptance import _criterion_07_instances

rates = st.floats(0.0, 50.0, allow_nan=False)


def enum_match_probability(params):
    """P(lattice boundary == ghost boundary) by the 2^N ghost-parity sum.

    The reference for the parity transfer, up to 16 sites. A vector of ghost
    parities with an even total forces every lattice edge x to the parity of
    the bits on sites 0..x; edges are independent, so each vector adds a
    product of per-edge parity probabilities.
    """
    n = params.n_sites
    assert n <= 16
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    rates = np.concatenate((params.fields, params.couplings))
    laws = [poisson_parity(abs(v)) for v in rates]
    p_even = np.array([law[1] for law in laws])
    p_odd = np.array([law[2] for law in laws])
    prefix = np.cumsum(bits, axis=1) % 2
    parities = np.concatenate([bits, prefix[:, : n - 1]], axis=1)
    terms = np.where(parities == 1, p_odd, p_even).prod(axis=1)
    return math.fsum(terms[prefix[:, -1] == 0])


# Edge values of |J| and |h|, from the smallest subnormal to the largest
# supported rate; each is drawn with either sign.
EDGE_VALUES = (0.0, 5e-324, 1e-300, 1e-100, 1e-16, 1e-8, 1e-3, 0.5, 1.0, 20.0,
               177.5, 354.0, 1e3)


def edge_value_chain(rng, n):
    def draw(k):
        values = rng.choice(EDGE_VALUES, k) * rng.choice((-1.0, 1.0), k)
        return tuple(values.tolist())

    return ChainParams(draw(n - 1), draw(n))


def mp_p_even(rate):
    return (1 + mpmath.exp(-2 * mpmath.mpf(abs(rate)))) / 2


def mp_p_odd(rate):
    return (1 - mpmath.exp(-2 * mpmath.mpf(abs(rate)))) / 2


def mp_match_probability(params):
    """The parity transfer unrenormalized, at the caller's mpmath precision."""
    even, odd = mpmath.mpf(1), mpmath.mpf(0)
    for x, hx in enumerate(params.fields):
        pe, po = mp_p_even(hx), mp_p_odd(hx)
        even, odd = even * pe + odd * po, even * po + odd * pe
        if x < params.n_edges:
            jx = params.couplings[x]
            even, odd = even * mp_p_even(jx), odd * mp_p_odd(jx)
    return even


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
        lat, gho = sample_current_batch(p, seed=11, count=1)
        assert lat.tolist() == [[3, 1]] and gho.tolist() == [[0, 0, 3]]

    # 65537 and 131075 span several chunks and end mid-chunk; the _CHUNK cases
    # sit on the first chunk boundaries.
    @pytest.mark.parametrize(
        "m, n",
        [
            (1, 4),
            (100, 65537),
            (65537, 131075),
            (100, _CHUNK + 1),
            (_CHUNK + 1, 2 * _CHUNK + 3),
        ],
    )
    def test_rows_do_not_depend_on_count(self, m, n):
        p = ChainParams((1.0, -0.5), (0.7, 0.0, 12.0))
        lat_m, gho_m = sample_current_batch(p, seed=3, count=m)
        lat_n, gho_n = sample_current_batch(p, seed=3, count=n)
        assert np.array_equal(lat_m, lat_n[:m]) and np.array_equal(gho_m, gho_n[:m])

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

    def test_matches_enumeration_on_criteria_7_8_instances(self):
        for p in _criterion_07_instances():
            assert boundary_match_probability(p) == pytest.approx(
                enum_match_probability(p), rel=1e-14, abs=0.0
            )

    def test_matches_enumeration_on_edge_values(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            p = edge_value_chain(rng, int(rng.integers(1, 17)))
            assert boundary_match_probability(p) == pytest.approx(
                enum_match_probability(p), rel=1e-14, abs=0.0
            )

    def test_past_sixteen_sites(self):
        n = 17
        p = ChainParams((1.0,) * (n - 1), (0.1,) * n)
        with mpmath.workdps(50):
            expect = float(mp_match_probability(p))
        assert boundary_match_probability(p) == pytest.approx(expect, rel=1e-14)


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

    def test_zero_coupling_gives_zero(self):
        p = ChainParams((1.0, 0.0, 0.5), (0.3, 0.2, 0.1, 0.4))
        lhs, rhs = cov_identity_check(p)
        assert rhs == 0.0 and lhs == 0.0

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            cov_identity_check(ChainParams((-1.0,), (0.1, 0.1)))
        with pytest.raises(PreconditionError):
            cov_identity_check(ChainParams((1.0,), (-0.1, 0.1)))
        with pytest.raises(PreconditionError):
            cov_identity_check(ChainParams((), (0.5,)))


class TestConditionalBound:
    def test_single_site_equality(self):
        assert conditional_bound_check(ChainParams((), (0.8,))) == (0.0, 0.0)

    def test_holds_on_random_instances(self):
        rng = np.random.default_rng(89)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            p = ChainParams(
                tuple(rng.uniform(0, 3, n - 1).tolist()),
                tuple(rng.uniform(0, 2, n).tolist()),
            )
            log_ratio, log_lower = conditional_bound_check(p)
            assert log_ratio >= log_lower - 1e-12

    def test_long_chain_matches_high_precision_transfer(self):
        # A plain product of per-site weights underflows here: the match
        # probability is about 1e-400.
        rng = np.random.default_rng(1200)
        p = ChainParams(
            tuple(rng.uniform(2.0, 3.0, 1199).tolist()),
            tuple(rng.uniform(1.0, 2.0, 1200).tolist()),
        )
        log_ratio, log_lower = conditional_bound_check(p)
        assert log_ratio >= log_lower
        with mpmath.workdps(50):
            expect = mp_match_probability(p) / mp_p_even(mpmath.fsum(p.fields))
            expect /= mpmath.fprod(mp_p_even(j) for j in p.couplings)
            log_expect = float(mpmath.log(expect))
        assert log_ratio == pytest.approx(log_expect, rel=0.0, abs=1e-12)

    def test_lower_bound_formula(self):
        p = ChainParams((1.0, 0.5), (0.3, 0.2, 0.1))
        _, log_lower = conditional_bound_check(p)
        expect = math.log(0.25 * (1 + math.tanh(1.0)) * (1 + math.tanh(0.5)))
        assert log_lower == pytest.approx(expect, rel=0.0, abs=1e-14)

    def test_holds_in_logs_where_the_values_underflow(self):
        # Both values underflow here: in floats the ratio reads 0.0 against a
        # lower bound of 5e-324. In logs the bound holds by about 80.8.
        rng = np.random.default_rng(1)
        couplings = tuple(rng.uniform(0.5, 3.0, 19999).tolist())
        p = ChainParams(couplings, tuple(rng.uniform(0.0, 1.0, 20000).tolist()))
        log_ratio, log_lower = conditional_bound_check(p)
        assert math.isfinite(log_ratio) and math.isfinite(log_lower)
        assert log_ratio < -745.0 and log_lower < -745.0
        assert log_ratio - log_lower == pytest.approx(80.83, abs=0.01)


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


class TestLongChains:
    @pytest.fixture(scope="class")
    def chain(self):
        rng = np.random.default_rng(20000)
        return ChainParams(
            tuple(rng.uniform(3.0, 5.0, 19999).tolist()),
            tuple(rng.uniform(0.0, 1e-4, 20000).tolist()),
        )

    def test_conditional_bound_at_20000_sites(self, chain):
        log_ratio, log_lower = conditional_bound_check(chain)
        assert math.isfinite(log_ratio) and math.isfinite(log_lower)
        assert log_ratio >= log_lower - 1e-12

    def test_cov_identity_at_20000_sites(self, chain):
        lhs, rhs = cov_identity_check(chain)
        assert math.isfinite(lhs) and math.isfinite(rhs)
        # about 2e-11 here, far above underflow; the two sides agree to 2e-12
        assert lhs > 1e-20
        assert rhs == pytest.approx(lhs, rel=1e-9)


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
                self.scaled_moment(p, sites), rel=1e-12
            )
        for sites in [(0,), (1, 2, 3), (0, 1, 3)]:
            assert signed_moment_sum(p, sites) == 0.0

    def test_signed_couplings(self):
        p = ChainParams((-1.2, 0.8), (0.0,) * 3)
        assert signed_moment_sum(p, (0, 2)) == pytest.approx(
            self.scaled_moment(p, (0, 2)), rel=1e-12
        )
        assert signed_moment_sum(p, (0, 2)) < 0.0

    def test_random_signed_chains(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(2, 11))
            p = ChainParams(tuple(rng.uniform(-3.0, 3.0, n - 1).tolist()), (0.0,) * n)
            sites = tuple(np.flatnonzero(rng.integers(0, 2, n)).tolist())
            if len(sites) % 2:
                assert signed_moment_sum(p, sites) == 0.0
            else:
                assert signed_moment_sum(p, sites) == pytest.approx(
                    self.scaled_moment(p, sites), rel=1e-12
                )

    def test_odd_sets_vanish(self):
        p = ChainParams((1.0, 0.5), (0.0,) * 3)
        assert signed_moment_sum(p, (1,)) == 0.0

    def test_requires_zero_field(self):
        with pytest.raises(PreconditionError):
            signed_moment_sum(ChainParams((1.0,), (0.1, 0.0)), (0, 1))


@pytest.mark.parametrize(
    "call",
    [
        lambda p: mc_switching_covariance(p, 0, 1, samples=10.5, seed=1),
        lambda p: mc_switching_covariance(p, 0, 1, samples=0, seed=1),
        lambda p: mc_switching_covariance(p, 0, 1, samples=10, seed=1.5),
        lambda p: mc_switching_covariance(p, 0, 1, samples=10, seed=-1),
        lambda p: mc_switching_covariance(p, 0, 1, samples=10, seed=2**63),
        lambda p: mc_switching_covariance(p, 0, 1, True, 1),
        lambda p: mc_switching_covariance(p, 0, 1, 10, True),
        lambda p: sample_current_batch(p, seed=-1, count=4),
        lambda p: sample_current_batch(p, seed=1, count=4.0),
        lambda p: boundary_split_counterexamples(3, max_entry=-2),
        lambda p: boundary_split_counterexamples(3, max_entry=0),
        lambda p: boundary_split_counterexamples(3.0),
        lambda p: endpoint_event_counterexamples(3, max_entry=2.5),
        lambda p: endpoint_event_counterexamples(True),
    ],
)
def test_integer_arguments_checked(call):
    with pytest.raises(PreconditionError):
        call(ChainParams((1.0,), (0.2, 0.1)))


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
