"""Monte-Carlo moment and covariance estimators against exact oracles."""

import math

import numpy as np
import pytest

from isingchain import (
    ChainParams,
    InconclusiveEstimateError,
    PreconditionError,
    covariance,
    expectation_enum,
    mc_moment,
    mc_switching_covariance,
    poisson_parity,
)
from isingchain import currents
from isingchain.currents import (
    _class_chunks,
    _mixed_radix_rows,
    _moment_terms,
    _negative_mask,
    _paired_terms,
)


def z_score(estimate, exact):
    if estimate.std_error == 0.0:
        return 0.0 if estimate.mean == exact else math.inf
    return (estimate.mean - exact) / estimate.std_error


class TestMcMoment:
    def test_single_edge_closed_form(self):
        p = ChainParams((1.0,), (0.0, 0.0))
        est = mc_moment(p, (0, 1), samples=200_000, seed=42)
        assert abs(z_score(est, math.tanh(1.0))) <= 4.0
        assert est.samples == 200_000
        assert 0.0 < est.std_error < 0.01

    def test_empty_site_set_is_exactly_one(self):
        p = ChainParams((1.0, 0.5), (0.2, 0.0, 0.1))
        est = mc_moment(p, (), samples=1000, seed=0)
        assert est.mean == 1.0 and est.std_error == 0.0

    def test_odd_set_zero_field_is_exactly_zero(self):
        p = ChainParams((1.0, 0.5), (0.0, 0.0, 0.0))
        est = mc_moment(p, (1,), samples=2000, seed=0)
        assert est.mean == 0.0 and est.std_error == 0.0

    def test_matches_enumeration_with_fields(self):
        p = ChainParams((0.8, 1.2, 0.5), (0.3, 0.1, 0.4, 0.2))
        exact = expectation_enum(p, (0, 2))
        est = mc_moment(p, (0, 2), samples=100_000, seed=7)
        assert abs(z_score(est, exact)) <= 4.0

    def test_matches_enumeration_signed_parameters(self):
        p = ChainParams((-1.0, 0.7), (0.5, -0.3, 0.2))
        exact = expectation_enum(p, (0, 2))
        est = mc_moment(p, (0, 2), samples=200_000, seed=13)
        assert abs(z_score(est, exact)) <= 4.0

    def test_single_site_mean(self):
        p = ChainParams((0.9,), (0.6, -0.2))
        exact = expectation_enum(p, (0,))
        est = mc_moment(p, (0,), samples=200_000, seed=29)
        assert abs(z_score(est, exact)) <= 4.0

    def test_deterministic(self):
        p = ChainParams((1.0,), (0.3, 0.0))
        a = mc_moment(p, (0, 1), samples=5000, seed=3)
        b = mc_moment(p, (0, 1), samples=5000, seed=3)
        assert a == b
        c = mc_moment(p, (0, 1), samples=5000, seed=4)
        assert a.mean != c.mean

    def test_chunk_boundary(self):
        p = ChainParams((1.0,), (0.0, 0.0))
        n = (1 << 16) + 7
        est = mc_moment(p, (0, 1), samples=n, seed=1)
        assert est.samples == n

    def test_error_shrinks_with_samples(self):
        # Quadrupling the sample count should roughly halve the reported
        # standard error (1/sqrt(n) scaling); allow slack for the noise in
        # the variance estimate itself.
        p = ChainParams((1.0,), (0.2, 0.1))
        small = mc_moment(p, (0, 1), samples=20_000, seed=5)
        big = mc_moment(p, (0, 1), samples=80_000, seed=5)
        assert big.std_error < small.std_error
        assert small.std_error / big.std_error == pytest.approx(2.0, rel=0.15)

    def test_validation(self):
        p = ChainParams((1.0,), (0.0, 0.0))
        with pytest.raises(PreconditionError):
            mc_moment(p, (0, 5), samples=10, seed=0)
        with pytest.raises(PreconditionError):
            mc_moment(p, (0, 1), samples=0, seed=0)

    def test_to_dict(self):
        p = ChainParams((1.0,), (0.0, 0.0))
        est = mc_moment(p, (0, 1), samples=1000, seed=0)
        d = est.to_dict()
        assert d == {
            "mean": est.mean,
            "std_error": est.std_error,
            "samples": 1000,
        }


class TestMcSwitchingCovariance:
    def test_single_edge_closed_form(self):
        p = ChainParams((1.0,), (0.0, 0.0))
        est = mc_switching_covariance(p, 0, 1, samples=100_000, seed=11)
        assert abs(z_score(est, math.tanh(1.0))) <= 4.0

    def test_ferromagnetic_chain_with_fields(self):
        p = ChainParams((1.0, 0.6, 0.8, 1.1), (0.2, 0.0, 0.5, 0.1, 0.3))
        exact = covariance(p, 0, 4)
        est = mc_switching_covariance(p, 0, 4, samples=200_000, seed=3)
        assert abs(z_score(est, exact)) <= 4.0

    def test_signed_parameters(self):
        p = ChainParams((-1.0, 0.7), (0.5, -0.3, 0.2))
        exact = covariance(p, 0, 2)
        est = mc_switching_covariance(p, 0, 2, samples=200_000, seed=5)
        assert abs(z_score(est, exact)) <= 4.0

    def test_interior_pair(self):
        p = ChainParams((0.9, 1.1, 0.7), (0.3, 0.2, 0.1, 0.4))
        exact = covariance(p, 1, 2)
        est = mc_switching_covariance(p, 1, 2, samples=200_000, seed=17)
        assert abs(z_score(est, exact)) <= 4.0

    def test_pair_order_irrelevant(self):
        p = ChainParams((1.0,), (0.1, 0.2))
        a = mc_switching_covariance(p, 0, 1, samples=5000, seed=2)
        b = mc_switching_covariance(p, 1, 0, samples=5000, seed=2)
        assert a == b

    def test_deterministic(self):
        p = ChainParams((1.0,), (0.1, 0.2))
        a = mc_switching_covariance(p, 0, 1, samples=5000, seed=2)
        b = mc_switching_covariance(p, 0, 1, samples=5000, seed=2)
        assert a == b

    def test_inconclusive_denominator_raises(self):
        p = ChainParams((0.5,), (3.0, 3.0))
        raised = False
        for seed in range(100):
            try:
                mc_switching_covariance(p, 0, 1, samples=8, seed=seed)
            except InconclusiveEstimateError:
                raised = True
                break
        assert raised

    def test_moderate_fields_conclusive_with_enough_samples(self):
        p = ChainParams((0.5,), (1.5, 1.5))
        exact = covariance(p, 0, 1)
        est = mc_switching_covariance(p, 0, 1, samples=100_000, seed=8)
        assert est.std_error > 0.0
        assert abs(z_score(est, exact)) <= 4.0

    def test_validation(self):
        p = ChainParams((1.0,), (0.0, 0.0))
        with pytest.raises(PreconditionError):
            mc_switching_covariance(p, 0, 0, samples=10, seed=0)
        with pytest.raises(PreconditionError):
            mc_switching_covariance(p, 0, 3, samples=10, seed=0)
        with pytest.raises(PreconditionError):
            mc_switching_covariance(p, 0, 1, samples=-1, seed=0)


def class_law(params):
    """(P(absent), P(odd), P(even and positive)) per edge, lattice edges first."""
    laws = [poisson_parity(abs(v)) for v in params.couplings + params.fields]
    return np.array([(zero, odd, even - zero) for zero, even, odd in laws])


def class_table(params):
    """Every class vector (edge axis first) and its probability."""
    width = params.n_edges + params.n_sites
    rows = _mixed_radix_rows(3, width).astype(np.int8)
    prob = class_law(params)[np.arange(width), rows].prod(axis=1)
    return np.ascontiguousarray(rows.T), prob


GATE_CHAINS = [
    (ChainParams((0.8, 1.2), (0.3, 0.1, 0.4)), 0, 2),
    (ChainParams((-1.0, 0.7), (0.5, -0.3, 0.2)), 0, 2),
    (ChainParams((0.9, 1.1, 0.7), (0.3, 0.2, 0.1, 0.4)), 1, 2),
    (ChainParams((0.6, -0.9, 1.3), (-0.2, 0.4, 0.1, -0.5)), 1, 3),
    (ChainParams((0.6, -0.9, 1.3), (-0.2, 0.4, 0.1, -0.5)), 0, 3),
]


class TestClassLaw:
    """The estimators' per-sample terms, averaged exactly over the class law."""

    @pytest.mark.parametrize("params, i, j", GATE_CHAINS)
    def test_covariance_ratio_is_exact(self, params, i, j):
        classes, prob = class_table(params)
        width, m = classes.shape
        negative = _negative_mask(params)
        e_w = e_d = 0.0
        block = max(1, (1 << 19) // m)
        for start in range(0, m, block):
            first = classes[:, start : start + block]
            pairs = np.empty((width, 2, first.shape[1], m), dtype=np.int8)
            pairs[:, 0] = first[:, :, None]
            pairs[:, 1] = classes[:, None, :]
            w, d = _paired_terms(pairs, params.n_edges, i, j, negative)
            e_w += prob[start : start + block] @ w @ prob
            e_d += prob[start : start + block] @ d @ prob
        assert e_w / e_d**2 == pytest.approx(covariance(params, i, j), rel=1e-12)

    @pytest.mark.parametrize("params, i, j", GATE_CHAINS)
    def test_moment_ratio_is_exact(self, params, i, j):
        classes, prob = class_table(params)
        negative = _negative_mask(params)
        for sites in ((i,), (j,), (i, j), (0, i, j)):
            y, x = _moment_terms(classes, params.n_edges, sorted(set(sites)), negative)
            assert (prob @ y) / (prob @ x) == pytest.approx(
                expectation_enum(params, sites), rel=1e-12
            )

    def test_sampled_class_frequencies(self):
        params = ChainParams((0.3, -1.5, 0.05), (0.0, 0.7, -2.5, 0.2))
        n = 200_000
        counts = np.zeros((params.n_edges + params.n_sites, 3))
        for chunk in _class_chunks(params, seed=99, samples=n, copies=2):
            for c in range(3):
                counts[:, c] += (chunk == c).sum(axis=(1, 2))
        law = class_law(params)
        total = 2 * n
        stderr = np.sqrt(law * (1.0 - law) / total)
        assert (np.abs(counts / total - law) <= 4.0 * stderr).all()
        assert counts[params.n_edges, 0] == total  # zero rate: always absent

    @pytest.mark.parametrize("estimator", ["moment", "covariance"])
    def test_chunk_size_invariant(self, monkeypatch, estimator):
        params = ChainParams((0.8, -0.4, 1.1), (0.2, 0.1, -0.3, 0.25))

        def run():
            if estimator == "moment":
                return mc_moment(params, (0, 3), samples=5003, seed=12)
            return mc_switching_covariance(params, 0, 3, samples=5003, seed=12)

        default = run()
        monkeypatch.setattr(currents, "_CHUNK", 1000)
        assert run() == default

    def test_long_chains_get_short_chunks(self, monkeypatch):
        params = ChainParams((0.1,) * 19, (0.0,) * 20)
        sizes = [c.shape[2] for c in _class_chunks(params, 1, 30_000, copies=2)]
        assert sum(sizes) == 30_000
        assert len(sizes) > 1 and max(sizes) * 2 * 39 <= currents._CHUNK * 32
        default = mc_switching_covariance(params, 0, 19, samples=30_000, seed=4)
        monkeypatch.setattr(currents, "_CHUNK", 1 << 30)
        assert mc_switching_covariance(params, 0, 19, samples=30_000, seed=4) == default

    def test_one_generator_per_call(self, monkeypatch):
        made = []
        real = np.random.PCG64

        def counting(*args, **kwargs):
            made.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "PCG64", counting)
        params = ChainParams((1.0,) * 5, (0.1,) * 6)
        mc_switching_covariance(params, 0, 5, samples=70_000, seed=3)
        mc_moment(params, (0, 5), samples=70_000, seed=3)
        assert len(made) == 2
