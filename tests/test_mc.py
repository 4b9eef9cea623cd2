"""The Monte-Carlo covariance estimator against exact oracles."""

import json
import math
import os
import threading

import numpy as np
import pytest

from isingchain import (
    ChainParams,
    InconclusiveEstimateError,
    PreconditionError,
    covariance,
    mc_switching_covariance,
    poisson_parity,
)
from isingchain import cli, currents
from isingchain.currents import (
    _ghost_disconnected,
    _mixed_radix_rows,
    _negative_mask,
    _paired_terms,
    _plane_chunks,
)


def set_cpus(monkeypatch, cpus):
    """Make `cpus` CPUs usable, as the estimator counts them."""
    usable = set(range(cpus))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: usable, raising=False)


def z_score(estimate, exact):
    if estimate.std_error == 0.0:
        return 0.0 if estimate.mean == exact else math.inf
    return (estimate.mean - exact) / estimate.std_error


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

    def test_error_shrinks_with_samples(self):
        # Quadrupling the sample count should roughly halve the reported
        # standard error (1/sqrt(n) scaling); allow slack for the noise in
        # the variance estimate itself.
        p = ChainParams((1.0,), (0.2, 0.1))
        small = mc_switching_covariance(p, 0, 1, samples=20_000, seed=5)
        big = mc_switching_covariance(p, 0, 1, samples=80_000, seed=5)
        assert big.std_error < small.std_error
        assert small.std_error / big.std_error == pytest.approx(2.0, rel=0.15)

    def test_to_dict(self):
        p = ChainParams((1.0,), (0.0, 0.0))
        est = mc_switching_covariance(p, 0, 1, samples=1000, seed=0)
        d = est.to_dict()
        assert d == {
            "mean": est.mean,
            "std_error": est.std_error,
            "samples": 1000,
        }


def class_law(params):
    """(P(absent), P(odd), P(even and positive)) per edge, lattice edges first."""
    rates = np.concatenate((params.couplings, params.fields))
    laws = [poisson_parity(abs(v)) for v in rates]
    return np.array([(zero, odd, even - zero) for zero, even, odd in laws])


def class_table(params):
    """Every class vector as its planes, and its probability.

    Returns (opened, odd, prob): opened is sample axis first, odd edge axis
    first, mapped from the class codes as opened = class > 0 and
    odd = class == 1.
    """
    width = params.n_edges + params.n_sites
    rows = _mixed_radix_rows(3, width)
    prob = class_law(params)[np.arange(width), rows].prod(axis=1)
    return rows > 0, np.ascontiguousarray(rows.T == 1), prob


GATE_CHAINS = [
    (ChainParams((0.8, 1.2), (0.3, 0.1, 0.4)), 0, 2),
    (ChainParams((-1.0, 0.7), (0.5, -0.3, 0.2)), 0, 2),
    (ChainParams((0.9, 1.1, 0.7), (0.3, 0.2, 0.1, 0.4)), 1, 2),
    (ChainParams((0.6, -0.9, 1.3), (-0.2, 0.4, 0.1, -0.5)), 1, 3),
    (ChainParams((0.6, -0.9, 1.3), (-0.2, 0.4, 0.1, -0.5)), 0, 3),
]


def flood_fill_disconnected(lat_open, gho_open, site):
    """Whether `site` misses the ghost, by growing its component edge by edge."""
    seen, todo = {site}, [site]
    while todo:
        x = todo.pop()
        for y, edge in ((x - 1, x - 1), (x + 1, x)):
            if 0 <= edge < len(lat_open) and lat_open[edge] and y not in seen:
                seen.add(y)
                todo.append(y)
    return not any(gho_open[x] for x in seen)


@pytest.mark.parametrize("n_sites", range(1, 9))
def test_ghost_disconnected_is_the_flood_fill(n_sites):
    rng = np.random.default_rng(n_sites)
    lat = rng.random((500, n_sites - 1)) < rng.uniform(0.2, 0.9, (500, 1))
    gho = rng.random((500, n_sites)) < rng.uniform(0.0, 0.6, (500, 1))
    for site in range(n_sites):
        want = [flood_fill_disconnected(a, g, site) for a, g in zip(lat, gho)]
        assert _ghost_disconnected(lat, gho, site).tolist() == want, site


class TestClassLaw:
    """The estimator's per-sample terms, averaged exactly over the class law."""

    @pytest.mark.parametrize("params, i, j", GATE_CHAINS)
    def test_covariance_ratio_is_exact(self, params, i, j):
        opened, odd, prob = class_table(params)
        width, m = odd.shape
        negative = _negative_mask(params)
        e_w = e_d = 0.0
        block = max(1, (1 << 19) // m)
        for start in range(0, m, block):
            first = odd[:, start : start + block]
            pairs = np.empty((width, 2, first.shape[1], m), dtype=bool)
            pairs[:, 0] = first[:, :, None]
            pairs[:, 1] = odd[:, None, :]
            pairs_opened = np.empty((first.shape[1], m, 2, width), dtype=bool)
            pairs_opened[:, :, 0] = opened[start : start + block, None]
            pairs_opened[:, :, 1] = opened[None]
            w, d = _paired_terms(pairs_opened, pairs, params.n_edges, i, j, negative)
            e_w += prob[start : start + block] @ w @ prob
            e_d += prob[start : start + block] @ d @ prob
        assert e_w / e_d**2 == pytest.approx(covariance(params, i, j), rel=1e-12)

    def test_sampled_class_frequencies(self):
        params = ChainParams((0.3, -1.5, 0.05), (0.0, 0.7, -2.5, 0.2))
        n = 200_000
        counts = np.zeros((params.n_edges + params.n_sites, 3))
        for opened, odd in _plane_chunks(params, seed=99, samples=n):
            # back to class codes: 0 absent, 1 odd, 2 even and positive
            chunk = 2 * opened.transpose(2, 1, 0) - odd
            for c in range(3):
                counts[:, c] += (chunk == c).sum(axis=(1, 2))
        law = class_law(params)
        total = 2 * n
        stderr = np.sqrt(law * (1.0 - law) / total)
        assert (np.abs(counts / total - law) <= 4.0 * stderr).all()
        assert counts[params.n_edges, 0] == total  # zero rate: always absent

    def test_chunk_size_invariant(self, monkeypatch):
        params = ChainParams((0.8, -0.4, 1.1), (0.2, 0.1, -0.3, 0.25))

        def run():
            return mc_switching_covariance(params, 0, 3, samples=5003, seed=12)

        default = run()
        monkeypatch.setattr(currents, "_CHUNK", 1000)
        assert run() == default

    def test_long_chains_get_short_chunks(self, monkeypatch):
        # 129 edge laws: the draw cap, not the sample cap, sets the chunk
        params = ChainParams((0.01,) * 64, (0.0,) * 65)
        sizes = [odd.shape[2] for _, odd in _plane_chunks(params, 1, 10_000)]
        assert sum(sizes) == 10_000
        assert max(sizes) < currents._CHUNK
        assert len(sizes) > 1 and max(sizes) * 2 * 129 <= currents._CHUNK_DRAWS
        default = mc_switching_covariance(params, 0, 64, samples=10_000, seed=4)
        monkeypatch.setattr(currents, "_CHUNK", 1 << 30)
        monkeypatch.setattr(currents, "_CHUNK_DRAWS", 1 << 30)
        assert mc_switching_covariance(params, 0, 64, samples=10_000, seed=4) == default

    def test_one_generator_per_call(self, monkeypatch):
        # One stream per call: every PCG64 a call makes is
        # PCG64(SeedSequence(seed)) advanced to the first draw of its range,
        # and the ranges tile [0, samples) in order. 70 000 samples are 9
        # chunks, so a call makes one generator per usable CPU.
        real = np.random.PCG64
        made = []

        class Recording(real):
            def __init__(self, seed_seq):
                super().__init__(seed_seq)
                self.given = seed_seq
                made.append(self)

            def advance(self, delta):
                self.delta = delta
                return super().advance(delta)

        monkeypatch.setattr(np.random, "PCG64", Recording)
        params = ChainParams((1.0,) * 5, (0.1,) * 6)
        draws = 2 * (params.n_edges + params.n_sites)
        samples = 70_000
        for cpus in (1, 2, 3, 7):
            set_cpus(monkeypatch, cpus)
            made.clear()
            mc_switching_covariance(params, 0, 5, samples=samples, seed=3)
            assert len(made) == cpus
            made.sort(key=lambda gen: gen.delta)
            starts = [gen.delta // draws for gen in made]
            assert [gen.delta % draws for gen in made] == [0] * len(made)
            assert starts[0] == 0
            for gen, stop in zip(made, starts[1:] + [samples]):
                assert gen.given.entropy == 3 and gen.given.spawn_key == ()
                want = real(np.random.SeedSequence(3)).advance(stop * draws)
                assert gen.state["state"] == want.state["state"]


# A signed chain, and the 129-edge chain whose covariance chunks the draw cap sets.
WORKER_CHAINS = [
    (ChainParams((0.6, -0.9, 1.3), (-0.2, 0.4, 0.1, -0.5)), 0, 3),
    (ChainParams((0.01,) * 64, (0.0,) * 65), 0, 1),
]


@pytest.mark.parametrize("params, i, j", WORKER_CHAINS)
@pytest.mark.parametrize(
    "samples", [1, currents._CHUNK - 1, currents._CHUNK + 1, 70_001]
)
def test_worker_count_cannot_move_an_estimate(monkeypatch, params, i, j, samples):
    def outcome(estimate):
        try:
            return estimate()
        except InconclusiveEstimateError as exc:
            return str(exc)

    seen = {}
    for cpus in (1, 2, 3, 7):
        set_cpus(monkeypatch, cpus)
        seen[cpus] = outcome(
            lambda: mc_switching_covariance(params, i, j, samples, seed=21)
        )
    assert seen[2] == seen[1] and seen[3] == seen[1] and seen[7] == seen[1]


def test_worker_error_exits_3_and_joins_every_thread(monkeypatch, capsys, tmp_path):
    set_cpus(monkeypatch, 2)
    real = currents._paired_terms

    def failing(*args):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("a second worker's chunk")
        return real(*args)

    monkeypatch.setattr(currents, "_paired_terms", failing)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"J": [0.8, 0.3], "h": [0.5, 0.2, 0.1]}))
    threads = threading.active_count()
    argv = ["mc", "--instance", str(path), "--i", "0", "--j", "2", "--seed", "1"]
    assert cli.main(argv + ["--samples", "100000"]) == 3
    err = capsys.readouterr().err
    assert "request too large for memory: a second worker's chunk" in err
    assert "Traceback" not in err
    assert threading.active_count() == threads


def test_interrupt_stops_and_joins_every_worker(monkeypatch):
    set_cpus(monkeypatch, 2)
    real = currents._paired_terms
    worker_chunks = []

    def interrupted(*args):
        if threading.current_thread() is threading.main_thread():
            raise KeyboardInterrupt
        worker_chunks.append(None)
        return real(*args)

    monkeypatch.setattr(currents, "_paired_terms", interrupted)
    threads = threading.active_count()
    params = ChainParams((1.0,) * 5, (0.1,) * 6)
    with pytest.raises(KeyboardInterrupt):
        mc_switching_covariance(params, 0, 5, samples=1_000_000, seed=3)
    assert threading.active_count() == threads
    # The second worker's range is 123 chunks; it stops at its next one.
    assert len(worker_chunks) < 100
