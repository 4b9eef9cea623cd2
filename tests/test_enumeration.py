"""Precision gate for the cached enumeration oracle (``params.enumeration``).

The reference functions below are the oracle it replaced: every
covariance_enum call reran the whole 2^N enumeration, with a full spin matrix
per block, and enum_summary accumulated log Z and the means the same way. The
cached pass must agree with them to 1e-12 absolute on every mean and every
pair, and to 1e-14 relative on log Z, also on instances whose running shift
rises between blocks. Below 13 sites, log Z, every mean and every covariance
are also gated against a 50-digit mpmath enumeration.
"""

import json
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from isingchain import (
    ChainParams,
    SpinConfig,
    covariance,
    covariance_enum,
    enum_summary,
    expectation_enum,
    hamiltonian,
    log_partition,
    site_mean,
    window_marginal_enum,
)
from isingchain import chain, cli
from isingchain.instances import instance_seeds

from conftest import random_params
from test_acceptance import excess

_BLOCK_BITS = 16


def _ref_energy_blocks(params):
    n = params.n_sites
    j_arr = np.asarray(params.couplings, dtype=np.float64)
    h_arr = np.asarray(params.fields, dtype=np.float64)
    total = 1 << n
    block = 1 << min(_BLOCK_BITS, n)
    bit_idx = np.arange(n, dtype=np.uint32)
    for start in range(0, total, block):
        idx = np.arange(start, min(start + block, total), dtype=np.uint32)
        spins = 1.0 - 2.0 * ((idx[:, None] >> bit_idx) & 1).astype(np.float64)
        energy = -(spins[:, :-1] * spins[:, 1:]) @ j_arr - spins @ h_arr
        yield spins, energy


def _ref_weighted_blocks(params):
    shift = -math.inf
    for spins, energy in _ref_energy_blocks(params):
        rescale = 1.0
        top = -float(energy.min())
        if top > shift:
            rescale = math.exp(shift - top)
            shift = top
        yield spins, np.exp(-shift - energy), rescale, shift


def ref_covariance_enum(params, i, j):
    z = s_i = s_j = s_ij = 0.0
    for spins, w, rescale, _ in _ref_weighted_blocks(params):
        si = spins[:, i]
        sj = spins[:, j]
        z = z * rescale + float(w.sum())
        s_i = s_i * rescale + float((w * si).sum())
        s_j = s_j * rescale + float((w * sj).sum())
        s_ij = s_ij * rescale + float((w * si * sj).sum())
    return s_ij / z - (s_i / z) * (s_j / z)


def ref_enum_summary(params):
    z = shift = 0.0
    sums = np.zeros(params.n_sites, dtype=np.float64)
    for spins, w, rescale, shift in _ref_weighted_blocks(params):
        z = z * rescale + float(w.sum())
        sums *= rescale
        sums += w @ spins
    return shift + math.log(z), sums / z


def ref_expectation_enum(params, sites):
    cols = sorted(set(sites))
    num = den = 0.0
    for spins, w, rescale, _ in _ref_weighted_blocks(params):
        den = den * rescale + float(w.sum())
        num = num * rescale + float((w * spins[:, cols].prod(axis=1)).sum())
    return num / den


def ref_window_marginal_enum(params, i, j):
    width = j - i + 1
    out = np.zeros(1 << width, dtype=np.float64)
    weights_idx = 1 << np.arange(width, dtype=np.int64)
    for spins, w, rescale, _ in _ref_weighted_blocks(params):
        bits = (spins[:, i : j + 1] < 0).astype(np.int64)
        out *= rescale
        out += np.bincount(bits @ weights_idx, weights=w, minlength=1 << width)
    return out / out.sum()


def ref_all_covariances(params):
    """ref_covariance_enum for every pair i < j, in one walk over the blocks.

    Each pair's sums see the operations of ref_covariance_enum in the same
    order, so the values are equal to it bit for bit (checked below); sharing
    the walk only keeps the gate fast at 20 sites.
    """
    n = params.n_sites
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    z = 0.0
    s = [0.0] * n
    s_pair = dict.fromkeys(pairs, 0.0)
    for spins, w, rescale, _ in _ref_weighted_blocks(params):
        z = z * rescale + float(w.sum())
        columns = np.ascontiguousarray(spins.T)
        w_spin = [w * columns[x] for x in range(n)]
        for x in range(n):
            s[x] = s[x] * rescale + float(w_spin[x].sum())
        for i, j in pairs:
            s_pair[i, j] = s_pair[i, j] * rescale + float((w_spin[i] * columns[j]).sum())
    return {(i, j): s_pair[i, j] / z - (s[i] / z) * (s[j] / z) for i, j in pairs}


def _instances():
    rng = np.random.default_rng(4242)
    out = [random_params(rng, n) for n in (1, 2, 5, 13, 16, 17, 20)]
    out += [
        random_params(rng, n, -1e3, 1e3, -1e3, 1e3) for n in (2, 5, 13, 16, 17, 20)
    ]
    # shifts of a few units between blocks: the earlier blocks' sums still
    # carry weight when they are rescaled
    out += [random_params(rng, n, -0.5, 0.5, -0.3, 0.3) for n in (17, 20)]
    out += [
        ChainParams((700.0,) * 16, (-0.3,) * 17),
        ChainParams((700.0, -700.0) * 8, (0.2, -0.4) * 8 + (0.1,)),
    ]
    return out


INSTANCES = _instances()


@pytest.mark.parametrize("params", INSTANCES, ids=lambda p: f"n{p.n_sites}")
def test_matches_per_pair_oracle(params):
    log_z, means, _ = enum_summary(params)
    ref_log_z, ref_means = ref_enum_summary(params)
    assert log_z == pytest.approx(ref_log_z, rel=1e-14, abs=0.0)
    assert np.max(np.abs(means - ref_means)) <= 1e-12
    for (i, j), ref in ref_all_covariances(params).items():
        assert abs(covariance_enum(params, i, j) - ref) <= 1e-12, (i, j)
        assert covariance_enum(params, j, i) == covariance_enum(params, i, j)


@pytest.mark.parametrize("n", [5, 17])
def test_all_pairs_reference_is_the_per_pair_oracle(n):
    params = random_params(np.random.default_rng(n), n)
    table = ref_all_covariances(params)
    for i, j in [(0, n - 1), (1, 3), (n - 2, n - 1)]:
        assert table[i, j] == ref_covariance_enum(params, i, j)


def test_pair_value_independent_of_earlier_queries():
    params = random_params(np.random.default_rng(99), 18)
    pairs = [(i, j) for i in range(18) for j in range(i + 1, 18)]
    forward = {pair: covariance_enum(params, *pair) for pair in pairs}
    fresh = ChainParams(params.couplings, params.fields)
    backward = {pair: covariance_enum(fresh, *pair) for pair in reversed(pairs)}
    assert forward == backward
    summary = enum_summary(ChainParams(params.couplings, params.fields), 4, 11)
    assert summary[2] == forward[4, 11]


def test_enumeration_built_once_and_read_only():
    params = random_params(np.random.default_rng(5), 9)
    oracle = params.enumeration
    covariance_enum(params, 0, 8)
    enum_summary(params, 2, 3)
    assert params.enumeration is oracle
    assert oracle.cov.shape == (9, 9)
    assert np.array_equal(oracle.cov, oracle.cov.T)
    with pytest.raises(ValueError):
        oracle.means[0] = 0.0
    with pytest.raises(ValueError):
        oracle.cov[0, 1] = 0.0


def _layout_arrays(layout):
    # every field but the cuts is a tuple of arrays
    return [values for field in layout[1:] for values in field]


@pytest.mark.parametrize("n", [1, 2, 9, 16, 17, 20])
def test_cached_layout_is_read_only(n):
    # every instance of this length reads these arrays
    for values in _layout_arrays(chain._layout(n)):
        with pytest.raises(ValueError, match="read-only"):
            values[...] = 0


def test_same_length_instances_share_the_layout(monkeypatch):
    contract = chain._contract
    columns = []

    def spy(tables, c, *matrices):
        columns.append(matrices)
        return contract(tables, c, *matrices)

    monkeypatch.setattr(chain, "_contract", spy)
    rng = np.random.default_rng(13)
    for n in (13, 13, 14):
        random_params(rng, n).enumeration
    one, two, other = columns
    assert all(a is b for a, b in zip(one, two))
    assert not any(a is b for a, b in zip(one, other))
    assert chain._layout.cache_info().maxsize == chain.ENUMERATION_CAP


@pytest.mark.parametrize("n", [1, 2, 9, 16, 17, 20])
def test_cold_layout_gives_the_warm_enumeration(n):
    rng = np.random.default_rng(n)
    params = random_params(rng, n, -1e3, 1e3, -1e3, 1e3)
    chain._layout.cache_clear()
    cold = ChainParams(params.couplings, params.fields).enumeration
    random_params(rng, n, -1e3, 1e3, -1e3, 1e3).enumeration
    warm = ChainParams(params.couplings, params.fields).enumeration
    assert np.float64(cold.log_z).tobytes() == np.float64(warm.log_z).tobytes()
    assert cold.means.tobytes() == warm.means.tobytes()
    assert cold.cov.tobytes() == warm.cov.tobytes()


def test_sweep_rows_independent_of_earlier_instances(capsys, tmp_path, monkeypatch):
    # Five 13-site instances swept in one order and in the reverse one, each
    # time from an empty cache: each instance's rows, which pass the oracle
    # check, must not depend on the instances swept before it.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n_sites": 13, "seed": 1}), encoding="utf-8")
    seeds = instance_seeds(1, 5)
    rows = []
    for order in (seeds, seeds[::-1]):
        monkeypatch.setattr(cli, "instance_seeds", lambda root, count, order=order: order)
        chain._layout.cache_clear()
        argv = ["sweep", "--spec", str(spec), "--pairs", "all", "--count", "5"]
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert len(lines) == 5 * 78
        # drop the instance index, which is the sweep position
        rows.append(sorted(line.split(",", 1)[1] for line in lines))
    assert rows[0] == rows[1]


# Windows and site sets below, across and above the cuts of an 18-site chain
# into the pieces [0, 8), [8, 16) and [16, 18).
WINDOWS = [
    (0, 0), (0, 3), (13, 17), (15, 16), (16, 17), (17, 17), (0, 17), (7, 8), (5, 10)
]
SITE_SETS = [(), (0,), (17,), (2, 16), (0, 15, 16, 17), (3, 8, 17), (7, 8)]


@pytest.mark.parametrize(
    "params",
    [
        random_params(np.random.default_rng(18), 18),
        random_params(np.random.default_rng(19), 18, -0.5, 0.5, -0.3, 0.3),
        ChainParams((700.0, -700.0) * 8 + (700.0,), (0.2, -0.4) * 9),
    ],
    ids=["signed", "weak", "strong"],
)
def test_block_walkers_match_reference(params):
    for i, j in WINDOWS:
        got = window_marginal_enum(params, i, j)
        ref = ref_window_marginal_enum(params, i, j)
        assert np.max(np.abs(got - ref)) <= 1e-12, (i, j)
    for sites in SITE_SETS:
        assert expectation_enum(params, sites) == pytest.approx(
            ref_expectation_enum(params, sites), rel=1e-12, abs=1e-12
        ), sites


@pytest.mark.parametrize("n", range(1, 18))
def test_factors_are_the_weights(n):
    # Every weight c[h] T[h & 1][b, a], at configuration a + 2^A b + 2^L h,
    # is exp(-E - shift) for the energy E of the full 2^N spin table. The
    # factors group the 2N - 1 terms of E otherwise (pieces, then bonds
    # across them), so the exponents differ by at most the summation error
    # bound 2N 2^-52 sum(|J| + |h|) (Higham 2002, §4.2); exp and the product
    # add a few ulps. Only normal reference weights are compared.
    rng = np.random.default_rng(n)
    for params in (random_params(rng, n), random_params(rng, n, -1e3, 1e3, -1e3, 1e3)):
        tables, c, shift = chain._factors(params)
        weights = (c[:, None, None] * tables[np.arange(len(c)) % len(tables)]).ravel()
        blocks = list(_ref_energy_blocks(params))
        energy = np.concatenate([e for _, e in blocks])
        scale = float(np.abs(params.couplings).sum() + np.abs(params.fields).sum())
        gap = 2 * n * 2.0**-52 * scale
        for k in {0, len(energy) - 1, *rng.integers(0, len(energy), 5).tolist()}:
            block, row = divmod(k, 1 << _BLOCK_BITS)
            spins = blocks[block][0][row]
            assert abs(hamiltonian(params, SpinConfig(spins)) - energy[k]) <= gap, k
        ref = np.exp(-energy - shift)
        normal = ref >= np.finfo(np.float64).tiny
        assert weights.max() == 1.0 and normal.any()
        err = np.abs(weights[normal] - ref[normal])
        assert np.all(err <= ref[normal] * (np.expm1(gap) + 4 * 2.0**-52))


def test_enumeration_peak_memory_below_one_bond_table():
    # The 2^16 x 15 float64 bond-product table alone is 7.5 MiB, and the
    # oracle that built its energies on a cached 2^16-row spin table peaked
    # at 4.75 MiB at the cap; the bound holds from one table and one h (16
    # sites) up to the cap, with nothing cached beforehand (the length's
    # tables are built inside the traced pass).
    for n in (16, chain.ENUMERATION_CAP):
        params = random_params(np.random.default_rng(16), n)
        chain._layout.cache_clear()
        tracemalloc.start()
        try:
            params.enumeration
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4.75 * (1 << 20), (n, peak)


@pytest.mark.parametrize("seed", [24, 2424])
def test_oracle_at_the_cap_matches_solver(seed):
    # 24 sites: 8 high sites, 256 blocks of 2^16 configurations.
    params = random_params(np.random.default_rng(seed), chain.ENUMERATION_CAP)
    n = params.n_sites
    log_z, means, _ = enum_summary(params)
    worst = excess(log_partition(params), log_z)
    worst = max(worst, *(excess(site_mean(params, x), means[x]) for x in range(n)))
    for i in range(n):
        for j in range(i + 1, n):
            value = covariance_enum(params, i, j)
            worst = max(worst, excess(covariance(params, i, j), value))
    assert worst <= 1.0


def mp_enumeration(params, digits=50):
    """(log Z, means, upper-triangle covariances) of a `digits`-digit sum over
    all 2^N configurations, the weights exp(-H - shift) each taken once.

    The float inputs are exact in mpmath and each energy is an fsum of them,
    so the reference's only rounding is at the 50th digit. Means and second
    moments come off sums of the weights whose spins differ: <s_x> = 1 - 2
    sum_{s_x = -1} w / Z and <s_x s_y> = 1 - 2 sum_{s_x != s_y} w / Z.
    """
    n = params.n_sites
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1 == 1
    with mpmath.workdps(digits):
        terms = [*map(mpmath.mpf, params.couplings.tolist() + params.fields.tolist())]
        neg = []
        for row in np.where(bits, -1, 1).tolist():
            signs = [a * b for a, b in zip(row, row[1:])] + row
            neg.append(mpmath.fsum(t * s for t, s in zip(terms, signs)))
        top = max(neg)
        w = np.array([mpmath.exp(e - top) for e in neg], dtype=object)
        z = mpmath.fsum(w)
        means = [1 - 2 * mpmath.fsum(w[bits[:, x]]) / z for x in range(n)]
        cov = {}
        for x in range(n):
            for y in range(x, n):
                second = 1 - 2 * mpmath.fsum(w[bits[:, x] != bits[:, y]]) / z
                cov[x, y] = second - means[x] * means[y]
        return top + mpmath.log(z), means, cov


def _mp_instances():
    rng = np.random.default_rng(2020)
    out = {}
    for n in range(1, 13):
        tied = np.resize([700.0, -700.0], n - 1)
        out[f"signed-n{n}"] = random_params(rng, n)
        out[f"wide-n{n}"] = random_params(rng, n, -1e3, 1e3, -1e3, 1e3)
        # every configuration ties with its global flip
        out[f"tied-n{n}"] = ChainParams(tied, np.zeros(n))
        out[f"tied-field-n{n}"] = ChainParams(tied, np.resize([0.2, -0.4], n))
    return out


MP_INSTANCES = _mp_instances()


@pytest.mark.parametrize("params", MP_INSTANCES.values(), ids=MP_INSTANCES)
def test_matches_mpmath_enumeration(params):
    # Chains of 1-12 sites are their own low half, so odd and even n fold
    # into grids of 2^ceil(n/2) x 2^floor(n/2) with distinct and equal sides.
    # log Z is the float energy of one configuration, a sum of 2N - 1 terms
    # whose rounding is below N 2^-52 times the sum of |J| and |h| (Higham
    # 2002, ch. 4), plus the log of a weight sum below 2^N; means and
    # covariances are checked to the oracle's absolute 1e-12.
    ref_log_z, ref_means, ref_cov = mp_enumeration(params)
    oracle, n = params.enumeration, params.n_sites
    scale = float(np.abs(params.couplings).sum() + np.abs(params.fields).sum()) + n
    assert abs(float(ref_log_z - oracle.log_z)) <= n * 2.0**-52 * scale
    for x, ref in enumerate(ref_means):
        assert abs(float(ref - oracle.means[x])) <= 1e-12, x
    for (x, y), ref in ref_cov.items():
        assert abs(float(ref - oracle.cov[x, y])) <= 1e-12, (x, y)
