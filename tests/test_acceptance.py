"""Acceptance gate: one test per advertised guarantee, at stated tolerances.

Each test records a PASS/FAIL line for the terminal summary before asserting,
so a red run still reports every criterion's outcome and measured margin.
"""

import json
import math
import time

import numpy as np
import pytest

from isingchain import (
    ChainParams,
    bound_abs_envelope,
    bound_nonneg_field,
    bound_signed_field,
    boundary_split_counterexamples,
    conditional_bound_check,
    cov_identity_check,
    covariance,
    covariance_enum,
    endpoint_event_counterexamples,
    enum_summary,
    log_partition,
    mc_switching_covariance,
    partition_ratio_lower,
    poisson_parity,
    site_mean,
    truncate,
    window_marginal_enum,
)
from isingchain.cli import main as cli_main

REL = 1e-10
ABS = 1e-12


def excess(value: float, ref: float, rel: float = REL, floor: float = ABS) -> float:
    """How many tolerances apart two values are; <= 1 is within tolerance."""
    return abs(value - ref) / max(rel * max(abs(value), abs(ref)), floor)


def draw_chain(rng, n, j_low, j_high, h_low, h_high) -> ChainParams:
    return ChainParams(
        tuple(rng.uniform(j_low, j_high, n - 1).tolist()),
        tuple(rng.uniform(h_low, h_high, n).tolist()),
    )


def test_criterion_01_solver_matches_enumeration(acceptance):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 14))
        p = draw_chain(rng, n, -3.0, 3.0, -2.0, 2.0)
        log_z_e, means_e, cov_e = enum_summary(p, 0, n - 1)
        worst = max(worst, excess(log_partition(p), log_z_e))
        for x in range(n):
            worst = max(worst, excess(site_mean(p, x), means_e[x]))
        worst = max(worst, excess(covariance(p, 0, n - 1), cov_e))
        if n > 2:
            while True:
                i = int(rng.integers(0, n - 1))
                j = int(rng.integers(i + 1, n))
                if (i, j) != (0, n - 1):
                    break
            worst = max(worst, excess(covariance(p, i, j), covariance_enum(p, i, j)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 30.0
    acceptance(
        1,
        ok,
        f"log Z, means, covariances vs enumeration on 1000 instances: worst "
        f"deviation {worst:.3g}x tolerance, {elapsed:.1f}s (limit 30s)",
    )
    assert ok


def test_criterion_02_signed_field_bound_dominates(acceptance):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1002)
    min_slack = math.inf
    for _ in range(10_000):
        n = int(rng.integers(2, 14))
        p = draw_chain(rng, n, 0.0, 3.0, -2.0, 2.0)
        slack = bound_signed_field(p, 0, n - 1) - covariance(p, 0, n - 1)
        min_slack = min(min_slack, slack)
    elapsed = time.perf_counter() - t0
    ok = min_slack >= -1e-12 and elapsed < 60.0
    acceptance(
        2,
        ok,
        f"signed-field bound vs covariance on 10000 ferromagnetic instances: "
        f"min slack {min_slack:.3g}, {elapsed:.1f}s (limit 60s)",
    )
    assert ok


def test_criterion_03_nonneg_field_bound_dominates(acceptance):
    rng = np.random.default_rng(1003)
    min_slack = math.inf
    for _ in range(10_000):
        n = int(rng.integers(2, 14))
        p = draw_chain(rng, n, 0.0, 3.0, 0.0, 2.0)
        slack = bound_nonneg_field(p, 0, n - 1) - covariance(p, 0, n - 1)
        min_slack = min(min_slack, slack)
    strict = 0
    trials = 500
    for _ in range(trials):
        n = int(rng.integers(2, 14))
        p = ChainParams(
            tuple(rng.uniform(0.05, 3.0, n - 1).tolist()), (0.0,) * n
        )
        strict += bound_nonneg_field(p, 0, n - 1) > covariance(p, 0, n - 1)
    ok = min_slack >= -1e-12 and strict == trials
    acceptance(
        3,
        ok,
        f"nonneg-field bound on 10000 instances: min slack {min_slack:.3g}; "
        f"strictly above the zero-field product in {strict}/{trials} cases",
    )
    assert ok


def test_criterion_04_absolute_envelope_dominates(acceptance):
    rng = np.random.default_rng(1004)
    min_slack = math.inf
    for _ in range(10_000):
        n = int(rng.integers(2, 14))
        p = draw_chain(rng, n, -3.0, 3.0, -2.0, 2.0)
        slack = bound_abs_envelope(p, 0, n - 1) - abs(covariance(p, 0, n - 1))
        min_slack = min(min_slack, slack)
    ok = min_slack >= -1e-12
    acceptance(
        4,
        ok,
        f"absolute-envelope bound vs |covariance| on 10000 fully signed "
        f"instances: min slack {min_slack:.3g}",
    )
    assert ok


def test_criterion_05_truncation_preserves_marginals(acceptance):
    rng = np.random.default_rng(1005)
    worst_tv = 0.0
    worst_shift = -math.inf
    windows = 0
    for _ in range(100):
        n = int(rng.integers(2, 12))
        p = draw_chain(rng, n, -3.0, 3.0, -2.0, 2.0)
        for i in range(n - 1):
            for j in range(i + 1, n):
                tm = truncate(p, i, j)
                full = window_marginal_enum(p, i, j)
                reduced = window_marginal_enum(tm.params, 0, j - i)
                worst_tv = max(worst_tv, 0.5 * float(np.abs(full - reduced).sum()))
                if i > 0:
                    worst_shift = max(
                        worst_shift,
                        abs(tm.h_prime_i - p.fields[i]) - abs(p.couplings[i - 1]),
                    )
                else:
                    worst_shift = max(worst_shift, abs(tm.h_prime_i - p.fields[i]))
                if j < n - 1:
                    worst_shift = max(
                        worst_shift,
                        abs(tm.h_prime_j - p.fields[j]) - abs(p.couplings[j]),
                    )
                else:
                    worst_shift = max(worst_shift, abs(tm.h_prime_j - p.fields[j]))
                windows += 1
    ok = worst_tv <= 1e-12 and worst_shift <= 1e-12
    acceptance(
        5,
        ok,
        f"window truncation over {windows} windows: worst total variation "
        f"{worst_tv:.3g}, worst field-shift excess {worst_shift:.3g}",
    )
    assert ok


def test_criterion_06_zero_field_product_formula(acceptance):
    rng = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 14))
        p = ChainParams(tuple(rng.uniform(-3.0, 3.0, n - 1).tolist()), (0.0,) * n)
        pairs = [(0, n - 1)]
        if n > 2:
            i = int(rng.integers(0, n - 1))
            j = int(rng.integers(i + 1, n))
            pairs.append((i, j))
        for i, j in pairs:
            expected = math.prod(math.tanh(v) for v in p.couplings[i:j])
            worst = max(worst, abs(covariance(p, i, j) - expected))
    ok = worst <= 1e-12
    acceptance(
        6,
        ok,
        f"zero-field covariance vs tanh product on 100 signed-coupling "
        f"instances: worst absolute deviation {worst:.3g}",
    )
    assert ok


def _criterion_07_instances():
    rng = np.random.default_rng(1007)
    for _ in range(100):
        n = int(rng.integers(2, 14))
        yield draw_chain(rng, n, 0.0, 3.0, 0.0, 2.0)


def test_criterion_07_parity_identity(acceptance):
    t0 = time.perf_counter()
    worst = 0.0
    for p in _criterion_07_instances():
        lhs, rhs = cov_identity_check(p)
        worst = max(worst, abs(lhs - rhs) / (1e-10 * max(abs(lhs), abs(rhs))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 10.0
    acceptance(
        7,
        ok,
        f"endpoint covariance identity on 100 ferromagnetic instances: worst "
        f"deviation {worst:.3g}x the 1e-10 relative tolerance, {elapsed:.1f}s "
        f"(limit 10s)",
    )
    assert ok


def test_criterion_08_conditional_ratio_bound(acceptance):
    min_slack = math.inf
    for p in _criterion_07_instances():
        log_ratio, log_lower = conditional_bound_check(p)
        min_slack = min(min_slack, log_ratio - log_lower)
    ok = min_slack >= -1e-12
    acceptance(
        8,
        ok,
        f"conditional boundary-match ratio vs its product lower bound on the "
        f"same 100 instances: min slack in logs {min_slack:.3g}",
    )
    assert ok


def test_criterion_09_exhaustive_current_checks(acceptance):
    bad = 0
    for n_sites in range(2, 6):
        bad += boundary_split_counterexamples(n_sites, max_entry=3)
        bad += endpoint_event_counterexamples(n_sites, max_entry=3)
    ok = bad == 0
    acceptance(
        9,
        ok,
        f"exhaustive split / endpoint-event characterizations over all "
        f"currents with entries <= 3, 2..5 sites: {bad} counterexamples",
    )
    assert ok


def test_criterion_10_paired_current_monte_carlo(acceptance):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    # Moderate fields keep the paired-boundary event observable: its
    # probability decays like exp(-4 sum h), so strong fields would need
    # far more than 10^6 samples for a meaningful z-test.
    p = draw_chain(rng, 6, 0.8, 1.5, 0.0, 0.3)
    exact = covariance(p, 0, 5)
    est = mc_switching_covariance(p, 0, 5, samples=1_000_000, seed=271828)
    z = (est.mean - exact) / est.std_error if est.std_error > 0 else math.inf
    elapsed = time.perf_counter() - t0
    ok = abs(z) <= 4.0 and elapsed < 60.0
    acceptance(
        10,
        ok,
        f"paired-current covariance estimate, 10^6 samples on a 6-site "
        f"ferromagnetic chain: z = {z:.2f}, {elapsed:.1f}s (limit 60s)",
    )
    assert ok


def test_criterion_11_partition_ratio_lower_bound(acceptance):
    rng = np.random.default_rng(1011)
    min_slack = math.inf
    for _ in range(10_000):
        n = int(rng.integers(2, 14))
        p = draw_chain(rng, n, 0.0, 3.0, -2.0, 2.0)
        ratio, lower = partition_ratio_lower(p)
        literal = math.exp(-2.0 * math.fsum(max(-h, 0.0) for h in p.fields))
        min_slack = min(min_slack, ratio - literal, ratio - lower)
    ok = min_slack >= -1e-12
    acceptance(
        11,
        ok,
        f"partition ratio vs exp(-2 sum h-) on 10000 mixed-sign instances: "
        f"min slack {min_slack:.3g}",
    )
    assert ok


def test_criterion_12_poisson_parity_closed_forms(acceptance):
    worst = 0.0
    for lam in np.linspace(0.0, 50.0, 501):
        lam = float(lam)
        p_zero, p_even, p_odd = poisson_parity(lam)
        worst = max(
            worst,
            abs(p_zero - math.exp(-lam)),
            abs(p_even - math.exp(-lam) * math.cosh(lam)),
            abs(p_odd - math.exp(-lam) * math.sinh(lam)),
        )
    ok = worst <= 1e-15
    acceptance(
        12,
        ok,
        f"Poisson parity probabilities vs exp/cosh/sinh forms on a 501-point "
        f"rate grid over [0, 50]: worst deviation {worst:.3g}",
    )
    assert ok


def test_criterion_13_decay_reports_no_violations(acceptance, tmp_path, capsys):
    rng = np.random.default_rng(1013)
    specs = [
        {"n_sites": int(rng.integers(4, 13)), "seed": int(rng.integers(0, 2**31))}
        for _ in range(8)
    ]
    specs += [
        {
            "n_sites": 10,
            "J": {"type": "constant", "value": 1.0},
            "h": {"type": "constant", "value": 0.0},
            "seed": 1,
        },
        {
            "n_sites": 9,
            "J": {"type": "constant", "value": 0.8},
            "h": {"type": "constant", "value": 0.5},
            "seed": 2,
        },
        {"n_sites": 8, "sign_flip_prob": {"h": 1.0}, "seed": 3},
    ]
    rows = 0
    violations = 0
    bad_exit = 0
    for index, spec in enumerate(specs):
        path = tmp_path / f"spec{index}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        # The alternate-route flag is exercised only where the two routes
        # provably coincide (zero fields); for signed fields the alternate
        # effective-field convention carries no dominance guarantee.
        zero_field = spec.get("h") == {"type": "constant", "value": 0.0}
        routes = ([], ["--proof-route"]) if zero_field else ([],)
        for extra in routes:
            code = cli_main(["decay", "--spec", str(path), "--out", "json", *extra])
            out = capsys.readouterr().out
            doc = json.loads(out)
            bad_exit += code != 0
            for row in doc["rows"]:
                rows += 1
                violations += row["flag"] == "violation"
    ok = violations == 0 and bad_exit == 0 and rows > 0
    acceptance(
        13,
        ok,
        f"decay command over {len(specs)} spec files ({rows} distance rows): "
        f"{violations} flagged violations, {bad_exit} nonzero exits",
    )
    assert ok
