"""Bound evaluators: closed forms, dominance, applicability and reports."""

import itertools
import math

import numpy as np
import pytest

from isingchain import (
    ChainParams,
    OracleMismatchError,
    PreconditionError,
    bound_abs_envelope,
    bound_nonneg_field,
    bound_signed_field,
    bound_zero_field,
    compare,
    compare_row,
    covariance,
    finite_decay_rate,
    partition_ratio_lower,
)
from isingchain.bounds import (
    BOUND_KEYS,
    DOMINANCE_TOL,
    REPORT_COLUMNS,
    BoundReport,
    _bound_blocks,
    _report_columns,
    _reports,
    decay_rates,
    format_cell,
)

from isingchain.numeric import log_cosh

from conftest import random_params


def ferro_params(rng, n, h_low=-2.0, h_high=2.0):
    return random_params(rng, n, j_low=0.0, j_high=3.0, h_low=h_low, h_high=h_high)


class TestEdgeProduct:
    def test_single_edge_closed_form(self):
        # 4 tanh(J)/(1+tanh J)^2 == 1 - exp(-4J), pinned at J = 1
        p = ChainParams((1.0,), (0.0, 0.0))
        val = bound_signed_field(p, 0, 1)
        assert val == pytest.approx(0.9816843611112658, rel=1e-14)
        t = math.tanh(1.0)
        assert val == pytest.approx(4 * t / (1 + t) ** 2, rel=1e-14)

    def test_zero_coupling_gives_zero_bound(self):
        p = ChainParams((1.0, 0.0), (0.0, 0.0, 0.0))
        assert bound_signed_field(p, 0, 2) == 0.0
        assert bound_nonneg_field(p, 0, 2) == 0.0
        assert bound_zero_field(p, 0, 2) == 0.0


class TestZeroFieldBound:
    def test_is_product_of_tanh(self):
        p = ChainParams((1.0, 0.5, 2.0), (0.0,) * 4)
        assert bound_zero_field(p, 0, 3) == pytest.approx(
            math.tanh(1) * math.tanh(0.5) * math.tanh(2), rel=1e-14
        )

    def test_equals_covariance_at_zero_field(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            p = ferro_params(rng, n, h_low=0.0, h_high=0.0)
            assert bound_zero_field(p, 0, n - 1) == pytest.approx(
                covariance(p, 0, n - 1), rel=1e-12, abs=1e-15
            )

    def test_dominates_under_any_field(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            p = ferro_params(rng, n)
            assert bound_zero_field(p, 0, n - 1) - covariance(p, 0, n - 1) >= -1e-12

    def test_needs_ferromagnetic(self):
        with pytest.raises(PreconditionError):
            bound_zero_field(ChainParams((-1.0,), (0.0, 0.0)), 0, 1)


class TestSignedFieldBound:
    def test_agrees_with_nonneg_bound_when_fields_nonneg(self):
        # with h >= 0 the signed-field factor 4e^{-2|S|}/(1+e^{-2T})^2 equals
        # 1/cosh^2(S), so both bounds coincide
        rng = np.random.default_rng(47)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            p = ferro_params(rng, n, h_low=0.0, h_high=2.0)
            i = int(rng.integers(0, n - 1))
            j = int(rng.integers(i + 1, n))
            assert bound_signed_field(p, i, j) == pytest.approx(
                bound_nonneg_field(p, i, j), rel=1e-12
            )

    def test_dominates_signed_fields(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            p = ferro_params(rng, n)
            i = int(rng.integers(0, n - 1))
            j = int(rng.integers(i + 1, n))
            cov = covariance(p, i, j)
            assert bound_signed_field(p, i, j) - cov >= -1e-12

    def test_proof_route_variant(self):
        # The alternate route computes the effective end fields on the
        # absolute-field model. With h >= 0 both routes see the same model
        # and must agree exactly; with signed fields they are different
        # conventions, and only the default one carries the dominance
        # guarantee (the variant can fall below the covariance on windows
        # whose exterior fields cancel in sign).
        rng = np.random.default_rng(61)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            p = ferro_params(rng, n, h_low=0.0, h_high=2.0)
            i = int(rng.integers(0, n - 1))
            j = int(rng.integers(i + 1, n))
            assert bound_signed_field(p, i, j, proof_route=True) == bound_signed_field(
                p, i, j
            )
        differs = 0
        for _ in range(25):
            n = int(rng.integers(3, 9))
            p = ferro_params(rng, n)
            variant = bound_signed_field(p, 1, n - 1, proof_route=True)
            assert math.isfinite(variant) and variant >= 0.0
            differs += variant != bound_signed_field(p, 1, n - 1)
        assert differs > 0

    def test_needs_ferromagnetic(self):
        with pytest.raises(PreconditionError):
            bound_signed_field(ChainParams((-1.0,), (0.5, 0.5)), 0, 1)

    def test_window_ordering(self):
        p = ChainParams((1.0,), (0.0, 0.0))
        with pytest.raises(PreconditionError):
            bound_signed_field(p, 1, 0)


class TestNonnegFieldBound:
    def test_needs_nonneg_fields(self):
        with pytest.raises(PreconditionError):
            bound_nonneg_field(ChainParams((1.0,), (-0.1, 0.0)), 0, 1)

    def test_dominates_nonneg_fields(self):
        rng = np.random.default_rng(59)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            p = ferro_params(rng, n, h_low=0.0, h_high=2.0)
            i = int(rng.integers(0, n - 1))
            j = int(rng.integers(i + 1, n))
            assert bound_nonneg_field(p, i, j) - covariance(p, i, j) >= -1e-12

    def test_strictly_above_tanh_product_at_zero_field(self):
        # 4t/(1+t)^2 > t for t in (0,1), so the bound is strictly loose there
        rng = np.random.default_rng(61)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            p = ferro_params(rng, n, h_low=0.0, h_high=0.0)
            if any(j == 0.0 for j in p.couplings):
                continue
            assert bound_nonneg_field(p, 0, n - 1) > covariance(p, 0, n - 1)


class TestAbsEnvelope:
    def test_no_sign_restrictions(self):
        p = ChainParams((-1.0, 0.5), (0.4, -0.3, 0.2))
        assert bound_abs_envelope(p, 0, 2) >= abs(covariance(p, 0, 2)) - 1e-12

    def test_envelope_dominates_fully_signed(self):
        rng = np.random.default_rng(67)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            p = random_params(rng, n)
            i = int(rng.integers(0, n - 1))
            j = int(rng.integers(i + 1, n))
            assert bound_abs_envelope(p, i, j) - abs(covariance(p, i, j)) >= -1e-12

    def test_endpoint_pairs_are_tight(self):
        # for end pairs the envelope is an identity: the paired-current event
        # forces odd arrivals on every edge and empty ghost parts, so every
        # term carries the same sign and the signed and absolute numerators
        # coincide exactly
        rng = np.random.default_rng(71)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            p = random_params(rng, n)
            cov = covariance(p, 0, n - 1)
            if cov == 0.0:
                continue
            assert bound_abs_envelope(p, 0, n - 1) == pytest.approx(
                abs(cov), rel=1e-11
            )

    def test_zero_when_abs_cov_zero(self):
        p = ChainParams((0.0,), (0.3, 0.4))
        assert bound_abs_envelope(p, 0, 1) == 0.0

    def test_abs_covariance_underflow_keeps_the_bound(self):
        # cov of the |h| model is about exp(-2000), below the float range,
        # while the squared partition ratio lifts the product back to ~1
        p = ChainParams((1000.0,), (500.0, -500.0))
        cov = covariance(p, 0, 1)
        assert cov > 0.99
        assert bound_abs_envelope(p, 0, 1) == pytest.approx(cov, rel=1e-11)
        assert compare(p, 0, 1).violations() == []

    def test_overflow_gives_inf(self):
        # the frustrated edge (2, 3) makes Z_abs / Z about exp(2000) while the
        # pair (0, 1) is decoupled from it
        p = ChainParams((1.0, 0.0, 1000.0), (0.0, 0.0, 1000.0, -1000.0))
        assert bound_abs_envelope(p, 0, 1) == math.inf
        report = compare(p, 0, 1)
        assert report.slacks["lemma3"] == math.inf and report.violations() == []


class TestPartitionRatio:
    def test_nonneg_fields_give_ratio_one(self):
        p = ChainParams((1.0, 0.5), (0.3, 0.0, 0.2))
        ratio, lower = partition_ratio_lower(p)
        assert ratio == pytest.approx(1.0, abs=1e-14)
        assert lower == 1.0

    def test_global_flip_invariance(self):
        p = ChainParams((1.0, 0.5), (-0.3, -0.1, -0.2))
        ratio, lower = partition_ratio_lower(p)
        flipped = ChainParams(p.couplings, tuple(-v for v in p.fields))
        ratio_f, lower_f = partition_ratio_lower(flipped)
        assert ratio == pytest.approx(ratio_f, rel=1e-12)
        assert lower == pytest.approx(lower_f, rel=1e-12)

    def test_bound_holds(self):
        rng = np.random.default_rng(73)
        for _ in range(200):
            n = int(rng.integers(1, 10))
            p = ferro_params(rng, n)
            ratio, lower = partition_ratio_lower(p)
            assert ratio >= lower - 1e-12
            # the weaker all-minus-mass reading must hold a fortiori
            minus_mass = math.fsum(max(-v, 0.0) for v in p.fields)
            assert ratio >= math.exp(-2.0 * minus_mass) - 1e-12


class TestCompareAndReport:
    def test_applicability_matrix(self):
        rng = np.random.default_rng(79)
        signed_j = ChainParams((-1.0, 0.5), (0.4, -0.3, 0.2))
        assert set(compare(signed_j, 0, 2).bounds) == {"lemma3"}
        ferro_signed_h = ferro_params(rng, 5)
        assert set(compare(ferro_signed_h, 0, 4).bounds) == {
            "lemma3",
            "thm1",
            "zero_field",
        }
        ferro_nonneg = ferro_params(rng, 5, h_low=0.0, h_high=2.0)
        assert set(compare(ferro_nonneg, 0, 4).bounds) == set(BOUND_KEYS)

    def test_no_violations_on_honest_instances(self):
        rng = np.random.default_rng(83)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            p = random_params(rng, n)
            i = int(rng.integers(0, n - 1))
            j = int(rng.integers(i + 1, n))
            assert compare(p, i, j).violations() == []

    def test_pair_canonicalized(self):
        p = ChainParams((1.0, 0.5), (0.1, 0.2, 0.3))
        r = compare(p, 2, 0)
        assert (r.i, r.j) == (0, 2)
        with pytest.raises(PreconditionError):
            compare(p, 1, 1)

    def test_report_serialization_order(self):
        p = ChainParams((1.0,), (0.1, 0.2))
        r = compare(p, 0, 1)
        assert tuple(r.to_dict().keys()) == REPORT_COLUMNS
        row = [format_cell(r.to_dict()[c]) for c in REPORT_COLUMNS]
        assert len(row) == len(REPORT_COLUMNS)
        assert row[0] == "0" and row[1] == "1"

    def test_absent_bounds_serialize_empty(self):
        p = ChainParams((-1.0,), (0.1, 0.2))
        r = compare(p, 0, 1)
        d = r.to_dict()
        assert d["thm1"] is None and d["thm2"] is None and d["zero_field"] is None
        assert format_cell(d["thm1"]) == ""

    def test_violations_flagged(self):
        report = BoundReport(
            i=0, j=1, exact=0.5, bounds={"thm1": 0.4}, slacks={"thm1": -0.1}
        )
        assert report.violations() == ["thm1"]
        inside = BoundReport(i=0, j=1, exact=0.5, slacks={"thm1": -0.9 * DOMINANCE_TOL})
        assert inside.violations() == []

    def test_oracle_mismatch_raised_on_corrupt_exact(self, monkeypatch):
        import isingchain.bounds as bounds_mod
        from isingchain.transfer import _from_log

        p = ChainParams((1.0,), (0.1, 0.2))
        monkeypatch.setattr(bounds_mod, "_from_log", lambda *a: _from_log(*a) + 1e-6)
        with pytest.raises(OracleMismatchError):
            compare(p, 0, 1)

    def test_nonfinite_oracle_is_a_mismatch(self, monkeypatch):
        from isingchain.chain import Enumeration

        def nan_oracle(params):
            n = params.n_sites
            return Enumeration(math.nan, np.full(n, math.nan), np.full((n, n), math.nan))

        monkeypatch.setattr(ChainParams, "enumeration", property(nan_oracle))
        with pytest.raises(OracleMismatchError):
            compare(ChainParams((1.0,), (0.1, 0.2)), 0, 1)

    def test_strong_coupling_passes_oracle_check(self):
        p = ChainParams((700.0, 700.0), (0.1, 0.2, 0.3))
        report = compare(p, 0, 2)
        assert report.exact == pytest.approx(1.0 / math.cosh(0.6) ** 2, rel=1e-12)
        assert not report.violations()


ROW_INSTANCES = [
    ChainParams((1.0, -0.5, 0.25), (0.3, -0.7, 0.2, 0.1)),
    ChainParams((1.0, 0.0, 2.0, 0.5), (0.3, -0.7, 0.2, 0.1, 0.4)),
    ChainParams((0.8, 0.3, 0.5), (0.5, 0.2, 0.1, 0.4)),
    ChainParams((0.8, 0.3, 0.5), (0.0, -0.0, 0.1, 0.4)),
    ChainParams((1e3, 1e3, 2.0, 1e3), (-1e3, 1e3, 0.5, -1e3, 1e3)),
    ChainParams((0.1,) * 30, (1.5,) * 31),
]


def _row_instances():
    rng = np.random.default_rng(89)
    out = list(ROW_INSTANCES)
    out += [random_params(rng, int(rng.integers(2, 14))) for _ in range(8)]
    out += [ferro_params(rng, int(rng.integers(2, 14))) for _ in range(8)]
    out += [ferro_params(rng, 30, h_low=0.0) for _ in range(2)]
    return out


class TestCompareRow:
    @pytest.mark.parametrize("proof_route", [False, True])
    @pytest.mark.parametrize("params", _row_instances())
    def test_row_equals_per_pair_reports(self, params, proof_route):
        # the same running sums feed both, so the reports are equal, not close
        n = params.n_sites
        for i in range(n - 1):
            row = compare_row(params, i, proof_route=proof_route)
            pairs = [compare(params, i, j, proof_route=proof_route) for j in range(i + 1, n)]
            assert row == pairs

    @pytest.mark.parametrize("proof_route", [False, True])
    @pytest.mark.parametrize("params", _row_instances())
    def test_all_pairs_equal_rows(self, params, proof_route):
        # the rows off one term table per instance are compare_row's reports
        want = [
            compare_row(params, i, proof_route=proof_route)
            for i in range(params.n_sites - 1)
        ]
        n = params.n_edges
        assert list(_reports(_report_columns(params, 0, n, n, proof_route))) == want

    def test_row_bounds_equal_bound_functions(self):
        params = ferro_params(np.random.default_rng(97), 12, h_low=0.0)
        for report in compare_row(params, 3):
            i, j = report.i, report.j
            assert report.exact == covariance(params, i, j)
            assert report.bounds == {
                "lemma3": bound_abs_envelope(params, i, j),
                "thm1": bound_signed_field(params, i, j),
                "zero_field": bound_zero_field(params, i, j),
                "thm2": bound_nonneg_field(params, i, j),
            }

    def test_overflowing_block_reads_inf(self):
        # lemma3 overflows to inf on the pair (0, 1) and is 0 across the
        # zero coupling, in one block whose other bounds stay finite
        p = ChainParams((1.0, 0.0, 1000.0), (0.0, 0.0, 1000.0, -1000.0))
        n = p.n_edges
        blocks = list(_report_columns(p, 0, n, n, False))
        assert len(blocks) == 1 and math.inf in blocks[0]["lemma3"]
        for report in itertools.chain.from_iterable(_reports(iter(blocks))):
            i, j = report.i, report.j
            assert report.bounds == {
                "lemma3": bound_abs_envelope(p, i, j),
                "thm1": bound_signed_field(p, i, j),
                "zero_field": bound_zero_field(p, i, j),
            }
            assert math.isfinite(report.bounds["thm1"] + report.bounds["zero_field"])

    def test_pairs_and_preconditions(self):
        p = ChainParams((1.0, 0.5, 0.2), (0.1, 0.2, 0.3, 0.4))
        assert [(r.i, r.j) for r in compare_row(p, 1)] == [(1, 2), (1, 3)]
        for i in (3, 4, -1):
            with pytest.raises(PreconditionError):
                compare_row(p, i)

    def test_zero_coupling_windows_are_plus_zero(self):
        p = ChainParams((1.0, 0.0, 2.0), (0.3, -0.7, 0.2, 0.1))
        for report in compare_row(p, 0):
            if report.j >= 2:
                assert report.exact == 0.0 and math.copysign(1.0, report.exact) == 1.0
                assert format_cell(report.exact) == "0"


UNIT_ROUNDOFF = 2.0**-53

# The bounds' window sums are recursive sums in index order, no longer
# correctly rounded. Against references from math functions and math.fsum
# over the same terms, each log bound is within BOUND_SUM_GATE units of
# roundoff of its scale (reference_log_bounds). Worst seen on 2000-site
# ferromagnets with J ~ U(0, 3), seeds 0-5: 25.6 for thm1 and thm2 with
# h ~ U(0, 1e3), 2.4 for thm1 with h ~ U(-1e3, 1e3), 9.2 for zero_field.
BOUND_SUM_GATE = 64.0


def reference_log_bounds(params, i, j):
    """(log bounds, gate scales) of the pair (i, j) for thm1, thm2 and
    zero_field, from math functions and math.fsum over the window terms.

    A scale sums the magnitudes of the bound's per-edge log terms, each
    counted as at least 1 (a log of a factor near 1 is off by about u
    absolute), and for thm1 and thm2 adds 2 sum |h| over the interior and
    the magnitudes of the two end fields.
    """
    sweep = params.sweep
    a, b = sweep.left_field(i), sweep.right_field(j)
    couplings, interior = params.couplings[i:j], params.fields[i + 1 : j]
    edge_terms = [math.log(-math.expm1(-4.0 * x)) for x in couplings]
    tanh_terms = [math.log(math.tanh(x)) for x in couplings]
    s = math.fsum([a, *interior, b])
    t = math.fsum([abs(a), *map(abs, interior), abs(b)])
    edge = math.fsum(edge_terms)
    log_field = math.log(4.0) - 2.0 * abs(s) - 2.0 * math.log1p(math.exp(-2.0 * t))
    field_scale = (
        math.fsum(max(1.0, abs(x)) for x in edge_terms)
        + 2.0 * math.fsum(map(abs, interior))
        + abs(a)
        + abs(b)
    )
    logs = {
        "thm1": edge + log_field,
        "thm2": edge - 2.0 * log_cosh(s),
        "zero_field": math.fsum(tanh_terms),
    }
    scales = {
        "thm1": field_scale,
        "thm2": field_scale,
        "zero_field": math.fsum(max(1.0, abs(x)) for x in tanh_terms),
    }
    return logs, scales


class TestBoundSumRounding:
    ROWS = (0, 611, 1500)

    @pytest.mark.parametrize("h_low", [-1e3, 0.0])
    def test_log_bounds_within_gate(self, h_low):
        params = ferro_params(np.random.default_rng(107), 2000, h_low, 1e3)
        n = params.n_sites
        rows = {i: compare_row(params, i) for i in self.ROWS}
        # every left site's row off the all-pairs pass, a block at a time
        blocks = {}
        for window, _, _, log_bounds in _bound_blocks(params, 0, n - 1, n - 1, False):
            for r, i in enumerate(window[:, 0].tolist()):
                if i in self.ROWS:
                    blocks[i] = {k: v[r] for k, v in log_bounds.items()}
        rates = decay_rates(params, 0, n - 1)
        for i in self.ROWS:
            for j in range(i + 1, n, 7):
                k = j - i - 1
                logs, scales = reference_log_bounds(params, i, j)
                for key, ref in logs.items():
                    if key == "thm2" and h_low < 0.0:
                        assert key not in rows[i][k].bounds
                        continue
                    gate = BOUND_SUM_GATE * UNIT_ROUNDOFF * scales[key]
                    assert abs(blocks[i][key][k] - ref) <= gate
                    value = rows[i][k].bounds[key]
                    if ref > -700.0:
                        tol = gate + 4.0 * UNIT_ROUNDOFF * max(1.0, abs(ref))
                        assert abs(math.log(value) - ref) <= tol
                    else:
                        assert value < 1e-300
                    if key == "thm1" and i == 0:
                        tol = gate + 4.0 * UNIT_ROUNDOFF * abs(ref)
                        assert abs(-rates[k][1] * j - ref) <= tol


class TestDecayRates:
    @pytest.mark.parametrize("proof_route", [False, True])
    def test_rates_match_per_pair_functions(self, proof_route):
        rng = np.random.default_rng(101)
        params = ferro_params(rng, 40)
        for k, (rate, bound_rate) in enumerate(decay_rates(params, 2, 39, proof_route)):
            j = k + 3
            bound = bound_signed_field(params, 2, j, proof_route=proof_route)
            assert rate == pytest.approx(finite_decay_rate(params, 2, j), rel=1e-15)
            assert bound_rate == pytest.approx(-math.log(bound) / (j - 2), rel=1e-14)

    def test_zero_coupling_gives_no_rate_and_infinite_bound_rate(self):
        p = ChainParams((1.0, 0.0, 2.0), (0.3, -0.7, 0.2, 0.1))
        rates = decay_rates(p, 0, 3)
        assert rates[0][0] is not None and math.isfinite(rates[0][1])
        assert rates[1:] == [(None, math.inf), (None, math.inf)]

    def test_rates_stay_finite_past_underflow(self):
        # cov(0, 3999) = tanh(1)^3999 ~ exp(-1089) underflows, its log does not
        p = ChainParams((1.0,) * 3999, (0.0,) * 4000)
        rate, bound_rate = decay_rates(p, 0, 3999)[-1]
        assert covariance(p, 0, 3999) == 0.0
        assert rate == pytest.approx(-math.log(math.tanh(1.0)), rel=1e-12)
        assert math.isfinite(bound_rate) and rate >= bound_rate

    def test_needs_ferromagnetic(self):
        with pytest.raises(PreconditionError):
            decay_rates(ChainParams((-1.0,), (0.0, 0.0)), 0, 1)


class TestFormatCell:
    def test_formats(self):
        assert format_cell(None) == ""
        assert format_cell(3) == "3"
        assert format_cell(0.5) == "0.5"
        assert format_cell(1 / 3) == "0.33333333333333331"
        assert float(format_cell(math.pi)) == math.pi


class TestBoundStructure:
    def test_field_factor_matches_sech_squared(self):
        # 4 e^{-2s} / (1 + e^{-2s})^2 is algebraically cosh(s)^-2; the bound
        # code uses the exponential form for overflow safety, so confirm the
        # two expressions agree across the working range.
        for s in np.linspace(0.0, 20.0, 201):
            e = math.exp(-2.0 * s)
            assert 4.0 * e / (1.0 + e) ** 2 == pytest.approx(
                1.0 / math.cosh(s) ** 2, rel=1e-12
            )

    def test_endpoint_ratio_tightens_with_coupling_strength(self):
        # At zero field on a uniform chain the endpoint bound over-counts by
        # the factor prod_edges 4 t_e/(1+t_e)^2 / t_e; stronger couplings push
        # each factor toward 1, so bound/cov decreases monotonically to 1.
        n = 5
        ratios = []
        for j in np.linspace(0.5, 12.0, 24):
            p = ChainParams((float(j),) * (n - 1), (0.0,) * n)
            ratios.append(bound_nonneg_field(p, 0, n - 1) / covariance(p, 0, n - 1))
        for a, b in zip(ratios, ratios[1:]):
            assert b < a
        assert ratios[0] > 1.0
        assert ratios[-1] == pytest.approx(1.0, abs=1e-8)

    def test_dominance_on_long_chains(self):
        rng = np.random.default_rng(522)
        n = 201
        for _ in range(5):
            p = ChainParams(
                tuple(rng.uniform(0.0, 3.0, n - 1)),
                tuple(rng.uniform(-2.0, 2.0, n)),
            )
            cov = covariance(p, 0, n - 1)
            assert bound_signed_field(p, 0, n - 1) - cov >= -1e-12
            assert bound_zero_field(p, 0, n - 1) - cov >= -1e-12
            assert bound_abs_envelope(p, 0, n - 1) - abs(cov) >= -1e-12
