"""End-to-end command-line tests driven through main(argv)."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import isingchain
from isingchain import (
    PARAM_LIMIT,
    BoundReport,
    CapacityError,
    ChainError,
    ChainParams,
    DecayRateUndefinedError,
    InconclusiveEstimateError,
    InstanceSpec,
    OracleMismatchError,
    ParseError,
    PreconditionError,
    covariance,
    generate_instance,
    site_mean,
)
from isingchain.cli import build_parser, main
from isingchain.currents import McEstimate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def csv_rows(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def kv_csv(text):
    _, rows = csv_rows(text)
    return {key: value for key, value in rows}


@pytest.fixture
def violating_compare(monkeypatch):
    """Make every report the CLI gets shift each bound 1 below its value."""
    import isingchain.cli as cli_mod

    real_compare = cli_mod.compare

    def compare(params, i, j, proof_route=False):
        report = real_compare(params, i, j, proof_route=proof_route)
        bounds = {k: v - 1.0 for k, v in report.bounds.items()}
        slacks = {
            k: v - (abs(report.exact) if k == "lemma3" else report.exact)
            for k, v in bounds.items()
        }
        return BoundReport(
            i=report.i, j=report.j, exact=report.exact, bounds=bounds, slacks=slacks
        )

    monkeypatch.setattr(cli_mod, "compare", compare)


@pytest.fixture
def single_edge(tmp_path):
    return write_json(tmp_path, "single.json", {"J": [1.0], "h": [0.0, 0.0]})


@pytest.fixture
def ferro(tmp_path):
    return write_json(
        tmp_path, "ferro.json", {"J": [0.8, 0.3], "h": [0.5, 0.2, 0.1]}
    )


@pytest.fixture
def signed(tmp_path):
    return write_json(
        tmp_path, "signed.json", {"J": [-0.8, 0.3], "h": [0.5, -0.2, 0.1]}
    )


class TestExact:
    def test_single_edge_csv(self, capsys, single_edge):
        code, out, err = run(
            capsys, "exact", "--instance", single_edge, "--i", "0", "--j", "1"
        )
        assert code == 0 and err == ""
        values = kv_csv(out)
        assert values["covariance"] == format(math.tanh(1.0), ".17g")
        assert float(values["log_partition"]) == pytest.approx(
            math.log(4.0 * math.cosh(1.0)), rel=1e-14
        )
        assert float(values["mean_0"]) == 0.0
        assert float(values["enum_max_mean_abs_diff"]) <= 1e-12
        assert float(values["enum_covariance"]) == pytest.approx(
            math.tanh(1.0), rel=1e-12
        )

    @pytest.mark.parametrize("n_sites", [5, 40])
    def test_means_are_site_mean(self, capsys, tmp_path, n_sites):
        # the CLI reads the sweep's cached means, the floats site_mean returns
        spec = {"n_sites": n_sites, "seed": 6}
        path = write_json(tmp_path, "spec.json", spec)
        params = generate_instance(InstanceSpec.from_json(json.dumps(spec)), 6)
        code, out, _ = run(capsys, "exact", "--spec", path, "--out", "json")
        assert code == 0
        means = json.loads(out)["means"]
        assert means == [site_mean(params, x) for x in range(n_sites)]
        code, out, _ = run(capsys, "exact", "--spec", path)
        values = kv_csv(out)
        for x in range(n_sites):
            assert values[f"mean_{x}"] == format(site_mean(params, x), ".17g")

    def test_csv_is_lf_terminated(self, capsys, single_edge):
        _, out, _ = run(capsys, "exact", "--instance", single_edge)
        assert "\r" not in out and out.endswith("\n")

    def test_json_output(self, capsys, ferro):
        code, out, _ = run(
            capsys, "exact", "--instance", ferro, "--i", "0", "--j", "2",
            "--out", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["n_sites"] == 3 and len(doc["means"]) == 3
        assert doc["pair"]["i"] == 0 and doc["pair"]["j"] == 2
        assert doc["enum_check"]["max_mean_abs_diff"] <= 1e-12
        assert doc["pair"]["covariance"] == pytest.approx(
            doc["enum_check"]["covariance"], rel=1e-9, abs=1e-12
        )

    def test_reversed_instance_mirrors(self, capsys, tmp_path):
        fwd = write_json(
            tmp_path, "fwd.json", {"J": [0.8, 0.3], "h": [0.5, -0.2, 0.1]}
        )
        rev = write_json(
            tmp_path, "rev.json", {"J": [0.3, 0.8], "h": [0.1, -0.2, 0.5]}
        )
        _, out_f, _ = run(capsys, "exact", "--instance", fwd, "--i", "0", "--j", "2")
        _, out_r, _ = run(capsys, "exact", "--instance", rev, "--i", "0", "--j", "2")
        a, b = kv_csv(out_f), kv_csv(out_r)
        assert a["log_partition"] == b["log_partition"]
        assert float(a["mean_0"]) == pytest.approx(float(b["mean_2"]), abs=1e-14)
        assert float(a["mean_2"]) == pytest.approx(float(b["mean_0"]), abs=1e-14)
        assert float(a["covariance"]) == pytest.approx(
            float(b["covariance"]), rel=1e-13
        )

    def test_no_enum_check_above_cap(self, capsys, tmp_path):
        n = 30
        big = write_json(
            tmp_path, "big.json", {"J": [0.1] * (n - 1), "h": [0.0] * n}
        )
        code, out, _ = run(capsys, "exact", "--instance", big, "--out", "json")
        assert code == 0
        assert "enum_check" not in json.loads(out)

    def test_strong_coupling_oracle_stays_finite(self, capsys, tmp_path):
        # weights exp(-H) overflow here unless the oracle shifts them
        inst = write_json(
            tmp_path, "strong.json", {"J": [700, 700], "h": [0.1, 0.2, 0.3]}
        )
        code, out, _ = run(capsys, "exact", "--instance", inst, "--i", "0", "--j", "2")
        assert code == 0
        values = {k: float(v) for k, v in kv_csv(out).items()}
        assert all(math.isfinite(v) for v in values.values())
        assert values["enum_log_partition"] == pytest.approx(
            values["log_partition"], rel=1e-12
        )
        assert values["enum_max_mean_abs_diff"] <= 1e-12
        assert values["enum_covariance"] == pytest.approx(
            values["covariance"], rel=1e-9
        )

    def test_nonfinite_oracle_exits_1(self, capsys, ferro, monkeypatch):
        monkeypatch.setattr(
            "isingchain.cli.enum_summary",
            lambda params, i, j: (math.nan, [0.0] * params.n_sites, None),
        )
        code, out, err = run(capsys, "exact", "--instance", ferro)
        assert code == 1 and out == "" and "internal error" in err

    def test_spec_draws_and_echoes_seed(self, capsys, tmp_path):
        spec = write_json(tmp_path, "spec.json", {"n_sites": 4})
        code, out, err = run(capsys, "exact", "--spec", spec)
        assert code == 0
        assert err.startswith("seed: ")
        int(err.split()[1])  # the echoed seed is an integer

    def test_spec_seed_used_without_echo(self, capsys, tmp_path):
        spec = write_json(tmp_path, "spec.json", {"n_sites": 4, "seed": 11})
        code1, out1, err1 = run(capsys, "exact", "--spec", spec)
        code2, out2, _ = run(capsys, "exact", "--spec", spec)
        assert code1 == code2 == 0 and err1 == "" and out1 == out2

    def test_parse_errors(self, capsys, tmp_path, single_edge):
        bad = tmp_path / "bad.json"
        bad.write_text("not json", encoding="utf-8")
        assert run(capsys, "exact", "--instance", str(bad))[0] == 2
        assert run(capsys, "exact")[0] == 2
        assert run(capsys, "exact", "--instance", single_edge, "--i", "0")[0] == 2
        spec = write_json(tmp_path, "s.json", {"n_sites": 3})
        assert (
            run(capsys, "exact", "--instance", single_edge, "--spec", spec)[0] == 2
        )
        assert run(capsys, "exact", "--instance", str(tmp_path / "nope.json"))[0] == 2

    def test_precondition_errors(self, capsys, single_edge):
        assert (
            run(capsys, "exact", "--instance", single_edge, "--i", "0", "--j", "0")[0]
            == 3
        )
        assert (
            run(capsys, "exact", "--instance", single_edge, "--i", "0", "--j", "9")[0]
            == 3
        )

    def test_argparse_rejects_unknown_flags(self, single_edge):
        with pytest.raises(SystemExit) as exc:
            main(["exact", "--instance", single_edge, "--frobnicate"])
        assert exc.value.code == 2


class TestBounds:
    HEADER = (
        "i,j,exact,thm1,thm2,lemma3,zero_field,"
        "slack_thm1,slack_thm2,slack_lemma3,slack_zero_field"
    )

    def test_ferro_all_bounds_present(self, capsys, ferro):
        code, out, err = run(
            capsys, "bounds", "--instance", ferro, "--i", "0", "--j", "2"
        )
        assert code == 0 and err == ""
        header, rows = csv_rows(out)
        assert ",".join(header) == self.HEADER
        row = dict(zip(header, rows[0]))
        assert row["i"] == "0" and row["j"] == "2"
        for key in ("exact", "thm1", "thm2", "lemma3", "zero_field"):
            assert row[key] != ""
        assert float(row["zero_field"]) == pytest.approx(
            math.tanh(0.8) * math.tanh(0.3), rel=1e-13
        )
        for key in ("slack_thm1", "slack_thm2", "slack_lemma3", "slack_zero_field"):
            assert float(row[key]) >= -1e-12

    def test_signed_instance_reports_lemma3_only(self, capsys, signed):
        code, out, _ = run(
            capsys, "bounds", "--instance", signed, "--i", "0", "--j", "2"
        )
        assert code == 0
        header, rows = csv_rows(out)
        row = dict(zip(header, rows[0]))
        assert row["thm1"] == "" and row["thm2"] == "" and row["zero_field"] == ""
        assert row["lemma3"] != "" and float(row["slack_lemma3"]) >= -1e-12

    def test_zero_field_instance_reports_product_bound(self, capsys, tmp_path):
        inst = write_json(
            tmp_path, "zf.json", {"J": [1.0, 0.5], "h": [0.0, 0.0, 0.0]}
        )
        code, out, _ = run(capsys, "bounds", "--instance", inst, "--i", "0", "--j", "2")
        assert code == 0
        header, rows = csv_rows(out)
        row = dict(zip(header, rows[0]))
        # zero_field bound equals the exact covariance here
        assert float(row["zero_field"]) == pytest.approx(
            math.tanh(1.0) * math.tanh(0.5), rel=1e-13
        )
        assert abs(float(row["slack_zero_field"])) <= 1e-12

    def test_json_output(self, capsys, ferro):
        code, out, _ = run(
            capsys, "bounds", "--instance", ferro, "--i", "0", "--j", "2",
            "--out", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["zero_field"] == pytest.approx(
            math.tanh(0.8) * math.tanh(0.3), rel=1e-13
        )
        assert doc["thm1"] >= doc["exact"] - 1e-12

    def test_tamper_forces_exit_4(self, capsys, ferro, violating_compare):
        code, _, err = run(
            capsys, "bounds", "--instance", ferro, "--i", "0", "--j", "2"
        )
        assert code == 4 and "bound violation" in err

    def test_proof_route_accepted(self, capsys, signed):
        code, out, _ = run(
            capsys, "bounds", "--instance", signed, "--i", "0", "--j", "2",
            "--proof-route",
        )
        assert code == 0

    def test_requires_pair(self, capsys, ferro):
        assert run(capsys, "bounds", "--instance", ferro)[0] == 2

    def test_no_false_lemma3_flag_on_edge_value_chain(self, capsys, tmp_path):
        # lemma3 equals |cov| here (a 60-digit enumeration puts the true
        # relative slack at 7e-26). With the log Z shifts summed one by one,
        # rounding put slack_lemma3 at -1.0e-12 and the command exited 4;
        # with math.fsum it reads +8.9e-14.
        inst = write_json(tmp_path, "edge.json", {
            "J": [1e-300, 177.5, -1e-08, -1000.0, -1.0, 0.5, 177.5],
            "h": [354.0, 177.5, -1e-300, 20.0, 20.0, 1.0, -1.0, -1000.0],
        })
        code, out, err = run(capsys, "bounds", "--instance", inst, "--i", "4", "--j", "5")
        assert code == 0 and "violation" not in err
        header, rows = csv_rows(out)
        row = dict(zip(header, rows[0]))
        assert float(row["slack_lemma3"]) >= 0.0


class TestSweep:
    def test_deterministic_and_clean(self, capsys, tmp_path):
        spec = write_json(tmp_path, "spec.json", {"n_sites": 5, "seed": 11})
        code1, out1, err1 = run(capsys, "sweep", "--spec", spec, "--count", "4")
        code2, out2, err2 = run(capsys, "sweep", "--spec", spec, "--count", "4")
        assert code1 == code2 == 0
        assert out1 == out2 and err1 == err2
        header, rows = csv_rows(out1)
        assert header[:2] == ["instance", "seed"] and header[-1] == "violation"
        assert len(rows) == 4
        assert all(row[-1] == "0" for row in rows)
        assert "min slack: thm1=" in err1

    def test_all_pairs(self, capsys, tmp_path):
        spec = write_json(tmp_path, "spec.json", {"n_sites": 5, "seed": 11})
        code, out, _ = run(
            capsys, "sweep", "--spec", spec, "--count", "3", "--pairs", "all"
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 3 * 10  # C(5, 2) pairs per instance

    def test_field_flips_empty_thm2_column(self, capsys, tmp_path):
        spec = write_json(
            tmp_path,
            "spec.json",
            {"n_sites": 5, "sign_flip_prob": {"h": 1.0}, "seed": 2},
        )
        code, out, err = run(capsys, "sweep", "--spec", spec, "--count", "5")
        assert code == 0
        header, rows = csv_rows(out)
        thm2 = header.index("thm2")
        thm1 = header.index("thm1")
        assert all(row[thm2] == "" for row in rows)
        assert all(row[thm1] != "" for row in rows)
        assert "thm2=n/a" in err

    def test_seed_flag_overrides_spec(self, capsys, tmp_path):
        spec = write_json(tmp_path, "spec.json", {"n_sites": 5, "seed": 11})
        _, out_spec, _ = run(capsys, "sweep", "--spec", spec, "--count", "2")
        _, out_flag, _ = run(
            capsys, "sweep", "--spec", spec, "--count", "2", "--seed", "12"
        )
        assert out_spec != out_flag

    def test_tamper_forces_exit_4(self, capsys, tmp_path, violating_compare):
        spec = write_json(tmp_path, "spec.json", {"n_sites": 5, "seed": 11})
        code, _, err = run(capsys, "sweep", "--spec", spec, "--count", "2")
        assert code == 4 and "bound violations: 2" in err

    def test_json_output(self, capsys, tmp_path):
        spec = write_json(tmp_path, "spec.json", {"n_sites": 4, "seed": 7})
        code, out, _ = run(
            capsys, "sweep", "--spec", spec, "--count", "3", "--out", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 3 and doc["violations"] == 0
        assert set(doc["min_slacks"]) <= {"thm1", "thm2", "lemma3", "zero_field"}

    def test_count_validation(self, capsys, tmp_path):
        spec = write_json(tmp_path, "spec.json", {"n_sites": 5, "seed": 11})
        assert run(capsys, "sweep", "--spec", spec, "--count", "0")[0] == 3

    def test_single_site_spec_rejected(self, capsys, tmp_path):
        spec = write_json(tmp_path, "spec.json", {"n_sites": 1, "seed": 11})
        assert run(capsys, "sweep", "--spec", spec)[0] == 3


class TestMc:
    def test_single_edge(self, capsys, single_edge):
        code, out, err = run(
            capsys, "mc", "--instance", single_edge, "--i", "0", "--j", "1",
            "--samples", "20000", "--seed", "42",
        )
        assert code == 0 and err == ""
        header, rows = csv_rows(out)
        assert header == ["i", "j", "mean", "std_error", "samples", "exact", "z_score"]
        row = dict(zip(header, rows[0]))
        assert row["samples"] == "20000"
        assert abs(float(row["z_score"])) <= 4.0
        assert float(row["exact"]) == pytest.approx(math.tanh(1.0), rel=1e-13)

    def test_json_output(self, capsys, ferro):
        code, out, _ = run(
            capsys, "mc", "--instance", ferro, "--i", "0", "--j", "2",
            "--samples", "20000", "--seed", "1", "--out", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["z_score"]) <= 4.0
        assert doc["mean"] == pytest.approx(doc["exact"], abs=6 * doc["std_error"])

    def test_draws_seed_when_absent(self, capsys, single_edge):
        code, _, err = run(
            capsys, "mc", "--instance", single_edge, "--i", "0", "--j", "1",
            "--samples", "5000",
        )
        assert code == 0 and err.startswith("seed: ")

    def test_inconclusive_exit_5(self, capsys, tmp_path):
        inst = write_json(tmp_path, "hard.json", {"J": [0.5], "h": [3.0, 3.0]})
        codes = set()
        for seed in range(40):
            code, _, err = run(
                capsys, "mc", "--instance", inst, "--i", "0", "--j", "1",
                "--samples", "8", "--seed", str(seed),
            )
            codes.add(code)
            if code == 5:
                break
        assert 5 in codes

    def test_high_z_exit_5(self, capsys, single_edge, monkeypatch):
        def fake(params, i, j, samples, seed):
            return McEstimate(mean=2.0, std_error=1e-6, samples=samples)

        monkeypatch.setattr("isingchain.cli.mc_switching_covariance", fake)
        code, _, err = run(
            capsys, "mc", "--instance", single_edge, "--i", "0", "--j", "1",
            "--samples", "10", "--seed", "0",
        )
        assert code == 5 and "mc inconsistency" in err

    def test_validation(self, capsys, single_edge):
        assert (
            run(capsys, "mc", "--instance", single_edge, "--i", "0", "--j", "1",
                "--samples", "0", "--seed", "1")[0]
            == 3
        )
        assert run(capsys, "mc", "--instance", single_edge, "--seed", "1")[0] == 2

    def test_pair_checked_before_seed_draw(self, capsys, tmp_path):
        spec = write_json(tmp_path, "spec.json", {"n_sites": 4})
        code, out, err = run(capsys, "mc", "--spec", spec, "--j", "1")
        assert code == 2 and out == ""
        assert "seed:" not in err and "give both --i and --j" in err


class TestDecay:
    def test_constant_chain_rates(self, capsys, tmp_path):
        spec = write_json(
            tmp_path,
            "spec.json",
            {
                "n_sites": 8,
                "J": {"type": "constant", "value": 1.0},
                "h": {"type": "constant", "value": 0.0},
                "seed": 1,
            },
        )
        code, out, err = run(capsys, "decay", "--spec", spec)
        assert code == 0 and err == ""
        header, rows = csv_rows(out)
        assert header == ["distance", "rate", "bound_rate", "flag"]
        assert [row[0] for row in rows] == [str(d) for d in range(1, 8)]
        expect = -math.log(math.tanh(1.0))
        for row in rows:
            assert float(row[1]) == pytest.approx(expect, rel=1e-12)
            assert row[3] == "ok"
            assert float(row[1]) >= float(row[2]) - 1e-12

    def test_random_spec_no_violations(self, capsys, tmp_path):
        spec = write_json(tmp_path, "spec.json", {"n_sites": 9, "seed": 4})
        code, out, _ = run(capsys, "decay", "--spec", spec)
        assert code == 0
        _, rows = csv_rows(out)
        assert all(row[3] in ("ok", "no_rate") for row in rows)

    def test_uniform_field_speeds_decay(self, capsys, tmp_path):
        base = {
            "n_sites": 7,
            "J": {"type": "constant", "value": 0.8},
            "seed": 3,
        }
        zero = write_json(
            tmp_path, "zero.json", {**base, "h": {"type": "constant", "value": 0.0}}
        )
        field = write_json(
            tmp_path, "field.json", {**base, "h": {"type": "constant", "value": 0.5}}
        )
        _, out_zero, _ = run(capsys, "decay", "--spec", zero)
        _, out_field, _ = run(capsys, "decay", "--spec", field)
        rates_zero = [float(r[1]) for r in csv_rows(out_zero)[1]]
        rates_field = [float(r[1]) for r in csv_rows(out_field)[1]]
        assert all(f >= z - 1e-12 for z, f in zip(rates_zero, rates_field))

    def test_distances_flag(self, capsys, tmp_path):
        spec = write_json(tmp_path, "spec.json", {"n_sites": 8, "seed": 1})
        code, out, _ = run(capsys, "decay", "--spec", spec, "--distances", "2,5")
        assert code == 0
        _, rows = csv_rows(out)
        assert [row[0] for row in rows] == ["2", "5"]

    def test_n_sites_override(self, capsys, tmp_path):
        spec = write_json(tmp_path, "spec.json", {"n_sites": 8, "seed": 1})
        code, out, _ = run(capsys, "decay", "--spec", spec, "--n-sites", "4")
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 3

    def test_json_output(self, capsys, tmp_path):
        spec = write_json(tmp_path, "spec.json", {"n_sites": 5, "seed": 2})
        code, out, _ = run(capsys, "decay", "--spec", spec, "--out", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == 2 and len(doc["rows"]) == 4
        assert all(r["flag"] != "violation" for r in doc["rows"])

    def test_rate_read_off_the_log_past_underflow(self, capsys, tmp_path):
        # cov(0, d) = tanh(0.3)^d underflows to 0.0 from d ~ 610 on
        spec = write_json(
            tmp_path,
            "spec.json",
            {
                "n_sites": 700,
                "J": {"type": "constant", "value": 0.3},
                "h": {"type": "constant", "value": 0.0},
                "seed": 1,
            },
        )
        code, out, err = run(capsys, "decay", "--spec", spec, "--distances", "650,699")
        assert code == 0 and err == ""
        _, rows = csv_rows(out)
        expect = -math.log(math.tanh(0.3))
        for row in rows:
            assert float(row[1]) == pytest.approx(expect, rel=1e-12)
            assert math.isfinite(float(row[2]))
            assert row[3] == "ok"

    def test_errors(self, capsys, tmp_path):
        spec = write_json(tmp_path, "spec.json", {"n_sites": 8, "seed": 1})
        assert run(capsys, "decay", "--spec", spec, "--distances", "x")[0] == 2
        assert run(capsys, "decay", "--spec", spec, "--distances", "0")[0] == 3
        assert run(capsys, "decay", "--spec", spec, "--distances", "9")[0] == 3
        assert run(capsys, "decay", "--spec", spec, "--n-sites", "1")[0] == 3
        anti = write_json(
            tmp_path, "anti.json",
            {"n_sites": 4, "sign_flip_prob": {"J": 1.0}, "seed": 1},
        )
        assert run(capsys, "decay", "--spec", anti)[0] == 3


class TestCost:
    """Work counted in window elements of the covariance term kernel, one per
    edge a call covers: one kernel call per decay row, and one per instance
    for all pairs of a sweep, while a call per pair would be quadratic per
    row."""

    @pytest.fixture
    def kernel_edges(self, monkeypatch):
        import isingchain.transfer as transfer_mod

        edges = []
        real = transfer_mod._covariance_terms

        def counting(params, i, stop):
            edges.append(stop - i)
            return real(params, i, stop)

        monkeypatch.setattr(transfer_mod, "_covariance_terms", counting)
        return edges

    def test_decay_is_linear(self, capsys, tmp_path, kernel_edges):
        n = 2000
        spec = write_json(tmp_path, "spec.json", {"n_sites": n, "seed": 1})
        assert run(capsys, "decay", "--spec", spec)[0] == 0
        assert 0 < sum(kernel_edges) <= 2 * n

    def test_sweep_all_pairs_is_quadratic(self, capsys, tmp_path, kernel_edges):
        # past the oracle cap; one kernel pass per instance and one for its
        # absolute instance (the default spec has signed entries)
        n, count = 40, 2
        spec = write_json(tmp_path, "spec.json", {"n_sites": n, "seed": 1})
        code, out, _ = run(
            capsys, "sweep", "--spec", spec, "--count", str(count), "--pairs", "all"
        )
        assert code == 0 and len(out.splitlines()) == 1 + count * n * (n - 1) // 2
        assert kernel_edges == [n - 1] * (2 * count)


class TestNoNumpyWarnings:
    """The covariance kernel takes log(0) at zero couplings and exp underflows
    at |J|, |h| = 1e3; no numpy RuntimeWarning may reach the user. Under
    warnings.simplefilter("error") a warning would raise out of main."""

    INSTANCE = {
        "J": [0.0, 5e-324, -5e-324, 1e3, -1e3, 0.5, 0.0, 1e3],
        "h": [1e3, -1e3, 5e-324, -5e-324, 0.0, 0.3, -1e3, 1e3, 5e-324],
    }
    SPECS = {
        "zero": {"J": {"type": "constant", "value": 0.0},
                 "h": {"type": "uniform", "low": -1e3, "high": 1e3}},
        "tiny": {"J": {"type": "constant", "value": 5e-324},
                 "h": {"type": "constant", "value": -5e-324}},
        "tiny_signed": {"J": {"type": "constant", "value": 5e-324},
                        "h": {"type": "constant", "value": 5e-324},
                        "sign_flip_prob": 0.5},
        "big": {"J": {"type": "constant", "value": 1e3},
                "h": {"type": "constant", "value": 1e3},
                "sign_flip_prob": {"J": 0.0, "h": 0.5}},
        "big_signed": {"J": {"type": "uniform", "low": -1e3, "high": 1e3},
                       "h": {"type": "uniform", "low": -1e3, "high": 1e3}},
    }
    NOT_FERRO = (3, "error: decay rates are defined for ferromagnetic chains\n")

    @staticmethod
    def _run_strict(capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run(capsys, *argv)

    @pytest.mark.parametrize("pair", [("0", "8"), ("2", "5"), ("1", "4")])
    @pytest.mark.parametrize("command", ["exact", "bounds"])
    def test_instance(self, capsys, tmp_path, command, pair):
        path = write_json(tmp_path, "chain.json", self.INSTANCE)
        argv = [command, "--instance", path, "--i", pair[0], "--j", pair[1]]
        code, out, err = self._run_strict(capsys, argv)
        assert (code, err) == (0, "")
        assert "nan" not in out

    @pytest.mark.parametrize(
        "name, sweep_err, decay",
        [
            ("zero", "thm1=0 thm2=n/a lemma3=0 zero_field=0", (0, "")),
            ("tiny", "thm1=0 thm2=n/a lemma3=0 zero_field=0", (0, "")),
            ("tiny_signed", "thm1=n/a thm2=n/a lemma3=0 zero_field=n/a", NOT_FERRO),
            ("big", "thm1=0 thm2=n/a lemma3=0 zero_field=0.11111111111109506",
             (0, "")),
            ("big_signed", "thm1=n/a thm2=n/a lemma3=0 zero_field=n/a", NOT_FERRO),
        ],
    )
    def test_spec(self, capsys, tmp_path, name, sweep_err, decay):
        spec = write_json(
            tmp_path, "spec.json", {"n_sites": 12, "seed": 3, **self.SPECS[name]}
        )
        for argv in (
            ["exact", "--spec", spec, "--i", "0", "--j", "11"],
            ["bounds", "--spec", spec, "--i", "1", "--j", "10"],
        ):
            code, out, err = self._run_strict(capsys, argv)
            assert (code, err) == (0, "")
            assert "nan" not in out
        code, out, err = self._run_strict(
            capsys, ["sweep", "--spec", spec, "--pairs", "all", "--count", "2"]
        )
        assert (code, err) == (0, f"min slack: {sweep_err}\n")
        assert "nan" not in out
        code, out, err = self._run_strict(capsys, ["decay", "--spec", spec])
        assert (code, err) == decay
        assert "nan" not in out


class TestInputValidation:
    def test_seed_flag_message_is_the_shared_range_check(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decay", "--n-sites", "3", "--seed", "-3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument --seed: seed must be in [0, {2**63}), got -3" in err

    @pytest.mark.parametrize("seed", ["-3", str(2**63), "abc"])
    @pytest.mark.parametrize(
        "command",
        [
            ("exact", "--spec", "SPEC"),
            ("sweep", "--spec", "SPEC", "--count", "1"),
            ("mc", "--spec", "SPEC", "--i", "0", "--j", "1", "--samples", "10"),
        ],
    )
    def test_seed_flag_out_of_range(self, capsys, tmp_path, command, seed):
        spec = write_json(tmp_path, "spec.json", {"n_sites": 3})
        argv = [spec if a == "SPEC" else a for a in command]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", seed])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --seed" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command",
        [
            ("exact",),
            ("sweep", "--count", "1"),
            ("mc", "--i", "0", "--j", "1", "--samples", "10"),
            ("decay",),
        ],
    )
    @pytest.mark.parametrize(
        "fields",
        [{"seed": -4}, {"seed": 2**63}, {"sign_flip_prob": "abc"},
         {"sign_flip_prob": {"h": "abc"}},
         # spec numbers must be JSON numbers: no bools, no numeric strings
         {"J": {"type": "constant", "value": True}},
         {"J": {"type": "constant", "value": "2"}},
         {"h": {"type": "uniform", "low": "0", "high": False}},
         {"sign_flip_prob": True}, {"sign_flip_prob": {"h": "1"}},
         {"J": {"type": "uniform", "low": 1.0, "high": 0.0}},
         {"J": {"type": "constant", "value": math.inf}}],
    )
    def test_bad_spec_field(self, capsys, tmp_path, command, fields):
        spec = write_json(tmp_path, "spec.json", {"n_sites": 3, **fields})
        code, out, err = run(capsys, command[0], "--spec", spec, *command[1:])
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "fields",
        [{"seed": 1.5}, {"seed": "12"}, {"n_sites": 3.7}, {"n_sites": True},
         {"n_sites": None}],
    )
    def test_spec_integer_field_not_integer(self, capsys, tmp_path, fields):
        spec = write_json(tmp_path, "spec.json", {"n_sites": 3, **fields})
        code, out, err = run(capsys, "exact", "--spec", spec)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "must be an integer" in err

    def test_null_spec_seed_draws_a_seed(self, capsys, tmp_path):
        spec = write_json(tmp_path, "spec.json", {"n_sites": 3, "seed": None})
        code, _, err = run(capsys, "exact", "--spec", spec)
        assert code == 0 and err.startswith("seed: ")

    @pytest.mark.parametrize(
        "command",
        [("exact",), ("decay", "--n-sites", "5"), ("sweep", "--count", "3")],
    )
    def test_request_too_large_for_memory_exits_3(
        self, capsys, tmp_path, monkeypatch, command
    ):
        import isingchain.cli as cli_mod

        def generate_instance(spec, seed):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(cli_mod, "generate_instance", generate_instance)
        spec = write_json(tmp_path, "spec.json", {"n_sites": 3, "seed": 1})
        code, out, err = run(capsys, command[0], "--spec", spec, *command[1:])
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "Unable to allocate" in err
        assert "Traceback" not in err

    # past np.iinfo(np.intp).max // 8, where numpy raises ValueError, not
    # MemoryError, for an 8-byte array
    HUGE = 10**20

    @pytest.mark.parametrize(
        "command",
        [("exact",), ("decay",), ("sweep",), ("mc", "--i", "0", "--j", "1")],
    )
    def test_spec_size_past_numpy_index_range_exits_3(self, capsys, tmp_path, command):
        spec = write_json(tmp_path, "spec.json", {"n_sites": self.HUGE, "seed": 1})
        code, out, err = run(capsys, command[0], "--spec", spec, *command[1:])
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv", [("decay", "--n-sites", str(HUGE)), ("sweep", "--count", str(HUGE))]
    )
    def test_flag_size_past_numpy_index_range_exits_3(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--seed", "1")
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and "Traceback" not in err


class TestParameterRange:
    """|J|, |h| <= PARAM_LIMIT: an instance file past it exits 2, a spec draw 3."""

    @pytest.mark.parametrize("command", ["exact", "bounds"])
    def test_instance_at_limit(self, capsys, tmp_path, command):
        inst = write_json(
            tmp_path, "inst.json", {"J": [PARAM_LIMIT], "h": [-PARAM_LIMIT, PARAM_LIMIT]}
        )
        code, out, err = run(capsys, command, "--instance", inst, "--i", "0", "--j", "1")
        assert code == 0 and "nan" not in out and err == ""

    @pytest.mark.parametrize(
        "value", [math.nextafter(PARAM_LIMIT, math.inf), -1e307, 10**400]
    )
    def test_instance_past_limit_exits_2(self, capsys, tmp_path, value):
        inst = write_json(tmp_path, "inst.json", {"J": [1.0], "h": [0.0, value]})
        code, out, err = run(capsys, "exact", "--instance", inst)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "supported range" in err

    @pytest.mark.parametrize(
        "command",
        [
            ("exact", "--i", "0", "--j", "4"),
            ("bounds", "--i", "0", "--j", "4"),
            ("sweep", "--count", "2"),
            ("decay",),
            ("mc", "--i", "0", "--j", "4", "--samples", "100"),
        ],
    )
    def test_spec_draw_at_limit(self, capsys, tmp_path, command):
        spec = write_json(
            tmp_path,
            "spec.json",
            {"n_sites": 6, "J": {"type": "constant", "value": PARAM_LIMIT},
             "h": {"type": "uniform", "low": -PARAM_LIMIT, "high": PARAM_LIMIT},
             "seed": 3},
        )
        code, out, err = run(capsys, command[0], "--spec", spec, *command[1:])
        assert code in (0, 5) and "nan" not in out
        assert "Traceback" not in err and "Warning" not in err

    @pytest.mark.parametrize(
        "dist",
        [
            {"type": "constant", "value": math.nextafter(PARAM_LIMIT, math.inf)},
            {"type": "uniform", "low": 1e307, "high": 1.7e308},
            {"type": "uniform", "low": -1.7e308, "high": 1.7e308},
        ],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ("exact", "--i", "0", "--j", "4"),
            ("bounds", "--i", "0", "--j", "4"),
            ("sweep", "--count", "1"),
            ("decay",),
            ("mc", "--i", "0", "--j", "4", "--samples", "100"),
        ],
    )
    def test_spec_draw_past_limit_exits_3(self, capsys, tmp_path, command, dist):
        spec = write_json(tmp_path, "spec.json", {"n_sites": 30, "J": dist, "seed": 3})
        code, out, err = run(capsys, command[0], "--spec", spec, *command[1:])
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err


class TestExitCodeContract:
    @pytest.mark.parametrize(
        "error, code, prefix",
        [
            (ParseError, 2, "error"),
            (PreconditionError, 3, "error"),
            (CapacityError, 3, "error"),
            (DecayRateUndefinedError, 3, "error"),
            (InconclusiveEstimateError, 5, "error"),
            (OracleMismatchError, 1, "internal error"),
            (ChainError, 1, "internal error"),
        ],
    )
    def test_error_type_sets_exit_code(self, capsys, monkeypatch, error, code, prefix):
        import isingchain.cli as cli_mod

        def cmd_bounds(args):
            raise error("it failed")

        monkeypatch.setattr(cli_mod, "cmd_bounds", cmd_bounds)
        assert run(capsys, "bounds") == (code, "", f"{prefix}: it failed\n")

    def test_subcommand_options(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if a.dest == "command"]
        options = {
            name: {flag for action in p._actions for flag in action.option_strings}
            for name, p in sub.choices.items()
        }
        shared = {"-h", "--help", "--spec", "--seed", "--out"}
        pair = {"--i", "--j"}
        assert options == {
            "exact": shared | pair | {"--instance"},
            "bounds": shared | pair | {"--instance", "--proof-route"},
            "sweep": shared | {"--count", "--pairs", "--proof-route"},
            "mc": shared | pair | {"--instance", "--samples"},
            "decay": shared | {"--n-sites", "--distances", "--proof-route"},
        }


class TestModuleEntryPoint:
    @staticmethod
    def child_env():
        # the child imports the same package as this process, installed or not
        package_root = str(Path(isingchain.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        return {**os.environ, "PYTHONPATH": path}

    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "isingchain", "--help"],
            capture_output=True,
            text=True,
            env=self.child_env(),
        )
        assert proc.returncode == 0
        assert "exact" in proc.stdout and "decay" in proc.stdout

    def test_reader_closing_the_pipe_early(self):
        # as `decay ... | head -1`: the output is far larger than a pipe
        # buffer, so the command is still writing when the reader leaves
        argv = ["decay", "--n-sites", "10000", "--seed", "1"]
        with subprocess.Popen(
            [sys.executable, "-m", "isingchain", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self.child_env(),
        ) as proc:
            assert proc.stdout.readline() == b"distance,rate,bound_rate,flag\n"
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 0
        assert "Traceback" not in err and "Exception ignored" not in err
