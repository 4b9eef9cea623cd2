"""Benchmark workloads: input files made from the seed, the CLI call, its checks.

Every workload is one fixed ``isingchain`` CLI call. Its inputs are files the
benchmark writes from ``--seed`` (a spec file carries the seed; the long
instance is drawn here with numpy), so the program sees only those files.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

DEFAULT_SEED = 1
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
FLOAT_RTOL = 1e-12

SWEEP_ALLPAIRS_COUNT = 10
SWEEP_ENDPOINTS_COUNT = 3
EXACT_SITES = 1500
DECAY_SITES = 500
LONG_SITES = 100_000
BOUNDS_PAIR = (50_000, 50_100)
MC_SITES = 6
MC_SAMPLES = 1_000_000

_REPORT_HEADER = (
    "i,j,exact,thm1,thm2,lemma3,zero_field,"
    "slack_thm1,slack_thm2,slack_lemma3,slack_zero_field"
)
HEADERS = {
    "sweep": "instance,seed," + _REPORT_HEADER + ",violation",
    "exact": "key,value",
    "decay": "distance,rate,bound_rate,flag",
    "bounds": _REPORT_HEADER,
    "mc": "i,j,mean,std_error,samples,exact,z_score",
}


def _uniform(low: float, high: float) -> dict[str, object]:
    return {"type": "uniform", "low": low, "high": high}


@dataclass(frozen=True)
class Workload:
    name: str
    # Spec fields besides the seed; None means the input is the long instance.
    spec: dict[str, object] | None
    args: tuple[str, ...]
    rows: int
    sizes: dict[str, int]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep_allpairs",
            {"n_sites": 13},
            ("sweep", "--pairs", "all", "--count", str(SWEEP_ALLPAIRS_COUNT)),
            SWEEP_ALLPAIRS_COUNT * 78,
            {"n_sites": 13, "instances": SWEEP_ALLPAIRS_COUNT, "pairs": 78},
        ),
        Workload(
            "sweep_endpoints",
            {"n_sites": 20, "J": _uniform(0.0, 3.0), "h": _uniform(0.0, 2.0)},
            ("sweep", "--pairs", "endpoints", "--count", str(SWEEP_ENDPOINTS_COUNT)),
            SWEEP_ENDPOINTS_COUNT,
            {"n_sites": 20, "instances": SWEEP_ENDPOINTS_COUNT, "pairs": 1},
        ),
        Workload(
            "long_exact",
            {"n_sites": EXACT_SITES, "J": _uniform(1.0, 3.0), "h": _uniform(-0.5, 0.5)},
            ("exact", "--i", "0", "--j", str(EXACT_SITES - 1)),
            EXACT_SITES + 2,
            {"n_sites": EXACT_SITES},
        ),
        Workload(
            "long_decay",
            {"n_sites": DECAY_SITES, "J": _uniform(0.5, 1.5), "h": _uniform(0.0, 0.5)},
            ("decay",),
            DECAY_SITES - 1,
            {"n_sites": DECAY_SITES, "distances": DECAY_SITES - 1},
        ),
        Workload(
            "long_bounds",
            None,
            ("bounds", "--i", str(BOUNDS_PAIR[0]), "--j", str(BOUNDS_PAIR[1])),
            1,
            {"n_sites": LONG_SITES},
        ),
        Workload(
            "mc",
            {"n_sites": MC_SITES, "J": _uniform(0.5, 1.5), "h": _uniform(0.0, 0.3)},
            ("mc", "--i", "0", "--j", str(MC_SITES - 1), "--samples", str(MC_SAMPLES)),
            1,
            {"n_sites": MC_SITES, "samples": MC_SAMPLES},
        ),
    )
}


def long_instance(seed: int) -> dict[str, list[float]]:
    rng = np.random.default_rng(seed)
    return {
        "J": rng.uniform(0.5, 1.5, LONG_SITES - 1).tolist(),
        "h": rng.uniform(0.0, 0.5, LONG_SITES).tolist(),
    }


def write_inputs(workload: Workload, workdir: Path, seed: int) -> list[str]:
    """Write the workload's input file; return the full CLI argv."""
    if workload.spec is None:
        path = workdir / "instance.json"
        path.write_text(json.dumps(long_instance(seed)), encoding="utf-8")
        flag = "--instance"
    else:
        path = workdir / "spec.json"
        path.write_text(json.dumps({**workload.spec, "seed": seed}), encoding="utf-8")
        flag = "--spec"
    return [workload.args[0], flag, str(path), *workload.args[1:]]


def _parse_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


# Columns compared as text: integers, labels and flags.
EXACT_COLUMNS = {"instance", "seed", "i", "j", "violation", "distance", "samples", "key", "flag"}


def _magnitude(cell: str) -> float:
    try:
        value = abs(float(cell))
    except ValueError:
        return 0.0
    return value if math.isfinite(value) else 0.0


def _cells_match(column: str, ref: str, got: str, scale: float) -> bool:
    if ref == got:
        return True
    if column in EXACT_COLUMNS:
        return False
    try:
        a, b = float(ref), float(got)
    except ValueError:
        return False
    return abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b), scale)


def compare_reference(ref_text: str, got_text: str) -> str | None:
    """None when the outputs agree: equal ints and flags, floats to 1e-12.

    A slack column is a difference of two values in its row, so its error is
    relative to the row's largest magnitude, not to the slack itself.
    """
    ref_rows, got_rows = _parse_rows(ref_text), _parse_rows(got_text)
    if len(ref_rows) != len(got_rows):
        return f"{len(got_rows)} lines, reference has {len(ref_rows)}"
    header = ref_rows[0]
    for number, (ref, got) in enumerate(zip(ref_rows, got_rows)):
        if len(ref) != len(got):
            return f"line {number + 1}: {len(got)} cells, reference has {len(ref)}"
        row_scale = max(
            (_magnitude(c) for h, c in zip(header, ref) if h not in EXACT_COLUMNS),
            default=0.0,
        )
        for column, a, b in zip(header, ref, got):
            scale = row_scale if column.startswith("slack_") else 0.0
            if not _cells_match(column, a, b, scale):
                return f"line {number + 1}, column {column}: {b!r} vs reference {a!r}"
    return None


def reference_path(workload: Workload) -> Path:
    return REFERENCE_DIR / f"{workload.name}.csv"


def make_checker(
    workload: Workload, seed: int, mc_exact: float | None = None
) -> Callable[[int, str], str | None]:
    """Return check(exit_code, stdout) -> None when correct, else the reason.

    Every seed: exit code 0 (the CLI itself exits 1 on an oracle mismatch, 4 on
    a bound violation, 5 on |z| > 4), the header, the row count and no nan.
    Default seed: stdout matches the stored reference (not for mc, whose
    sample streams may change; its exact column is checked against the
    solver's covariance instead).
    """
    reference = None
    if workload.name != "mc" and seed == DEFAULT_SEED:
        reference = reference_path(workload).read_text(encoding="utf-8")

    def check(code: int, stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        lines = stdout.splitlines()
        if not lines or lines[0] != HEADERS[workload.args[0]]:
            return "unexpected header"
        if len(lines) - 1 != workload.rows:
            return f"{len(lines) - 1} rows, expected {workload.rows}"
        if any(cell in ("nan", "-nan") for row in _parse_rows(stdout) for cell in row):
            return "nan in output"
        if reference is not None:
            return compare_reference(reference, stdout)
        if workload.name == "mc":
            row = dict(zip(lines[0].split(","), lines[1].split(",")))
            if row["samples"] != str(MC_SAMPLES):
                return f"samples {row['samples']}"
            try:
                exact = float(row["exact"])
            except ValueError:
                return f"exact {row['exact']!r}"
            if not math.isclose(exact, mc_exact, rel_tol=FLOAT_RTOL):
                return f"exact {row['exact']} vs covariance {mc_exact!r}"
        return None

    return check
