"""Benchmark of the isingchain CLI, run in-process through ``isingchain.cli.main``.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the package is imported from ``src/``. One
client drives a closed loop: each CLI call starts after the previous one
returned, and its stdout is captured and checked. Metric names and units come
from ``BENCHMARK.json``.

``--trace 0`` reports the end-to-end metrics with tracing off:
  call_cal_s   median over calls of the call's wall seconds scaled to a fixed
               machine speed: wall * CAL_REF_S / (time of a fixed pure-Python
               calibration loop run just before and after that call)
  setup_s      median over fresh processes of importing isingchain and
               writing the workload's input files
  peak_rss_mb  ru_maxrss of this process, which runs only the workload
``--trace 1`` runs the same calls untraced, then traced (see spans.py), and
reports the per-layer metrics, each per CLI call, and the tracing overhead.

The host's speed swings by +-20% over seconds, so raw wall medians of a short
run do not repeat; the calibration loop runs in the same conditions as the
call and cancels most of that. Raw wall times are kept in the manifest.

The second-to-last stdout line is the run manifest; the last line is the
result. Both, with the spans of a traced run, are also written under
``.bench_out/``. Input files live in a temporary directory under
``.bench_work/``. ``--write-reference`` stores the default-seed output that
later runs are compared with.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Callable

import manifest
import spans
import workloads
from workloads import DEFAULT_SEED, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_CHILDREN = 5
CHILD_TIMEOUT_S = 120
# Nominal duration of calibrate(); calibrated times are wall times at the
# machine speed where the loop takes this long.
CAL_REF_S = 0.05
# Current samples drawn per sample_current_batch call when timing the sampler
# alone; chunking keeps the arrays small.
SAMPLER_CHUNK = 100_000


def _require_source() -> None:
    if not (SRC / "isingchain" / "__init__.py").is_file():
        sys.exit(f"error: no isingchain package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def setup(workload: Workload, seed: int, workdir: Path) -> tuple[Any, list[str], float]:
    """Import the package and write the inputs; return (cli module, argv, seconds)."""
    start = time.perf_counter()
    import isingchain.cli as cli

    argv = workloads.write_inputs(workload, workdir, seed)
    elapsed = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: isingchain imported from {cli.__file__}, not {SRC}")
    return cli, argv, elapsed


@contextlib.contextmanager
def _workdir():
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=base) as path:
        yield Path(path)


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop: the machine's current speed."""
    start = time.perf_counter()
    total = 0.0
    for i in range(400_000):
        total += (i * 0.5) % 7.0
    return time.perf_counter() - start


class Client:
    """One closed-loop client: calls the CLI, times it, checks its output."""

    def __init__(self, cli: Any, argv: list[str], check: Callable[[int, str], str | None]):
        self.cli = cli
        self.argv = argv
        self.check = check
        self.attempted = 0
        self.failures: list[str] = []

    def call(self) -> float:
        out = io.StringIO()
        crash = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                code = self.cli.main(self.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                # An uncaught exception breaks the exit-code contract; keep
                # the traceback as the failure reason.
                code, crash = 1, traceback.format_exc()
            elapsed = time.perf_counter() - start
        self.attempted += 1
        reason = crash or self.check(code, out.getvalue())
        if reason is not None:
            self.failures.append(reason)
        return elapsed

    def loop(self, seconds: float, min_calls: int) -> tuple[list[float], list[float]]:
        """Call for `seconds` (at least `min_calls` times).

        Returns each call's wall seconds and the mean calibrate() time of the
        loops run just before and just after it.
        """
        times: list[float] = []
        cal: list[float] = []
        start = time.perf_counter()
        while len(times) < min_calls or time.perf_counter() - start < seconds:
            first = calibrate()
            times.append(self.call())
            cal.append(0.5 * (first + calibrate()))
        return times, cal


def _spec_instance(workload: Workload, seed: int) -> Any:
    """The chain the CLI draws from the workload's spec file."""
    from isingchain.instances import InstanceSpec, generate_instance

    spec = InstanceSpec.from_json(json.dumps({**workload.spec, "seed": seed}))
    return generate_instance(spec, seed)


def _checker(workload: Workload, seed: int) -> Callable[[int, str], str | None]:
    mc_exact = None
    if workload.name == "mc":
        from isingchain.transfer import covariance

        mc_exact = covariance(_spec_instance(workload, seed), 0, workload.sizes["n_sites"] - 1)
    return workloads.make_checker(workload, seed, mc_exact)


def _setup_child(workload: Workload, seed: int) -> float:
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", workload.name, "--seed", str(seed)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        sys.exit(f"error: set-up process exited {proc.returncode}: {proc.stderr.strip()}")
    return float(proc.stdout.splitlines()[-1])


def end_to_end(workload: Workload, seed: int, seconds: float) -> tuple[dict, dict, Client]:
    setup_times = [_setup_child(workload, seed) for _ in range(SETUP_CHILDREN)]
    with _workdir() as workdir:
        cli, argv, _ = setup(workload, seed, workdir)
        client = Client(cli, argv, _checker(workload, seed))
        client.call()  # warm-up, checked but not timed
        times, cal = client.loop(seconds, min_calls=5)
    calibrated = [t * CAL_REF_S / c for t, c in zip(times, cal)]
    values = {
        "call_cal_s": statistics.median(calibrated),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "manifest": {
            "samples": {"call_cal_s": len(times), "setup_s": len(setup_times), "peak_rss_mb": 1},
            "call_wall_s_median": statistics.median(times),
        },
        "call_wall_s": times,
        "calibrate_s": cal,
        "setup_s": setup_times,
    }
    return values, extra, client


def _sampler_seconds(workload: Workload, seed: int) -> float:
    """Time public sample_current_batch over twice the workload's sample count."""
    from isingchain.currents import sample_current_batch

    params = _spec_instance(workload, seed)
    total = 2 * workload.sizes["samples"]
    start = time.perf_counter()
    for k in range(0, total, SAMPLER_CHUNK):
        sample_current_batch(params, seed + k, min(SAMPLER_CHUNK, total - k))
    return time.perf_counter() - start


def per_layer(
    workload: Workload, seed: int, seconds: float, names: list[str]
) -> tuple[dict, dict, Client]:
    with _workdir() as workdir:
        cli, argv, _ = setup(workload, seed, workdir)
        client = Client(cli, argv, _checker(workload, seed))
        client.call()  # warm-up
        untraced, _ = client.loop(seconds / 2, min_calls=2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced, _ = client.loop(seconds / 2, min_calls=2)
        finally:
            tracer.uninstall()
    n = len(traced)
    summary = tracer.summary()
    coverage = tracer.root_seconds() / sum(traced)
    special = {
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
        "currents.sampler_s": _sampler_seconds(workload, seed) if workload.name == "mc" else 0.0,
        spans.CONFIGS: tracer.counts[spans.CONFIGS] / n,
    }
    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]
            continue
        key, stat = name.rsplit(".", 1)
        if key in spans.COUNTED and stat == "calls":
            values[name] = tracer.counts[key] / n
        elif key in spans.SPANNED and stat in ("calls", "s", "self_s"):
            values[name] = summary.get(key, {}).get(stat, 0) / n
        else:
            sys.exit(f"error: BENCHMARK.json names an untraced metric {name}")
    # The spans must account for the traced calls' wall time; the rest is
    # argument parsing in cli.main before the subcommand starts.
    if coverage < 0.95:
        client.failures.append(f"spans cover {coverage:.3f} of the traced call time")
    extra = {
        "manifest": {
            "samples": {"traced_calls": n, "untraced_calls": len(untraced)},
            "span_coverage": coverage,
        },
        "layers": {k: {s: v / n for s, v in e.items()} for k, e in sorted(summary.items())},
        "counts": {k: v / n for k, v in sorted(tracer.counts.items())},
        "spans": {"fields": ["name", "start", "end", "parent", "run"], "records": tracer.spans},
    }
    return values, extra, client


def _config() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def write_reference(workload: Workload) -> None:
    with _workdir() as workdir:
        cli, argv, _ = setup(workload, DEFAULT_SEED, workdir)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    if code != 0:
        sys.exit(f"error: {workload.name} exited {code}")
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    workloads.reference_path(workload).write_text(out.getvalue(), encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2**63)")
    config = _config()
    if args.seconds is None:
        args.seconds = float(config["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _require_source()
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        with _workdir() as workdir:
            print(setup(workload, args.seed, workdir)[2])
        return
    if args.write_reference:
        write_reference(workload)
        return
    if args.trace:
        kind = "per_layer"
        values, extra, client = per_layer(
            workload, args.seed, args.seconds, [m["name"] for m in config[kind]]
        )
    else:
        kind = "end_to_end"
        values, extra, client = end_to_end(workload, args.seed, args.seconds)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in config[kind]}
    info = {
        **manifest.collect(ROOT),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": list(workload.args),
        "sizes": workload.sizes,
        "rows_per_call": workload.rows,
    }
    info.update(extra.pop("manifest"))
    info["fail_ratio"] = len(client.failures) / client.attempted
    info["failures"] = client.failures[:10]
    result = {
        "correct": not client.failures,
        "attempted": client.attempted,
        "failed": len(client.failures),
        "metrics": metrics,
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({"manifest": info, "result": result, **extra}), encoding="utf-8")
    print(json.dumps({"manifest": info}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
