"""Command-line front end.

Subcommands:
  exact    solver log Z, site means and pair covariance, with an enumeration
           cross-check appended whenever the chain fits under the cap; a
           disagreement with the oracle exits 1
  bounds   covariance upper bounds and their slacks for one pair
  sweep    random instances, one bound report row per (instance, pair)
  mc       paired-current Monte-Carlo covariance against the exact value
  decay    per-distance decay rates against the bound-implied rates

Exit codes are a contract: 0 success, 4 bound violation, 5 an MC estimate
inconsistent with the exact value, 3 a request too large for memory; every
other failure exits with the ``exit_code`` of its error type (errors.py: 2
parse error, 3 precondition violation, 5 inconclusive estimate, 1 internal
error). Every subcommand writes through _emit: CSV goes to stdout with a
fixed column order, floats at 17 significant digits and LF line endings, so
a fixed seed reruns byte for byte. When no seed is given one is drawn and
echoed on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import os
import sys
from operator import itemgetter
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .bounds import (
    BOUND_KEYS,
    REPORT_COLUMNS,
    _check_oracle,
    _report_columns,
    _violated,
    compare,
    decay_rates,
    format_cell,
)
from .chain import ENUMERATION_CAP, ChainParams, _check_integer, enum_summary
from .errors import ChainError, InconclusiveEstimateError, ParseError, PreconditionError
from .instances import SEED_LIMIT, InstanceSpec, generate_instance, instance_seeds
from .currents import mc_switching_covariance
from .transfer import covariance, log_partition


def _csv(columns: Sequence[str], rows: Iterable[Sequence[Any]]) -> Iterator[str]:
    """The lines of the CSV table of ``columns`` over ``rows``, each cell
    through format_cell: the table of ``bounds``, ``mc`` and ``decay``.
    ``sweep`` and ``exact`` format their rows through fixed ``%``-templates
    instead, whose ``%.17g`` is format_cell's float cell."""
    for row in itertools.chain([columns], rows):
        yield ",".join(v if isinstance(v, str) else format_cell(v) for v in row) + "\n"


def _emit(args: argparse.Namespace, record: Any, lines: Iterable[str]) -> None:
    """Write a subcommand's result to stdout: ``record`` as indented JSON for
    ``--out json``, else the CSV text ``lines``. ``bounds``, ``mc`` and
    ``decay`` pass _csv's lines; ``sweep`` and ``exact`` pass lines they
    format through ``%``-templates. ``lines`` is read only for CSV output.

    A reader that closes the pipe early (``| head``) ends the output, not the
    command: stdout then points at os.devnull, so the flush at exit cannot
    fail again, and the command returns the verdict it has already reached.
    """
    out = sys.stdout
    try:
        if args.out == "json":
            out.write(json.dumps(record, indent=2) + "\n")
        else:
            out.writelines(lines)
        out.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _draw_seed() -> int:
    seed = int(np.random.SeedSequence().entropy % SEED_LIMIT)
    print(f"seed: {seed}", file=sys.stderr)
    return seed


def _seed_for(args: argparse.Namespace, spec: InstanceSpec | None) -> int:
    """Seed precedence: --seed, then the spec file's seed, then a fresh draw."""
    if args.seed is not None:
        return args.seed
    if spec is not None and spec.seed is not None:
        return spec.seed
    return _draw_seed()


def _load_spec(args: argparse.Namespace) -> InstanceSpec | None:
    if args.spec is None:
        return None
    return InstanceSpec.from_json(_read_text(args.spec))


def _resolve_instance(args: argparse.Namespace) -> tuple[ChainParams, int | None]:
    """Load --instance, or generate one from --spec; returns (params, seed used)."""
    if args.instance is not None and args.spec is not None:
        raise ParseError("give either --instance or --spec, not both")
    if args.instance is not None:
        return ChainParams.from_json(_read_text(args.instance)), args.seed
    spec = _load_spec(args)
    if spec is None:
        raise ParseError("one of --instance or --spec is required")
    seed = _seed_for(args, spec)
    return generate_instance(spec, seed), seed


def _pair(args: argparse.Namespace, required: bool = True) -> tuple[int, int] | None:
    if args.i is None and args.j is None:
        if required:
            raise ParseError("--i and --j are required")
        return None
    if args.i is None or args.j is None:
        raise ParseError("give both --i and --j or neither")
    return args.i, args.j


def cmd_exact(args: argparse.Namespace) -> int:
    params, _ = _resolve_instance(args)
    pair = _pair(args, required=False)
    log_z = log_partition(params)
    mean_array = params.sweep.means
    means = mean_array.tolist()
    result: dict[str, Any] = {
        "n_sites": params.n_sites,
        "log_partition": log_z,
        "means": means,
    }
    # the key,value table, one %-template per key kind (%.17g is format_cell's
    # float cell); the means are formatted only when the table is written
    head = ["key,value\n", "log_partition,%.17g\n" % log_z]
    tail: list[str] = []
    if pair is not None:
        i, j = pair
        cov = covariance(params, i, j)
        result["pair"] = {"i": i, "j": j, "covariance": cov}
        tail.append("covariance,%.17g\n" % cov)
    if params.n_sites <= ENUMERATION_CAP:
        e_log_z, e_means, e_cov = enum_summary(params, *(pair or (None, None)))
        _check_oracle("log partition", [log_z], [e_log_z], ["every site"])
        sites = [f"site {x}" for x in range(params.n_sites)]
        _check_oracle("mean", mean_array, e_means, sites)
        check: dict[str, Any] = {
            "log_partition": e_log_z,
            "max_mean_abs_diff": float(np.max(np.abs(mean_array - e_means))),
        }
        if pair is not None:
            _check_oracle("covariance", [cov], [e_cov], [(i, j)])
            check["covariance"] = e_cov
        result["enum_check"] = check
        tail += map("enum_%s,%.17g\n".__mod__, check.items())
    mean_lines = map("mean_%d,%.17g\n".__mod__, enumerate(means))
    _emit(args, result, itertools.chain(head, mean_lines, tail))
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    params, _ = _resolve_instance(args)
    i, j = _pair(args)
    report = compare(params, i, j, proof_route=args.proof_route)
    record = report.to_dict()
    _emit(args, record, _csv(REPORT_COLUMNS, [itemgetter(*REPORT_COLUMNS)(record)]))
    violations = report.violations()
    if violations:
        print(f"bound violation: {', '.join(violations)}", file=sys.stderr)
        return 4
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise PreconditionError("--count must be at least 1")
    spec = _load_spec(args) or InstanceSpec()
    if spec.n_sites < 2:
        raise PreconditionError("sweeps need chains with at least one edge")
    root_seed = _seed_for(args, spec)
    seeds = instance_seeds(root_seed, args.count)
    columns = ("instance", "seed") + REPORT_COLUMNS + ("violation",)
    # JSON row dicts, or for CSV each block's lines as one string; nothing is
    # written before every instance has passed its oracle check
    rows: list[Any] = []
    min_slacks: dict[str, float] = {}
    n_violations = 0
    for index, seed in enumerate(seeds):
        params = generate_instance(spec, seed)
        last = params.n_edges
        n_rows, first = (last, 0) if args.pairs == "all" else (1, last)
        for block in _report_columns(params, 0, last, n_rows, args.proof_route, first):
            n_violations += sum(block["violation"])
            for key in filter(BOUND_KEYS.__contains__, block):
                low = min(block[f"slack_{key}"])
                if key not in min_slacks or low < min_slacks[key]:
                    min_slacks[key] = low
            absent = itertools.repeat(None)
            values = [block.get(column, absent) for column in columns[2:]]
            if args.out == "json":
                instance = itertools.repeat(index), itertools.repeat(seed)
                rows += (dict(zip(columns, row)) for row in zip(*instance, *values))
            else:
                formats = ["" if v is absent else "%.17g" for v in values[2:-1]]
                template = ",".join([str(index), str(seed), "%d", "%d", *formats, "%d\n"])
                present = [v for v in values if v is not absent]
                rows.append("".join(map(template.__mod__, zip(*present))))
    summary = " ".join(
        f"{key}={min_slacks[key]:.17g}" if key in min_slacks else f"{key}=n/a"
        for key in BOUND_KEYS
    )
    _emit(
        args,
        {"rows": rows, "min_slacks": min_slacks, "violations": n_violations},
        itertools.chain([",".join(columns) + "\n"], rows),
    )
    print(f"min slack: {summary}", file=sys.stderr)
    if n_violations:
        print(f"bound violations: {n_violations}", file=sys.stderr)
        return 4
    return 0


def cmd_mc(args: argparse.Namespace) -> int:
    if args.samples < 1:
        raise PreconditionError("--samples must be at least 1")
    i, j = _pair(args)
    params, seed = _resolve_instance(args)
    if seed is None:
        seed = _draw_seed()
    estimate = mc_switching_covariance(params, i, j, args.samples, seed)
    exact = covariance(params, i, j)
    if estimate.std_error > 0.0:
        z_score = (estimate.mean - exact) / estimate.std_error
    elif estimate.mean == exact:
        z_score = 0.0
    else:
        # no spread among the samples says nothing about how far the mean is
        raise InconclusiveEstimateError(
            "standard error is 0 and the mean differs from the exact value: "
            "too few samples to compare them"
        )
    result = {
        "i": min(i, j),
        "j": max(i, j),
        **estimate.to_dict(),
        "exact": exact,
        "z_score": z_score,
    }
    _emit(args, result, _csv(tuple(result), [tuple(result.values())]))
    if abs(z_score) > 4.0:
        print(f"mc inconsistency: |z| = {abs(z_score):.3g} > 4", file=sys.stderr)
        return 5
    return 0


def _parse_distances(text: str, n_sites: int) -> list[int]:
    try:
        distances = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ParseError(f"bad --distances: {exc}") from exc
    if not distances:
        raise ParseError("--distances is empty")
    for d in distances:
        if not 1 <= d <= n_sites - 1:
            raise PreconditionError(f"distance {d} out of range [1, {n_sites - 1}]")
    return distances


def cmd_decay(args: argparse.Namespace) -> int:
    spec = _load_spec(args) or InstanceSpec()
    if args.n_sites is not None:
        spec = dataclasses.replace(spec, n_sites=args.n_sites)
    if spec.n_sites < 2:
        raise PreconditionError("decay rates need chains with at least one edge")
    seed = _seed_for(args, spec)
    params = generate_instance(spec, seed)
    if not params.is_ferromagnetic():
        raise PreconditionError("decay rates are defined for ferromagnetic chains")
    distances = (
        _parse_distances(args.distances, spec.n_sites)
        if args.distances is not None
        else list(range(1, spec.n_sites))
    )
    rates = decay_rates(params, 0, max(distances), proof_route=args.proof_route)
    rows: list[dict[str, Any]] = []
    n_violations = 0
    for d in distances:
        rate, bound_rate = rates[d - 1]
        if rate is None:
            flag = "no_rate"
        else:
            flag = "violation" if _violated(rate, bound_rate) else "ok"
        n_violations += flag == "violation"
        rows.append(
            {"distance": d, "rate": rate, "bound_rate": bound_rate, "flag": flag}
        )
    columns = ("distance", "rate", "bound_rate", "flag")
    lines = _csv(columns, map(itemgetter(*columns), rows))
    _emit(args, {"seed": seed, "rows": rows}, lines)
    if n_violations:
        print(f"decay violations: {n_violations}", file=sys.stderr)
        return 4
    return 0


def _seed_arg(text: str) -> int:
    """argparse type of --seed: an integer in [0, 2**63)."""
    try:
        return _check_integer(int(text), "seed", 0, SEED_LIMIT)
    except PreconditionError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seed {text!r}") from None


# Flags that several subcommands take, each declared once. _add_common adds
# them by name, so every subcommand keeps its own option order.
_COMMON_FLAGS: dict[str, dict[str, Any]] = {
    "--instance": {"help": "instance JSON file"},
    "--spec": {"help": "instance-spec JSON file"},
    "--proof-route": {
        "action": "store_true",
        "help": "evaluate the first bound's effective fields on (J, |h|)",
    },
    "--seed": {"type": _seed_arg, "default": None, "help": "root RNG seed"},
    "--out": {"choices": ("csv", "json"), "default": "csv", "help": "output format"},
    "--i": {"type": int, "default": None, "help": "first site"},
    "--j": {"type": int, "default": None, "help": "second site"},
}


def _add_common(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        parser.add_argument(flag, **_COMMON_FLAGS[flag])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: argparse takes about 1 ms to
    build it, a sizeable share of a fast subcommand called in-process."""
    parser = argparse.ArgumentParser(
        prog="isingchain",
        description="Exact chain solver, covariance bounds and current sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="log Z, means and pair covariance")
    _add_common(p, "--instance", "--spec", "--seed", "--out", "--i", "--j")

    p = sub.add_parser("bounds", help="covariance bounds for one pair")
    _add_common(
        p, "--instance", "--spec", "--proof-route", "--seed", "--out", "--i", "--j"
    )

    p = sub.add_parser("sweep", help="bound reports over random instances")
    _add_common(p, "--spec")
    p.add_argument("--count", type=int, default=10, help="number of instances")
    p.add_argument(
        "--pairs", choices=("endpoints", "all"), default="endpoints",
        help="which site pairs to report per instance",
    )
    _add_common(p, "--proof-route", "--seed", "--out")

    p = sub.add_parser("mc", help="Monte-Carlo covariance vs the exact value")
    _add_common(p, "--instance", "--spec")
    p.add_argument(
        "--samples", type=int, default=100_000, help="number of paired samples"
    )
    _add_common(p, "--seed", "--out", "--i", "--j")

    p = sub.add_parser("decay", help="decay rates vs bound-implied rates")
    _add_common(p, "--spec")
    p.add_argument("--n-sites", type=int, default=None, help="override spec size")
    p.add_argument(
        "--distances", default=None, help="comma-separated distances from site 0"
    )
    _add_common(p, "--proof-route", "--seed", "--out")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Resolved per call rather than stored in the cached parser, so a
    # replaced module attribute (a monkeypatch, a tracing wrapper) is used.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except MemoryError as exc:
        print(f"error: request too large for memory: {exc}", file=sys.stderr)
        return 3
    except ChainError as exc:
        prefix = "internal error" if exc.exit_code == 1 else "error"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
