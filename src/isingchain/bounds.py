"""Covariance upper bounds for the chain and their evaluation into reports.

Four bounds are implemented, named in output by the wire labels the report
format fixes (columns thm1, thm2, lemma3, zero_field):

* ``bound_signed_field`` (thm1): ferromagnetic couplings, arbitrary signed
  fields. Product of per-edge factors times a field factor built from the
  window's effective end fields.
* ``bound_nonneg_field`` (thm2): ferromagnetic couplings and nonnegative
  fields; same edge product with a sharper 1/cosh^2 field factor.
* ``bound_abs_envelope`` (lemma3): no sign restrictions; the covariance of
  the absolute-parameter model rescaled by the squared partition ratio.
* ``bound_zero_field``: ferromagnetic couplings; the product of tanh(J) over
  the window, which dominates the covariance under any field.

All products are accumulated in log domain. The per-edge factor
4 tanh(J) / (1 + tanh(J))^2 is evaluated as 1 - exp(-4J), which is the same
quantity exactly and keeps precision near 1 for strong couplings; the
adjacent covariance shares that closed form (transfer._log_edge_factor).

Every window sum a bound needs is read the way a covariance is (transfer.py):
numpy term columns over a window [i, stop) only, the log edge factor and
log tanh J per edge and h and |h| per site, summed by transfer._row_sums in
index order. A pair, a row (``compare_row``, ``decay_rates``) and a block
of rows (``sweep --pairs all``, which sums the covariance columns and the
bound columns of a block of left sites in one pass) therefore read the same
floats. The field sums S and T are recursive sums, off the exact sums by at
most gamma_{j-i} sum |h| (Higham 2002, sec. 4.2). thm1 and thm2 are each one
array expression over the sums and the sweep's end fields of a block of
pairs.

Reports are evaluated as columns too (_report_columns): for a block of
pairs, one dict of columns keyed by the wire labels, i, j, exact, each
applicable bound, its slack_<bound> and violation. The exact covariances and
the bounds come off their logs by math.exp per pair, so they are the floats a
single covariance or bound call gives; the slacks and violation flags are
array expressions. sweep formats the columns as they are; compare and
compare_row build their BoundReports from them. Only lemma3 can pass the float
range, as its partition ratio grows like exp(4 sum |h-|): its log is set to
inf above log(sys.float_info.max), the point where math.exp starts to raise,
so the bound reads inf there.

Below the enumeration cap every exact covariance is checked against the
oracle (_check_oracle, which the exact subcommand runs on log Z and the
means too); a disagreement is raised as a bug, not reported.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

import numpy as np

from .chain import ChainParams, _check_pair, ENUMERATION_CAP
from .errors import OracleMismatchError, PreconditionError
from .transfer import (
    ChainSweep,
    _from_log,
    _log_cosh,
    _log_edge_factor,
    _row_sums,
    log_partition,
)

# Slack below -DOMINANCE_TOL counts as a violated bound.
DOMINANCE_TOL = 1e-12

# Wire order of the serialized report columns.
BOUND_KEYS = ("thm1", "thm2", "lemma3", "zero_field")
REPORT_COLUMNS = ("i", "j", "exact", *BOUND_KEYS, *(f"slack_{k}" for k in BOUND_KEYS))

_ORACLE_CHECK_TOL = 1e-9
_LOG4 = math.log(4.0)
# the largest log whose math.exp is finite
_LOG_MAX = math.log(sys.float_info.max)


def _violated(value: Any, floor: Any = 0.0) -> Any:
    """The one slack rule: value, a float or an array, lies below floor by
    more than DOMINANCE_TOL. A bound's slack must not go below 0, and a decay
    rate not below its bound-implied rate."""
    return value < floor - DOMINANCE_TOL


def _require_ferromagnetic(params: ChainParams) -> None:
    if not params.is_ferromagnetic():
        raise PreconditionError("this bound needs all couplings >= 0")


def _end_fields(
    sweep: ChainSweep, i: int, stop: int, window: np.ndarray
) -> list[np.ndarray]:
    """The end fields of the pairs of a block of rows of the window [i, stop]:
    each row's left field at its left site, and the right field at each
    right end."""
    left, right = sweep._window_fields(i, stop)
    return [left[i + window[:, :1]], right.take(i + 1 + window, mode="clip")]


def _bound_blocks(
    params: ChainParams, i: int, stop: int, rows: int, proof_route: bool,
    envelope: bool = True,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, np.ndarray]]]:
    """(window, log |cov|, cov < 0, log bounds) of the pairs from the left
    sites i .. i + rows - 1 to stop, a block of rows at a time
    (transfer._row_sums, whose window it yields).

    One pass sums the covariance's columns, the absolute instance's and the
    bound columns: the log edge factor and log tanh J of each edge, h and
    |h| of each interior site. The log bounds are keyed by wire label in the
    order lemma3 (only with ``envelope``), thm1, zero_field, thm2, each where
    its preconditions hold; lemma3 is inf where it passes _LOG_MAX, so every
    bound comes off its log by math.exp. thm1 is the edge product times
    4 exp(-2|S|) / (1 + exp(-2 T))^2 and thm2 the edge product over
    cosh^2(S), S and T the signed and absolute sums of the window fields:
    the interior fields and the two effective end fields.
    """
    instances, edges, sites = [params], [], []
    if envelope:
        abs_params = params.absolute()
        # an instance that is its own absolute instance has ratio 1 exactly
        log_ratio = 0.0
        if abs_params is not params:
            log_ratio = log_partition(abs_params) - log_partition(params)
            instances.append(abs_params)
    ferromagnetic = params.is_ferromagnetic()
    if ferromagnetic:
        couplings, fields = params.couplings[i:stop], params.fields[i + 1 : stop]
        with np.errstate(divide="ignore"):
            edges += [_log_edge_factor(couplings), np.log(np.tanh(couplings))]
        sites += [fields, np.abs(fields)]
    for window, logs, negatives, edge_sums, site_sums in _row_sums(
        instances, i, stop, rows, edges, sites
    ):
        log_bounds = {}
        if envelope:
            # the absolute instance's covariance; the instance's own if the same
            lemma3 = logs[-1] + 2.0 * log_ratio
            log_bounds["lemma3"] = np.where(lemma3 > _LOG_MAX, math.inf, lemma3)
        if ferromagnetic:
            (edge, log_tanh), (field_sum, abs_sum) = edge_sums, site_sums
            a, b = _end_fields(_thm1_sweep(params, proof_route), i, stop, window)
            s, t = a + field_sum + b, np.abs(a) + abs_sum + np.abs(b)
            log_field = _LOG4 - 2.0 * np.abs(s) - 2.0 * np.log1p(np.exp(-2.0 * t))
            log_bounds["thm1"] = edge + log_field
            log_bounds["zero_field"] = log_tanh
            if params.has_nonneg_fields():
                a, b = _end_fields(params.sweep, i, stop, window)
                log_bounds["thm2"] = edge - 2.0 * _log_cosh(a + field_sum + b)
        yield window, logs[0], negatives, log_bounds


def _bound(
    params: ChainParams, i: int, j: int, key: str, proof_route: bool = False
) -> float:
    """One bound of the pair (i, j): the last entry of the row to j."""
    ((_, _, _, log_bounds),) = _bound_blocks(
        params, i, j, 1, proof_route, envelope=key == "lemma3"
    )
    return math.exp(log_bounds[key].item(-1))


def _thm1_sweep(params: ChainParams, proof_route: bool) -> ChainSweep:
    return (params.absolute() if proof_route else params).sweep


def bound_zero_field(params: ChainParams, i: int, j: int) -> float:
    """prod_{x in [i,j)} tanh(J_x); dominates the covariance under any field."""
    i, j = _check_pair(params, i, j, "bound_zero_field", ordered=True)
    _require_ferromagnetic(params)
    return _bound(params, i, j, "zero_field")


def bound_nonneg_field(params: ChainParams, i: int, j: int) -> float:
    """Edge product over the window divided by cosh^2 of the summed fields.

    Needs all couplings and all fields nonnegative. The field sum runs over
    the window interior plus the two effective end fields of the window.
    """
    i, j = _check_pair(params, i, j, "bound_nonneg_field", ordered=True)
    _require_ferromagnetic(params)
    if not params.has_nonneg_fields():
        raise PreconditionError("bound_nonneg_field needs all fields >= 0")
    return _bound(params, i, j, "thm2")


def bound_signed_field(
    params: ChainParams, i: int, j: int, proof_route: bool = False
) -> float:
    """Edge product times a field factor valid for arbitrary signed fields.

    The field factor is 4 exp(-2|S|) / (1 + exp(-2 T))^2 with S the signed
    sum and T the absolute sum of the window fields (interior fields plus the
    two effective end fields). By default the end fields come from truncating
    the model as given; ``proof_route=True`` instead computes them on the
    absolute-field model, an alternate convention exposed for comparison.
    """
    i, j = _check_pair(params, i, j, "bound_signed_field", ordered=True)
    _require_ferromagnetic(params)
    return _bound(params, i, j, "thm1", proof_route)


def bound_abs_envelope(params: ChainParams, i: int, j: int) -> float:
    """cov of the |J|, |h| model times the squared partition ratio Z_abs/Z.

    Dominates |cov| of the signed model with no sign restrictions at all. The
    ratio grows like exp(4 sum |h-|), so the bound is inf once it passes the
    float range.
    """
    i, j = _check_pair(params, i, j, "bound_abs_envelope", ordered=True)
    return _bound(params, i, j, "lemma3")


def decay_rates(
    params: ChainParams, i: int, stop: int, proof_route: bool = False
) -> list[tuple[float | None, float]]:
    """(rate, bound rate) for every j in (i, stop], entry j - i - 1.

    The rate is finite_decay_rate(params, i, j), None where cov <= 0; the
    bound rate is -log bound_signed_field(params, i, j) / (j - i), inf where
    the bound is 0. Both are read off logs, so they stay finite where the
    covariance or the bound underflows, and both come from one row from i:
    O(stop - i) in all.
    """
    i, stop = _check_pair(params, i, stop, "decay_rates", ordered=True)
    _require_ferromagnetic(params)
    ((_, logs, negatives, log_bounds),) = _bound_blocks(
        params, i, stop, 1, proof_route, envelope=False
    )
    distances = np.arange(1, stop - i + 1)
    rates = np.where(negatives | (logs == -math.inf), None, -logs / distances)
    return list(zip(rates[0].tolist(), (-log_bounds["thm1"][0] / distances).tolist()))


def partition_ratio_lower(params: ChainParams) -> tuple[float, float]:
    """(Z_{J,h} / Z_{J,|h|}, certified lower bound exp(-2 min mass)).

    The bound uses the minus-part mass of whichever field orientation (h or
    -h; Z is invariant under the global flip) has the smaller one.
    """
    _require_ferromagnetic(params)
    ratio = math.exp(log_partition(params) - log_partition(params.absolute()))
    fields = params.fields
    mass = min(math.fsum(fields[fields > 0.0]), math.fsum(-fields[fields < 0.0]))
    return ratio, math.exp(-2.0 * mass)


@dataclass(frozen=True)
class BoundReport:
    """Exact covariance next to every applicable bound and its slack.

    ``bounds`` and ``slacks`` are keyed by the wire labels (BOUND_KEYS);
    bounds whose preconditions fail are absent. Slack is bound - cov, except
    for "lemma3" where it is bound - |cov|.
    """

    i: int
    j: int
    exact: float
    bounds: dict[str, float] = field(default_factory=dict)
    slacks: dict[str, float] = field(default_factory=dict)

    def violations(self) -> list[str]:
        """The bounds whose slack is below -DOMINANCE_TOL, in wire order."""
        return [k for k in BOUND_KEYS if k in self.slacks and _violated(self.slacks[k])]

    def to_dict(self) -> dict[str, float | int | None]:
        out: dict[str, float | int | None] = {"i": self.i, "j": self.j, "exact": self.exact}
        for key in BOUND_KEYS:
            out[key] = self.bounds.get(key)
        for key in BOUND_KEYS:
            out[f"slack_{key}"] = self.slacks.get(key)
        return out


def format_cell(value: float | int | None) -> str:
    """Fixed CSV cell formatting: 17 significant digits, empty for absent."""
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return format(value, ".17g")


def compare(
    params: ChainParams, i: int, j: int, proof_route: bool = False
) -> BoundReport:
    """Evaluate every applicable bound against the exact covariance.

    The exact value comes from the O(N) solver; below the enumeration cap it
    is cross-checked against the enumeration oracle and a disagreement is
    raised as a bug, not reported.
    """
    i, j = _check_pair(params, i, j, "compare")
    ((report,),) = _reports(_report_columns(params, i, j, 1, proof_route, first=j))
    return report


def compare_row(
    params: ChainParams, i: int, proof_route: bool = False
) -> list[BoundReport]:
    """compare(params, i, j) for every site j > i, in order of j.

    One row of sums from i serves every pair, so a row costs O(N - i) numpy
    work and a report O(1) after it; the reports equal compare's, and the
    oracle check runs on every pair.
    """
    i, stop = _check_pair(params, i, params.n_sites - 1, "compare_row", ordered=True)
    (reports,) = _reports(_report_columns(params, i, stop, 1, proof_route))
    return reports


def _reports(blocks: Iterator[dict[str, list]]) -> Iterator[list[BoundReport]]:
    """The pairs of _report_columns' blocks as BoundReports, a list per left
    site."""
    for block in blocks:
        keys = [*filter(BOUND_KEYS.__contains__, block)]
        bounds = [dict(zip(keys, b)) for b in zip(*map(block.get, keys))]
        slacks = [dict(zip(keys, s)) for s in zip(*(block[f"slack_{k}"] for k in keys))]
        reports = map(BoundReport, block["i"], block["j"], block["exact"], bounds, slacks)
        for _, row in itertools.groupby(reports, lambda report: report.i):
            yield list(row)


def _check_oracle(quantity: str, solver: Any, oracle: Any, at: Sequence[Any]) -> None:
    """Raise OracleMismatchError at the first entry where the solver's value
    and the enumeration oracle's differ by more than _ORACLE_CHECK_TOL
    relative to max(1, |solver value|), or either is nan; ``at`` labels each
    entry in the message."""
    solver, oracle = np.asarray(solver, dtype=float), np.asarray(oracle, dtype=float)
    scale = np.maximum(1.0, np.abs(solver))
    bad = ~(np.abs(solver - oracle) <= _ORACLE_CHECK_TOL * scale)
    if bad.any():
        k = int(bad.argmax())
        raise OracleMismatchError(
            f"solver {quantity} {solver.item(k)!r} vs enumeration {oracle.item(k)!r} "
            f"at {at[k]}"
        )


def _report_columns(
    params: ChainParams, i: int, stop: int, rows: int, proof_route: bool,
    first: int = 0,
) -> Iterator[dict[str, list]]:
    """The reports of the pairs (r, j), j = max(first, r + 1) .. stop, for the
    left sites r = i .. i + rows - 1, in row order, a block of rows at a time
    off one _bound_blocks pass.

    A block is one dict of lists of Python values keyed by the wire labels:
    i, j, exact, each applicable bound in _bound_blocks' order, then each
    bound's slack_<bound> in the same order, and violation, 1 where a slack
    is violated (_violated), else 0. The exact covariance comes off its log
    through _from_log and each bound through math.exp, both per pair, so
    they are the floats of a single covariance or bound call. Slacks and
    flags are array expressions. Below the enumeration cap every pair is
    checked against the oracle's covariance matrix (_check_oracle).
    """
    oracle = params.enumeration.cov if params.n_sites <= ENUMERATION_CAP else None
    blocks = _bound_blocks(params, i, stop, rows, proof_route)
    for window, logs, negatives, log_bounds in blocks:
        pairs = (window < stop - i) & (window >= first - i - 1)
        r = np.broadcast_to(i + window[:, :1], window.shape)[pairs]
        j = i + 1 + window[pairs]
        exact = list(map(_from_log, logs[pairs].tolist(), negatives[pairs].tolist()))
        block = {"i": r.tolist(), "j": j.tolist(), "exact": exact}
        if oracle is not None:
            _check_oracle("covariance", exact, oracle[r, j], [*zip(block["i"], block["j"])])
        for key, log_bound in log_bounds.items():
            block[key] = list(map(math.exp, log_bound[pairs].tolist()))
        cov = np.array(exact)
        # lemma3 bounds |cov|, the others cov
        magnitudes = {"lemma3": np.abs(cov)}
        slacks = [np.array(block[key]) - magnitudes.get(key, cov) for key in log_bounds]
        block.update((f"slack_{key}", s.tolist()) for key, s in zip(log_bounds, slacks))
        violated = np.any([_violated(slack) for slack in slacks], axis=0)
        block["violation"] = violated.astype(int).tolist()
        yield block
