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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .chain import ChainParams, _check_pair, covariance_enum, ENUMERATION_CAP
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


def _require_ferromagnetic(params: ChainParams) -> None:
    if not params.is_ferromagnetic():
        raise PreconditionError("this bound needs all couplings >= 0")


def _end_fields(sweep: ChainSweep, i: int, window: np.ndarray) -> list[np.ndarray]:
    """The end fields of the pairs of a block of rows of a window from site i:
    each row's left field at its left site, and the right field at each
    right end."""
    left = sweep.left_fields[i + window[:, :1]]
    return [left, sweep.right_fields.take(i + 1 + window, mode="clip")]


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
    its preconditions hold. thm1 is the edge product times
    4 exp(-2|S|) / (1 + exp(-2 T))^2 and thm2 the edge product over
    cosh^2(S), S and T the signed and absolute sums of the window fields:
    the interior fields and the two effective end fields.
    """
    instances, edges, sites = [params], [], []
    if envelope:
        abs_params = params.absolute()
        log_ratio = log_partition(abs_params) - log_partition(params)
        if abs_params is not params:
            instances.append(abs_params)
    ferromagnetic = params.is_ferromagnetic()
    if ferromagnetic:
        couplings = np.array(params.couplings[i:stop], dtype=np.float64)
        fields = np.array(params.fields[i + 1 : stop], dtype=np.float64)
        with np.errstate(divide="ignore"):
            edges += [_log_edge_factor(couplings), np.log(np.tanh(couplings))]
        sites += [fields, np.abs(fields)]
    for window, logs, negatives, edge_sums, site_sums in _row_sums(
        instances, i, stop, rows, edges, sites
    ):
        log_bounds = {}
        if envelope:
            # the absolute instance's covariance; the instance's own if the same
            log_bounds["lemma3"] = logs[-1] + 2.0 * log_ratio
        if ferromagnetic:
            (edge, log_tanh), (field_sum, abs_sum) = edge_sums, site_sums
            a, b = _end_fields(_thm1_sweep(params, proof_route), i, window)
            s, t = a + field_sum + b, np.abs(a) + abs_sum + np.abs(b)
            log_field = _LOG4 - 2.0 * np.abs(s) - 2.0 * np.log1p(np.exp(-2.0 * t))
            log_bounds["thm1"] = edge + log_field
            log_bounds["zero_field"] = log_tanh
            if params.has_nonneg_fields():
                a, b = _end_fields(params.sweep, i, window)
                log_bounds["thm2"] = edge - 2.0 * _log_cosh(a + field_sum + b)
        yield window, logs[0], negatives, log_bounds


def _exp(log_bound: float) -> float:
    """A bound off its log by math.exp, as transfer._from_log reads the
    exact covariance, so a bound equal to it in logs equals it here too; inf
    where lemma3's partition ratio passes the float range."""
    try:
        return math.exp(log_bound)
    except OverflowError:
        return math.inf


def _bound(
    params: ChainParams, i: int, j: int, key: str, proof_route: bool = False
) -> float:
    """One bound of the pair (i, j): the last entry of the row to j."""
    ((_, _, _, log_bounds),) = _bound_blocks(
        params, i, j, 1, proof_route, envelope=key == "lemma3"
    )
    return _exp(log_bounds[key].item(-1))


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
    plus = math.fsum(h for h in params.fields if h > 0.0)
    minus = math.fsum(-h for h in params.fields if h < 0.0)
    mass = min(plus, minus)
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
        return [
            k for k in BOUND_KEYS if k in self.slacks and self.slacks[k] < -DOMINANCE_TOL
        ]

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
    ((report,),) = _reports(params, i, j, 1, proof_route, first=j)
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
    (reports,) = _reports(params, i, stop, 1, proof_route)
    return reports


def _report_rows(params: ChainParams, proof_route: bool) -> Iterator[list[BoundReport]]:
    """compare_row(params, i) for every left site i, in row order: one term
    pass over the whole chain, its rows summed a block at a time."""
    return _reports(params, 0, params.n_edges, params.n_edges, proof_route)


def _reports(
    params: ChainParams, i: int, stop: int, rows: int, proof_route: bool,
    first: int = 0,
) -> Iterator[list[BoundReport]]:
    """Reports of the pairs (r, j), j = max(first, r + 1) .. stop, for the
    left sites r = i .. i + rows - 1, a list per row, from one _bound_blocks
    pass. Each pair gets its BoundReport and, below the enumeration cap, its
    oracle check.
    """
    check_oracle = params.n_sites <= ENUMERATION_CAP
    for window, logs, negatives, log_bounds in _bound_blocks(
        params, i, stop, rows, proof_route
    ):
        for r, row_logs, row_negatives, *row_bounds in zip(
            (i + window[:, 0]).tolist(), logs.tolist(), negatives.tolist(),
            *(values.tolist() for values in log_bounds.values()),
        ):
            reports = []
            for j in range(max(first, r + 1), stop + 1):
                k = j - r - 1
                exact = _from_log(row_logs[k], row_negatives[k])
                if check_oracle:
                    check = covariance_enum(params, r, j)
                    if not math.isfinite(check) or abs(check - exact) > _ORACLE_CHECK_TOL:
                        raise OracleMismatchError(
                            f"solver covariance {exact!r} vs enumeration {check!r} "
                            f"at ({r}, {j})"
                        )
                values = {key: _exp(row[k]) for key, row in zip(log_bounds, row_bounds)}
                slacks = {
                    key: bound - (abs(exact) if key == "lemma3" else exact)
                    for key, bound in values.items()
                }
                reports.append(
                    BoundReport(i=r, j=j, exact=exact, bounds=values, slacks=slacks)
                )
            yield reports
