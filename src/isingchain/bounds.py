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
quantity exactly and keeps precision near 1 for strong couplings.

Like the covariance (transfer.py), every window sum a bound needs is a running
sum over one outward pass from the left site i (``_window_sums``), so
``compare_row`` and ``decay_rates`` cost O(1) per right end j, and a single
pair runs the same pass up to j.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from .chain import ChainParams, _check_pair, covariance_enum, ENUMERATION_CAP
from .errors import OracleMismatchError, PreconditionError
from .numeric import log_cosh
from .transfer import (
    ChainSweep,
    _decay_rate,
    _from_log,
    log_abs_covariance,
    log_abs_covariance_row,
    log_abs_covariance_rows,
    log_partition,
)

# Slack below -DOMINANCE_TOL counts as a violated bound.
DOMINANCE_TOL = 1e-12

# Wire order of the serialized report columns.
BOUND_KEYS = ("thm1", "thm2", "lemma3", "zero_field")
REPORT_COLUMNS = (
    "i",
    "j",
    "exact",
    "thm1",
    "thm2",
    "lemma3",
    "zero_field",
    "slack_thm1",
    "slack_thm2",
    "slack_lemma3",
    "slack_zero_field",
)

_ORACLE_CHECK_TOL = 1e-9


def _require_ferromagnetic(params: ChainParams) -> None:
    if not params.is_ferromagnetic():
        raise PreconditionError("this bound needs all couplings >= 0")


def _fsum_add(partials: list[float], x: float) -> None:
    """Add x to an exact sum kept as nonoverlapping partials (Shewchuk 1997).

    math.fsum(partials) is then the correctly rounded sum of every x added,
    the same float as math.fsum over those values.
    """
    n = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[n] = lo
            n += 1
        x = hi
    partials[n:] = [x]


class _WindowSums(NamedTuple):
    """Window sums of a ferromagnetic chain for every j in (i, stop], entry j - i - 1.

    ``edge``: sum over window edges of log(4 tanh(J)/(1+tanh(J))^2) =
    log(1-exp(-4J)). ``log_tanh``: sum of log tanh(J). Both are -inf once the
    window holds a zero coupling. ``interior`` / ``abs_interior``: the
    correctly rounded sums of h and |h| over the interior sites i+1..j-1.
    """

    edge: array
    log_tanh: array
    interior: array
    abs_interior: array


def _window_sums(params: ChainParams, i: int, stop: int) -> _WindowSums:
    """One outward pass from i; each running sum adds the same terms in the
    same order as the window loop of a single pair."""
    couplings, fields = params.couplings, params.fields
    sums = _WindowSums(array("d"), array("d"), array("d"), array("d"))
    edge = log_tanh = 0.0
    parts: list[float] = []
    abs_parts: list[float] = []
    for k in range(i, stop):
        if k > i:
            _fsum_add(parts, fields[k])
            _fsum_add(abs_parts, abs(fields[k]))
        jk = couplings[k]
        if jk == 0.0:
            edge = log_tanh = -math.inf
        else:
            edge += math.log(-math.expm1(-4.0 * jk))
            log_tanh += math.log(math.tanh(jk))
        sums.edge.append(edge)
        sums.log_tanh.append(log_tanh)
        sums.interior.append(math.fsum(parts))
        sums.abs_interior.append(math.fsum(abs_parts))
    return sums


def _log_signed_field(sums: _WindowSums, i: int, j: int, sweep: ChainSweep) -> float:
    """log thm1: the edge product times 4 exp(-2|S|) / (1 + exp(-2 T))^2."""
    k = j - i - 1
    h_i, h_j = sweep.left_field(i), sweep.right_field(j)
    s = h_i + sums.interior[k] + h_j
    t = abs(h_i) + sums.abs_interior[k] + abs(h_j)
    log_field = math.log(4.0) - 2.0 * abs(s) - 2.0 * math.log1p(math.exp(-2.0 * t))
    return sums.edge[k] + log_field


def _log_nonneg_field(sums: _WindowSums, i: int, j: int, sweep: ChainSweep) -> float:
    """log thm2: the edge product divided by cosh^2 of the summed fields."""
    s = sweep.left_field(i) + sums.interior[j - i - 1] + sweep.right_field(j)
    return sums.edge[j - i - 1] - 2.0 * log_cosh(s)


def _abs_envelope(log_cov_abs: float, log_ratio: float) -> float:
    # In log domain: cov_abs alone can underflow where the product does not.
    try:
        return math.exp(log_cov_abs + 2.0 * log_ratio)
    except OverflowError:
        return math.inf


def _thm1_sweep(params: ChainParams, proof_route: bool) -> ChainSweep:
    return (params.absolute() if proof_route else params).sweep


def bound_zero_field(params: ChainParams, i: int, j: int) -> float:
    """prod_{x in [i,j)} tanh(J_x); dominates the covariance under any field."""
    i, j = _check_pair(params, i, j, "bound_zero_field", ordered=True)
    _require_ferromagnetic(params)
    return math.exp(_window_sums(params, i, j).log_tanh[-1])


def bound_nonneg_field(params: ChainParams, i: int, j: int) -> float:
    """Edge product over the window divided by cosh^2 of the summed fields.

    Needs all couplings and all fields nonnegative. The field sum runs over
    the window interior plus the two effective end fields of the window.
    """
    i, j = _check_pair(params, i, j, "bound_nonneg_field", ordered=True)
    _require_ferromagnetic(params)
    if not params.has_nonneg_fields():
        raise PreconditionError("bound_nonneg_field needs all fields >= 0")
    return math.exp(_log_nonneg_field(_window_sums(params, i, j), i, j, params.sweep))


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
    sums = _window_sums(params, i, j)
    return math.exp(_log_signed_field(sums, i, j, _thm1_sweep(params, proof_route)))


def bound_abs_envelope(params: ChainParams, i: int, j: int) -> float:
    """cov of the |J|, |h| model times the squared partition ratio Z_abs/Z.

    Dominates |cov| of the signed model with no sign restrictions at all. The
    ratio grows like exp(4 sum |h-|), so the bound is inf once it passes the
    float range.
    """
    i, j = _check_pair(params, i, j, "bound_abs_envelope", ordered=True)
    abs_params = params.absolute()
    log_cov_abs, _ = log_abs_covariance(abs_params, i, j)
    return _abs_envelope(log_cov_abs, log_partition(abs_params) - log_partition(params))


def decay_rates(
    params: ChainParams, i: int, stop: int, proof_route: bool = False
) -> list[tuple[float | None, float]]:
    """(rate, bound rate) for every j in (i, stop], entry j - i - 1.

    The rate is finite_decay_rate(params, i, j), None where cov <= 0; the
    bound rate is -log bound_signed_field(params, i, j) / (j - i), inf where
    the bound is 0. Both are read off logs, so they stay finite where the
    covariance or the bound underflows, and both come from one outward pass
    from i: O(stop - i) in all.
    """
    i, stop = _check_pair(params, i, stop, "decay_rates", ordered=True)
    _require_ferromagnetic(params)
    logs, negatives = (v.tolist() for v in log_abs_covariance_row(params, i, stop))
    sums = _window_sums(params, i, stop)
    sweep = _thm1_sweep(params, proof_route)
    return [
        (
            _decay_rate(logs[k], negatives[k], j - i),
            -_log_signed_field(sums, i, j, sweep) / (j - i),
        )
        for k, j in enumerate(range(i + 1, stop + 1))
    ]


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
    return _reports(params, i, j, *_rows(params, i, j), proof_route)[0]


def compare_row(
    params: ChainParams, i: int, proof_route: bool = False
) -> list[BoundReport]:
    """compare(params, i, j) for every site j > i, in order of j.

    One outward pass from i per summed quantity (the covariance, the absolute
    instance's covariance, the bound sums), so a row costs O(N - i) and a
    report O(1) after it; the reports equal compare's, and the oracle check
    runs on every pair.
    """
    i, stop = _check_pair(params, i, params.n_sites - 1, "compare_row", ordered=True)
    return _reports(params, i, i + 1, *_rows(params, i, stop), proof_route)


def _report_rows(params: ChainParams, proof_route: bool) -> Iterator[list[BoundReport]]:
    """compare_row(params, i) for every left site i, in row order.

    The covariance rows come off one term pass over the whole chain
    (log_abs_covariance_rows), and one more for the absolute instance.
    """
    rows = log_abs_covariance_rows(params)
    abs_params = params.absolute()
    abs_rows = None if abs_params is params else log_abs_covariance_rows(abs_params)
    for i, row in enumerate(rows):
        abs_logs = row[0] if abs_rows is None else next(abs_rows)[0]
        yield _reports(params, i, i + 1, row, abs_logs, proof_route)


# A covariance row as lists: (log |cov|, cov < 0) for each right end.
_Row = tuple[list[float], list[bool]]


def _rows(params: ChainParams, i: int, stop: int) -> tuple[_Row, list[float]]:
    """The covariance row (log |cov|, cov < 0) from i to stop, and the log
    |cov| row of the absolute instance, which is the same when
    ``params.absolute() is params``."""
    logs, negatives = log_abs_covariance_row(params, i, stop)
    row = logs.tolist(), negatives.tolist()
    abs_params = params.absolute()
    if abs_params is params:
        return row, row[0]
    return row, log_abs_covariance_row(abs_params, i, stop)[0].tolist()


def _reports(
    params: ChainParams, i: int, first: int, row: _Row, abs_logs: list[float],
    proof_route: bool,
) -> list[BoundReport]:
    """Reports of the pairs (i, j), j = first .. stop, from the covariance row
    (i, stop] of the instance, the log |cov| row of its absolute instance, and
    one outward pass of the bound sums from i to stop.

    The instance-wide checks and the partition ratio run once for all the
    pairs.
    """
    logs, negatives = row
    stop = i + len(logs)
    abs_params = params.absolute()
    log_ratio = log_partition(abs_params) - log_partition(params)
    ferromagnetic = params.is_ferromagnetic()
    nonneg = ferromagnetic and params.has_nonneg_fields()
    if ferromagnetic:
        sums = _window_sums(params, i, stop)
        thm1_sweep = _thm1_sweep(params, proof_route)
    check_oracle = params.n_sites <= ENUMERATION_CAP
    reports = []
    for j in range(first, stop + 1):
        k = j - i - 1
        exact = _from_log(logs[k], negatives[k])
        if check_oracle:
            check = covariance_enum(params, i, j)
            if not math.isfinite(check) or abs(check - exact) > _ORACLE_CHECK_TOL:
                raise OracleMismatchError(
                    f"solver covariance {exact!r} vs enumeration {check!r} "
                    f"at ({i}, {j})"
                )
        bounds = {"lemma3": _abs_envelope(abs_logs[k], log_ratio)}
        if ferromagnetic:
            bounds["thm1"] = math.exp(_log_signed_field(sums, i, j, thm1_sweep))
            bounds["zero_field"] = math.exp(sums.log_tanh[k])
            if nonneg:
                bounds["thm2"] = math.exp(_log_nonneg_field(sums, i, j, params.sweep))
        slacks = {
            key: bound - (abs(exact) if key == "lemma3" else exact)
            for key, bound in bounds.items()
        }
        reports.append(BoundReport(i=i, j=j, exact=exact, bounds=bounds, slacks=slacks))
    return reports
