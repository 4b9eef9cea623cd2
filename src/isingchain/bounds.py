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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .chain import ChainParams, _check_pair, covariance_enum, ENUMERATION_CAP
from .errors import OracleMismatchError, PreconditionError
from .numeric import log_cosh
from .transfer import covariance, log_abs_covariance, log_partition

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


def _log_edge_product(params: ChainParams, i: int, j: int) -> float:
    """Sum over window edges of log(4 tanh(J)/(1+tanh(J))^2) = log(1-exp(-4J))."""
    total = 0.0
    for x in range(i, j):
        jx = params.couplings[x]
        if jx == 0.0:
            return -math.inf
        total += math.log(-math.expm1(-4.0 * jx))
    return total


def bound_zero_field(params: ChainParams, i: int, j: int) -> float:
    """prod_{x in [i,j)} tanh(J_x); dominates the covariance under any field."""
    i, j = _check_pair(params, i, j, "bound_zero_field", ordered=True)
    _require_ferromagnetic(params)
    total = 0.0
    for x in range(i, j):
        t = math.tanh(params.couplings[x])
        if t == 0.0:
            return 0.0
        total += math.log(t)
    return math.exp(total)


def bound_nonneg_field(params: ChainParams, i: int, j: int) -> float:
    """Edge product over the window divided by cosh^2 of the summed fields.

    Needs all couplings and all fields nonnegative. The field sum runs over
    the window interior plus the two effective end fields of the window.
    """
    i, j = _check_pair(params, i, j, "bound_nonneg_field", ordered=True)
    _require_ferromagnetic(params)
    if not params.has_nonneg_fields():
        raise PreconditionError("bound_nonneg_field needs all fields >= 0")
    sweep = params.sweep
    s = sweep.left_field(i) + math.fsum(params.fields[i + 1 : j]) + sweep.right_field(j)
    log_bound = _log_edge_product(params, i, j) - 2.0 * log_cosh(s)
    return math.exp(log_bound)


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
    sweep = (params.absolute() if proof_route else params).sweep
    h_i, h_j = sweep.left_field(i), sweep.right_field(j)
    interior = params.fields[i + 1 : j]
    s = h_i + math.fsum(interior) + h_j
    t = abs(h_i) + math.fsum(abs(v) for v in interior) + abs(h_j)
    log_field = math.log(4.0) - 2.0 * abs(s) - 2.0 * math.log1p(math.exp(-2.0 * t))
    return math.exp(_log_edge_product(params, i, j) + log_field)


def bound_abs_envelope(params: ChainParams, i: int, j: int) -> float:
    """cov of the |J|, |h| model times the squared partition ratio Z_abs/Z.

    Dominates |cov| of the signed model with no sign restrictions at all. The
    ratio grows like exp(4 sum |h-|), so the bound is inf once it passes the
    float range.
    """
    i, j = _check_pair(params, i, j, "bound_abs_envelope", ordered=True)
    abs_params = params.absolute()
    # In log domain: cov_abs alone can underflow where the product does not.
    log_cov_abs, _ = log_abs_covariance(abs_params, i, j)
    log_ratio = log_partition(abs_params) - log_partition(params)
    try:
        return math.exp(log_cov_abs + 2.0 * log_ratio)
    except OverflowError:
        return math.inf


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
    exact = covariance(params, i, j)
    if params.n_sites <= ENUMERATION_CAP:
        check = covariance_enum(params, i, j)
        if not math.isfinite(check) or abs(check - exact) > _ORACLE_CHECK_TOL:
            raise OracleMismatchError(
                f"solver covariance {exact!r} vs enumeration {check!r} at ({i}, {j})"
            )
    bounds: dict[str, float] = {}
    slacks: dict[str, float] = {}
    bounds["lemma3"] = bound_abs_envelope(params, i, j)
    slacks["lemma3"] = bounds["lemma3"] - abs(exact)
    if params.is_ferromagnetic():
        bounds["thm1"] = bound_signed_field(params, i, j, proof_route=proof_route)
        slacks["thm1"] = bounds["thm1"] - exact
        bounds["zero_field"] = bound_zero_field(params, i, j)
        slacks["zero_field"] = bounds["zero_field"] - exact
        if params.has_nonneg_fields():
            bounds["thm2"] = bound_nonneg_field(params, i, j)
            slacks["thm2"] = bounds["thm2"] - exact
    return BoundReport(i=i, j=j, exact=exact, bounds=bounds, slacks=slacks)
