"""Summing out end sites of a chain into shifted fields on the new ends.

Summing over the outer spin of an end edge produces a constant plus a shift
on the neighbour's field; iterating inward from both ends therefore turns the
marginal of any window (i, j) into a chain model on that window whose only
changed parameters are the two end fields. The closed form, for s = +/-1:

    log( sum_t exp(j_edge*s*t + h_outer*t) ) = a_const + b_shift * s
    b_shift = 0.5 * log( cosh(j_edge + h_outer) / cosh(j_edge - h_outer) )
    a_const = 0.5 * log( 4 cosh(j_edge + h_outer) cosh(j_edge - h_outer) )

|b_shift| <= |j_edge| always, so the shifts never blow up however long the
removed tail is. The shifts summed over a whole tail are what the message
sweep of transfer.py carries into the window's end site, so truncate reads
them off the instance's cached sweep instead of iterating remove_end_site;
the sweep runs each pass only up to the end site it reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainParams, _check_pair
from .errors import PreconditionError
from .numeric import _LOG2, log_cosh


@dataclass(frozen=True)
class SiteRemoval:
    """Result of summing out one end spin across one edge."""

    a_const: float
    b_shift: float


@dataclass(frozen=True)
class TruncatedModel:
    """Window model equal in law to the marginal of the full chain on [i, j]."""

    window: tuple[int, int]
    params: ChainParams
    h_prime_i: float
    h_prime_j: float


def remove_end_site(j_edge: float, h_outer: float) -> SiteRemoval:
    """Closed form for summing out one end spin (see module docstring)."""
    if not (math.isfinite(j_edge) and math.isfinite(h_outer)):
        raise PreconditionError("remove_end_site needs finite arguments")
    lc_plus = log_cosh(j_edge + h_outer)
    lc_minus = log_cosh(j_edge - h_outer)
    return SiteRemoval(
        a_const=0.5 * (lc_plus + lc_minus) + _LOG2,
        b_shift=0.5 * (lc_plus - lc_minus),
    )


def truncate(params: ChainParams, i: int, j: int) -> TruncatedModel:
    """Integrate out all sites outside [i, j], i < j.

    Each end field is the site's field plus half the message gap that the
    instance's cached sweep stores from the outer side: the same quantity as
    removing the outer sites one at a time with remove_end_site. It runs the
    sweep's forward pass up to i and its backward pass down to j, where they
    have not run yet, then copies the window in O(j - i).
    Removals at the two ends never touch the same field, so the result does
    not depend on the order in which the ends are processed.
    """
    i, j = _check_pair(params, i, j, "truncate", ordered=True)
    h_left = params.sweep.left_field(i)
    h_right = params.sweep.right_field(j)
    window_params = ChainParams._derived(
        params.couplings[i:j],
        np.concatenate(([h_left], params.fields[i + 1 : j], [h_right])),
    )
    return TruncatedModel(
        window=(i, j), params=window_params, h_prime_i=h_left, h_prime_j=h_right
    )
