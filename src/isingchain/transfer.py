"""O(N) solver for log Z, site means, pair expectations, and covariances.

Messages are the relative weights of sigma_x = +1 / -1 once everything on one
side of site x has been summed out. They are propagated in log domain and
renormalized at every site, so the recursion survives |J|, |h| up to ~1e3 and
chains of 1e6 sites without overflow or total underflow. One forward and one
backward pass (ChainSweep) store the message into every site as an effective
field: the field on x once every site left (right) of x is summed out. The
sweep is built once per ChainParams and cached on it, so log Z, each site mean
and each effective end field cost O(1) after it.

A pass has two kernels, chosen by chain length. Below SCAN_MIN_SITES sites it
is a scalar loop (_pass). From SCAN_MIN_SITES on it is a numpy prefix scan
(_scan_pass): the message into site x + 1 is the message into x times the
2x2 matrix A_x[s, t] = h_x s + J_x s t in the log semiring (log-sum-exp for
+, + for *). That product is associative, so every prefix comes out of an
odd/even scan (Blelloch 1990). The scan runs over blocks of SCAN_BLOCK sites
and carries each block's last prefix into the next, so its working memory is
O(SCAN_BLOCK). Each partial product is kept with its largest entry
subtracted plus a log scale, and the scales add in tree order. Per pass, on a
2-core Xeon, loop and scan took 0.46 / 0.49 ms at 1000 sites, 0.95 / 0.60 ms
at 2000, 1.94 / 0.86 ms at 4096 and 47 / 16.5 ms at 1e5. Both kernels sum
their log-scale shifts into log Z with math.fsum.

The site field f_x = left_field(x) + right_field(x) - h_x carries both
messages, so <sigma_x> = tanh(f_x) and var(sigma_x) = sech^2(f_x). The sweep
keeps the end fields and the site fields as float64 arrays, and the site
means as one np.tanh of the site fields.

A covariance from a left site i sums per-site log terms (below): the
adjacent log covariance of every window edge and 2 log cosh f_k of every
interior site k. _covariance_terms computes them as arrays over a window
[i, stop) only, with the parity of the negative couplings, in O(stop - i)
numpy work, whatever N is. _row_sums is the one routine that sums term
columns over a window: for a block of left sites r at once, it gathers
every column from r on and takes a 2-D np.cumsum along the row, which gives
the sum over every pair (r, j) up to stop. It always sums the covariance
terms of the instances it is given, and sums any further columns in the
same pass (the bounds' edge factors and field sums, bounds.py). cumsum is
add.accumulate, which adds in index order, so entry j - r - 1 of a row is
the same running sum as a loop over j = r+1, r+2, ... would give (Higham
2002, sec. 4.2: the error of a recursive sum depends on the order, so
keeping it keeps the error bound). A single pair and log_abs_covariance_row
are its one-row case, log_abs_covariance_rows and sweep --pairs all its
all-rows case, so all of them give the same floats; the terms are
elementwise, so they do not depend on the window either.

The covariance is NOT computed as pair_expectation minus the product of site
means: that difference cancels catastrophically once the covariance is
exponentially small. The chain measure is Markov, so the covariance telescopes
into a product of adjacent-pair covariances divided by interior variances. The
marginal of (sigma_k, sigma_{k+1}) is the two-site chain with coupling J = J_k
and fields a = left_field(k), b = right_field(k+1), whose covariance has the
cancellation-free form, with s = sign J,

    |cov| = (1 - exp(-4|J|)) / (cosh(a + s b) + exp(-2|J|) cosh(a - s b))^2

Every factor is positive, so the result keeps full relative precision however
small it is.
"""

from __future__ import annotations

import functools
import math
from array import array
from typing import Iterator, Sequence

import numpy as np

from .chain import ChainParams, _check_pair, _check_site
from .errors import DecayRateUndefinedError
from .numeric import _LOG2, log_add_exp


# The chain length from which ChainSweep runs the scan (module docstring), and
# the scan's block length, which bounds its working memory.
SCAN_MIN_SITES = 4096
SCAN_BLOCK = 1 << 13


def _pass(couplings: Sequence[float], fields: Sequence[float]) -> tuple[array, float]:
    """One left-to-right message pass: (message gaps, log Z).

    Gap x is lp - lm of the renormalized log-message into site x with the
    sites < x summed out (their fields absorbed, h_x not). The pair is shifted
    so its larger component is exactly 0, so the gap alone carries it.
    """
    gaps = array("d", [0.0])
    shifts = []
    lp = lm = 0.0
    for y, jy in enumerate(couplings):
        hy = fields[y]
        ap, am = lp + hy, lm - hy
        lp = log_add_exp(ap + jy, am - jy)
        lm = log_add_exp(ap - jy, am + jy)
        shift = lp if lp >= lm else lm
        lp, lm = lp - shift, lm - shift
        shifts.append(shift)
        gaps.append(lp - lm)
    h_last = fields[-1]
    shifts.append(log_add_exp(lp + h_last, lm - h_last))
    return gaps, math.fsum(shifts)


def _log_add(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """out = log(exp(a) + exp(b)) elementwise; out must hold zeros.

    Overwrites a. Cheaper than np.logaddexp. exp is taken only where its
    result is a normal float, because numpy's exp is slow where it
    underflows; the terms left at 0 are below 1e-307.
    """
    top = np.maximum(a, b)
    a -= b
    np.abs(a, out=a)
    np.negative(a, out=a)
    np.exp(a, out=out, where=a > -708.0)
    np.log1p(out, out=out)
    out += top


# A stack of 2x2 log-semiring matrices is a (5, n) array: the entries
# [+,+], [+,-], [-,+], [-,-] and a log scale. A stack of rows is (3, n): the
# entries [+], [-] and the scale. Every product is renormalized so that its
# largest entry is 0, the rest going into the scale.


def _renormalized(out: np.ndarray) -> np.ndarray:
    top = out[:-1].max(axis=0)
    out[:-1] -= top
    out[-1] += top
    return out


def _matrix_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    xa, xb, xc, xd, xs = x
    ya, yb, yc, yd, ys = y
    out = np.zeros_like(x)
    _log_add(xa + ya, xb + yc, out[0])
    _log_add(xa + yb, xb + yd, out[1])
    _log_add(xc + ya, xd + yc, out[2])
    _log_add(xc + yb, xd + yd, out[3])
    np.add(xs, ys, out=out[4])
    return _renormalized(out)


def _row_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    xp, xm, xs = x
    ya, yb, yc, yd, ys = y
    out = np.zeros((3, len(xs)))
    _log_add(xp + ya, xm + yc, out[0])
    _log_add(xp + yb, xm + yd, out[1])
    np.add(xs, ys, out=out[2])
    return _renormalized(out)


def _prefix_rows(mats: np.ndarray) -> np.ndarray:
    """Rows of the prefix products mats[0] ... mats[k], for every k.

    mats[0] must have equal rows, so every prefix product does too. Odd/even
    scan: the products of adjacent pairs are scanned recursively, which gives
    every prefix ending at an odd index, and each later even index multiplies
    the prefix before it by its own matrix. The scales add in tree order.
    """
    rows = mats[[0, 1, 4]]
    n = rows.shape[1]
    if n > 1:
        odd = _prefix_rows(_matrix_product(mats[:, : n - 1 : 2], mats[:, 1::2]))
        rows[:, 1::2] = odd
        rows[:, 2::2] = _row_product(odd[:, : (n - 1) // 2], mats[:, 2::2])
    return rows


def _scan_pass(couplings: np.ndarray, fields: np.ndarray) -> tuple[array, float]:
    """_pass as a blocked prefix scan (module docstring): same gaps and log Z
    up to rounding."""
    gaps = array("d", [0.0])
    shifts = []
    lp = lm = 0.0
    for start in range(0, len(couplings), SCAN_BLOCK):
        jb = couplings[start : start + SCAN_BLOCK]
        hb = fields[start : start + len(jb)]
        mats = np.zeros((5, len(jb)))
        np.add(hb, jb, out=mats[0])
        np.subtract(hb, jb, out=mats[1])
        np.negative(mats[0], out=mats[2])
        np.negative(mats[1], out=mats[3])
        # The first matrix becomes the carried message times it, on both rows.
        a, b, c, d, _ = mats[:, 0].tolist()
        head_p, head_m = log_add_exp(lp + a, lm + c), log_add_exp(lp + b, lm + d)
        top = max(head_p, head_m)
        mats[:, 0] = (head_p - top, head_m - top, head_p - top, head_m - top, top)
        lp_row, lm_row, scale = _prefix_rows(mats)
        gaps.frombytes((lp_row - lm_row).tobytes())
        lp, lm = float(lp_row[-1]), float(lm_row[-1])
        shifts.append(float(scale[-1]))
    h_last = float(fields[-1])
    shifts.append(log_add_exp(lp + h_last, lm - h_last))
    return gaps, math.fsum(shifts)


class ChainSweep:
    """Forward and backward message passes over one chain, stored per site.

    Built once per ChainParams (``params.sweep``) in O(N). The backward pass is
    the forward pass over the reflected chain, read back in site order.

    * ``log_z``: log Z, accumulated by the forward pass.
    * ``left_fields`` / ``right_fields``: float64 arrays; entry x is the field
      on x once every site left / right of x is summed out (the end fields of
      ``truncate``). The message from that side weighs sigma_x by
      exp(gap * sigma_x / 2), so the field is h_x plus half the stored gap.
      ``left_field(x)`` / ``right_field(x)`` read one entry as a float.
    * ``site_fields``: f_x = left + right - h_x, and ``means``: tanh of them,
      the site means, computed on first use.

    The end fields are the only form in which the solver reads a message:
    site means and covariances are closed forms in them (module docstring).
    All arrays are read-only.
    """

    def __init__(self, params: ChainParams) -> None:
        couplings, fields = params.couplings, params.fields
        h = np.fromiter(fields, np.float64, len(fields))
        kernel = _pass
        if len(fields) >= SCAN_MIN_SITES:
            kernel = _scan_pass
            couplings = np.fromiter(couplings, np.float64, len(couplings))
            fields = h
        fwd, self.log_z = kernel(couplings, fields)
        bwd, _ = kernel(couplings[::-1], fields[::-1])
        self.left_fields = _read_only(h + 0.5 * np.frombuffer(fwd))
        self.right_fields = _read_only(h + 0.5 * np.frombuffer(bwd)[::-1])
        self.site_fields = _read_only(self.left_fields + self.right_fields - h)

    @functools.cached_property
    def means(self) -> np.ndarray:
        return _read_only(np.tanh(self.site_fields))

    def left_field(self, x: int) -> float:
        return self.left_fields.item(x)

    def right_field(self, x: int) -> float:
        return self.right_fields.item(x)


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def log_partition(params: ChainParams) -> float:
    """log Z, exact up to rounding, finite for any finite parameters."""
    return params.sweep.log_z


def site_mean(params: ChainParams, x: int) -> float:
    """<sigma_x>; strictly inside (-1, 1) for finite parameters."""
    return params.sweep.means.item(_check_site(params, x))


def pair_expectation(params: ChainParams, i: int, j: int) -> float:
    """<sigma_i sigma_j> for i < j: the covariance plus the product of means.

    Accurate to rounding in absolute terms; use covariance for the connected
    part, which keeps relative precision.
    """
    i, j = _check_pair(params, i, j, "pair_expectation", ordered=True)
    return covariance(params, i, j) + site_mean(params, i) * site_mean(params, j)


def _from_log(log_abs: float, negative: bool) -> float:
    value = math.exp(log_abs)
    return -value if negative else value


def covariance(params: ChainParams, i: int, j: int) -> float:
    """cov(sigma_i, sigma_j) = <sigma_i sigma_j> - <sigma_i><sigma_j>.

    Symmetric in i, j. Evaluated through the telescoping product over the
    window (see module docstring), which keeps relative precision even when
    the covariance is exponentially small.
    """
    i, j = _check_pair(params, i, j, "covariance")
    return _from_log(*log_abs_covariance(params, i, j))


def log_abs_covariance(params: ChainParams, i: int, j: int) -> tuple[float, bool]:
    """(log |cov(sigma_i, sigma_j)|, whether cov < 0) for sites i < j.

    The log is -inf when a window coupling is 0. Unlike covariance, it stays
    finite where |cov| itself underflows.
    """
    logs, negatives = log_abs_covariance_row(params, i, j)
    return logs.item(-1), negatives.item(-1)


def _log_cosh(x: np.ndarray) -> np.ndarray:
    """numeric.log_cosh elementwise, in the same order of operations."""
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - _LOG2


def _log_edge_factor(abs_j: np.ndarray) -> np.ndarray:
    """log(1 - exp(-4|J|)) = log(4 tanh|J| / (1 + tanh|J|)^2) elementwise, -inf
    at J = 0: the numerator of the adjacent covariance and the bounds' edge
    factor. The exp form keeps precision near 1 for strong couplings."""
    return np.log(-np.expm1(-4.0 * abs_j))


def _covariance_terms(
    params: ChainParams, i: int, stop: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The log terms of every covariance from left site i within [i, stop].

    (adjacent, interior, negative): adjacent[k - i] is log |cov| of the
    two-site chain on edge k (module docstring) for k in [i, stop), -inf at a
    zero coupling; interior[k - i - 1] is 2 log cosh f_k = -log var(sigma_k)
    for k in (i, stop); negative[k - i] is the parity of the negative
    couplings on edges i..k. O(stop - i).
    """
    sweep = params.sweep
    m = stop - i
    jk = np.array(params.couplings[i:stop], dtype=np.float64)
    a = sweep.left_fields[i:stop]
    b = sweep.right_fields[i + 1 : stop + 1]
    flip = jk < 0.0
    # cov is odd in (J, b): flip both so the closed form sees |J|
    b = np.where(flip, -b, b)
    jk = np.abs(jk)
    # one log cosh pass over a + b, a - b and the interior site fields
    x = np.concatenate([a + b, a - b, sweep.site_fields[i + 1 : stop]])
    with np.errstate(divide="ignore", under="ignore"):
        log_cosh = _log_cosh(x)
        p = log_cosh[:m]
        q = log_cosh[m : 2 * m] - 2.0 * jk
        top = np.maximum(p, q)
        log_den = top + np.log1p(np.exp(np.minimum(p, q) - top))
        adjacent = _log_edge_factor(jk) - 2.0 * log_den
    interior = 2.0 * log_cosh[2 * m :]
    return adjacent, interior, np.logical_xor.accumulate(flip)


def log_abs_covariance_row(
    params: ChainParams, i: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """log_abs_covariance(params, i, j) for every j in (i, stop], entry j - i - 1.

    The one-row case of _row_sums: a single pair, which reads the last
    entry of the row to it, gets the same floats. Every entry past a zero
    coupling is (-inf, False).
    """
    ((_, (logs,), negatives, _, _),) = _row_sums([params], i, stop, 1)
    return logs[0], negatives[0]


def log_abs_covariance_rows(
    params: ChainParams,
) -> Iterator[tuple[list[float], list[bool]]]:
    """log_abs_covariance_row(params, i, N - 1) for i = 0 .. N - 2, in order,
    as lists, off one term pass over the whole chain."""
    n = params.n_edges
    for window, (logs,), negatives, _, _ in _row_sums([params], 0, n, n):
        for i, row, signs in zip(window[:, 0].tolist(), logs.tolist(), negatives.tolist()):
            yield row[: n - i], signs[: n - i]


# Entries per column in a block of rows that _row_sums sums at once.
ROW_BLOCK = 1 << 15


def _row_sums(
    instances: Sequence[ChainParams], i: int, stop: int, rows: int,
    edges: Sequence[np.ndarray] = (), sites: Sequence[np.ndarray] = (),
) -> Iterator[tuple[np.ndarray, ...]]:
    """Running sums of term columns over the window [i, stop] from each of
    its first ``rows`` left sites, a block of rows at a time: the covariance
    terms of each instance (_covariance_terms) and any further columns.

    Entry x of an edge column is a term of edge i + x, x < stop - i; entry x
    of a site column a term of the interior site i + 1 + x. Row r sums from
    left site i + r: its entry k is the sum over the edges i + r .. i + r + k,
    or over the sites i + r + 1 .. i + r + k, in index order, which is the
    sum over the pair (i + r, i + r + k + 1). Yields (window, log |cov|,
    cov < 0, edge sums, site sums) for each block: window[b, k] = r + k for
    the block's rows r; the logs of each instance and the signs of the first
    (the parity of the negative couplings on the pair's edges); and the sums
    of the further columns, sums[c, b, k]. Entries with r + k >= stop - i lie
    past the row's end and hold no sum.

    A block is a 2-D np.cumsum over the terms gathered row by row (a site
    column's term at the row's own left site set to 0), of about ROW_BLOCK
    entries per column, which bounds the memory. cumsum runs add.accumulate,
    which adds in index order, so a row is the same floats whichever block
    holds it: a single pair, a row and all rows agree.
    """
    terms = [_covariance_terms(params, i, stop) for params in instances]
    parity = np.concatenate(([False], terms[0][2]))
    edges = [t[0] for t in terms] + list(edges)
    sites = [t[1] for t in terms] + list(sites)
    n, n_edges, m = len(terms), len(edges), stop - i
    table = np.zeros((n_edges + len(sites), m))
    table[:n_edges] = edges
    table[n_edges:, 1:] = sites
    start = 0
    while start < rows:
        width = m - start
        end = min(rows, start + max(1, ROW_BLOCK // width))
        window = np.arange(start, end)[:, None] + np.arange(width)
        block = table.take(window, axis=1, mode="clip")
        block[n_edges:, :, 0] = 0.0
        sums = np.cumsum(block, axis=2)
        logs = sums[:n] + sums[n_edges : n_edges + n]
        negatives = parity.take(window + 1, mode="clip") ^ parity[window[:, :1]]
        negatives &= logs[0] > -math.inf
        yield window, logs, negatives, sums[n:n_edges], sums[n_edges + n :]
        start = end


def finite_decay_rate(params: ChainParams, i: int, j: int) -> float:
    """-log(cov(sigma_i, sigma_j)) / (j - i) for i < j; needs positive cov.

    Read off log |cov|, so it stays finite where cov itself underflows.
    """
    i, j = _check_pair(params, i, j, "finite_decay_rate", ordered=True)
    log_abs, negative = log_abs_covariance(params, i, j)
    if negative or log_abs == -math.inf:
        raise DecayRateUndefinedError(
            f"covariance {_from_log(log_abs, negative)!r} at pair ({i}, {j}) "
            "is not positive"
        )
    return -log_abs / (j - i)
