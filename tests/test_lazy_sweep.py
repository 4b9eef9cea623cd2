"""Lazy message passes: a window read runs each pass of ChainSweep only as far
as the window needs, and reads the same floats as after the full sweep.

Each quantity is read on a fresh instance, whose passes run block by block as
it reads, and on a copy whose sweep arrays (and its absolute instance's) were
all computed first. The two must agree bit for bit, on a 20001-site chain
whose scan passes span three blocks and on a chain below SCAN_MIN_SITES that
runs the loop as one block, for pairs near the left end, across a block seam
and near the right end.
"""

import math

import numpy as np
import pytest

from isingchain import (
    ChainParams,
    compare,
    compare_row,
    covariance,
    log_partition,
    truncate,
)
from isingchain.transfer import SCAN_BLOCK, SCAN_MIN_SITES

LONG, SHORT = 2 * SCAN_BLOCK + 3617, SCAN_MIN_SITES - 1000

# nonneg: J, h >= 0, its own absolute instance; signed_h: ferromagnetic J,
# signed h (thm1 applies); signed: signed J and h (lemma3 only).
KINDS = ("nonneg", "signed_h", "signed")


def chain(n, kind):
    rng = np.random.default_rng([n, KINDS.index(kind)])
    couplings, fields = rng.uniform(0.5, 1.5, n - 1), rng.uniform(0.0, 0.5, n)
    if kind != "nonneg":
        fields *= rng.choice([-1.0, 1.0], n)
    if kind == "signed":
        couplings *= rng.choice([-1.0, 1.0], n - 1)
    return ChainParams(couplings, fields)


def pairs(n):
    """Pairs near the left end, across the first two block seams (on the
    long chain) and near the right end."""
    seams = [(SCAN_BLOCK - 3, SCAN_BLOCK + 4), (2 * SCAN_BLOCK - 1, 2 * SCAN_BLOCK + 1)]
    ends = [(0, 5), (2, 40), (n - 30, n - 1), (n - 2, n - 1)]
    return ends + [p for p in seams if p[1] < n]


CASES = [(n, kind, pair) for n in (LONG, SHORT) for kind in KINDS for pair in pairs(n)]

_FORCED = {}


def forced(n, kind):
    """The chain with every sweep array, log Z and its absolute instance's
    computed first: the reads of an eager sweep."""
    if (n, kind) not in _FORCED:
        params = chain(n, kind)
        for q in (params, params.absolute()):
            q.sweep.means
            q.sweep.log_z
        _FORCED[n, kind] = params
    return _FORCED[n, kind]


@pytest.mark.parametrize("n, kind, pair", CASES)
def test_compare_reads_equal_eager_reads(n, kind, pair):
    for proof_route in (False, True):
        want = compare(forced(n, kind), *pair, proof_route)
        assert repr(compare(chain(n, kind), *pair, proof_route)) == repr(want)


@pytest.mark.parametrize("n, kind, pair", CASES)
def test_compare_row_reads_equal_eager_reads(n, kind, pair):
    want = compare_row(forced(n, kind), pair[0])
    assert repr(compare_row(chain(n, kind), pair[0])) == repr(want)


@pytest.mark.parametrize("n, kind, pair", CASES)
def test_truncate_and_covariance_read_equal_eager_reads(n, kind, pair):
    eager, lazy = forced(n, kind), chain(n, kind)
    model, want = truncate(lazy, *pair), truncate(eager, *pair)
    assert model.window == want.window
    ends = model.h_prime_i, model.h_prime_j
    assert repr(ends) == repr((want.h_prime_i, want.h_prime_j))
    assert model.params.couplings.tobytes() == want.params.couplings.tobytes()
    assert model.params.fields.tobytes() == want.params.fields.tobytes()
    lazy = chain(n, kind)
    assert repr(covariance(lazy, *pair)) == repr(covariance(eager, *pair))


@pytest.mark.parametrize("n", [LONG, SHORT])
@pytest.mark.parametrize("kind", KINDS)
def test_log_partition_after_a_window_read(n, kind):
    want = log_partition(chain(n, kind))
    for pair in pairs(n):
        params = chain(n, kind)
        compare(params, *pair)
        assert log_partition(params) == want
        absolute = params.absolute()
        assert log_partition(absolute) == log_partition(chain(n, kind).absolute())


def test_compare_runs_each_pass_only_as_far_as_its_window():
    """On a nonnegative chain of five scan blocks, compare of a pair (i, j)
    computes the forward blocks up to j and the backward blocks down to i,
    and no log Z: the instance is its own absolute instance, so lemma3's
    partition ratio is exactly 1."""
    n = 5 * SCAN_BLOCK + 1
    middle = 2 * SCAN_BLOCK + 100
    for i, j in ((0, 5), (middle, middle + 200), (n - 10, n - 1), (3, n - 4)):
        params = chain(n, "nonneg")
        assert params.absolute() is params
        report = compare(params, i, j)
        assert set(report.bounds) == {"thm1", "thm2", "lemma3", "zero_field"}
        forward, backward = params.sweep._forward, params.sweep._backward
        # gap 0, then one block of SCAN_BLOCK sites per SCAN_BLOCK edges
        assert forward.filled == 1 + SCAN_BLOCK * math.ceil(j / SCAN_BLOCK)
        assert backward.filled == 1 + SCAN_BLOCK * math.ceil((n - 1 - i) / SCAN_BLOCK)
        assert forward.log_z is None and backward.log_z is None
    # the middle pair leaves two of the five blocks of each pass unrun
    params = chain(n, "nonneg")
    compare(params, middle, middle + 200)
    sweep = params.sweep
    assert sweep._forward.filled == sweep._backward.filled == 3 * SCAN_BLOCK + 1


def test_a_pass_cut_short_reruns_from_its_first_block(monkeypatch):
    """An interrupt inside a scan block leaves the pass to rerun from its
    first block, so the next read gets the eager floats."""
    import isingchain.transfer as transfer_mod

    prefix_rows, blocks = transfer_mod._prefix_rows, []

    def interrupted(mats):
        if mats.shape[1] == SCAN_BLOCK:
            blocks.append(mats)
            if len(blocks) == 2:
                raise KeyboardInterrupt
        return prefix_rows(mats)

    params = chain(LONG, "nonneg")
    monkeypatch.setattr(transfer_mod, "_prefix_rows", interrupted)
    with pytest.raises(KeyboardInterrupt):
        compare(params, 5, LONG - 5)
    assert params.sweep._forward.filled == 0
    monkeypatch.setattr(transfer_mod, "_prefix_rows", prefix_rows)
    want = compare(forced(LONG, "nonneg"), 5, LONG - 5)
    assert repr(compare(params, 5, LONG - 5)) == repr(want)
