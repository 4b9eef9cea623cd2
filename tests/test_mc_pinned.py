"""Pinned Monte-Carlo estimates: the covariance estimator's output, bit for bit.

Each case records the reprs of the mean and std_error and the sample count,
or "inconclusive" where the estimator raises InconclusiveEstimateError. The
estimator's per-sample terms are integers or half-integers, so every sum is
an exact count and these values cannot move with how the terms are computed
or grouped; only a change to the uniform stream or to a term can move them.
The cases straddle the chunk edges, include a 65-site chain whose covariance
chunks the draw cap shortens, and the benchmark's `mc` instance at seed 1.
"""

import pytest

from isingchain import (
    ChainParams,
    DistSpec,
    InconclusiveEstimateError,
    InstanceSpec,
    generate_instance,
    mc_switching_covariance,
)
from isingchain.currents import _CHUNK

# name -> (params, i, j)
CHAINS = {
    "ferro": (ChainParams((1.0, 0.6, 0.8), (0.2, 0.0, 0.5, 0.1)), 0, 3),
    "signed": (ChainParams((-1.0, 0.7, 1.2), (0.5, -0.3, 0.2, -0.1)), 0, 3),
    "zero_field": (ChainParams((0.9, -0.5, 1.3), (0.0, 0.0, 0.0, 0.0)), 0, 3),
    "capped65": (
        ChainParams(
            [0.02 * (-1) ** x for x in range(64)],
            [0.002 * (-1) ** (x // 3) for x in range(65)],
        ),
        10,
        11,
    ),
    "inconclusive": (ChainParams((0.5,), (3.0, 3.0)), 0, 1),
    "mc_workload": (
        generate_instance(
            InstanceSpec(
                n_sites=6,
                coupling_dist=DistSpec(kind="uniform", low=0.5, high=1.5),
                field_dist=DistSpec(kind="uniform", low=0.0, high=0.3),
            ),
            1,
        ),
        0,
        5,
    ),
}

PINNED = {
    ("covariance", "ferro", 1, 7): "inconclusive",
    ("covariance", "ferro", 8191, 7): "0.11581204637571874 0.02993193905268322 8191",
    ("covariance", "ferro", 8192, 7): "0.11582618531435573 0.029935596416630253 8192",
    ("covariance", "ferro", 8193, 7): "0.11584032425299275 0.02993925378057687 8193",
    ("covariance", "ferro", 20001, 7): "0.128740928396019 0.020636588638492083 20001",
    ("covariance", "signed", 1, 7): "inconclusive",
    ("covariance", "signed", 8191, 7): "-0.24445133149678608 0.06813259682991725 8191",
    ("covariance", "signed", 8192, 7): "-0.2444811753902663 0.06814092084187724 8192",
    ("covariance", "signed", 8193, 7): "-0.24451101928374658 0.06814924485383653 8193",
    ("covariance", "signed", 20001, 7):
        "-0.25138393621411004 0.045365775770397875 20001",
    ("covariance", "zero_field", 1, 7): "inconclusive",
    ("covariance", "zero_field", 8191, 7):
        "-0.2667715964646333 0.026704738155814124 8191",
    ("covariance", "zero_field", 8192, 7):
        "-0.2668041653324717 0.026708018073259815 8192",
    ("covariance", "zero_field", 8193, 7):
        "-0.2668367342003101 0.02671129799069044 8193",
    ("covariance", "zero_field", 20001, 7):
        "-0.3008351784660197 0.01846723530908388 20001",
    ("covariance", "ferro", 1, 4): "0.0 0.0 1",
    ("covariance", "signed", 1, 2): "0.0 0.0 1",
    ("covariance", "zero_field", 1, 2): "0.0 0.0 1",
    ("covariance", "capped65", 10000, 4):
        "0.03337391601520783 0.0074697136987437384 10000",
    ("covariance", "capped65", 20001, 4):
        "0.027014054255964887 0.004779267245358151 20001",
    ("covariance", "inconclusive", 8, 0): "inconclusive",
    ("covariance", "inconclusive", 1, 3): "inconclusive",
    ("covariance", "mc_workload", 100000, 1):
        "0.075002477760426 0.028349845362345985 100000",
}


def _outcome(estimator, chain, samples, seed):
    assert estimator == "covariance"
    params, i, j = CHAINS[chain]
    try:
        est = mc_switching_covariance(params, i, j, samples=samples, seed=seed)
    except InconclusiveEstimateError:
        return "inconclusive"
    return f"{est.mean!r} {est.std_error!r} {est.samples}"


def test_chunk_edges_are_covered():
    counts = {samples for _, _, samples, _ in PINNED}
    assert {_CHUNK - 1, _CHUNK, _CHUNK + 1} <= counts


@pytest.mark.parametrize("case", sorted(PINNED), ids=lambda c: "-".join(map(str, c)))
def test_estimate_is_pinned(case):
    assert _outcome(*case) == PINNED[case]
