"""Shared fixtures and the acceptance-criteria summary hook."""

import numpy as np
import pytest

from isingchain import ChainParams

# Filled by tests/test_acceptance.py: criterion number -> (passed, detail).
ACCEPTANCE_RESULTS: dict[int, tuple[bool, str]] = {}


@pytest.fixture
def acceptance():
    """Recorder for acceptance-criterion outcomes, printed in the summary."""

    def record(num: int, ok: bool, detail: str) -> None:
        ACCEPTANCE_RESULTS[num] = (bool(ok), detail)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_RESULTS):
        ok, detail = ACCEPTANCE_RESULTS[num]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"{status} criterion {num:2d}: {detail}")


def random_params(
    rng: np.random.Generator,
    n_sites: int,
    j_low: float = -3.0,
    j_high: float = 3.0,
    h_low: float = -2.0,
    h_high: float = 2.0,
) -> ChainParams:
    """Uniform random instance; bounds chosen per call site."""
    couplings = rng.uniform(j_low, j_high, size=n_sites - 1)
    fields = rng.uniform(h_low, h_high, size=n_sites)
    return ChainParams(couplings, fields)


def end_field_tolerance(params: ChainParams) -> float:
    """Rounding gate for an effective end field: 4 ulp of the largest |J|, |h|.

    truncate reads the end fields off the message sweep's gaps while the
    references sum out the outer sites with remove_end_site; the two round
    differently in the last bits, by about one ulp of the instance's scale.
    """
    values = np.concatenate((params.couplings, params.fields))
    return 4.0 * 2.0**-52 * max(map(abs, values))


@pytest.fixture
def make_params():
    return random_params
