"""End-site removal and window truncation against the full-model marginal."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isingchain import (
    ChainParams,
    PreconditionError,
    remove_end_site,
    truncate,
    window_marginal_enum,
)

from conftest import end_field_tolerance, random_params

moderate = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


class TestRemoveEndSite:
    def test_pinned(self):
        r = remove_end_site(1.0, 1.0)
        assert r.b_shift == pytest.approx(0.6625013736789322, rel=1e-14)
        assert r.a_const == pytest.approx(1.3556485542388774, rel=1e-14)

    def test_closed_form_small(self):
        j, h = 0.8, -0.4
        r = remove_end_site(j, h)
        # direct: sum_t exp(j*s*t + h*t) must equal exp(a + b*s) for s = +/-1
        for s in (1.0, -1.0):
            direct = math.exp(j * s + h) + math.exp(-j * s - h)
            assert math.exp(r.a_const + r.b_shift * s) == pytest.approx(
                direct, rel=1e-13
            )

    @given(moderate, moderate)
    def test_shift_bounded_by_coupling(self, j, h):
        assert abs(remove_end_site(j, h).b_shift) <= abs(j) + 1e-12

    def test_large_arguments_stable(self):
        r = remove_end_site(1e3, -1e3)
        assert math.isfinite(r.a_const) and abs(r.b_shift) <= 1e3 + 1e-9

    def test_rejects_nonfinite(self):
        with pytest.raises(PreconditionError):
            remove_end_site(math.inf, 0.0)


class TestTruncate:
    def test_window_must_be_ordered(self):
        p = ChainParams((1.0, 1.0), (0.0, 0.0, 0.0))
        with pytest.raises(PreconditionError):
            truncate(p, 1, 1)
        with pytest.raises(PreconditionError):
            truncate(p, 2, 0)

    def test_full_window_is_identity(self):
        p = ChainParams((1.0, -0.5), (0.3, 0.2, -0.1))
        model = truncate(p, 0, 2)
        assert model.params == p
        assert model.h_prime_i == p.fields[0]
        assert model.h_prime_j == p.fields[-1]

    def test_window_structure(self):
        p = ChainParams((1.0, -0.5, 0.25, 2.0), (0.3, 0.2, -0.1, 0.4, 0.6))
        model = truncate(p, 1, 3)
        assert model.window == (1, 3)
        assert np.array_equal(model.params.couplings, p.couplings[1:3])
        # interior fields untouched, end fields shifted
        assert np.array_equal(model.params.fields[1:-1], p.fields[2:3])
        assert model.params.fields[0] == model.h_prime_i
        assert model.params.fields[-1] == model.h_prime_j

    def test_marginal_preserved(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            n = int(rng.integers(2, 9))
            p = random_params(rng, n)
            i = int(rng.integers(0, n - 1))
            j = int(rng.integers(i + 1, n))
            full = window_marginal_enum(p, i, j)
            model = truncate(p, i, j)
            reduced = window_marginal_enum(model.params, 0, j - i)
            tv = 0.5 * float(np.abs(full - reduced).sum())
            assert tv <= 1e-14

    def test_shift_bounded_by_adjacent_coupling(self):
        rng = np.random.default_rng(37)
        for _ in range(15):
            n = int(rng.integers(3, 9))
            p = random_params(rng, n)
            i = int(rng.integers(1, n - 1))
            j = int(rng.integers(i + 1, n))
            model = truncate(p, i, j)
            assert abs(model.h_prime_i - p.fields[i]) <= abs(p.couplings[i - 1]) + 1e-12
            if j < n - 1:
                assert abs(model.h_prime_j - p.fields[j]) <= abs(p.couplings[j]) + 1e-12

    def test_strong_tail_still_exact(self):
        # the removed tail has parameters far past any perturbative regime;
        # shifts must stay bounded by the cut coupling and the marginal exact
        p = ChainParams((50.0, 1.0, 40.0), (-55.0, 0.5, -0.25, 45.0))
        model = truncate(p, 1, 2)
        assert abs(model.h_prime_i - 0.5) <= 50.0 + 1e-9
        assert abs(model.h_prime_j - (-0.25)) <= 40.0 + 1e-9
        full = window_marginal_enum(p, 1, 2)
        reduced = window_marginal_enum(model.params, 0, 1)
        assert float(np.abs(full - reduced).max()) <= 1e-12


def _strip_once(couplings, fields, side):
    """Remove one end site, folding its influence into the neighbour field."""
    couplings = list(couplings)
    fields = list(fields)
    if side == "right":
        j, h = couplings.pop(), fields.pop()
        shift = remove_end_site(j, h).b_shift
        fields[-1] += shift
    else:
        j, h = couplings.pop(0), fields.pop(0)
        shift = remove_end_site(j, h).b_shift
        fields[0] += shift
    assert abs(shift) <= abs(j) + 1e-12
    return couplings, fields


class TestTruncateAlgebra:
    def test_idempotent(self):
        rng = np.random.default_rng(520)
        for _ in range(20):
            n = int(rng.integers(3, 10))
            p = ChainParams(
                tuple(rng.uniform(-3.0, 3.0, n - 1)),
                tuple(rng.uniform(-3.0, 3.0, n)),
            )
            i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
            first = truncate(p, i, j)
            again = truncate(first.params, 0, j - i)
            assert again.params == first.params
            assert again.h_prime_i == first.h_prime_i
            assert again.h_prime_j == first.h_prime_j

    def test_end_removal_order_independent(self):
        # Strip exterior sites one at a time in two different interleavings;
        # each end's arithmetic is untouched by the other, so the two agree
        # bit for bit. truncate() reads the end fields off the message sweep,
        # which rounds differently, so its end fields are held to the gate.
        rng = np.random.default_rng(521)
        for _ in range(20):
            n = int(rng.integers(3, 10))
            p = ChainParams(
                tuple(rng.uniform(-3.0, 3.0, n - 1)),
                tuple(rng.uniform(-3.0, 3.0, n)),
            )
            i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
            reference = truncate(p, i, j)
            stripped = []
            for first_side in ("right", "left"):
                cs, hs = list(p.couplings), list(p.fields)
                sides = ["right"] * (n - 1 - j) + ["left"] * i
                if first_side == "left":
                    sides.reverse()
                for side in sides:
                    cs, hs = _strip_once(cs, hs, side)
                stripped.append((tuple(cs), tuple(hs)))
            assert stripped[0] == stripped[1]
            cs, hs = stripped[0]
            assert np.array_equal(cs, reference.params.couplings)
            assert np.array_equal(hs[1:-1], reference.params.fields[1:-1])
            tol = end_field_tolerance(p)
            assert abs(hs[0] - reference.h_prime_i) <= tol
            assert abs(hs[-1] - reference.h_prime_j) <= tol
