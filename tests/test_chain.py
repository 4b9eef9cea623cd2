"""Model types and the exact enumeration oracle."""

import gc
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isingchain import (
    PARAM_LIMIT,
    CapacityError,
    ChainParams,
    ParseError,
    PreconditionError,
    SpinConfig,
    covariance_enum,
    enum_summary,
    expectation_enum,
    hamiltonian,
    partition_function_enum,
    window_marginal_enum,
)
from isingchain import (
    bound_abs_envelope,
    bound_nonneg_field,
    bound_signed_field,
    bound_zero_field,
    boundary_match_probability,
    compare,
    covariance,
    finite_decay_rate,
    log_partition,
    mc_switching_covariance,
    pair_expectation,
    partition_ratio_lower,
    signed_moment_sum,
    site_mean,
    truncate,
)

finite_floats = st.floats(
    min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False
)


def chain_strategy(max_sites: int = 6):
    return st.integers(min_value=1, max_value=max_sites).flatmap(
        lambda n: st.tuples(
            st.tuples(*[finite_floats] * (n - 1)),
            st.tuples(*[finite_floats] * n),
        )
    ).map(lambda jh: ChainParams(jh[0], jh[1]))


# Every public function of a site pair except window_marginal_enum, which
# takes i <= j. The symmetric ones accept the pair in either order; the
# ordered ones need i < j.
SYMMETRIC_PAIR_FUNCTIONS = {
    "covariance": covariance,
    "covariance_enum": covariance_enum,
    "enum_summary": lambda p, i, j: enum_summary(p, i, j)[2],
    "compare": compare,
    "mc_switching_covariance": lambda p, i, j: mc_switching_covariance(
        p, i, j, samples=1000, seed=1
    ),
}
ORDERED_PAIR_FUNCTIONS = {
    "pair_expectation": pair_expectation,
    "finite_decay_rate": finite_decay_rate,
    "truncate": truncate,
    "bound_signed_field": bound_signed_field,
    "bound_nonneg_field": bound_nonneg_field,
    "bound_abs_envelope": bound_abs_envelope,
    "bound_zero_field": bound_zero_field,
}


@pytest.mark.parametrize("name", [*SYMMETRIC_PAIR_FUNCTIONS, *ORDERED_PAIR_FUNCTIONS])
def test_pair_check_contract(name):
    # ferromagnetic with nonnegative fields, so every bound applies
    params = ChainParams((0.8, 0.3, 0.5), (0.5, 0.2, 0.1, 0.4))
    fn = {**SYMMETRIC_PAIR_FUNCTIONS, **ORDERED_PAIR_FUNCTIONS}[name]
    for i, j in ((2, 2), (0, 0), (-1, 2), (1, 4), (4, 1)):
        with pytest.raises(PreconditionError):
            fn(params, i, j)
    if name in SYMMETRIC_PAIR_FUNCTIONS:
        assert fn(params, 3, 1) == fn(params, 1, 3)
    else:
        fn(params, 1, 3)
        with pytest.raises(PreconditionError, match=f"^{name} needs i < j$"):
            fn(params, 3, 1)


SITE_TYPE_PARAMS = ChainParams((0.8, 0.3, 0.5), (0.5, 0.2, 0.1, 0.4))


def test_float_site_rejected():
    # int() would truncate 1.9 to site 1 without a word
    with pytest.raises(PreconditionError, match="^i must be an integer"):
        covariance(SITE_TYPE_PARAMS, 1.9, 3)


def test_bool_site_rejected():
    # bool is an int subclass: True would silently mean site 1
    with pytest.raises(PreconditionError, match="^i must be an integer"):
        covariance(SITE_TYPE_PARAMS, True, 3)


def test_numpy_integer_site_accepted():
    assert covariance(SITE_TYPE_PARAMS, np.int64(1), np.int32(3)) == covariance(
        SITE_TYPE_PARAMS, 1, 3
    )


class TestChainParams:
    def test_lengths_validated(self):
        with pytest.raises(PreconditionError):
            ChainParams((1.0,), (0.5,))
        with pytest.raises(PreconditionError):
            ChainParams((), ())

    def test_nonfinite_rejected(self):
        with pytest.raises(PreconditionError):
            ChainParams((math.inf,), (0.0, 0.0))
        with pytest.raises(PreconditionError):
            ChainParams((1.0,), (math.nan, 0.0))

    def test_limit_accepted(self):
        p = ChainParams((PARAM_LIMIT, -PARAM_LIMIT), (-PARAM_LIMIT, PARAM_LIMIT, 0.0))
        assert math.isfinite(log_partition(p))
        assert covariance(p, 0, 2) == pytest.approx(covariance_enum(p, 0, 2), abs=1e-12)

    @pytest.mark.parametrize(
        "value",
        [math.nextafter(PARAM_LIMIT, math.inf), -math.nextafter(PARAM_LIMIT, math.inf),
         1e100, 10**400],
    )
    def test_beyond_limit_rejected(self, value):
        with pytest.raises(PreconditionError, match="supported range"):
            ChainParams((value,), (0.0, 0.0))
        with pytest.raises(PreconditionError, match="supported range"):
            ChainParams((0.0,), (0.0, value))

    def test_derived_instances_skip_the_limit(self):
        # an effective end field reaches |h| + |J|, past the input range
        p = ChainParams((PARAM_LIMIT,) * 2, (PARAM_LIMIT,) * 3)
        model = truncate(p, 1, 2)
        assert model.h_prime_i > PARAM_LIMIT
        assert model.params.fields[0] == model.h_prime_i

    def test_single_site_allowed(self):
        p = ChainParams((), (0.5,))
        assert p.n_sites == 1 and p.n_edges == 0

    def test_values_coerced_to_float(self):
        p = ChainParams((1,), (0, 2))
        assert p.couplings.dtype == p.fields.dtype == np.float64

    def test_absolute_and_reflected(self):
        p = ChainParams((-1.0, 2.0), (0.5, -0.25, 0.0))
        assert p.absolute() == ChainParams((1.0, 2.0), (0.5, 0.25, 0.0))
        assert p.reflected() == ChainParams((2.0, -1.0), (0.0, -0.25, 0.5))
        assert p.reflected().reflected() == p

    def test_reflected_derived_instance_stays_derived(self):
        # an end field past PARAM_LIMIT is valid on a derived instance, and
        # reading the instance right-to-left must not check it again
        model = truncate(ChainParams((1e3,) * 2, (1e3,) * 3), 1, 2)
        assert model.params.fields[0] > PARAM_LIMIT
        mirrored = model.params.reflected()
        assert np.array_equal(mirrored.couplings, model.params.couplings[::-1])
        assert np.array_equal(mirrored.fields, model.params.fields[::-1])
        assert mirrored.reflected() == model.params

    def test_arrays_are_read_only_copies(self):
        # the cached sweep and absolute instance rely on both
        couplings, fields = np.array([1.0, -0.5]), np.array([0.3, -0.2, 0.1])
        p = ChainParams(couplings, fields)
        couplings[0] = fields[0] = 2.0
        same = ChainParams((1.0, -0.5), (0.3, -0.2, 0.1))
        assert p == same
        assert p.sweep.log_z == same.sweep.log_z
        assert np.array_equal(p.sweep.left_fields, same.sweep.left_fields)
        views = (p.couplings, p.fields, p.absolute().fields, p.reflected().fields,
                 truncate(p, 0, 1).params.fields)
        for values in views:
            with pytest.raises(ValueError):
                values[0] = 3.0
        assert p == same

    def test_absolute_of_nonnegative_instance_is_itself(self):
        p = ChainParams((1.0, 0.0), (0.5, 0.0, 2.0))
        assert p.absolute() is p
        q = ChainParams((1.0, 0.0), (0.5, -0.0, 2.0))
        assert q.absolute() is not q and q.absolute() is q.absolute()
        assert math.copysign(1.0, q.absolute().fields[1]) == 1.0
        for i, j in ((0, 2), (0, 1), (1, 2)):
            assert repr(compare(p, i, j)) == repr(compare(q, i, j))

    def test_absolute_makes_no_reference_cycle(self):
        # A cycle would keep each instance and its sweeps alive until the
        # cyclic collector runs.
        enabled = gc.isenabled()
        gc.disable()
        try:
            for coupling in (0.5, -0.5):
                params = ChainParams((1.0, coupling), (0.2, 0.0, 0.3))
                compare(params, 0, 2)
                ref = weakref.ref(params)
                del params
                assert ref() is None
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize(
        "couplings, fields",
        [
            ((1.0,), (0.0, 10**400)),
            ((10**400, 2e3), (0.0,)),
            ((2e3,), (0.0,)),
            ((), ()),
            ((1.0,), (math.nan, 2e3)),
            ((1.0,), (0.5, -1e307)),
            ((1.0, 1.0), (0.5, math.nextafter(PARAM_LIMIT, math.inf), 0.0)),
        ],
    )
    def test_from_json_errors_match_constructor(self, couplings, fields):
        with pytest.raises(PreconditionError) as direct:
            ChainParams(couplings, fields)
        text = json.dumps({"J": list(couplings), "h": list(fields)})
        with pytest.raises(ParseError) as parsed:
            ChainParams.from_json(text)
        assert str(parsed.value) == str(direct.value)

    @pytest.mark.parametrize(
        "couplings, fields",
        [(((1.0,),), (0.0, 0.0)), ((1.0,), 0.5), ((1.0,), [[0.0, 0.0]])],
    )
    def test_non_sequences_rejected(self, couplings, fields):
        with pytest.raises(PreconditionError, match="must be 1-D sequences"):
            ChainParams(couplings, fields)

    def test_predicates(self):
        assert ChainParams((0.0, 1.0), (-1.0, 0.0, 2.0)).is_ferromagnetic()
        assert not ChainParams((-0.1,), (0.0, 0.0)).is_ferromagnetic()
        assert ChainParams((1.0,), (0.0, 2.0)).has_nonneg_fields()
        assert not ChainParams((1.0,), (-0.1, 2.0)).has_nonneg_fields()

    @given(chain_strategy())
    def test_json_round_trip(self, params):
        text = json.dumps({"J": list(params.couplings), "h": list(params.fields)})
        assert ChainParams.from_json(text) == params

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[1, 2]",
            '{"J": [1]}',
            '{"J": [1], "h": [0, 0], "extra": 1}',
            '{"J": [1], "h": ["a", "b"]}',
            '{"J": [1], "h": [0, 0, 0]}',
            '{"J": [true], "h": [0, 0]}',
        ],
    )
    def test_from_json_rejects(self, text):
        with pytest.raises(ParseError):
            ChainParams.from_json(text)


class TestSpinConfigAndHamiltonian:
    def test_spins_validated(self):
        with pytest.raises(PreconditionError):
            SpinConfig((1, 0))

    def test_hamiltonian_by_hand(self):
        p = ChainParams((1.0,), (0.3, -0.7))
        assert hamiltonian(p, SpinConfig((1, -1))) == pytest.approx(0.0, abs=1e-15)
        assert hamiltonian(p, SpinConfig((1, 1))) == pytest.approx(-0.6)

    def test_length_mismatch(self):
        with pytest.raises(PreconditionError):
            hamiltonian(ChainParams((1.0,), (0.0, 0.0)), SpinConfig((1,)))

    @given(chain_strategy(max_sites=4))
    @settings(max_examples=30)
    def test_partition_matches_explicit_sum(self, params):
        total = 0.0
        for idx in range(1 << params.n_sites):
            spins = tuple(
                -1 if (idx >> x) & 1 else 1 for x in range(params.n_sites)
            )
            total += math.exp(-hamiltonian(params, SpinConfig(spins)))
        assert partition_function_enum(params) == pytest.approx(total, rel=1e-12)


class TestEnumerationOracle:
    def test_partition_pinned(self):
        # single edge, no field: Z = 4 cosh(1)
        assert partition_function_enum(
            ChainParams((1.0,), (0.0, 0.0))
        ) == pytest.approx(6.172322539260975, rel=1e-15)
        # single site: Z = 2 cosh(0.5)
        assert partition_function_enum(ChainParams((), (0.5,))) == pytest.approx(
            2.2552519304127614, rel=1e-15
        )

    def test_expectation_pinned(self):
        assert expectation_enum(ChainParams((), (0.5,)), (0,)) == pytest.approx(
            math.tanh(0.5), rel=1e-14
        )
        assert expectation_enum(ChainParams((), (0.5,)), ()) == 1.0

    def test_expectation_deduplicates_sites(self):
        p = ChainParams((1.0,), (0.3, -0.7))
        assert expectation_enum(p, (0, 0, 1)) == pytest.approx(
            expectation_enum(p, (0, 1)), rel=1e-14
        )

    def test_covariance_pinned(self):
        p = ChainParams((1.0,), (0.3, -0.7))
        assert covariance_enum(p, 0, 1) == pytest.approx(
            0.5900054157516147, rel=1e-13
        )

    def test_covariance_needs_distinct_sites(self):
        with pytest.raises(PreconditionError):
            covariance_enum(ChainParams((1.0,), (0.0, 0.0)), 0, 0)

    def test_site_range_checked(self):
        p = ChainParams((1.0,), (0.0, 0.0))
        with pytest.raises(PreconditionError):
            expectation_enum(p, (2,))
        with pytest.raises(PreconditionError):
            covariance_enum(p, -1, 1)

    def test_reflection_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            p = ChainParams(
                tuple(rng.uniform(-2, 2, n - 1).tolist()),
                tuple(rng.uniform(-2, 2, n).tolist()),
            )
            q = p.reflected()
            assert partition_function_enum(p) == pytest.approx(
                partition_function_enum(q), rel=1e-12
            )
            assert covariance_enum(p, 0, n - 1) == pytest.approx(
                covariance_enum(q, 0, n - 1), rel=1e-10, abs=1e-14
            )

    def test_cap_enforced(self):
        n = 25
        p = ChainParams((0.0,) * (n - 1), (0.0,) * n)
        with pytest.raises(CapacityError):
            partition_function_enum(p)
        with pytest.raises(CapacityError):
            p.enumeration
        with pytest.raises(CapacityError):
            enum_summary(p)

    def test_window_marginal_bit_convention(self):
        # bit 0 of the window index set <=> spin at the window start is -1
        p = ChainParams((0.7,), (0.4, -0.2))
        marg = window_marginal_enum(p, 0, 0)
        mean = expectation_enum(p, (0,))
        assert marg[0] == pytest.approx(0.5 * (1 + mean), rel=1e-12)
        assert marg[1] == pytest.approx(0.5 * (1 - mean), rel=1e-12)
        assert marg.sum() == pytest.approx(1.0, abs=1e-14)

    def test_window_marginal_full_window(self):
        p = ChainParams((0.7, -0.3), (0.4, -0.2, 0.1))
        marg = window_marginal_enum(p, 0, 2)
        z = partition_function_enum(p)
        for idx in range(8):
            spins = tuple(-1 if (idx >> x) & 1 else 1 for x in range(3))
            prob = math.exp(-hamiltonian(p, SpinConfig(spins))) / z
            assert marg[idx] == pytest.approx(prob, rel=1e-12)

    def test_enum_summary_consistent(self):
        p = ChainParams((0.7, -0.3, 1.1), (0.4, -0.2, 0.1, 0.9))
        log_z, means, cov = enum_summary(p, 0, 3)
        assert log_z == pytest.approx(math.log(partition_function_enum(p)), rel=1e-14)
        for x in range(4):
            assert means[x] == pytest.approx(expectation_enum(p, (x,)), rel=1e-12)
        assert cov == pytest.approx(covariance_enum(p, 0, 3), rel=1e-12, abs=1e-15)

    def test_enum_summary_pair_optional(self):
        p = ChainParams((0.7,), (0.4, -0.2))
        log_z, means, cov = enum_summary(p)
        assert cov is None and len(means) == 2 and math.isfinite(log_z)
        with pytest.raises(PreconditionError):
            enum_summary(p, 0, None)
        with pytest.raises(PreconditionError):
            enum_summary(p, 1, 1)


class TestOracleStrongCoupling:
    """exp(-H) overflows for these chains; the oracle must shift its weights.

    The 17-site chain spans two enumeration blocks and its heaviest
    configuration (all spins -1) lies in the second, so the running shift
    rises between blocks and the first block's sums are rescaled.
    """

    @pytest.mark.parametrize(
        "params",
        [
            ChainParams((700.0, 700.0), (0.1, 0.2, 0.3)),
            ChainParams((400.0,) * 16, (-0.3,) * 17),
        ],
    )
    def test_matches_solver(self, params):
        n = params.n_sites
        log_z, means, cov = enum_summary(params, 0, n - 1)
        assert log_z == pytest.approx(log_partition(params), rel=1e-12)
        for x in range(n):
            assert means[x] == pytest.approx(site_mean(params, x), abs=1e-12)
        assert cov == pytest.approx(covariance(params, 0, n - 1), rel=1e-9)
        assert covariance_enum(params, 0, n - 1) == pytest.approx(cov, rel=1e-12)
        assert expectation_enum(params, (0,)) == pytest.approx(means[0], rel=1e-12)
        marg = window_marginal_enum(params, 0, 1)
        assert np.all(np.isfinite(marg)) and marg.sum() == pytest.approx(1.0)
        assert marg[0] - marg[3] == pytest.approx(
            0.5 * (means[0] + means[1]), abs=1e-12
        )


class TestModelSymmetries:
    def test_ferromagnetic_covariance_nonnegative(self):
        rng = np.random.default_rng(515)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            p = ChainParams(
                tuple(rng.uniform(0.0, 3.0, n - 1)),
                tuple(rng.uniform(-2.0, 2.0, n)),
            )
            i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
            assert covariance_enum(p, i, j) >= -1e-15

    def test_global_field_negation_preserves_covariance(self):
        rng = np.random.default_rng(516)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            p = ChainParams(
                tuple(rng.uniform(-2.0, 2.0, n - 1)),
                tuple(rng.uniform(-2.0, 2.0, n)),
            )
            flipped = ChainParams(p.couplings, tuple(-h for h in p.fields))
            i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
            assert covariance_enum(flipped, i, j) == pytest.approx(
                covariance_enum(p, i, j), rel=1e-12, abs=1e-15
            )

    def test_singleton_mean_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(517)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            p = ChainParams(
                tuple(rng.uniform(-3.0, 3.0, n - 1)),
                tuple(rng.uniform(-3.0, 3.0, n)),
            )
            for x in range(n):
                mean = expectation_enum(p, (x,))
                assert -1.0 < mean < 1.0

    def test_single_coupling_negation_preserves_abs_covariance_at_zero_field(self):
        # Flipping the sign of one coupling is a gauge change when every
        # field vanishes, so covariance magnitudes are untouched.
        rng = np.random.default_rng(518)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            p = ChainParams(tuple(rng.uniform(-2.0, 2.0, n - 1)), (0.0,) * n)
            k = int(rng.integers(0, n - 1))
            couplings = list(p.couplings)
            couplings[k] = -couplings[k]
            q = ChainParams(tuple(couplings), p.fields)
            i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
            assert abs(covariance_enum(q, i, j)) == pytest.approx(
                abs(covariance_enum(p, i, j)), rel=1e-12, abs=1e-15
            )


RETURN_TYPE_PARAMS = ChainParams((0.8, 0.3, 0.5), (0.5, 0.2, 0.1, 0.4))
ZERO_FIELD_PARAMS = ChainParams((0.8, -0.3, 0.5), (0.0,) * 4)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda p: hamiltonian(p, SpinConfig((1, -1, 1, 1))),
        log_partition,
        lambda p: site_mean(p, 1),
        lambda p: covariance(p, 0, 3),
        lambda p: pair_expectation(p, 0, 3),
        lambda p: finite_decay_rate(p, 0, 3),
        lambda p: bound_signed_field(p, 0, 3),
        lambda p: bound_signed_field(p, 0, 3, proof_route=True),
        lambda p: bound_nonneg_field(p, 0, 3),
        lambda p: bound_abs_envelope(p, 0, 3),
        lambda p: bound_zero_field(p, 0, 3),
        lambda p: partition_ratio_lower(p)[0],
        lambda p: partition_ratio_lower(p)[1],
        boundary_match_probability,
        lambda p: signed_moment_sum(ZERO_FIELD_PARAMS, (0, 2)),
        lambda p: truncate(p, 1, 2).h_prime_i,
        lambda p: truncate(p, 1, 2).h_prime_j,
    ],
    ids=[
        "hamiltonian", "log_partition", "site_mean", "covariance",
        "pair_expectation", "finite_decay_rate", "bound_signed_field",
        "bound_signed_field_proof_route", "bound_nonneg_field",
        "bound_abs_envelope", "bound_zero_field", "partition_ratio",
        "partition_ratio_lower", "boundary_match_probability",
        "signed_moment_sum", "h_prime_i", "h_prime_j",
    ],
)
def test_public_floats_are_python_floats(evaluate):
    # a numpy scalar would print as np.float64(...) in a repr or a message
    assert type(evaluate(RETURN_TYPE_PARAMS)) is float
