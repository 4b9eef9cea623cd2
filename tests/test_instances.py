"""Random instance generation: determinism, distributions, JSON parsing."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from isingchain import (
    ChainParams,
    DistSpec,
    InstanceSpec,
    ParseError,
    PreconditionError,
    generate_instance,
    instance_seeds,
    mc_switching_covariance,
)


class TestDistSpec:
    def test_constant_draw(self):
        import numpy as np

        d = DistSpec(kind="constant", value=1.5)
        assert d.draw(np.random.default_rng(0), 4).tolist() == [1.5] * 4

    def test_uniform_range(self):
        import numpy as np

        d = DistSpec(kind="uniform", low=-2.0, high=2.0)
        draws = d.draw(np.random.default_rng(0), 1000)
        assert draws.min() >= -2.0 and draws.max() < 2.0

    def test_validation(self):
        with pytest.raises(PreconditionError):
            DistSpec(kind="gaussian")
        with pytest.raises(PreconditionError):
            DistSpec(kind="uniform", low=1.0, high=0.0)
        with pytest.raises(PreconditionError):
            DistSpec(kind="constant", value=float("nan"))

    def test_json_round_trip(self):
        for obj, d in (
            ({"type": "constant", "value": 0.7}, DistSpec(kind="constant", value=0.7)),
            (
                {"type": "uniform", "low": 0.0, "high": 3.0},
                DistSpec(kind="uniform", low=0.0, high=3.0),
            ),
        ):
            assert DistSpec.from_json(obj) == d

    def test_from_json_errors(self):
        with pytest.raises(ParseError):
            DistSpec.from_json([1, 2])
        with pytest.raises(ParseError):
            DistSpec.from_json({"type": "gamma", "shape": 2})
        with pytest.raises(ParseError):
            DistSpec.from_json({"type": "uniform", "low": 0.0})
        with pytest.raises(ParseError):
            DistSpec.from_json({"type": "constant"})


class TestInstanceSpec:
    def test_defaults(self):
        spec = InstanceSpec()
        assert spec.n_sites == 13
        assert spec.coupling_dist == DistSpec(kind="uniform", low=0.0, high=3.0)
        assert spec.field_dist == DistSpec(kind="uniform", low=-2.0, high=2.0)
        assert spec.coupling_flip_prob == 0.0 and spec.field_flip_prob == 0.0
        assert spec.seed is None

    def test_json_round_trip_with_seed(self):
        spec = InstanceSpec(
            n_sites=6,
            coupling_dist=DistSpec(kind="constant", value=1.0),
            field_dist=DistSpec(kind="uniform", low=0.0, high=0.5),
            coupling_flip_prob=0.25,
            field_flip_prob=1.0,
            seed=99,
        )
        text = json.dumps(
            {
                "n_sites": 6,
                "J": {"type": "constant", "value": 1.0},
                "h": {"type": "uniform", "low": 0.0, "high": 0.5},
                "sign_flip_prob": {"J": 0.25, "h": 1.0},
                "seed": 99,
            }
        )
        assert InstanceSpec.from_json(text) == spec

    def test_from_json_scalar_flip_prob(self):
        spec = InstanceSpec.from_json('{"n_sites": 4, "sign_flip_prob": 0.5}')
        assert spec.coupling_flip_prob == 0.5 and spec.field_flip_prob == 0.5

    def test_from_json_dict_flip_prob(self):
        spec = InstanceSpec.from_json({"sign_flip_prob": {"h": 1.0}})
        assert spec.coupling_flip_prob == 0.0 and spec.field_flip_prob == 1.0

    def test_from_json_errors(self):
        with pytest.raises(ParseError):
            InstanceSpec.from_json("not json")
        with pytest.raises(ParseError):
            InstanceSpec.from_json("[1, 2]")
        with pytest.raises(ParseError):
            InstanceSpec.from_json({"sites": 4})
        with pytest.raises(ParseError):
            InstanceSpec.from_json({"n_sites": 0})
        with pytest.raises(ParseError):
            InstanceSpec.from_json({"sign_flip_prob": {"J": 2.0}})
        with pytest.raises(ParseError):
            InstanceSpec.from_json({"sign_flip_prob": {"sigma": 1.0}})
        with pytest.raises(ParseError):
            InstanceSpec.from_json({"n_sites": "four"})

    def test_validation(self):
        with pytest.raises(PreconditionError):
            InstanceSpec(n_sites=0)
        with pytest.raises(PreconditionError):
            InstanceSpec(field_flip_prob=1.5)

    # int() would turn these into 3 sites, 1 site and seed 2 without a word.
    @pytest.mark.parametrize(
        "kwargs",
        [{"n_sites": 3.7}, {"n_sites": True}, {"seed": 2.9}],
        ids=["float_n_sites", "bool_n_sites", "float_seed"],
    )
    def test_non_integer_refused(self, kwargs):
        (key,) = kwargs
        with pytest.raises(PreconditionError, match=f"^{key} must be an integer"):
            InstanceSpec(**kwargs)

    @pytest.mark.parametrize("seed", [-1, 2**63])
    def test_seed_range_message_shared_with_estimators(self, seed):
        with pytest.raises(PreconditionError) as spec_exc:
            InstanceSpec(seed=seed)
        with pytest.raises(PreconditionError) as mc_exc:
            mc_switching_covariance(ChainParams((1.0,), (0.2, 0.1)), 0, 1, 10, seed)
        assert str(spec_exc.value) == str(mc_exc.value)
        assert str(spec_exc.value) == f"seed must be in [0, {2**63}), got {seed}"

    def test_numpy_integers_accepted(self):
        import numpy as np

        spec = InstanceSpec(n_sites=np.int64(5), seed=np.uint32(7))
        assert (spec.n_sites, spec.seed) == (5, 7)
        assert type(spec.n_sites) is int and type(spec.seed) is int


class TestGenerateInstance:
    def test_deterministic(self):
        spec = InstanceSpec(n_sites=8)
        assert generate_instance(spec, 5) == generate_instance(spec, 5)
        assert generate_instance(spec, 5) != generate_instance(spec, 6)

    def test_shapes_and_ranges(self):
        spec = InstanceSpec()
        p = generate_instance(spec, 0)
        assert p.n_sites == 13 and p.n_edges == 12
        assert all(0.0 <= j < 3.0 for j in p.couplings)
        assert all(-2.0 <= h < 2.0 for h in p.fields)

    def test_full_flip_negates_couplings(self):
        spec = InstanceSpec(n_sites=10, coupling_flip_prob=1.0)
        p = generate_instance(spec, 1)
        assert all(j <= 0.0 for j in p.couplings)
        assert not p.is_ferromagnetic() or all(j == 0.0 for j in p.couplings)

    def test_flip_only_changes_signs(self):
        base = InstanceSpec(n_sites=10)
        flipped = InstanceSpec(n_sites=10, field_flip_prob=1.0)
        a = generate_instance(base, 3)
        b = generate_instance(flipped, 3)
        assert np.array_equal(a.couplings, b.couplings)
        assert all(x == -y for x, y in zip(a.fields, b.fields))

    def test_single_site(self):
        p = generate_instance(InstanceSpec(n_sites=1), 0)
        assert p.couplings.shape == (0,) and p.n_sites == 1

    @given(st.integers(0, 2**31), st.integers(1, 10))
    def test_always_valid_chain(self, seed, n):
        spec = InstanceSpec(n_sites=n, coupling_flip_prob=0.5, field_flip_prob=0.5)
        p = generate_instance(spec, seed)
        assert p.n_sites == n


class TestInstanceSeeds:
    def test_deterministic(self):
        assert instance_seeds(7, 5) == instance_seeds(7, 5)
        assert instance_seeds(7, 5) != instance_seeds(8, 5)

    def test_prefix_stable(self):
        assert instance_seeds(7, 10)[:5] == instance_seeds(7, 5)

    def test_count_validation(self):
        assert instance_seeds(0, 0) == []
        with pytest.raises(PreconditionError):
            instance_seeds(0, -1)

    def test_range(self):
        assert all(0 <= s < 2**63 for s in instance_seeds(123, 50))
