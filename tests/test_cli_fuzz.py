"""Hypothesis fuzz of the CLI exit-code contract over spec and instance JSON.

Whatever the input files hold (wrong types, huge or tiny magnitudes, bools,
strings, negative seeds), every subcommand must end with a documented exit
code other than 1, print no traceback or numpy warning, and print no nan when
it exits 0. Chains stay at 8 sites or fewer so each example is fast.
"""

import contextlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from isingchain.cli import main

CONTRACT_CODES = {0, 2, 3, 4, 5}
NAN = re.compile(r"\bnan\b", re.IGNORECASE)

def mostly(common, rare, times=3):
    """``common`` `times` draws in `times` + 1, else ``rare``.

    st.one_of drops repeated branches, so it cannot weight them itself.
    """
    return st.sampled_from([common] * times + [rare]).flatmap(lambda s: s)


magnitudes = st.sampled_from(
    [0.0, 5e-324, 1e-300, 0.5, 1.0, 999.0, 1e3, 1000.0000000000001, 1e4, 1e100,
     1e307, 1.7e308, 10**400]
)
numbers = mostly(
    st.one_of(st.floats(-3.0, 3.0), st.integers(-5, 5)),
    st.one_of(
        magnitudes,
        magnitudes.map(lambda v: -v),
        st.floats(allow_nan=True, allow_infinity=True),
    ),
)
junk = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=2),
    st.just({}),
)
values = mostly(numbers, junk)

good_distributions = st.one_of(
    st.fixed_dictionaries({"type": st.just("constant"), "value": numbers}),
    st.tuples(numbers, numbers).map(
        lambda lh: {"type": "uniform", "low": min(lh), "high": max(lh)}
    ),
)
distributions = mostly(
    good_distributions,
    st.one_of(
        st.fixed_dictionaries(
            {"type": st.sampled_from(["constant", "uniform", "beta"])},
            optional={"value": values, "low": values, "high": values},
        ),
        junk,
    ),
    times=6,
)
spec_fields = {
    # int() of a numeric string would give any size, so only letters here
    "n_sites": mostly(
        st.integers(1, 8),
        st.one_of(
            st.integers(-2, 0),
            st.floats(-2.0, 8.9),
            st.booleans(),
            st.text(alphabet="ab", max_size=2),
            st.none(),
        ),
    ),
    "J": distributions,
    "h": distributions,
    "sign_flip_prob": mostly(
        st.floats(0.0, 1.0),
        st.one_of(values, st.fixed_dictionaries({}, optional={"J": values, "h": values})),
    ),
    "seed": mostly(st.integers(0, 1000), st.one_of(st.integers(-5, 2**64), values)),
}
specs = mostly(
    st.fixed_dictionaries({}, optional=spec_fields),
    st.one_of(st.fixed_dictionaries({"bogus": values}), junk),
)
instances = mostly(
    st.integers(1, 8).flatmap(
        lambda n: st.fixed_dictionaries(
            {
                "J": st.lists(numbers, min_size=n - 1, max_size=n - 1),
                "h": st.lists(numbers, min_size=n, max_size=n),
            }
        )
    ),
    st.one_of(
        st.fixed_dictionaries(
            {"J": st.lists(values, max_size=3), "h": st.lists(values, max_size=3)}
        ),
        st.fixed_dictionaries({"J": values, "h": values}),
        junk,
    ),
)
pairs = st.tuples(st.integers(-1, 8), st.integers(-1, 8))
seed_flags = mostly(
    st.one_of(st.just(()), st.integers(0, 1000).map(lambda s: ("--seed", str(s)))),
    st.integers(-3, 2**64).map(lambda s: ("--seed", str(s))),
)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects a flag
                code = exc.code
    return code, out.getvalue(), err.getvalue(), caught


def _check(argv):
    code, out, err, caught = _run(argv)
    event(f"{argv[0]} exit {code}")
    assert code in CONTRACT_CODES, (argv, code, err)
    assert "Traceback" not in err and "RuntimeWarning" not in err, (argv, err)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], (
        argv,
        [str(w.message) for w in caught],
    )
    if code == 0:
        assert not NAN.search(out), (argv, out)


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(["exact", "bounds", "sweep", "decay", "mc"]),
    use_instance=st.booleans(),
    spec=specs,
    instance=instances,
    pair=pairs,
    seed_flag=seed_flags,
    out=st.sampled_from(["csv", "json"]),
)
def test_exit_code_contract(command, use_instance, spec, instance, pair, seed_flag, out):
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = Path(tmp) / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        inst_path = Path(tmp) / "instance.json"
        inst_path.write_text(json.dumps(instance), encoding="utf-8")
        if command in ("sweep", "decay") or not use_instance:
            source = ["--spec", str(spec_path)]
        else:
            source = ["--instance", str(inst_path)]
        argv = [command, *source, "--out", out, *seed_flag]
        if command in ("exact", "bounds", "mc"):
            argv += ["--i", str(pair[0]), "--j", str(pair[1])]
        if command == "sweep":
            argv += ["--count", "2", "--pairs", "all"]
        if command == "mc":
            argv += ["--samples", "200"]
        _check(argv)
