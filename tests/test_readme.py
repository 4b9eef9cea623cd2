"""The README's CLI examples reproduce, and its library tour names the public API."""

import json
import re
import shlex
from pathlib import Path

import pytest

import isingchain
from isingchain.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

FENCE = re.compile(r"```[a-z]*\n(.*?)```", re.DOTALL)


def _blocks():
    """(text before the block, block body) for every fenced block."""
    text = README.read_text(encoding="utf-8")
    return [(text[: m.start()], m.group(1)) for m in FENCE.finditer(text)]


def _input_file(flag):
    """The first block after the README's first mention of `flag`."""
    for before, body in _blocks():
        if f"`{flag}`" in before:
            return body
    raise AssertionError(f"README shows no {flag}")


def _examples():
    out = []
    for _, body in _blocks():
        lines = body.splitlines()
        if lines and lines[0].startswith("$ isingchain "):
            out.append((shlex.split(lines[0][2:])[1:], lines[1:]))
    return out


def _matches(shown, actual):
    """Shown lines appear in order; `...` stands for any run of lines."""
    pos = 0
    skipping = False
    for line in shown:
        if line == "...":
            skipping = True
            continue
        if skipping:
            if line not in actual[pos:]:
                return False
            pos = actual.index(line, pos)
        elif pos >= len(actual) or actual[pos] != line:
            return False
        pos += 1
        skipping = False
    return skipping or pos == len(actual)


def test_readme_has_the_three_examples():
    assert [argv[0] for argv, _ in EXAMPLES] == ["exact", "mc", "decay"]


EXAMPLES = _examples()


@pytest.mark.parametrize("argv, shown", EXAMPLES, ids=[a[0] for a, _ in EXAMPLES])
def test_example_reproduces(tmp_path, monkeypatch, capsys, argv, shown):
    (tmp_path / "chain.json").write_text(_input_file("--instance chain.json"))
    (tmp_path / "spec.json").write_text(_input_file("--spec spec.json"))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    actual = capsys.readouterr().out.splitlines()
    assert _matches(shown, actual), "\n".join(actual)


def test_matcher():
    assert _matches(["a", "...", "c"], ["a", "b", "c"])
    assert _matches(["a", "..."], ["a", "b"])
    assert not _matches(["a", "c"], ["a", "b", "c"])
    assert not _matches(["a"], ["a", "b"])
    assert not _matches(["a", "...", "d"], ["a", "b", "c"])


def test_library_tour_lists_the_public_api():
    text = README.read_text(encoding="utf-8")
    table = text.split("## Library tour", 1)[1].split("\n\n", 2)[1]
    names = set(re.findall(r"`([A-Za-z_][\w.]*)`", table))
    # Dotted names are attributes (ChainParams.sweep), not exports.
    assert {n for n in names if "." not in n} == set(isingchain.__all__) - {"__version__"}



# README's prose on the MC estimator at J = 2, h = 0, `--samples 200000
# --seed 1`: (sites, exit code, stdout rows, stderr line, the README phrase).
MC_CLAIMS = [
    (
        10,
        0,
        [
            "i,j,mean,std_error,samples,exact,z_score",
            "0,9,2.0108990729755272,1.4219311126867222,200000,"
            "0.71912623049973279,0.90846373002909031",
        ],
        "",
        "returns `2.01 ± 1.42` against an exact `0.72` and exits 0",
    ),
    (
        60,
        5,
        [],
        "error: denominator not separated from zero by 4 standard errors",
        "exits 5 on a 60-site chain",
    ),
]


@pytest.mark.parametrize(
    "n_sites, code, rows, error, phrase", MC_CLAIMS, ids=["10", "60"]
)
def test_mc_claims(tmp_path, capsys, n_sites, code, rows, error, phrase):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"J": [2.0] * (n_sites - 1), "h": [0.0] * n_sites}))
    argv = ["mc", "--instance", str(path), "--i", "0", "--j", str(n_sites - 1)]
    assert main(argv + ["--samples", "200000", "--seed", "1"]) == code
    out, err = capsys.readouterr()
    assert out.splitlines() == rows
    assert err.strip() == error
    assert phrase in " ".join(README.read_text(encoding="utf-8").split())
    if rows:
        mean, std_error, _, exact = rows[1].split(",")[2:6]
        shown = f"`{float(mean):.2f} ± {float(std_error):.2f}`"
        assert f"{shown} against an exact `{float(exact):.2f}`" in phrase
