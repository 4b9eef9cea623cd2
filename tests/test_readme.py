"""The README's CLI examples reproduce, and its library tour names the public API."""

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
