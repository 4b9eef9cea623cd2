"""The benchmark's tracer targets and package imports exist in the package.

perfbench/spans.py wraps package functions by (module, name), and the
benchmark's scripts import package names; a name that is renamed or deleted
breaks only a benchmark run, so both are checked here.
"""

import ast
import importlib
import importlib.util
import json
import os
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS_MODULE = load_spans()


@pytest.mark.parametrize(
    "module, name", SPANS_MODULE.SPAN_TARGETS + SPANS_MODULE.COUNT_TARGETS
)
def test_tracer_target_exists(module, name):
    target = getattr(importlib.import_module(f"isingchain.{module}"), name, None)
    assert callable(target), f"isingchain.{module}.{name} is missing"


def package_imports():
    """(script, module, name) of every package import in perfbench/*.py.

    `import isingchain.m` gives name None; `from isingchain.m import n` gives
    name n, imports inside functions included.
    """
    found = []
    for script in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(script.read_text(), str(script))):
            if isinstance(node, ast.Import):
                found += [
                    (script.name, alias.name, None)
                    for alias in node.names
                    if alias.name.split(".")[0] == "isingchain"
                ]
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                if node.module.split(".")[0] == "isingchain":
                    found += [(script.name, node.module, a.name) for a in node.names]
    return found


PACKAGE_IMPORTS = package_imports()


def test_benchmark_imports_the_package():
    # The collector must see the import that every benchmark run makes.
    assert ("run.py", "isingchain.cli", None) in PACKAGE_IMPORTS


@pytest.mark.parametrize("script, module, name", PACKAGE_IMPORTS)
def test_benchmark_package_import_resolves(script, module, name):
    imported = importlib.import_module(module)
    if name is not None:
        assert hasattr(imported, name), f"{script}: {module}.{name} is missing"


def test_threaded_mc_calls_trace_one_root_each(monkeypatch, capsys, tmp_path):
    # With 2 CPUs usable each call sums its samples on two threads; only the
    # calling thread may enter a traced function, or the tracer's one span
    # stack would mix the threads' spans.
    from isingchain import cli

    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"J": [0.8, 0.3], "h": [0.5, 0.2, 0.1]}))
    argv = ["mc", "--instance", str(path), "--i", "0", "--j", "2", "--samples", "50000"]

    def traced_calls(cpus):
        usable = set(range(cpus))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: usable, raising=False)
        tracer = SPANS_MODULE.Tracer()
        tracer.install()
        try:
            codes = [cli.main(argv + ["--seed", seed]) for seed in ("1", "2")]
        finally:
            tracer.uninstall()
        capsys.readouterr()
        assert codes == [0, 0]
        return tracer.spans

    spans = traced_calls(2)
    name, start, end, parent = (
        SPANS_MODULE.NAME, SPANS_MODULE.START, SPANS_MODULE.END, SPANS_MODULE.PARENT
    )
    assert [s[name] for s in spans if s[parent] < 0] == ["cli.cmd_mc"] * 2
    for index, span in enumerate(spans):
        assert -1 <= span[parent] < index
        # One thread's spans nest or follow each other, never overlap.
        for later in spans[index + 1 :]:
            assert later[end] <= span[end] or span[end] <= later[start]
    one_cpu = traced_calls(1)
    assert [s[name] for s in spans] == [s[name] for s in one_cpu]
    assert [s[parent] for s in spans] == [s[parent] for s in one_cpu]
