"""The benchmark tracer's targets exist in the package.

perfbench/spans.py wraps package functions by (module, name); a target that
is renamed or deleted breaks only a traced benchmark run, so it is checked
here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
