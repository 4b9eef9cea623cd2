"""Tracing from outside the package: wrap each layer's public names, record spans.

Nothing under ``src/`` is edited. ``Tracer.install`` replaces every binding of
a traced function in every loaded ``isingchain`` module (the defining module
and each module that imported the name), so both cross-module calls and calls
through a module's own globals go through the wrapper. ``uninstall`` puts the
originals back.

Span names are ``<layer>.<function>``; a layer is a package module. The
``numeric`` helpers run millions of times per call, so they are counted but
get no span; their time stays in the caller's self time.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Any, Callable

# (module, function) pairs that get a span per call.
SPAN_TARGETS = (
    ("cli", "cmd_sweep"),
    ("cli", "cmd_exact"),
    ("cli", "cmd_decay"),
    ("cli", "cmd_bounds"),
    ("cli", "cmd_mc"),
    ("instances", "generate_instance"),
    ("chain", "covariance_enum"),
    ("chain", "enum_summary"),
    ("transfer", "log_partition"),
    ("transfer", "covariance"),
    ("transfer", "site_mean"),
    ("effective_field", "truncate"),
    ("bounds", "compare"),
    ("bounds", "bound_signed_field"),
    ("bounds", "bound_nonneg_field"),
    ("bounds", "bound_abs_envelope"),
    ("bounds", "bound_zero_field"),
    ("currents", "mc_switching_covariance"),
)

# (module, function) pairs that are only counted.
COUNT_TARGETS = (
    ("numeric", "log_add_exp"),
    ("numeric", "log_cosh"),
    ("numeric", "log_sinh_abs"),
)

SPANNED = {f"{m}.{f}" for m, f in SPAN_TARGETS}
COUNTED = {f"{m}.{f}" for m, f in COUNT_TARGETS}

# Oracle calls also add 2**n_sites to this counter: the configurations enumerated.
CONFIGS = "chain.configs_enumerated"
_ORACLE = {"chain.covariance_enum", "chain.enum_summary"}

# Span record fields. A span with no parent starts a new run id: in a traced
# CLI call only the cli.cmd_* span has none, so run ids number the calls.
NAME, START, END, PARENT, RUN = range(5)


class Tracer:
    """Span and call-count recorder; spans stay in memory for the caller to write."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self.runs = 0
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        oracle = name in _ORACLE

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if oracle:
                counts[CONFIGS] += 1 << args[0].n_sites
            if not stack:
                self.runs += 1
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.runs]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()

        return wrapper

    def _counter(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        counts = self.counts

        def wrapper(*args: Any) -> Any:
            counts[name] += 1
            return fn(*args)

        return wrapper

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "isingchain" or key.startswith("isingchain."))
        ]
        for targets, make in ((SPAN_TARGETS, self._span), (COUNT_TARGETS, self._counter)):
            for mod_name, attr in targets:
                original = getattr(sys.modules[f"isingchain.{mod_name}"], attr)
                wrapped = make(f"{mod_name}.{attr}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, key, original))
                            setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._saved):
            setattr(module, key, original)
        self._saved.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: total calls, total seconds and total self seconds."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        out: dict[str, dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            entry = out.setdefault(span[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0})
            duration = span[END] - span[START]
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - child[index]
        return out

    def root_seconds(self) -> float:
        """Seconds covered by spans that have no parent span."""
        return sum(s[END] - s[START] for s in self.spans if s[PARENT] < 0)
