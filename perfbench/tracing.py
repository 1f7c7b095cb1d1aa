"""Per-layer tracing of qfano from outside the package.

:class:`Tracer` replaces public module attributes of ``qfano`` with timing and
counting wrappers, records spans in memory while a pass runs, and puts every
original object back when the ``with`` block ends, also on error.  Nothing in
``src/`` is edited.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span (-1 at top level) and ``op`` the id of the CLI invocation it
belongs to.  A layer's self time is its span's duration minus the durations of
its direct child spans.  Leaf functions called hundreds of thousands of times
(``chi``, ``kawamata_sum``, ``dims_lookup``) only add to a count and a busy
time, so they record no span and their time stays inside their caller's
self time.

Work done in pool worker processes is not traced: the wrappers run there
too (the workers are forked from the traced process) but their spans never
come back.

A wrapped name that no longer exists is reported as absent and its metrics
read 0; a name that exists but is never called reads 0 calls.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterable


@dataclass(frozen=True)
class Target:
    """One wrapped function: where it lives and what its result counts."""

    module: str
    attr: str  # "name" or "Class.method" (a classmethod)
    leaf: bool = False
    #: (metric, "sum" or "max") pairs folding in the size of each result:
    #: ``len`` of a returned sequence, bytes of a returned text, or the
    #: number of items a returned generator yields
    result_metrics: tuple[tuple[str, str], ...] = ()

    @property
    def name(self) -> str:
        return f"{self.module.rpartition('.')[2]}.{self.attr}"


TARGETS: tuple[Target, ...] = (
    Target("qfano.cli", "main"),
    Target("qfano.enumeration", "enumerate_candidates",
           result_metrics=(("enumeration.survivors", "sum"),)),
    Target("qfano.enumeration", "enumerate_baskets",
           result_metrics=(("enumeration.baskets", "sum"),)),
    Target("qfano.enumeration", "degree_candidates",
           result_metrics=(("enumeration.degrees", "sum"),)),
    Target("qfano.enumeration", "Candidate.from_parts"),
    Target("qfano.enumeration", "facts"),
    Target("qfano.enumeration", "filter_diff"),
    Target("qfano.riemann_roch", "chi", leaf=True),
    Target("qfano.riemann_roch", "kawamata_sum", leaf=True),
    Target("qfano.store", "loads_database"),
    Target("qfano.store", "dumps_database",
           result_metrics=(("store.db_bytes", "max"),)),
    Target("qfano.surveys", "survey_rows"),
    Target("qfano.wps", "hilbert_coeffs"),
    Target("qfano.wps", "match_candidate"),
    Target("qfano.links", "solve",
           result_metrics=(("links.solutions", "sum"),)),
    Target("qfano.links", "audit"),
    Target("qfano.links", "dims_lookup", leaf=True),
)

#: Per-layer metrics and their units, in the order BENCHMARK.json lists them.
#: ``trace_overhead_ratio`` is computed by the runner, not from spans.
METRIC_UNITS: dict[str, str] = {
    "enumeration.enumerate_baskets.s": "s",
    "enumeration.baskets": "count",
    "enumeration.degree_candidates.s": "s",
    "enumeration.degree_candidates.calls": "count",
    "enumeration.degrees": "count",
    "enumeration.scan.self_s": "s",
    "enumeration.survivors": "count",
    "enumeration.survivor_ratio": "ratio",
    "enumeration.Candidate.from_parts.s": "s",
    "enumeration.Candidate.from_parts.calls": "count",
    "enumeration.facts.s": "s",
    "enumeration.filter_diff.s": "s",
    "riemann_roch.chi.s": "s",
    "riemann_roch.chi.calls": "count",
    "riemann_roch.kawamata_sum.calls": "count",
    "store.loads_database.s": "s",
    "store.dumps_database.s": "s",
    "store.db_bytes": "bytes",
    "surveys.survey_rows.s": "s",
    "wps.hilbert_coeffs.s": "s",
    "wps.match_candidate.s": "s",
    "links.solve.s": "s",
    "links.audit.s": "s",
    "links.dims_lookup.calls": "count",
    "links.solutions": "count",
    "cli.self_s": "s",
    "trace_overhead_ratio": "ratio",
}

#: Self-time metrics and the span each is computed from.
SELF_TIMES = {
    "enumeration.scan.self_s": "enumeration.enumerate_candidates",
    "cli.self_s": "cli.main",
}


class Tracer:
    """Collects spans and counters while its ``with`` block is active."""

    def __init__(self, targets: Iterable[Target] = TARGETS):
        self.targets = tuple(targets)
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- patching ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for target in self.targets:
                self._install(target)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _install(self, target: Target) -> None:
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            self.absent.append(target.name)
            return
        owner_name, _, attr = target.attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        raw = owner.__dict__.get(attr) if owner is not None else None
        if raw is None:
            self.absent.append(target.name)
            return
        if owner_name:
            # a classmethod on a class: patch the class attribute only
            if not isinstance(raw, classmethod):
                self.absent.append(target.name)
                return
            wrapped = classmethod(self._wrap(target, raw.__func__))
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        # a module function: patch every qfano module that imported it by name
        wrapper = self._wrap(target, raw)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "qfano" or mod is None:
                continue
            for name, value in list(vars(mod).items()):
                if value is raw:
                    self._patches.append((mod, name, raw))
                    setattr(mod, name, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, target: Target, func: Callable) -> Callable:
        name = target.name
        self.calls.setdefault(name, 0)
        self.busy.setdefault(name, 0.0)
        for metric, _ in target.result_metrics:
            self.counters.setdefault(metric, 0)
        if target.leaf:
            return self._leaf_wrapper(name, func)
        return self._span_wrapper(name, func, target.result_metrics)

    def _leaf_wrapper(self, name: str, func: Callable) -> Callable:
        calls, busy = self.calls, self.busy

        def leaf(*args, **kwargs):
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                busy[name] += perf_counter() - start
                calls[name] += 1

        return leaf

    def _span_wrapper(
        self, name: str, func: Callable, result_metrics: tuple[tuple[str, str], ...]
    ) -> Callable:
        tracer = self

        def span(*args, **kwargs):
            index = tracer._open(name)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(index, start)
            if inspect.isgenerator(result):
                return tracer._steps(index, result, result_metrics)
            if result_metrics:
                tracer._fold(result_metrics, _size(result))
            return result

        return span

    def _steps(
        self, index: int, inner, result_metrics: tuple[tuple[str, str], ...]
    ):
        """Iterate a returned generator, adding the time of its own steps (not
        the consumer's work between them) to the span at ``index``."""
        busy = 0.0
        items = 0
        try:
            while True:
                step = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    busy += perf_counter() - step
                    return
                busy += perf_counter() - step
                items += 1
                yield item
        finally:
            name, start, end, parent, op = self.spans[index]
            self.spans[index] = (name, start, end + busy, parent, op)
            self.busy[name] += busy
            self._fold(result_metrics, items)

    def _fold(self, result_metrics: tuple[tuple[str, str], ...], size: int) -> None:
        for metric, how in result_metrics:
            if how == "max":
                self.counters[metric] = max(self.counters[metric], size)
            else:
                self.counters[metric] += size

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        name, _, _, parent, op = self.spans[index]
        self.spans[index] = (name, start, end, parent, op)
        self.calls[name] += 1
        self.busy[name] += end - start

    # -- results ----------------------------------------------------------

    def self_time(self, name: str) -> float:
        """Summed self time of every span called ``name``."""
        child_time: dict[int, float] = {}
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        return sum(
            (end - start) - child_time.get(i, 0.0)
            for i, (span_name, start, end, _, _) in enumerate(self.spans)
            if span_name == name
        )

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except ``trace_overhead_ratio``."""
        out: dict[str, float] = {}
        for metric in METRIC_UNITS:
            if metric == "trace_overhead_ratio":
                continue
            if metric in SELF_TIMES:
                out[metric] = self.self_time(SELF_TIMES[metric])
            elif metric == "enumeration.survivor_ratio":
                degrees = self.counters.get("enumeration.degrees", 0)
                survivors = self.counters.get("enumeration.survivors", 0)
                out[metric] = survivors / degrees if degrees else 0.0
            elif metric.endswith(".s"):
                out[metric] = self.busy.get(metric[:-2], 0.0)
            elif metric.endswith(".calls"):
                out[metric] = self.calls.get(metric[: -len(".calls")], 0)
            else:
                out[metric] = self.counters.get(metric, 0)
        return out

    def write_spans(self, path, tag: str) -> None:
        """Append this tracer's spans as JSON lines tagged with ``tag``."""
        with open(path, "a", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps([tag, name, start, end, parent, op]) + "\n")


def _size(result: Any) -> int:
    """Bytes of a text result, ``len`` of a sized one, else 0."""
    if isinstance(result, str):
        return len(result.encode("utf-8"))
    try:
        return len(result)
    except TypeError:
        return 0


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over several traced passes; counts stay whole numbers."""
    out = {}
    for key, first in samples[0].items():
        values = [s[key] for s in samples]
        out[key] = statistics.median_low(values) if isinstance(first, int) else statistics.median(values)
    return out
