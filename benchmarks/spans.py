"""Span tracing of tieplex calls, installed from outside the library.

A :class:`Tracer` replaces the module bindings that callers go through
(for example ``tieplex.report.layer_metrics``, the name the report code
looks up at call time) with wrappers that record one span per call:
name, optional key (layer, pair or format), start, end, parent span and
the id of the verb it belongs to.  :meth:`Tracer.installed` restores
every original binding on exit, even when the traced call raises.
Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass


def _view_name(args):
    return args[0].name


def _pair(args):
    return f"{args[1]}-{args[2]}"


def _fmt(args):
    return args[1]


# (module, attribute, span name, key from the positional arguments).
# A module binds a function it imported under its own name, so each
# caller's binding is listed; bindings a later version drops are
# skipped, not errors.
BINDINGS = (
    ("tieplex.cli", "load_manifest", "io.load_manifest", None),
    ("tieplex.cli", "load_dataset", "io.load_dataset", None),
    ("tieplex.cli", "write_demo_dataset", "synth.write_demo_dataset", None),
    ("tieplex.io", "load_manifest", "io.load_manifest", None),
    ("tieplex.io", "parse_nodes", "io.parse_nodes", None),
    ("tieplex.io", "parse_edges", "io.parse_edges", None),
    ("tieplex.io", "parse_attributes", "io.parse_attributes", None),
    ("tieplex.io", "build_graph", "graph.build_graph", None),
    ("tieplex.report", "summary_report", "report.summary_report", None),
    ("tieplex.report", "endogenous_report", "report.endogenous_report", None),
    ("tieplex.report", "cross_report", "report.cross_report", None),
    ("tieplex.report", "equivalence_report", "report.equivalence_report", None),
    ("tieplex.report", "wedge_report", "report.wedge_report", None),
    ("tieplex.report", "attribute_report", "report.attribute_report", None),
    ("tieplex.report", "render", "report.render", _fmt),
    ("tieplex.report", "layer_metrics", "metrics.layer_metrics", _view_name),
    ("tieplex.structure", "layer_metrics", "metrics.layer_metrics", _view_name),
    ("tieplex.report", "cross_layer_averages", "crosslayer.cross_layer_averages", _pair),
    ("tieplex.report", "attribute_metrics", "crosslayer.attribute_metrics", None),
    ("tieplex.crosslayer", "unnetworked_similarity", "crosslayer.unnetworked_similarity", None),
    ("tieplex.report", "layer_summary", "structure.layer_summary", None),
    ("tieplex.structure", "strongly_connected_components", "structure.strongly_connected_components", None),
    ("tieplex.structure", "path_stats", "structure.path_stats", None),
    ("tieplex.structure", "degree_assortativity", "structure.degree_assortativity", None),
    ("tieplex.report", "directed_degree_assortativity", "structure.directed_degree_assortativity", None),
    ("tieplex.report", "structural_equivalence", "structure.structural_equivalence", None),
    ("tieplex.report", "wedge_closure", "structure.wedge_closure", None),
)


@dataclass
class Span:
    name: str
    key: str | None
    start: float
    end: float
    parent: int | None
    verb: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.verb = 0
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, key: str | None = None):
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, key, time.perf_counter(), 0.0, parent, self.verb))
        index = len(self.spans) - 1
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def _wrap(self, fn, name, key_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, key_of(args) if key_of else None):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding in :data:`BINDINGS` for the ``with`` body."""
        originals = []
        try:
            for module_name, attr, name, key_of in BINDINGS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, key_of))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


def totals(spans: list[Span]) -> tuple[dict[str, float], dict[tuple[str, str], float], dict[str, float]]:
    """Self time per span name, inclusive time per (name, key), inclusive per name."""
    own = self_seconds(spans)
    by_name: dict[str, float] = defaultdict(float)
    by_key: dict[tuple[str, str], float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, own):
        by_name[s.name] += t
        inclusive[s.name] += s.seconds
        if s.key is not None:
            by_key[(s.name, s.key)] += s.seconds
    return dict(by_name), dict(by_key), dict(inclusive)
