"""Multiplex directed-graph model.

A multiplex graph is a fixed node set observed under several named edge
sets called layers.  Basic layers hold raw ties; aggregate layers are
edge-set unions of basic layers and are materialized once at build time
(metrics re-read them constantly, so laziness buys nothing).  Ties are
binary and self-ties are rejected.  Everything is immutable after
construction, which makes views safe to share across threads or worker
processes without locking.

Validation lives here: :func:`build_graph` alone checks node labels and
edges, and :func:`check_layers` alone checks layer declarations (for
manifests too).  Each layer is stored once, as the two CSRs of its
:class:`LayerView`.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DuplicateLayerName,
    DuplicateNodeLabel,
    SelfTie,
    UnknownLayer,
    UnknownNode,
)
from .kernels import CSR
from .layers import LayerSpec


class EdgeRecord(NamedTuple):
    """One edge-file row: an edge triple plus the line it came from."""

    source: str
    target: str
    layer: str
    line_no: int


class EdgeColumns(Sequence[EdgeRecord]):
    """Edge-file rows held as three label columns; row ``k`` is line ``first_line + k``.

    Indexing builds the :class:`EdgeRecord` of one row on demand, so a
    large file never holds one record object per row.
    """

    __slots__ = ("sources", "targets", "layers", "first_line")

    def __init__(self, sources: list[str], targets: list[str], layers: list[str], first_line: int):
        self.sources = sources
        self.targets = targets
        self.layers = layers
        self.first_line = first_line

    def __len__(self) -> int:
        return len(self.sources)

    def __getitem__(self, k: int) -> EdgeRecord:
        k = range(len(self))[k]  # bounds check, negative indexes
        return EdgeRecord(self.sources[k], self.targets[k], self.layers[k], self.first_line + k)

    def __repr__(self) -> str:
        return f"EdgeColumns({len(self)} rows from line {self.first_line})"


class LayerView:
    """Read-only adjacency of a single layer, stored as two CSR matrices.

    ``out`` holds each node's successors and ``inn`` its predecessors;
    node ids are dense and every row is sorted.  Invariants: ``inn`` is
    the transpose of ``out``, and each holds ``n_edges`` entries, so the
    out- and in-degrees of every node are ``out.degrees()`` and
    ``inn.degrees()``.  The undirected projection (out ∪ in) is derived
    where it is read.

    It is built from ``keys``, the layer's ties ``i * n_nodes + j``,
    sorted and unique; they are not kept.
    """

    __slots__ = ("name", "n_nodes", "n_edges", "out", "inn")

    def __init__(self, name: str, n_nodes: int, keys: np.ndarray):
        self.name = name
        self.n_nodes = n_nodes
        self.n_edges = len(keys)
        rows, cols = np.divmod(keys, n_nodes)
        self.out = CSR.from_keys(keys, n_nodes)
        transposed = cols * n_nodes
        transposed += rows
        del rows, cols  # each temporary goes as soon as its CSR is built
        transposed.sort()
        self.inn = CSR.from_keys(transposed, n_nodes)

    def _check(self, i: int) -> None:
        if not 0 <= i < self.n_nodes:
            raise UnknownNode(f"node id {i} out of range for layer '{self.name}'")


class MultiplexGraph:
    """Immutable node registry plus named layers and their views.

    Built through :func:`build_graph`; do not construct directly.  Node
    ids are contiguous ``0..n-1`` in node-list order and map bijectively
    to labels.  Every declared layer, basic or aggregate, has a
    :class:`LayerView` over the full node set (nodes with no incident
    ties in a layer stay members of that layer's vertex set).
    """

    def __init__(
        self,
        labels: Sequence[str],
        specs: Sequence[LayerSpec],
        views: Mapping[str, LayerView],
        duplicates_collapsed: Mapping[str, int],
    ):
        self._labels = tuple(labels)
        self._index = {label: i for i, label in enumerate(self._labels)}
        self._specs = tuple(specs)
        self._views = dict(views)
        self.duplicates_collapsed = dict(duplicates_collapsed)

    @property
    def n_nodes(self) -> int:
        return len(self._labels)

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def specs(self) -> tuple[LayerSpec, ...]:
        return self._specs

    @property
    def layer_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self._specs)

    @property
    def basic_layer_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self._specs if s.kind == "basic")

    def node_id(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownNode(f"unknown node label '{label}'") from None

    def node_label(self, i: int) -> str:
        if not 0 <= i < len(self._labels):
            raise UnknownNode(f"node id {i} out of range")
        return self._labels[i]

    def spec(self, name: str) -> LayerSpec:
        for s in self._specs:
            if s.name == name:
                return s
        raise UnknownLayer(f"unknown layer '{name}'")

    def view(self, name: str) -> LayerView:
        try:
            return self._views[name]
        except KeyError:
            raise UnknownLayer(f"unknown layer '{name}'") from None

    def __repr__(self) -> str:
        return f"MultiplexGraph(n_nodes={self.n_nodes}, layers={list(self.layer_names)})"


def check_layers(specs: Sequence[LayerSpec]) -> None:
    """Reject a repeated layer name or an aggregate over an undeclared basic layer."""
    basic = {s.name for s in specs if s.kind == "basic"}
    names = [s.name for s in specs]
    for spec in specs:
        if names.count(spec.name) > 1:
            raise DuplicateLayerName(f"duplicate layer name '{spec.name}'")
        for c in spec.constituents:
            if c not in basic:
                raise UnknownLayer(f"aggregate '{spec.name}' references undeclared basic layer '{c}'")


def _where(edge) -> str:
    """How errors name an edge: by its source line when it carries one."""
    return f"line {edge[3]}" if len(edge) > 3 else f"edge ({edge[0]}, {edge[1]}, {edge[2]})"


def build_graph(
    nodes: Iterable[str],
    layer_specs: Iterable[LayerSpec],
    edges: Iterable[EdgeColumns] | Iterable[EdgeRecord | tuple[str, str, str]],
) -> MultiplexGraph:
    """Build a multiplex graph from labels, layer declarations and edges.

    Parameters
    ----------
    nodes:
        Node labels; order assigns the dense ids.  Labels are
        case-sensitive exact strings (no normalization, so distinct
        survey ids never merge silently).
    layer_specs:
        Basic and aggregate layer declarations, checked by
        :func:`check_layers`.
    edges:
        An iterable of :class:`EdgeColumns` chunks (as
        :func:`tieplex.io.parse_edges` yields them), walked once and
        each chunk mapped to ids before the next is drawn, or of
        :class:`EdgeRecord` rows or plain ``(source_label, target_label,
        basic_layer_name)`` triples, which are transposed into one
        chunk.  Duplicates collapse to a single tie; the collapse count
        per layer is surfaced on ``duplicates_collapsed``, not raised.

    Raises
    ------
    DuplicateNodeLabel, DuplicateLayerName, UnknownLayer, UnknownNode, SelfTie
        Each names the offending record: an edge by its ``line_no`` if it
        has one, else its triple; a label by its 1-based position in
        ``nodes``, which is its line in a node file.  All edges are drawn
        before any of these is raised, so an error the chunks raise
        themselves (a file-format error) comes first.
    """
    labels = list(nodes)
    index: dict[str, int] = {}
    duplicate = next((i for i, label in enumerate(labels) if index.setdefault(label, i) != i), None)
    specs = list(layer_specs)
    n = len(labels)
    basics = [s.name for s in specs if s.kind == "basic"]
    codes = {s.name: -2 for s in specs}  # an aggregate's code; unknown layers get -1
    codes.update((name, k) for k, name in enumerate(basics))
    parts: list[list[np.ndarray]] = [[] for _ in basics]  # each basic layer's keys, chunk by chunk
    rejected = None  # the first bad record
    for records, columns in _record_chunks(edges):
        if rejected is not None:
            continue  # the rest is drawn only for the errors it raises itself
        src, dst, layer = (
            np.fromiter(map(lookup.get, column, repeat(-1)), dtype=np.int64, count=len(records))
            for lookup, column in zip((index, index, codes), columns)
        )
        bad = (src < 0) | (dst < 0) | (layer < 0) | (src == dst)
        if bad.any():
            rejected = records[int(np.argmax(bad))]
            continue
        keys = src * n + dst
        for k, part in enumerate(parts):
            part.append(keys[layer == k])
    if duplicate is not None:
        raise DuplicateNodeLabel(f"line {duplicate + 1}: duplicate node label '{labels[duplicate]}'")
    check_layers(specs)
    if rejected is not None:
        _reject(rejected, index, codes)

    ranked: dict[str, np.ndarray] = {}
    duplicates = dict.fromkeys((s.name for s in specs), 0)
    for name, part in zip(basics, parts):
        layer_keys = np.concatenate([np.zeros(0, dtype=np.int64), *part])
        part.clear()  # each layer's chunks go as soon as they are joined
        layer_keys.sort()
        ranked[name] = layer_keys[_firsts(layer_keys)]
        duplicates[name] = len(layer_keys) - len(ranked[name])
        del layer_keys

    views = {}
    for spec in specs:
        union = _merge(*(ranked[c] for c in spec.constituents or (spec.name,)))
        views[spec.name] = LayerView(spec.name, n, union)
    return MultiplexGraph(labels, specs, views, duplicates)


def _record_chunks(edges) -> Iterator[tuple[Sequence, tuple[Sequence[str], ...]]]:
    """``(records, label columns)`` of each chunk of ``edges``, in order (see :func:`build_graph`)."""
    rows = iter(edges)
    first = next(rows, None)
    if isinstance(first, EdgeColumns):
        for chunk in chain((first,), rows):
            yield chunk, (chunk.sources, chunk.targets, chunk.layers)
        return
    records = [] if first is None else [first, *rows]
    yield records, tuple(zip(*records))[:3] or ((), (), ())


def _reject(edge, index: Mapping[str, int], codes: Mapping[str, int]) -> None:
    """Raise the error of one bad edge record, checked in the documented order."""
    src, dst, layer = edge[0], edge[1], edge[2]
    if src not in index or dst not in index:
        raise UnknownNode(f"{_where(edge)}: unknown node '{dst if src in index else src}'")
    if layer not in codes:
        raise UnknownLayer(f"{_where(edge)}: unknown layer '{layer}'")
    if codes[layer] < 0:  # declared, so an aggregate
        raise UnknownLayer(f"{_where(edge)}: '{layer}' is an aggregate, edges go in basic layers")
    raise SelfTie(f"{_where(edge)}: self-tie on '{src}' is not allowed")


def _firsts(ranked: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal values in a sorted array."""
    first = np.ones(len(ranked), dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    return first


def _merge(*sorted_keys: np.ndarray) -> np.ndarray:
    """Sorted union of sorted arrays (a stable sort merges their runs)."""
    merged = np.concatenate(sorted_keys)
    merged.sort(kind="stable")
    return merged[_firsts(merged)]
