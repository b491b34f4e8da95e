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
manifests too).  Each layer is stored once, as its :class:`LayerView`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DuplicateLayerName,
    DuplicateNodeLabel,
    InvalidParameter,
    SelfTie,
    UnknownLayer,
    UnknownNode,
)
from .kernels import CSR

Edge = tuple[int, int]


class EdgeRecord(NamedTuple):
    """One edge-file row: an edge triple plus the line it came from."""

    source: str
    target: str
    layer: str
    line_no: int


@dataclass(frozen=True)
class LayerSpec:
    """Declaration of one layer.

    A basic layer has no constituents; an aggregate names one or more
    basic layers whose edge sets it unions.  An aggregate with a single
    constituent is allowed (it is simply a renamed copy).
    """

    name: str
    kind: str = "basic"
    constituents: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.name:
            raise InvalidParameter("layer name must be non-empty")
        if not isinstance(self.constituents, (list, tuple)):
            raise InvalidParameter(f"layer '{self.name}': constituents must be a list of layer names")
        object.__setattr__(self, "constituents", tuple(self.constituents))
        if self.kind not in ("basic", "aggregate"):
            raise InvalidParameter(f"layer '{self.name}': kind must be 'basic' or 'aggregate'")
        if self.kind == "basic" and self.constituents:
            raise InvalidParameter(f"basic layer '{self.name}' must not list constituents")
        if self.kind == "aggregate" and not self.constituents:
            raise InvalidParameter(f"aggregate layer '{self.name}' needs at least one constituent")

    @classmethod
    def basic(cls, name: str) -> "LayerSpec":
        return cls(name=name, kind="basic")

    @classmethod
    def aggregate(cls, name: str, *constituents: str) -> "LayerSpec":
        return cls(name=name, kind="aggregate", constituents=tuple(constituents))


class LayerView:
    """Read-only adjacency of a single layer, stored as three CSR matrices.

    ``out`` holds each node's successors, ``inn`` its predecessors and
    ``und`` its neighbours ignoring direction (out ∪ in); node ids are
    dense and every row is sorted.  Invariants: ``inn`` is the
    transpose of ``out``, and each holds ``n_edges`` entries.

    ``keys`` are the layer's ties ``i * n_nodes + j``, sorted and
    unique.  ``sources`` holds, for each basic layer the view is made
    of, the keys of its ties in the order each tie first appears in the
    input; ``aggregate`` tells an aggregate from a basic layer.  They
    serve :func:`degree_assortativity` alone, which sums in the row
    order of an earlier set-based build and replays that order from
    them (see :meth:`_und_in_set_order`).
    """

    __slots__ = ("name", "n_nodes", "n_edges", "out", "inn", "und", "_sources", "_aggregate")

    def __init__(
        self,
        name: str,
        n_nodes: int,
        keys: np.ndarray,
        sources: tuple[np.ndarray, ...],
        aggregate: bool,
    ):
        rows, cols = np.divmod(keys, n_nodes)
        transposed = np.sort(cols * n_nodes + rows)
        self.name = name
        self.n_nodes = n_nodes
        self.n_edges = len(keys)
        self.out = CSR.from_keys(keys, n_nodes)
        self.inn = CSR.from_keys(transposed, n_nodes)
        self.und = CSR.from_keys(_merge(keys, transposed), n_nodes)
        self._sources = sources
        self._aggregate = aggregate

    def _und_in_set_order(self) -> CSR:
        """``und`` with each row in the iteration order of the set-based build.

        That build put each layer's ties, in input order, into a set of
        ``(i, j)`` tuples (an aggregate: the union of its basic layers'
        sets), then filled per-node successor and predecessor frozensets
        from it and stored their unions as rows.  Replaying it from the
        first occurrences gives the same tables, since a repeated tie
        left a set unchanged; int and int-tuple hashes are not
        randomised, so the order is the same in every run.
        """
        n = self.n_nodes
        layers = [set(zip(*(part.tolist() for part in np.divmod(keys, n)))) for keys in self._sources]
        edges = frozenset(set().union(*layers)) if self._aggregate else frozenset(layers[0])
        succ = [set() for _ in range(n)]
        pred = [set() for _ in range(n)]
        for i, j in edges:
            succ[i].add(j)
            pred[j].add(i)
        succ = list(map(frozenset, succ))
        pred = list(map(frozenset, pred))
        return CSR.from_sets([s | p for s, p in zip(succ, pred)])

    def _check(self, i: int) -> None:
        if not 0 <= i < self.n_nodes:
            raise UnknownNode(f"node id {i} out of range for layer '{self.name}'")

    def _row(self, csr: CSR, i: int) -> np.ndarray:
        self._check(i)
        return csr.indices[csr.indptr[i]:csr.indptr[i + 1]]

    def out_set(self, i: int) -> frozenset[int]:
        """Successors of ``i``: the nodes ``i`` names as ties."""
        return frozenset(self._row(self.out, i).tolist())

    def in_set(self, i: int) -> frozenset[int]:
        """Predecessors of ``i``: the nodes naming ``i`` as a tie."""
        return frozenset(self._row(self.inn, i).tolist())

    def out_degree(self, i: int) -> int:
        return len(self._row(self.out, i))

    def in_degree(self, i: int) -> int:
        return len(self._row(self.inn, i))

    def undirected_neighbors(self, i: int) -> frozenset[int]:
        """Nodes adjacent to ``i`` ignoring direction."""
        return frozenset(self._row(self.und, i).tolist())

    def has_edge(self, i: int, j: int) -> bool:
        succ = self._row(self.out, i)
        self._check(j)
        return j in succ.tolist()

    def edges(self) -> Iterator[Edge]:
        """All directed edges, sorted by (source, target) id."""
        for i, succ in enumerate(self.out.rows()):
            for j in succ:
                yield (i, j)

    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges())


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

    def edge_set(self, name: str) -> frozenset[Edge]:
        return self.view(name).edge_set()

    def canonical_form(self):
        """Order-insensitive content: used for equality and round-trips."""
        edges_by_label = {
            name: frozenset((self._labels[i], self._labels[j]) for i, j in view.edges())
            for name, view in self._views.items()
        }
        return (frozenset(self._labels), self._specs, edges_by_label)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiplexGraph):
            return NotImplemented
        return self.canonical_form() == other.canonical_form()

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
    edges: Iterable[EdgeRecord | tuple[str, str, str]],
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
        :class:`EdgeRecord` rows or plain ``(source_label, target_label,
        basic_layer_name)`` triples.  Duplicates collapse to a single
        tie; the collapse count per layer is surfaced on
        ``duplicates_collapsed``, not raised.

    Raises
    ------
    DuplicateNodeLabel, DuplicateLayerName, UnknownLayer, UnknownNode, SelfTie
        Each names the offending record: an edge by its ``line_no`` if it
        has one, else its triple; a label by its 1-based position in
        ``nodes``, which is its line in a node file.
    """
    labels = list(nodes)
    index: dict[str, int] = {}
    for i, label in enumerate(labels):
        if index.setdefault(label, i) != i:
            raise DuplicateNodeLabel(f"line {i + 1}: duplicate node label '{label}'")

    specs = list(layer_specs)
    check_layers(specs)
    n = len(labels)
    basics = [s.name for s in specs if s.kind == "basic"]
    codes = {s.name: -2 for s in specs}  # an aggregate's code; unknown layers get -1
    codes.update((name, k) for k, name in enumerate(basics))
    records = edges if isinstance(edges, list) else list(edges)
    src = np.fromiter((index.get(e[0], -1) for e in records), dtype=np.int64, count=len(records))
    dst = np.fromiter((index.get(e[1], -1) for e in records), dtype=np.int64, count=len(records))
    layer = np.fromiter((codes.get(e[2], -1) for e in records), dtype=np.int64, count=len(records))
    bad = (src < 0) | (dst < 0) | (layer < 0) | (src == dst)
    if bad.any():
        _reject(records[int(np.argmax(bad))], index, codes)

    # Per basic layer: its sorted unique keys, and the keys of the first
    # occurrence of each tie in input order (a stable sort ranks the
    # first occurrence first among equal keys).
    keys = src * n + dst
    del src, dst
    ranked: dict[str, np.ndarray] = {}
    sources: dict[str, np.ndarray] = {}
    duplicates = dict.fromkeys((s.name for s in specs), 0)
    for k, name in enumerate(basics):
        layer_keys = keys[layer == k]
        order = np.argsort(layer_keys, kind="stable")
        first = _firsts(layer_keys[order])
        ranked[name] = layer_keys[order[first]]
        sources[name] = layer_keys[np.sort(order[first])]
        duplicates[name] = len(layer_keys) - len(ranked[name])

    views = {}
    for spec in specs:
        parts = spec.constituents or (spec.name,)
        union = _merge(*(ranked[c] for c in parts))
        aggregate = spec.kind == "aggregate"
        views[spec.name] = LayerView(spec.name, n, union, tuple(sources[c] for c in parts), aggregate)
    return MultiplexGraph(labels, specs, views, duplicates)


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
    merged = np.sort(np.concatenate(sorted_keys), kind="stable")
    return merged[_firsts(merged)]
