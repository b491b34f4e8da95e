"""Multiplex directed-graph model.

A multiplex graph is a fixed node set observed under several named edge
sets called layers.  Basic layers hold raw ties; aggregate layers are
edge-set unions of basic layers and are materialized once at build time
(metrics re-read them constantly, so laziness buys nothing).  Ties are
binary and self-ties are rejected.  Everything is immutable after
construction, which makes views safe to share across threads or worker
processes without locking (a view's CSR cache is filled on first use,
but two threads filling it at once store equal arrays).

Validation lives here: :func:`build_graph` alone checks node labels and
edges, and :func:`check_layers` alone checks layer declarations (for
manifests too).  Each layer is stored once, as its :class:`LayerView`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

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
    """Read-only adjacency view of a single layer, built from its edge set.

    Successor and predecessor sets are exposed as frozensets keyed by
    dense node id.  They are the stored copy of the layer; :meth:`csr`
    derives sorted CSR arrays from them on first use and keeps those
    for the kernels.  Invariants: ``j in out_set(i)`` iff
    ``i in in_set(j)``, and the out-degrees and in-degrees each sum to
    the edge count.
    """

    __slots__ = ("name", "n_nodes", "n_edges", "_out", "_in", "_csr")

    def __init__(self, name: str, n_nodes: int, edges: frozenset[Edge]):
        out_sets = [set() for _ in range(n_nodes)]
        in_sets = [set() for _ in range(n_nodes)]
        for i, j in edges:
            out_sets[i].add(j)
            in_sets[j].add(i)
        self.name = name
        self.n_nodes = n_nodes
        self.n_edges = len(edges)
        self._out = tuple(map(frozenset, out_sets))
        self._in = tuple(map(frozenset, in_sets))
        self._csr: dict[str, CSR] = {}

    def _check(self, i: int) -> None:
        if not 0 <= i < self.n_nodes:
            raise UnknownNode(f"node id {i} out of range for layer '{self.name}'")

    def out_set(self, i: int) -> frozenset[int]:
        """Successors of ``i``: the nodes ``i`` names as ties."""
        self._check(i)
        return self._out[i]

    def in_set(self, i: int) -> frozenset[int]:
        """Predecessors of ``i``: the nodes naming ``i`` as a tie."""
        self._check(i)
        return self._in[i]

    def out_degree(self, i: int) -> int:
        return len(self.out_set(i))

    def in_degree(self, i: int) -> int:
        return len(self.in_set(i))

    def undirected_neighbors(self, i: int) -> frozenset[int]:
        """Nodes adjacent to ``i`` ignoring direction."""
        self._check(i)
        return self._out[i] | self._in[i]

    def has_edge(self, i: int, j: int) -> bool:
        self._check(i)
        self._check(j)
        return j in self._out[i]

    def edges(self) -> Iterator[Edge]:
        """All directed edges, sorted by (source, target) id."""
        for i, succ in enumerate(self._out):
            for j in sorted(succ):
                yield (i, j)

    def edge_set(self) -> frozenset[Edge]:
        return frozenset((i, j) for i, succ in enumerate(self._out) for j in succ)

    def csr(self, kind: str) -> CSR:
        """The ``"out"``, ``"in"`` or ``"undirected"`` neighbour sets as CSR, built once."""
        if kind not in self._csr:
            if kind == "out":
                sets = self._out
            elif kind == "in":
                sets = self._in
            elif kind == "undirected":
                sets = [succ | pred for succ, pred in zip(self._out, self._in)]
            else:
                raise InvalidParameter(f"unknown adjacency kind '{kind}'")
            self._csr[kind] = CSR.from_sets(sets)
        return self._csr[kind]


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
    edge_sets: dict[str, set[Edge]] = {s.name: set() for s in specs if s.kind == "basic"}
    rows = dict.fromkeys((s.name for s in specs), 0)
    for edge in edges:
        src, dst, layer = edge[0], edge[1], edge[2]
        if src not in index or dst not in index:
            raise UnknownNode(f"{_where(edge)}: unknown node '{dst if src in index else src}'")
        if layer not in edge_sets:
            if layer in rows:  # declared, so an aggregate
                raise UnknownLayer(f"{_where(edge)}: '{layer}' is an aggregate, edges go in basic layers")
            raise UnknownLayer(f"{_where(edge)}: unknown layer '{layer}'")
        if src == dst:
            raise SelfTie(f"{_where(edge)}: self-tie on '{src}' is not allowed")
        edge_sets[layer].add((index[src], index[dst]))
        rows[layer] += 1
    duplicates = {name: count - len(edge_sets.get(name, ())) for name, count in rows.items()}

    # Each view walks its layer's edge frozenset, never the input rows:
    # degree_assortativity sums in set-iteration order, so row order would
    # otherwise reach the report bytes.
    views = {}
    for spec in specs:
        if spec.kind == "basic":
            layer_edges = frozenset(edge_sets[spec.name])
        else:
            layer_edges = frozenset(set().union(*(edge_sets[c] for c in spec.constituents)))
        views[spec.name] = LayerView(spec.name, len(labels), layer_edges)
    return MultiplexGraph(labels, specs, views, duplicates)
