"""Layer-level structural analytics.

Strongly connected components, directed path statistics, degree
assortativity, structural-equivalence grouping, wedge closure, and the
per-layer summary rows that tie them together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidParameter, NotStronglyConnected
from .graph import LayerView, MultiplexGraph
from .kernels import CSR, _entries, intersection_counts
from .metrics import layer_metrics

_BLOCK = 1024  # BFS sources per block: 16 uint64 words per node
# Set bits of every byte value: numpy before 2.0 has no popcount ufunc.
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


@dataclass(frozen=True)
class PathStats:
    """Average and maximum directed shortest-path length over ordered pairs."""

    avg_path: float
    diameter: int


@dataclass(frozen=True)
class LayerSummary:
    """One row of the per-layer structural table.

    ``avg_total_degree`` is edges over nodes (mean out-degree, which
    equals mean in-degree).  ``assortativity`` is NaN when degenerate.
    Path statistics refer to the largest strongly connected component.
    """

    layer: str
    n_nodes: int
    n_edges: int
    avg_total_degree: float
    assortativity: float
    scc_nodes: int
    scc_edges: int
    avg_path: float
    diameter: int


@dataclass(frozen=True)
class EquivalenceClass:
    """Nodes whose metric triples agree pairwise within the tolerance."""

    members: tuple[int, ...]
    reciprocity: float
    cycle_closure: float
    triplet_closure: float
    tolerance: float


@dataclass
class WedgeReport:
    """Wedge counts for one layer and closure rates per closing layer.

    ``closed`` and ``pct`` carry one entry per closing layer plus the
    synthetic key ``"any"`` (closed by at least one of them).
    """

    wedge_layer: str
    total: int
    closed: dict[str, int]
    pct: dict[str, float]

    @property
    def no_wedges(self) -> bool:
        return self.total == 0


def strongly_connected_components(view: LayerView) -> list[frozenset[int]]:
    """Partition of the node set into maximal strongly connected components.

    Iterative Tarjan; output is ordered by smallest member id, so the
    result is deterministic and relabel-stable for a fixed id order.
    """
    n = view.n_nodes
    successors = view.out.rows()
    order = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[frozenset[int]] = []
    counter = 0

    for root in range(n):
        if order[root] != -1:
            continue
        order[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        frames: list[list] = [[root, 0, successors[root]]]
        while frames:
            frame = frames[-1]
            v, succ = frame[0], frame[2]
            pushed = False
            while frame[1] < len(succ):
                w = succ[frame[1]]
                frame[1] += 1
                if order[w] == -1:
                    order[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    frames.append([w, 0, successors[w]])
                    pushed = True
                    break
                if on_stack[w] and order[w] < low[v]:
                    low[v] = order[w]
            if pushed:
                continue
            frames.pop()
            if low[v] == order[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(frozenset(comp))
            if frames and low[v] < low[frames[-1][0]]:
                low[frames[-1][0]] = low[v]

    return sorted(components, key=min)


def induced_edge_count(view: LayerView, nodes: Iterable[int]) -> int:
    """Edges of the layer with both endpoints inside ``nodes``."""
    member = np.zeros(view.n_nodes, dtype=bool)
    member[_members(view, nodes)] = True
    return int(np.count_nonzero(np.repeat(member, view.out.degrees()) & member[view.out.indices]))


def largest_scc(view: LayerView) -> frozenset[int]:
    """Largest strongly connected component; ties go to the smallest node id.

    A layer without nodes has no component and gives the empty set.
    """
    components = strongly_connected_components(view)
    return max(components, key=lambda c: (len(c), -min(c)), default=frozenset())


def path_stats(view: LayerView, component: Iterable[int]) -> PathStats:
    """Directed shortest-path average and diameter over ordered pairs in ``component``.

    Distances are taken in the whole layer, so a shortest path may pass
    through nodes outside ``component``; repeated ids count once.  A
    component of 0 or 1 nodes has no pairs and reports (0.0, 0).
    Raises NotStronglyConnected if any ordered pair has no directed
    path, naming the lowest such source and then its lowest unreached
    member.

    The search is a bit-parallel multi-source BFS (Then et al. 2014,
    "The More the Merrier"): members are taken ``_BLOCK`` at a time as
    sources, one bit each, and every level pulls the frontier words of
    each node's predecessors along ``view.inn``.  Distances are exact
    integers summed as Python ints, so the average is one int/int
    division.
    """
    members = np.array(_members(view, component), dtype=np.intp)
    k = len(members)
    if k <= 1:
        return PathStats(0.0, 0)
    steps = _in_edge_steps(view.inn)
    total = 0
    diameter = 0
    for first in range(0, k, _BLOCK):
        sources = members[first:first + _BLOCK]
        slot = np.arange(len(sources))
        frontier = np.zeros((view.n_nodes, -(-len(sources) // 64)), dtype=np.uint64)
        frontier[sources, slot >> 6] = np.left_shift(np.uint64(1), (slot & 63).astype(np.uint64))
        seen = frontier.copy()
        unreached = len(sources) * (k - 1)
        level = 0
        while unreached and frontier.any():
            level += 1
            reached = np.zeros_like(frontier)
            for rows, starts, entries in steps:
                reached[rows] |= np.bitwise_or.reduceat(frontier[entries], starts, axis=0)
            reached &= ~seen
            seen |= reached
            frontier = reached
            found = int(_POPCOUNT[frontier[members].view(np.uint8)].sum())
            if found:
                total += level * found
                diameter = max(diameter, level)
                unreached -= found
        if unreached:
            raise _unreached(view, members, sources, seen)
    return PathStats(total / (k * (k - 1)), diameter)


def _in_edge_steps(inn: CSR) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Cut the entries of ``inn`` into runs of at most ``kernels._STEP``, so a level gathers little.

    Each step is ``(rows, starts, entries)``: the non-empty rows the run
    touches, where each row's part begins within the run, and the run of
    ``inn.indices`` itself.  A row longer than a run is split across
    steps, whose results are OR-ed into the same row.
    """
    steps = []
    for row, pos in _entries(inn.indptr, np.arange(len(inn.indptr) - 1)):
        starts = np.flatnonzero(np.diff(row, prepend=-1))
        steps.append((row[starts], starts, inn.indices[pos[0]:pos[-1] + 1]))
    return steps


def _unreached(view: LayerView, members: np.ndarray, sources: np.ndarray, seen: np.ndarray):
    """The error for the lowest of ``sources`` that misses a member, naming the lowest member it misses."""
    bits = np.unpackbits(seen[members].astype("<u8").view(np.uint8), axis=1, bitorder="little")
    j = int(np.argmin(bits[:, :len(sources)].all(axis=0)))
    t = int(members[np.argmin(bits[:, j])])
    return NotStronglyConnected(
        f"no directed path from node {int(sources[j])} to node {t} in layer '{view.name}'"
    )


def _members(view: LayerView, nodes: Iterable[int]) -> list[int]:
    """The distinct ``nodes`` as a sorted list; an id outside the layer raises UnknownNode."""
    members = sorted(set(nodes))
    if members:
        view._check(members[0])
        view._check(members[-1])
    return members


def degree_assortativity(view: LayerView) -> float:
    """Pearson degree assortativity of the undirected projection.

    Degrees are undirected-projection degrees; every undirected edge
    contributes its endpoint degree pair in both orders, summed along
    the sorted ``und`` rows.  Returns NaN when there is no edge or the
    endpoint degrees have zero variance (the degenerate-variance flag).
    """
    deg = view.und.degrees()
    a, b = np.divmod(_linked_pairs(view.und, view.n_nodes), view.n_nodes)
    x, y = deg[a], deg[b]
    return _pearson(np.concatenate((x, y)), np.concatenate((y, x)))


def directed_degree_assortativity(view: LayerView, source_mode: str, target_mode: str) -> float:
    """Pearson correlation of (source, target) degrees over directed edges.

    ``source_mode`` / ``target_mode`` are "out" or "in"; the four
    combinations cover the usual directed assortativity variants.
    Edges are summed in (source, target) order, the order of the sorted
    ``out`` rows.  Returns NaN for empty or degenerate layers.
    """
    if source_mode not in ("out", "in") or target_mode not in ("out", "in"):
        raise InvalidParameter("degree mode must be 'out' or 'in'")
    out = view.out
    degree = {"out": out.degrees(), "in": view.inn.degrees()}
    return _pearson(degree[source_mode][out.row_ids()], degree[target_mode][out.indices])


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    """``np.corrcoef`` of two degree sequences; NaN when empty or either has zero variance."""
    if not len(x) or np.ptp(x) == 0 or np.ptp(y) == 0:
        return math.nan
    return float(np.corrcoef(x.astype(float), y.astype(float))[0, 1])


def structural_equivalence(
    view: LayerView,
    tolerance: float = 0.0,
    out_degree: int | None = None,
    in_degree: int | None = None,
) -> list[EquivalenceClass]:
    """Group nodes whose (reciprocity, cycle closure, triplet closure) triples agree.

    Classes satisfy the pairwise condition |delta| <= tolerance on all
    three metrics.  Grouping is a deterministic greedy partition seeded
    by ascending node id (for tolerance 0 this is exactly the partition
    by equal triples).  One vectorised comparison with each seed picks
    the only nodes that can join its class, so the Python work grows
    with those candidates, not with every remaining node.  The optional
    degree filter restricts grouping to nodes with the given out- and/or
    in-degree.
    """
    if not tolerance >= 0:  # also rejects NaN
        raise InvalidParameter(f"tolerance must be >= 0, got {tolerance!r}")
    metrics = layer_metrics(view)
    keep = np.ones(len(metrics.reciprocity), dtype=bool)
    if out_degree is not None:
        keep &= metrics.out_degree == out_degree
    if in_degree is not None:
        keep &= metrics.in_degree == in_degree
    nodes = np.flatnonzero(keep).tolist()
    packed = np.column_stack((metrics.reciprocity, metrics.cycle_closure, metrics.triplet_closure))[keep]
    triples = packed.tolist()
    alive = np.ones(len(nodes), dtype=bool)
    classes: list[EquivalenceClass] = []
    for seed in range(len(nodes)):
        if not alive[seed]:
            continue
        # Only nodes within the tolerance of the seed can join its class;
        # every alive node comes after the seed, so only the rows from the
        # seed on are compared, and the seed is near[0].
        rest = packed[seed:]
        near = seed + np.flatnonzero(alive[seed:] & (np.abs(rest - rest[0]) <= tolerance).all(axis=1))
        members = [seed]
        lo = hi = triples[seed]
        for cand in near[1:].tolist():
            t = triples[cand]
            # Rounded subtraction is monotone and x - y == -(y - x) exactly,
            # so |t - m| <= tolerance holds for every member m exactly when
            # it holds for the per-metric minimum and maximum of the members.
            if all(x - low <= tolerance and high - x <= tolerance for x, low, high in zip(t, lo, hi)):
                members.append(cand)
                lo, hi = tuple(map(min, lo, t)), tuple(map(max, hi, t))
        alive[members] = False
        recip, cycle, triplet = triples[seed]
        classes.append(
            EquivalenceClass(
                members=tuple(nodes[m] for m in members),
                reciprocity=recip,
                cycle_closure=cycle,
                triplet_closure=triplet,
                tolerance=tolerance,
            )
        )
    return classes


def wedge_closure(
    g: MultiplexGraph, wedge_layer: str, closing_layers: Sequence[str]
) -> WedgeReport:
    """Count wedges of one layer and how often other layers close them.

    A wedge is a center with an unordered pair of distinct neighbors in
    the undirected projection of ``wedge_layer``, counted once per
    (center, pair).  A closing layer closes a wedge when it holds a
    directed edge between the endpoints in either direction.  The
    ``"any"`` entry counts wedges closed by at least one closing layer.
    A closing layer listed twice raises :class:`InvalidParameter`.
    """
    wedge = g.view(wedge_layer).und
    names = list(closing_layers)
    views = [g.view(name) for name in names]  # an unknown layer is named before a repeated one
    for name in names:
        if names.count(name) > 1:
            raise InvalidParameter(f"closing layer '{name}' is listed more than once")
    n = g.n_nodes
    degree = wedge.degrees()
    total = int((degree * (degree - 1) // 2).sum())

    # A linked pair {a, b} closes one wedge per common neighbour of a and
    # b in the wedge layer, so count each pair of the union once.
    pairs = {name: _linked_pairs(view.und, n) for name, view in zip(names, views)}
    union = np.unique(np.concatenate([np.zeros(0, dtype=np.int64), *pairs.values()]))
    a, b = np.divmod(union, n)
    fewer = degree[a] <= degree[b]  # walk the shorter row; the count is symmetric
    common = intersection_counts(wedge, wedge, np.where(fewer, a, b), np.where(fewer, b, a))
    closed = {name: int(common[np.searchsorted(union, keys)].sum()) for name, keys in pairs.items()}
    closed["any"] = int(common.sum())
    pct = {
        name: (100.0 * c / total) if total else 0.0 for name, c in closed.items()
    }
    return WedgeReport(wedge_layer=wedge_layer, total=total, closed=closed, pct=pct)


def _linked_pairs(und: CSR, n: int) -> np.ndarray:
    """Sorted keys ``a * n + b``, a < b, of node pairs tied in either direction."""
    a = und.row_ids()
    upper = und.indices > a
    return a[upper] * n + und.indices[upper]


def layer_summary(view: LayerView) -> LayerSummary:
    """Assemble the structural summary row of one layer."""
    giant = largest_scc(view)
    scc_edges = induced_edge_count(view, giant)
    stats = path_stats(view, giant)
    n = view.n_nodes
    return LayerSummary(
        layer=view.name,
        n_nodes=n,
        n_edges=view.n_edges,
        avg_total_degree=(view.n_edges / n) if n else 0.0,
        assortativity=degree_assortativity(view),
        scc_nodes=len(giant),
        scc_edges=scc_edges,
        avg_path=stats.avg_path,
        diameter=stats.diameter,
    )
