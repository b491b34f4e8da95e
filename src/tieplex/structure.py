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
from .kernels import CSR, intersection_counts
from .metrics import layer_metrics


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

    A singleton component has no pairs and reports (0.0, 0).  Raises
    NotStronglyConnected if any ordered pair has no directed path.
    """
    members = _members(view, component)
    k = len(members)
    if k <= 1:
        return PathStats(0.0, 0)
    successors = view.out.rows()
    total = 0
    diameter = 0
    for src in members:
        dist = {src: 0}
        frontier = [src]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for w in successors[u]:
                    if w not in dist:
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
        for t in members:
            if t == src:
                continue
            if t not in dist:
                raise NotStronglyConnected(
                    f"no directed path from node {src} to node {t} in layer '{view.name}'"
                )
            total += dist[t]
            if dist[t] > diameter:
                diameter = dist[t]
    return PathStats(total / (k * (k - 1)), diameter)


def _members(view: LayerView, nodes: Iterable[int]) -> list[int]:
    """``nodes`` as a sorted list; an id outside the layer raises UnknownNode."""
    members = sorted(nodes)
    if members:
        view._check(members[0])
        view._check(members[-1])
    return members


def degree_assortativity(view: LayerView) -> float:
    """Pearson degree assortativity of the undirected projection.

    Degrees are undirected-projection degrees; every undirected edge
    contributes its endpoint degree pair in both orders.  Returns NaN
    when there is no edge or the endpoint degrees have zero variance
    (the degenerate-variance flag).
    """
    deg = view.und.degrees()
    # each undirected edge once, in the row order of the set-based build:
    # np.corrcoef rounds differently under another order
    a, b = np.divmod(_linked_pairs(view._und_in_set_order(), view.n_nodes), view.n_nodes)
    xs, ys = deg[a], deg[b]
    if not len(xs):
        return math.nan
    x = np.concatenate((xs, ys)).astype(float)
    y = np.concatenate((ys, xs)).astype(float)
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        return math.nan
    return float(np.corrcoef(x, y)[0, 1])


def directed_degree_assortativity(view: LayerView, source_mode: str, target_mode: str) -> float:
    """Pearson correlation of (source, target) degrees over directed edges.

    ``source_mode`` / ``target_mode`` are "out" or "in"; the four
    combinations cover the usual directed assortativity variants.
    Returns NaN for empty or degenerate layers.
    """
    if source_mode not in ("out", "in") or target_mode not in ("out", "in"):
        raise InvalidParameter("degree mode must be 'out' or 'in'")
    out = view.out
    degree = {"out": out.degrees(), "in": view.inn.degrees()}
    sources = out.row_ids()
    order = np.lexsort((out.indices, sources))  # edges sorted by (source, target)
    if not len(order):
        return math.nan
    x = degree[source_mode][sources[order]].astype(float)
    y = degree[target_mode][out.indices[order]].astype(float)
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        return math.nan
    return float(np.corrcoef(x, y)[0, 1])


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
    actors = [
        a
        for a in layer_metrics(view).actors
        if (out_degree is None or a.out_degree == out_degree)
        and (in_degree is None or a.in_degree == in_degree)
    ]
    triples = [(a.reciprocity, a.cycle_closure, a.triplet_closure) for a in actors]
    packed = np.array(triples, dtype=np.float64).reshape(-1, 3)
    alive = np.ones(len(actors), dtype=bool)
    classes: list[EquivalenceClass] = []
    for seed in range(len(actors)):
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
        classes.append(
            EquivalenceClass(
                members=tuple(actors[m].node for m in members),
                reciprocity=actors[seed].reciprocity,
                cycle_closure=actors[seed].cycle_closure,
                triplet_closure=actors[seed].triplet_closure,
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
    """Keys ``a * n + b``, a < b, of node pairs tied in either direction, in ``und``'s row order."""
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
