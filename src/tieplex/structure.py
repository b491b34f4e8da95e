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
from .kernels import intersection_counts
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
        frames: list[list] = [[root, 0, sorted(view.out_set(root))]]
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
                    frames.append([w, 0, sorted(view.out_set(w))])
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
    member = frozenset(nodes)
    return sum(len(view.out_set(i) & member) for i in member)


def largest_scc(view: LayerView) -> frozenset[int]:
    """Largest strongly connected component; ties go to the smallest node id."""
    components = strongly_connected_components(view)
    return max(components, key=lambda c: (len(c), -min(c)))


def path_stats(view: LayerView, component: Iterable[int]) -> PathStats:
    """Directed shortest-path average and diameter over ordered pairs in ``component``.

    A singleton component has no pairs and reports (0.0, 0).  Raises
    NotStronglyConnected if any ordered pair has no directed path.
    """
    members = sorted(component)
    for m in members:
        view.out_set(m)  # validates the id
    k = len(members)
    if k <= 1:
        return PathStats(0.0, 0)
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
                for w in view.out_set(u):
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


def degree_assortativity(view: LayerView) -> float:
    """Pearson degree assortativity of the undirected projection.

    Degrees are undirected-projection degrees; every undirected edge
    contributes its endpoint degree pair in both orders.  Returns NaN
    when there is no edge or the endpoint degrees have zero variance
    (the degenerate-variance flag).
    """
    n = view.n_nodes
    und = [view.undirected_neighbors(i) for i in range(n)]
    deg = [len(s) for s in und]
    xs: list[float] = []
    ys: list[float] = []
    for i in range(n):
        for j in und[i]:
            if j > i:
                xs.append(deg[i])
                ys.append(deg[j])
    if not xs:
        return math.nan
    x = np.array(xs + ys, dtype=float)
    y = np.array(ys + xs, dtype=float)
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
    n = view.n_nodes
    out_deg = [view.out_degree(i) for i in range(n)]
    in_deg = [view.in_degree(i) for i in range(n)]
    src_deg = out_deg if source_mode == "out" else in_deg
    dst_deg = out_deg if target_mode == "out" else in_deg
    xs: list[float] = []
    ys: list[float] = []
    for i, j in view.edges():
        xs.append(src_deg[i])
        ys.append(dst_deg[j])
    if not xs:
        return math.nan
    x = np.array(xs, dtype=float)
    y = np.array(ys, dtype=float)
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
    by equal triples).  The optional degree filter restricts grouping
    to nodes with the given out- and/or in-degree.
    """
    if not tolerance >= 0:  # also rejects NaN
        raise InvalidParameter(f"tolerance must be >= 0, got {tolerance!r}")
    actors = layer_metrics(view).actors
    remaining = [
        a
        for a in actors
        if (out_degree is None or a.out_degree == out_degree)
        and (in_degree is None or a.in_degree == in_degree)
    ]
    classes: list[EquivalenceClass] = []
    while remaining:
        seed = remaining.pop(0)
        members = [seed]
        rest = []
        for cand in remaining:
            close = all(
                abs(cand.reciprocity - m.reciprocity) <= tolerance
                and abs(cand.cycle_closure - m.cycle_closure) <= tolerance
                and abs(cand.triplet_closure - m.triplet_closure) <= tolerance
                for m in members
            )
            if close:
                members.append(cand)
            else:
                rest.append(cand)
        remaining = rest
        classes.append(
            EquivalenceClass(
                members=tuple(m.node for m in members),
                reciprocity=seed.reciprocity,
                cycle_closure=seed.cycle_closure,
                triplet_closure=seed.triplet_closure,
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
    wedge = g.view(wedge_layer).csr("undirected")
    closing = list(closing_layers)
    for name in closing:
        if closing.count(name) > 1:
            raise InvalidParameter(f"closing layer '{name}' is listed more than once")
    n = g.n_nodes
    degree = wedge.degrees()
    total = int((degree * (degree - 1) // 2).sum())

    # A linked pair {a, b} closes one wedge per common neighbour of a and
    # b in the wedge layer, so count each pair of the union once.
    pairs = {name: _linked_pairs(g.view(name), n) for name in closing}
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


def _linked_pairs(view: LayerView, n: int) -> np.ndarray:
    """Sorted keys ``a * n + b``, a < b, of node pairs tied in either direction."""
    und = view.csr("undirected")
    a = und.row_ids()
    upper = und.indices > a
    return a[upper] * n + und.indices[upper]


def layer_summary(view: LayerView) -> LayerSummary:
    """Assemble the structural summary row of one layer."""
    giant = largest_scc(view)
    scc_edges = induced_edge_count(view, giant)
    if len(giant) >= 2:
        stats = path_stats(view, giant)
    else:
        stats = PathStats(0.0, 0)
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
