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
from .graph import LayerView, MultiplexGraph, _merge
from .kernels import CSR, _keys, _spans, intersection_counts, popcount
from .metrics import layer_metrics

_BLOCK = 1024  # BFS sources per block: 16 uint64 words per node


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

    Kosaraju's two passes (Sharir 1981): a depth-first search along
    ``out`` lists the nodes by finish time, then, latest first, a search
    along ``inn`` from each node not yet placed collects its component.
    Both searches are iterative, so a long path needs no recursion.
    Output is ordered by smallest member id, so the result is
    deterministic and relabel-stable for a fixed id order.
    """
    n = view.n_nodes
    successors = [iter(row) for row in view.out.rows()]  # a node is entered once, so one iterator each
    seen = [False] * n
    finished: list[int] = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            for w in successors[stack[-1]]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
                    break
            else:
                finished.append(stack.pop())
    del successors  # only one pass's rows are held at a time

    predecessors = view.inn.rows()
    placed = [False] * n
    components: list[frozenset[int]] = []
    for root in reversed(finished):
        if placed[root]:
            continue
        placed[root] = True
        component = [root]
        for v in component:  # grows as it is walked: a breadth-first search
            for w in predecessors[v]:
                if not placed[w]:
                    placed[w] = True
                    component.append(w)
        components.append(frozenset(component))
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
            found = int(popcount(frontier[members]).sum())
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
    for lo, t, offset in _spans(inn.indptr):
        first = inn.indptr[lo] + offset[0]
        starts = np.flatnonzero(np.diff(t, prepend=-1))
        steps.append((lo + t[starts], starts, inn.indices[first:first + len(t)]))
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
    contributes its endpoint degree pair in both orders, summed in the
    sorted order of the linked pairs.  Returns NaN when there is no edge or
    the endpoint degrees have zero variance (the degenerate-variance flag).
    """
    a, b = np.divmod(_linked_pairs(view), view.n_nodes)
    deg = np.bincount(np.concatenate((a, b)), minlength=view.n_nodes)
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
    three metrics.  Grouping is a deterministic greedy partition: the
    smallest ungrouped node seeds a class, and each later node, in
    ascending id, joins it when it is within the tolerance of every
    member so far.  Nodes with equal triples are grouped first, and the
    greedy then runs over the distinct triples only, each seed comparing
    the triples in its window of a sort (:func:`_equivalence_groups`), so
    one path serves every tolerance.  The optional degree filter
    restricts grouping to nodes with the given out- and/or in-degree; a
    negative degree raises :class:`InvalidParameter`.
    """
    if not tolerance >= 0:  # also rejects NaN
        raise InvalidParameter(f"tolerance must be >= 0, got {tolerance!r}")
    for name, degree in (("out_degree", out_degree), ("in_degree", in_degree)):
        if degree is not None and degree < 0:
            raise InvalidParameter(f"{name} must be >= 0, got {degree!r}")
    metrics = layer_metrics(view)
    keep = np.ones(len(metrics.reciprocity), dtype=bool)
    if out_degree is not None:
        keep &= metrics.out_degree == out_degree
    if in_degree is not None:
        keep &= metrics.in_degree == in_degree
    nodes = np.flatnonzero(keep).tolist()
    packed = np.column_stack((metrics.reciprocity, metrics.cycle_closure, metrics.triplet_closure))[keep]
    triples = packed.tolist()
    return [
        EquivalenceClass(
            members=tuple(nodes[m] for m in members),
            reciprocity=triples[members[0]][0],
            cycle_closure=triples[members[0]][1],
            triplet_closure=triples[members[0]][2],
            tolerance=tolerance,
        )
        for members in _equivalence_groups(packed, tolerance)
    ]


def _equivalence_groups(packed: np.ndarray, tolerance: float) -> list[list[int]]:
    """Greedy classes of the rows of ``packed``, seeded in ascending order (see :func:`structural_equivalence`).

    Stage 1 groups equal rows (``np.unique``), each group ascending and
    the groups ordered by their smallest row.  Stage 2 runs the greedy
    over these groups, one distinct triple each, in that order.  A
    seed's candidates are the live triples in its sweep window
    (:func:`_sweep_windows`) that pass the exact test against it; they
    are walked in order under the per-metric min/max check, and an
    accepted triple brings its whole group.

    That is the greedy over rows.  Rounded subtraction is monotone and
    x - y == -(y - x) exactly, so |t - m| <= tolerance holds for every
    member m exactly when it holds for the per-metric minimum and
    maximum of the members.  A row equal to an earlier one gets the
    earlier one's verdict: if that was accepted, the row lies in
    [lo, hi] and passes too; if it was rejected, lo and hi only widen,
    so it fails again.  At tolerance 0 no two distinct triples pass the
    exact test, so stage 2 merges nothing.
    """
    if not len(packed):
        return []
    _, first, inverse = np.unique(packed, axis=0, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    rank = np.empty(len(first), dtype=np.intp)
    rank[by_first] = np.arange(len(first))
    label = rank[inverse.reshape(-1)]
    order = np.argsort(label, kind="stable").tolist()  # stable: each group stays ascending
    bounds = np.cumsum(np.bincount(label)).tolist()
    equal = [order[lo:hi] for lo, hi in zip([0, *bounds], bounds)]

    distinct = packed[first[by_first]]
    rows = distinct.tolist()
    swept, starts, stops = _sweep_windows(distinct, tolerance)
    alive = np.ones(len(rows), dtype=bool)
    groups = []
    for seed, (start, stop) in enumerate(zip(starts.tolist(), stops.tolist())):
        if not alive[seed]:
            continue
        alive[seed] = False
        joined = [seed]
        if stop - start > 1:  # a window of one row holds only the seed
            near = swept[start:stop]
            near = np.sort(near[alive[near] & (np.abs(distinct[near] - distinct[seed]) <= tolerance).all(axis=1)])
            lo = hi = rows[seed]
            for cand in near.tolist():
                t = rows[cand]
                if all(x - low <= tolerance and high - x <= tolerance for x, low, high in zip(t, lo, hi)):
                    joined.append(cand)
                    lo, hi = tuple(map(min, lo, t)), tuple(map(max, hi, t))
            alive[joined] = False
        groups.append(sorted(m for j in joined for m in equal[j]))
    return groups


def _sweep_windows(rows: np.ndarray, tolerance: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A sort of ``rows`` by one key, and each row's window in it (a sort-and-sweep).

    Returns ``(swept, starts, stops)``: ``swept`` orders the rows by the
    key, and row i's window ``swept[starts[i]:stops[i]]`` holds every row
    that the exact test ``(np.abs(rows - rows[i]) <= tolerance).all(axis=1)``
    accepts.  The key is whichever of the three columns and their sum
    r + c + t gives the fewest rows in all windows together, so no one
    input defeats it: a layer with no mutual ties puts every row in
    one reciprocity window, and one with r + c + t constant does the
    same to the sum.  On a sparse layer each column takes few values,
    ratios of small counts, while their sums seldom repeat, so at small
    tolerances the sum is the key chosen: on the ``all`` layer of the
    pairwise-nodes benchmark input at tolerance 0, its windows hold
    1,239 rows of 1,183 distinct triples, and the best column's 27,671.
    Sweeping a key is one sort and two ``searchsorted`` calls (Cohen,
    Lin, Manocha & Ponamgi 1995, I-COLLIDE).

    Why a window holds every accepted row.  Let u = eps / 2 and M the
    largest |value| in ``rows``, all finite.  A rounded sum or
    difference is z(1 + d) with |d| <= u (one below the normal range is
    exact), so a row y that the test accepts against x has
    |y_j - x_j| <= tolerance / (1 - u) <= tolerance(1 + eps) in each
    column.  The sum key fl(fl(r + c) + t) lies within (2u + u^2)·3M of
    r + c + t, so the keys of x and y differ by at most
    width·tolerance(1 + eps) + 7·eps·M, width being 1 for a column and
    3 for the sum.  The pad width·tolerance(1 + 4·eps) + 16·eps·M, after
    its own roundings, is at least width·tolerance(1 + 2·eps) + 15·eps·M,
    which is more.  (Where the last term underflows, its rounding
    matters only for M below 2^-1026, and there every sum is exact.)
    So key(y) lies in [key(x) - pad, key(x) + pad], and, rounding being
    monotone, also between the rounded bounds given to ``searchsorted``.
    """
    eps = np.finfo(float).eps
    slack = 16 * eps * float(np.abs(rows).max())
    best = None
    for key, width in ((rows[:, 0], 1), (rows[:, 1], 1), (rows[:, 2], 1), (rows[:, 0] + rows[:, 1] + rows[:, 2], 3)):
        pad = width * tolerance * (1 + 4 * eps) + slack
        swept = np.argsort(key)
        ordered = key[swept]
        starts = np.searchsorted(ordered, key - pad, "left")
        stops = np.searchsorted(ordered, key + pad, "right")
        work = int((stops - starts).sum())
        if best is None or work < best[0]:
            best = work, swept, starts, stops
    return best[1:]


def wedge_closure(
    g: MultiplexGraph, wedge_layer: str, closing_layers: Sequence[str]
) -> WedgeReport:
    """Count wedges of one layer and how often other layers close them.

    A wedge is a center with an unordered pair of distinct neighbors in
    the undirected projection of ``wedge_layer``, counted once per
    (center, pair).  A closing layer closes a wedge when it holds a
    directed edge between the endpoints in either direction.  The
    ``"any"`` entry counts wedges closed by at least one closing layer.
    A closing layer listed twice, or named ``"any"``, raises
    :class:`InvalidParameter`.
    """
    wedge_view = g.view(wedge_layer)
    names = list(closing_layers)
    views = [g.view(name) for name in names]  # an unknown layer is named before a repeated one
    for name in names:
        if names.count(name) > 1:
            raise InvalidParameter(f"closing layer '{name}' is listed more than once")
    if "any" in names:
        raise InvalidParameter(
            "closing layer 'any' clashes with the 'any' entry, which counts wedges closed by at least one closing layer"
        )
    n = g.n_nodes
    wedge = _undirected(wedge_view)
    degree = wedge.degrees()
    total = int((degree * (degree - 1) // 2).sum())

    # A linked pair {a, b} closes one wedge per common neighbour of a and
    # b in the wedge layer, so count each pair of the union once.  Each
    # layer's pairs are merged in and dropped, and found again after the
    # count: the union and one layer's pairs are held, not every layer's.
    union = np.zeros(0, dtype=np.int64)
    for view in views:
        union = _merge(union, _linked_pairs(view))
    a, b = np.divmod(union, n)
    swap = degree[a] > degree[b]  # walk the shorter row; the count is symmetric
    a[swap], b[swap] = b[swap], a[swap]
    del swap
    common = intersection_counts(wedge, wedge, a, b)
    del a, b
    closed = {
        name: int(common[np.searchsorted(union, _linked_pairs(view))].sum())
        for name, view in zip(names, views)
    }
    closed["any"] = int(common.sum())
    pct = {
        name: (100.0 * c / total) if total else 0.0 for name, c in closed.items()
    }
    return WedgeReport(wedge_layer=wedge_layer, total=total, closed=closed, pct=pct)


def _undirected(view: LayerView) -> CSR:
    """The undirected projection (out ∪ in) of ``view``: the merged key runs of ``out`` and ``inn``."""
    n = view.n_nodes
    return CSR.from_keys(_merge(_keys(view.out, n)[:-1], _keys(view.inn, n)[:-1]), n)


def _linked_pairs(view: LayerView) -> np.ndarray:
    """Sorted keys ``a * n + b``, a < b, of node pairs tied in either direction.

    They are the entries above the diagonal of ``out`` and of ``inn``:
    two sorted runs, merged.
    """
    n = view.n_nodes
    upper = [_keys(csr, n)[:-1][csr.row_ids() < csr.indices] for csr in (view.out, view.inn)]
    return _merge(*upper)


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
