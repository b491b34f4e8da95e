"""Single-layer actor metrics on a shared set-similarity footing.

Each metric compares 1-hop neighbor sets of an actor with the Jaccard
index.  Reciprocity compares an actor's successors with its
predecessors; the two closure scores average neighbor-set similarity
over predecessors (cycle closure) or successors (triplet closure).

All network metrics use the metric convention for the degenerate
both-empty case (similarity 0: an actor with no ties closes nothing);
the pure set-theoretic convention (similarity 1) stays available as an
explicit option of :func:`jaccard`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

import numpy as np

from .graph import LayerView
from .kernels import CSR, intersection_counts, jaccard_terms, row_intersections


class JaccardConvention(Enum):
    """Value of J(A, B) when both sets are empty."""

    PURE = "pure"      # 1.0, the plain set definition
    METRIC = "metric"  # 0.0, used by all network metrics here


def jaccard(
    a: frozenset | set,
    b: frozenset | set,
    convention: JaccardConvention = JaccardConvention.METRIC,
) -> float:
    """Set similarity: intersection size over union size, in [0, 1].

    The both-empty case is governed by ``convention``; every other case
    is the plain ratio.
    """
    if not a and not b:
        return 1.0 if convention is JaccardConvention.PURE else 0.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


def _mean_jaccard(
    anchor: frozenset[int],
    over: frozenset[int],
    neighbor_set: Callable[[int], frozenset[int]],
) -> float:
    """Average of jaccard(anchor, neighbor_set(h)) for h in ``over``.

    Empty ``over`` yields 0 (degenerate denominator).  fsum keeps the
    result independent of the iteration order, so relabeling a graph
    never perturbs metric values.
    """
    if not over:
        return 0.0
    terms = [jaccard(anchor, neighbor_set(h)) for h in sorted(over)]
    return math.fsum(terms) / len(over)


@dataclass(frozen=True)
class ActorMetrics:
    """Per-actor record for one layer.

    Raw counts sit next to their normalized versions: ``reciprocity``
    is the Jaccard similarity of successor and predecessor sets,
    ``cycle_closure`` and ``triplet_closure`` are the degree-normalized
    Jaccard sums behind three-cycle and transitive-triplet embedding.
    """

    node: int
    out_degree: int
    in_degree: int
    reciprocated: int
    reciprocity: float
    three_cycles: int
    cycle_closure: float
    triplets: int
    triplet_closure: float


@dataclass(frozen=True)
class LayerMetrics:
    """All actor records of a layer plus whole-layer averages.

    Averages divide by the full node count, so isolates contribute 0
    and averages stay comparable across layers of one multiplex.
    """

    layer: str
    actors: tuple[ActorMetrics, ...]
    avg_reciprocity: float
    avg_cycle_closure: float
    avg_triplet_closure: float


def reciprocated_count(view: LayerView, i: int) -> int:
    """Number of mutual ties of actor ``i``."""
    return len(view.out_set(i) & view.in_set(i))


def reciprocity(view: LayerView, i: int) -> float:
    """Jaccard similarity of i's successor and predecessor sets.

    1 means every tie is mutual, 0 means none (or no ties at all).
    """
    return jaccard(view.out_set(i), view.in_set(i))


def three_cycle_count(view: LayerView, i: int) -> int:
    """Directed three-cycles through ``i``: ordered (j, h) with i->j->h->i."""
    preds = view.in_set(i)
    return sum(len(view.out_set(j) & preds) for j in view.out_set(i))


def cycle_closure(view: LayerView, i: int) -> float:
    """Average Jaccard similarity of i's successors with each predecessor's predecessors.

    Every predecessor h contributes jaccard(out(i), in(h)); the sum is
    divided by i's in-degree.  No in-ties means 0.
    """
    return _mean_jaccard(view.out_set(i), view.in_set(i), view.in_set)


def triplet_count(view: LayerView, i: int) -> int:
    """Transitive triplets from ``i``: ordered (j, h) with i->j, j->h, i->h."""
    succ = view.out_set(i)
    return sum(len(view.out_set(j) & succ) for j in succ)


def triplet_closure(view: LayerView, i: int) -> float:
    """Average Jaccard similarity of i's successors with each successor's successors.

    Every successor j contributes jaccard(out(i), out(j)); the sum is
    divided by i's out-degree.  No out-ties means 0.
    """
    return _mean_jaccard(view.out_set(i), view.out_set(i), view.out_set)


def actor_metrics(view: LayerView, i: int) -> ActorMetrics:
    """All single-layer metrics of one actor."""
    return ActorMetrics(
        node=i,
        out_degree=view.out_degree(i),
        in_degree=view.in_degree(i),
        reciprocated=reciprocated_count(view, i),
        reciprocity=reciprocity(view, i),
        three_cycles=three_cycle_count(view, i),
        cycle_closure=cycle_closure(view, i),
        triplets=triplet_count(view, i),
        triplet_closure=triplet_closure(view, i),
    )


def layer_metrics(view: LayerView) -> LayerMetrics:
    """Actor metrics for every node of the layer, with layer averages.

    Bitwise equal to :func:`actor_metrics` per node, which is the
    reference; the counts come from one kernel call per metric.
    """
    out, inn = view.out, view.inn
    n = view.n_nodes
    reciprocated, recip = _node_terms(out, inn)
    cycles, cycle = _closure(out, inn, inn)
    triplets, triplet = _closure(out, out, out)
    columns = zip(
        range(n),
        out.degrees().tolist(),
        inn.degrees().tolist(),
        reciprocated.tolist(),
        recip,
        cycles.tolist(),
        cycle,
        triplets.tolist(),
        triplet,
    )
    actors = tuple(ActorMetrics(*row) for row in columns)
    return LayerMetrics(
        layer=view.name,
        actors=actors,
        avg_reciprocity=_mean(recip, n),
        avg_cycle_closure=_mean(cycle, n),
        avg_triplet_closure=_mean(triplet, n),
    )


def _node_terms(P: CSR, Q: CSR) -> tuple[np.ndarray, list[float]]:
    """Per node i: |P[i] ∩ Q[i]| and jaccard(P[i], Q[i])."""
    inter = row_intersections(P, Q)
    return inter, jaccard_terms(inter, P.degrees(), Q.degrees()).tolist()


def _closure(anchor: CSR, walk: CSR, compared: CSR) -> tuple[np.ndarray, list[float]]:
    """Closure counts and scores of every node i, walking h over walk[i].

    Returns the sum of |anchor[i] ∩ compared[h]| and the mean of
    jaccard(anchor[i], compared[h]) per node; like :func:`_mean_jaccard`,
    the mean is ``fsum`` of the terms over their number, 0 for none.
    """
    nodes = walk.row_ids()
    inter = intersection_counts(anchor, compared, nodes, walk.indices)
    terms = jaccard_terms(inter, anchor.degrees()[nodes], compared.degrees()[walk.indices]).tolist()
    bounds = walk.indptr.tolist()
    means = [math.fsum(terms[s:e]) / (e - s) if e > s else 0.0 for s, e in zip(bounds, bounds[1:])]
    sums = np.diff(np.concatenate(([0], np.cumsum(inter)))[walk.indptr])
    return sums, means


def _mean(values: Iterable[float], count: int) -> float:
    if count == 0:
        return 0.0
    return math.fsum(values) / count
