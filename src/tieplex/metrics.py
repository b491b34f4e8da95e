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

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from .graph import LayerView
from .kernels import CSR, intersection_counts, jaccard_terms, row_intersections, row_means


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


@dataclass(frozen=True, eq=False)
class LayerMetrics:
    """All actor metrics of a layer, one numpy column per field, plus whole-layer averages.

    Entry ``i`` of every column belongs to node ``i``.  Averages divide
    by the full node count, so isolates contribute 0 and averages stay
    comparable across layers of one multiplex.  The per-actor records
    are built on first access to :attr:`actors`.
    """

    layer: str
    avg_reciprocity: float
    avg_cycle_closure: float
    avg_triplet_closure: float
    out_degree: np.ndarray = field(repr=False)
    in_degree: np.ndarray = field(repr=False)
    reciprocated: np.ndarray = field(repr=False)
    reciprocity: np.ndarray = field(repr=False)
    three_cycles: np.ndarray = field(repr=False)
    cycle_closure: np.ndarray = field(repr=False)
    triplets: np.ndarray = field(repr=False)
    triplet_closure: np.ndarray = field(repr=False)

    @cached_property
    def actors(self) -> tuple[ActorMetrics, ...]:
        """One :class:`ActorMetrics` per node, in node order."""
        columns = (
            self.out_degree, self.in_degree, self.reciprocated, self.reciprocity,
            self.three_cycles, self.cycle_closure, self.triplets, self.triplet_closure,
        )
        return tuple(ActorMetrics(i, *row) for i, row in enumerate(zip(*(c.tolist() for c in columns))))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LayerMetrics):
            return NotImplemented
        compared = ("layer", "avg_reciprocity", "avg_cycle_closure", "avg_triplet_closure", "actors")
        return all(getattr(self, name) == getattr(other, name) for name in compared)

    __hash__ = None


def layer_metrics(view: LayerView) -> LayerMetrics:
    """Actor metrics for every node of the layer, with layer averages.

    Reciprocity is jaccard(out(i), in(i)); cycle closure averages
    jaccard(out(i), in(h)) over the predecessors h of i, triplet closure
    jaccard(out(i), out(j)) over the successors j.  Each metric is one
    kernel call over the layer's CSRs.
    """
    out, inn = view.out, view.inn
    n = view.n_nodes
    reciprocated, recip = _node_terms(out, inn)
    cycles, cycle = _closure(out, inn, inn)
    triplets, triplet = _closure(out, out, out)
    columns = dict(
        out_degree=out.degrees(),
        in_degree=inn.degrees(),
        reciprocated=reciprocated,
        reciprocity=recip,
        three_cycles=cycles,
        cycle_closure=cycle,
        triplets=triplets,
        triplet_closure=triplet,
    )
    for column in columns.values():
        # read-only, so the columns stay in step with the cached records
        column.setflags(write=False)
    return LayerMetrics(
        layer=view.name,
        avg_reciprocity=_mean(recip, n),
        avg_cycle_closure=_mean(cycle, n),
        avg_triplet_closure=_mean(triplet, n),
        **columns,
    )


def _node_terms(P: CSR, Q: CSR) -> tuple[np.ndarray, np.ndarray]:
    """Per node i: |P[i] ∩ Q[i]| and jaccard(P[i], Q[i])."""
    inter = row_intersections(P, Q)
    return inter, jaccard_terms(inter, P.degrees(), Q.degrees())


def _closure(anchor: CSR, walk: CSR, compared: CSR) -> tuple[np.ndarray, np.ndarray]:
    """Closure counts and scores of every node i, walking h over walk[i].

    Returns the sum of |anchor[i] ∩ compared[h]| and the mean of
    jaccard(anchor[i], compared[h]) per node; the mean is ``math.fsum``
    of the terms over their number, 0 for none, so relabeling a graph
    never perturbs it.
    """
    nodes = walk.row_ids()
    inter = intersection_counts(anchor, compared, nodes, walk.indices)
    terms = jaccard_terms(inter, anchor.degrees()[nodes], compared.degrees()[walk.indices])
    sums = np.diff(np.concatenate(([0], np.cumsum(inter)))[walk.indptr])
    return sums, row_means(terms, walk.indptr)


def _mean(values: Sequence[float] | np.ndarray, count: int) -> float:
    """``math.fsum(values) / count`` bit for bit over ``count`` values, 0 for none."""
    return float(row_means(np.asarray(values, dtype=np.float64), np.array([0, count]))[0])
