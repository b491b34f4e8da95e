"""Single-layer actor metrics on a shared set-similarity footing.

Each metric compares 1-hop neighbor sets of an actor with the Jaccard
index.  Reciprocity compares an actor's successors with its
predecessors; the two closure scores average neighbor-set similarity
over predecessors (cycle closure) or successors (triplet closure).

Two empty sets have similarity 0, not the 1 of the plain set
definition: an actor with no ties closes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .graph import LayerView
from .kernels import CSR, intersection_counts, jaccard_terms, row_intersections, row_means


def jaccard(a: frozenset | set, b: frozenset | set) -> float:
    """Set similarity: intersection size over union size, in [0, 1]; 0 for two empty sets."""
    if not a and not b:
        return 0.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


@dataclass(frozen=True, eq=False)
class LayerMetrics:
    """All actor metrics of a layer, one numpy column per field, plus whole-layer averages.

    Entry ``i`` of every column belongs to node ``i``; the columns are
    read-only.  Averages divide by the full node count, so isolates
    contribute 0 and averages stay comparable across layers of one
    multiplex.
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
