"""Single-layer actor metrics on a shared set-similarity footing.

Each metric compares 1-hop neighbor sets of an actor with the Jaccard
index.  Reciprocity compares an actor's successors with its
predecessors; the two closure scores average neighbor-set similarity
over predecessors (cycle closure) or successors (triplet closure).

Two empty sets have similarity 0, not the 1 of the plain set
definition: an actor with no ties closes nothing.

Every count is exact.  Reciprocity counts the pairs whose two-bit code
(see :class:`tieplex.graph.PairTable`) holds both directions.  A closure
count on a walk tie is, above the dense limit, the triangles through it
that the kernels' lookup table marks: cycle closure marks the in-entry
(i, h) for each k with i -> k -> h, triplet closure the out-entry
(i, h) for each k with i -> k and h -> k (see :mod:`tieplex.kernels`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .graph import LayerView, PairTable
from .kernels import CSR, CYCLE, TRIPLET, closure_counts, fits_dense, intersection_counts, jaccard_terms, row_means


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
    jaccard(out(i), out(j)) over the successors j.  Reciprocity reads the
    layer's pair codes; both closures come from one dense product or one
    triangle listing.
    """
    out, inn = view.out, view.inn
    n = view.n_nodes
    code = view.pairs.code(view.name)
    reciprocated, recip = _node_terms(view.pairs, code, _reversed(code), out, inn)
    (cycles, cycle), (triplets, triplet) = _closures(view, view, [(CYCLE, out, inn, inn), (TRIPLET, out, out, out)])
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


def _reversed(code: np.ndarray) -> np.ndarray:
    """A two-bit code with its two directions swapped: the code of the transposed layer."""
    return (code & 1) << 1 | code >> 1


def _node_terms(pairs: PairTable, x: np.ndarray, y: np.ndarray, P: CSR, Q: CSR) -> tuple[np.ndarray, np.ndarray]:
    """Per node i: |P[i] ∩ Q[i]| and jaccard(P[i], Q[i]), where the codes ``x`` and ``y`` give P's and Q's ties.

    A pair a < b is in P[a] where bit 0 of ``x`` is set and in P[b] where
    bit 1 is (likewise Q and ``y``), so the count is a bincount of the
    pairs whose codes share a bit.
    """
    n = pairs.n_nodes
    both = x & y
    shared = np.flatnonzero(both)
    a, b = np.divmod(pairs.keys[shared], n)
    bits = both[shared]
    inter = np.bincount(a[bits & 1 == 1], minlength=n) + np.bincount(b[bits >> 1 == 1], minlength=n)
    return inter, jaccard_terms(inter, P.degrees(), Q.degrees())


def _closures(
    first: LayerView, second: LayerView, closures: Sequence[tuple[np.ndarray, CSR, CSR, CSR]]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Closure sums and scores of every node for each ``(table, anchor, walk, compared)``, walking h over walk[i].

    Each closure sums |anchor[i] ∩ compared[h]| per node and averages
    jaccard(anchor[i], compared[h]); the mean is ``math.fsum`` of the
    terms over their number, 0 for none, so relabeling a graph never
    perturbs it.  ``first`` and ``second`` are the layers of the table's
    12-bit code.  At most 512 nodes, each count is read off the dense
    product; above, all of them come from one walk of the triangles of
    the two layers' pairs, through each table.
    """
    n = first.n_nodes
    if fits_dense(n):
        inters = [
            intersection_counts(anchor, compared, walk.row_ids(), walk.indices) for _, anchor, walk, compared in closures
        ]
    else:
        pairs = first.pairs
        kept, steps = pairs.triangles(dict.fromkeys((first.name, second.name)))
        first_code, second_code = pairs.code(first.name), pairs.code(second.name)
        walks = [(table, walk) for table, _, walk, _ in closures]
        inters = closure_counts(steps, pairs.keys, n, first_code, second_code, walks, kept)
    results = []
    for _, anchor, walk, compared in closures:
        inter = inters.pop(0)  # each closure's counts go as soon as its terms are made
        sums = np.diff(np.concatenate(([0], np.cumsum(inter, dtype=np.int64)))[walk.indptr])
        terms = jaccard_terms(inter, np.repeat(anchor.degrees(), walk.degrees()), compared.degrees()[walk.indices])
        del inter
        results.append((sums, row_means(terms, walk.indptr)))
        del terms
    return results


def _mean(values: Sequence[float] | np.ndarray, count: int) -> float:
    """``math.fsum(values) / count`` bit for bit over ``count`` values, 0 for none."""
    return float(row_means(np.asarray(values, dtype=np.float64), np.array([0, count]))[0])
