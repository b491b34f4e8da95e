"""Cross-layer actor metrics and attribute similarity.

The single-layer metrics generalize to an ordered layer pair (alpha,
beta) by taking the anchor neighbor set from alpha and the compared
sets from beta.  The weighting ties and normalizing degree follow the
compared side: cycle closure walks beta's in-ties, triplet closure
walks alpha's out-ties.  This is the unique attribution under which
alpha == beta collapses exactly to the single-layer formulas, and it is
echoed in report metadata (``cycle_closure_reference_layer`` /
``triplet_closure_reference_layer``).

Overlapping indexes compare the same kind of neighbor set across the
two layers: the out variant reads as consistency of tie-making
(activity), the in variant as consistency of being chosen (popularity).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .graph import MultiplexGraph
from .kernels import row_means
from .metrics import _closure, _mean, _mean_jaccard, _node_terms, jaccard


@dataclass(frozen=True)
class CrossLayerMetrics:
    """Per-actor record for one ordered layer pair."""

    node: int
    alpha: str
    beta: str
    reciprocity: float
    cycle_closure: float
    triplet_closure: float
    overlap_out: float
    overlap_in: float


@dataclass(frozen=True)
class CrossLayerAverages:
    alpha: str
    beta: str
    avg_reciprocity: float
    avg_cycle_closure: float
    avg_triplet_closure: float
    avg_overlap_out: float
    avg_overlap_in: float


def cross_reciprocity(g: MultiplexGraph, alpha: str, beta: str, i: int) -> float:
    """Jaccard similarity of i's successors in alpha with i's predecessors in beta."""
    return jaccard(g.view(alpha).out_set(i), g.view(beta).in_set(i))


def cross_cycle_closure(g: MultiplexGraph, alpha: str, beta: str, i: int) -> float:
    """Cycle closure with the anchor out-set from alpha, walked over beta.

    Averages jaccard(out_alpha(i), in_beta(h)) over beta-predecessors h
    of i; in-degree in beta is the denominator, 0 when it vanishes.
    """
    va, vb = g.view(alpha), g.view(beta)
    return _mean_jaccard(va.out_set(i), vb.in_set(i), vb.in_set)


def cross_triplet_closure(g: MultiplexGraph, alpha: str, beta: str, i: int) -> float:
    """Triplet closure with the anchor out-set from alpha, compared in beta.

    Averages jaccard(out_alpha(i), out_beta(j)) over alpha-successors j
    of i; out-degree in alpha is the denominator, 0 when it vanishes.
    """
    va, vb = g.view(alpha), g.view(beta)
    return _mean_jaccard(va.out_set(i), va.out_set(i), vb.out_set)


def overlap_out(g: MultiplexGraph, alpha: str, beta: str, i: int) -> float:
    """Similarity of i's successor sets across the two layers (activity consistency)."""
    return jaccard(g.view(alpha).out_set(i), g.view(beta).out_set(i))


def overlap_in(g: MultiplexGraph, alpha: str, beta: str, i: int) -> float:
    """Similarity of i's predecessor sets across the two layers (popularity consistency)."""
    return jaccard(g.view(alpha).in_set(i), g.view(beta).in_set(i))


def cross_layer_metrics(g: MultiplexGraph, alpha: str, beta: str, i: int) -> CrossLayerMetrics:
    return CrossLayerMetrics(
        node=i,
        alpha=alpha,
        beta=beta,
        reciprocity=cross_reciprocity(g, alpha, beta, i),
        cycle_closure=cross_cycle_closure(g, alpha, beta, i),
        triplet_closure=cross_triplet_closure(g, alpha, beta, i),
        overlap_out=overlap_out(g, alpha, beta, i),
        overlap_in=overlap_in(g, alpha, beta, i),
    )


def cross_layer_table(g: MultiplexGraph, alpha: str, beta: str) -> tuple[CrossLayerMetrics, ...]:
    """Cross-layer records for every node."""
    return tuple(cross_layer_metrics(g, alpha, beta, i) for i in range(g.n_nodes))


def cross_layer_averages(g: MultiplexGraph, alpha: str, beta: str) -> CrossLayerAverages:
    """Whole-graph averages of the five pair metrics (all nodes, isolates count as 0).

    Bitwise equal to averaging :func:`cross_layer_table`, the reference.
    """
    va, vb = g.view(alpha), g.view(beta)
    out_a, in_a, out_b, in_b = va.out, va.inn, vb.out, vb.inn
    n = g.n_nodes
    return CrossLayerAverages(
        alpha=alpha,
        beta=beta,
        avg_reciprocity=_mean(_node_terms(out_a, in_b)[1], n),
        avg_cycle_closure=_mean(_closure(out_a, in_b, in_b)[1], n),
        avg_triplet_closure=_mean(_closure(out_a, out_a, out_b)[1], n),
        avg_overlap_out=_mean(_node_terms(out_a, out_b)[1], n),
        avg_overlap_in=_mean(_node_terms(in_a, in_b)[1], n),
    )


class AttributeTable:
    """Per-node finite sets of attribute tokens.

    Tokens are ``category:value`` strings; a node absent from the table
    has the empty set.  Keyed by node label so a table can be built and
    reused independently of any particular graph.
    """

    def __init__(self, tokens: Mapping[str, Iterable[str]] | None = None):
        self._tokens: dict[str, frozenset[str]] = {}
        self._first_lines: dict[str, int] = {}
        if tokens:
            for label, toks in tokens.items():
                self._tokens[label] = frozenset(toks)

    @classmethod
    def from_rows(cls, nodes: Sequence[str], tokens: Sequence[str], first_line: int) -> "AttributeTable":
        """Table of the rows ``(nodes[k], tokens[k])``, row ``k`` read from line ``first_line + k``."""
        grouped: dict[str, set[str]] = {}
        for node, token in zip(nodes, tokens):
            grouped.setdefault(node, set()).add(token)
        table = cls(grouped)
        # the last pair written for a label wins, so walk the rows backwards
        table._first_lines = dict(zip(reversed(nodes), range(first_line + len(nodes) - 1, first_line - 1, -1)))
        return table

    def first_line(self, label: str) -> int | None:
        """Line of the first row naming ``label`` in a table read by :meth:`from_rows`."""
        return self._first_lines.get(label)

    def tokens(self, label: str) -> frozenset[str]:
        return self._tokens.get(label, frozenset())

    def labels(self) -> tuple[str, ...]:
        return tuple(sorted(self._tokens))

    def __len__(self) -> int:
        return len(self._tokens)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AttributeTable):
            return NotImplemented
        return self._tokens == other._tokens

    def __repr__(self) -> str:
        return f"AttributeTable({len(self._tokens)} nodes)"


@dataclass(frozen=True)
class AttributeMetrics:
    """Attribute-similarity record of one actor on one layer."""

    node: int
    layer: str
    out_similarity: float
    in_similarity: float


def attribute_similarity(table: AttributeTable, a: str, b: str) -> float:
    """Jaccard similarity of two nodes' attribute token sets (both empty -> 0)."""
    return jaccard(table.tokens(a), table.tokens(b))


def _token_classes(labels: Iterable[str], table: AttributeTable) -> tuple[np.ndarray, list[frozenset[str]]]:
    """The class id of every label (equal token sets share one), and each class's token set, first seen first."""
    ids: dict[frozenset[str], int] = {}
    classes = [ids.setdefault(table.tokens(label), len(ids)) for label in labels]
    return np.array(classes, dtype=np.intp), list(ids)


def unnetworked_similarity(labels: Iterable[str], table: AttributeTable) -> float:
    """Average attribute similarity over all unordered node pairs.

    The edge-free baseline the per-tie similarities are compared
    against.  Nodes with equal token sets form a class, so ``jaccard``
    runs once per pair of classes (a class of c nodes also pairs with
    itself, c(c-1)/2 times) and each distinct term is weighted by the
    number of node pairs that have it.  The weighted terms are summed
    exactly as integers over a common power-of-two denominator and
    rounded once by int/int division, which is correctly rounded: the
    result equals ``math.fsum`` over every node pair bit for bit, and
    is exactly invariant under relabeling.
    """
    classes, token_sets = _token_classes(labels, table)
    counts = np.bincount(classes).tolist()
    pairs = len(classes) * (len(classes) - 1) // 2
    if pairs == 0:
        return 0.0
    weights: Counter[float] = Counter()  # term -> node pairs with that term
    for x, (tokens_x, count_x) in enumerate(zip(token_sets, counts)):
        weights[jaccard(tokens_x, tokens_x)] += count_x * (count_x - 1) // 2
        for tokens_y, count_y in zip(token_sets[x + 1:], counts[x + 1:]):
            weights[jaccard(tokens_x, tokens_y)] += count_x * count_y
    ratios = [term.as_integer_ratio() for term in weights]
    scale = max(den for _, den in ratios)  # every denominator is a power of two
    exact = sum(w * num * (scale // den) for w, (num, den) in zip(weights.values(), ratios))
    return exact / scale / pairs


def attribute_metrics(
    g: MultiplexGraph, layer: str, table: AttributeTable
) -> tuple[tuple[AttributeMetrics, ...], float]:
    """Per-node tie-weighted attribute similarities plus the unnetworked baseline.

    ``out_similarity`` averages similarity with the nodes i names as
    ties, ``in_similarity`` with the nodes naming i; degenerate degrees
    give 0.  The baseline ignores the layer entirely.  ``jaccard`` runs
    once per distinct pair of token classes among the ties, and
    ``row_means`` averages each node's terms.
    """
    view = g.view(layer)
    classes, token_sets = _token_classes(g.labels, table)
    k = len(token_sets)
    similarity = []
    for csr in (view.out, view.inn):
        pair_keys, inverse = np.unique(classes[csr.row_ids()] * k + classes[csr.indices], return_inverse=True)
        mine, theirs = np.divmod(pair_keys, k)
        terms = [jaccard(token_sets[x], token_sets[y]) for x, y in zip(mine.tolist(), theirs.tolist())]
        similarity.append(row_means(np.array(terms, dtype=np.float64)[inverse], csr.indptr).tolist())
    records = tuple(AttributeMetrics(i, layer, *row) for i, row in enumerate(zip(*similarity)))
    return records, unnetworked_similarity(g.labels, table)
