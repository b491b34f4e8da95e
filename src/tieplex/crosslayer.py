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
from dataclasses import dataclass, field
from itertools import count
from typing import Iterable, Mapping, Sequence

import numpy as np

from .graph import MultiplexGraph
from .kernels import row_means
from .metrics import _closure, _mean, _node_terms, jaccard


@dataclass(frozen=True, eq=False)
class CrossLayerMetrics:
    """The five pair metrics of one ordered layer pair, one read-only float64 column each.

    Entry ``i`` of every column belongs to node ``i``.
    """

    alpha: str
    beta: str
    reciprocity: np.ndarray = field(repr=False)
    cycle_closure: np.ndarray = field(repr=False)
    triplet_closure: np.ndarray = field(repr=False)
    overlap_out: np.ndarray = field(repr=False)
    overlap_in: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class CrossLayerAverages:
    alpha: str
    beta: str
    avg_reciprocity: float
    avg_cycle_closure: float
    avg_triplet_closure: float
    avg_overlap_out: float
    avg_overlap_in: float


def cross_layer_metrics(g: MultiplexGraph, alpha: str, beta: str) -> CrossLayerMetrics:
    """The five pair metrics of every node, one kernel call each.

    Reciprocity is jaccard(out_alpha(i), in_beta(i)); cycle closure
    averages jaccard(out_alpha(i), in_beta(h)) over the beta-predecessors
    h of i, triplet closure jaccard(out_alpha(i), out_beta(j)) over the
    alpha-successors j; each closure is 0 with nothing to average over.
    """
    va, vb = g.view(alpha), g.view(beta)
    out_a, in_a, out_b, in_b = va.out, va.inn, vb.out, vb.inn
    columns = (
        _node_terms(out_a, in_b)[1],
        _closure(out_a, in_b, in_b)[1],
        _closure(out_a, out_a, out_b)[1],
        _node_terms(out_a, out_b)[1],
        _node_terms(in_a, in_b)[1],
    )
    for column in columns:
        column.setflags(write=False)
    return CrossLayerMetrics(alpha, beta, *columns)


def cross_layer_averages(g: MultiplexGraph, alpha: str, beta: str) -> CrossLayerAverages:
    """Whole-graph averages of the five columns of :func:`cross_layer_metrics` (isolates count as 0)."""
    m = cross_layer_metrics(g, alpha, beta)
    columns = (m.reciprocity, m.cycle_closure, m.triplet_closure, m.overlap_out, m.overlap_in)
    return CrossLayerAverages(alpha, beta, *(_mean(column, g.n_nodes) for column in columns))


class AttributeTable:
    """Per-node finite sets of attribute tokens.

    Tokens are ``category:value`` strings; a node absent from the table
    has the empty set.  Keyed by node label so a table can be built and
    reused independently of any particular graph.  Equal tokens are one
    object, and so are equal token sets: a table holds one string per
    distinct token and one frozenset per distinct token set.
    """

    def __init__(self, tokens: Mapping[str, Iterable[str]] | None = None):
        self._tokens: dict[str, frozenset[str]] = {}
        self._first_lines: dict[str, int] = {}
        strings: dict[str, str] = {}
        sets: dict[frozenset[str], frozenset[str]] = {}
        for label, toks in (tokens or {}).items():
            token_set = frozenset(toks)
            if token_set not in sets:
                sets[token_set] = frozenset(strings.setdefault(t, t) for t in token_set)
            self._tokens[label] = sets[token_set]

    @classmethod
    def from_rows(cls, chunks: Iterable[tuple[Sequence[str], Sequence[str], int]]) -> "AttributeTable":
        """Table of rows read in chunks ``(nodes, tokens, first_line)``.

        A chunk holds the rows ``(nodes[k], tokens[k])``, row ``k`` read
        from line ``first_line + k``.  Only one chunk's strings are held
        at a time.
        """
        grouped: dict[str, list[str]] = {}
        first_lines: dict[str, int] = {}
        strings: dict[str, str] = {}
        for nodes, tokens, first_line in chunks:
            for line_no, node, token in zip(count(first_line), nodes, tokens):
                if node not in grouped:
                    grouped[node] = []
                    first_lines[node] = line_no
                grouped[node].append(strings.setdefault(token, token))
        table = cls(grouped)
        table._first_lines = first_lines
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


@dataclass(frozen=True, eq=False)
class AttributeMetrics:
    """Tie-weighted attribute similarity on one layer, one read-only float64 column per direction.

    Entry ``i`` of every column belongs to node ``i``; ``baseline`` is
    the layer-free :func:`unnetworked_similarity`.
    """

    layer: str
    baseline: float
    out_similarity: np.ndarray = field(repr=False)
    in_similarity: np.ndarray = field(repr=False)


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


def attribute_metrics(g: MultiplexGraph, layer: str, table: AttributeTable) -> AttributeMetrics:
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
        column = row_means(np.array(terms, dtype=np.float64)[inverse], csr.indptr)
        column.setflags(write=False)
        similarity.append(column)
    return AttributeMetrics(layer, unnetworked_similarity(g.labels, table), *similarity)
