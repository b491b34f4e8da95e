"""Independent brute-force oracles.

Everything here evaluates the defining formulas literally on adjacency
matrices (triple loops, matrix closure, explicit correlation sums) and
shares no code with the library paths it checks; only the
``EquivalenceClass``, ``PathStats`` and ``EdgeRecord`` record types,
the error classes and the layer declaration check are imported.  The set-based per-actor functions
(``reciprocity``, ``cycle_closure``, ``cross_layer_table``, ...) are
the reference that the columnar metric kernels replaced, and the
matrix forms of the same metrics carry a ``matrix_`` prefix where the
names would clash.  ``path_stats_bfs`` is the one-source-at-a-time BFS
that ``structure.path_stats`` replaced, kept as its reference; likewise
``parse_edges`` and ``_attribute_rows`` are the line-by-line parsers
that the bulk column reader of ``tieplex.io`` replaced.
"""

from __future__ import annotations

import math
from typing import IO, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from tieplex.errors import (
    DuplicateNodeLabel,
    EmptyField,
    MalformedLine,
    MissingHeader,
    NotStronglyConnected,
    SelfTie,
    UnknownBucketKey,
    UnknownLayer,
    UnknownNode,
)
from tieplex.graph import EdgeRecord, check_layers
from tieplex.io import BucketRule
from tieplex.structure import EquivalenceClass, PathStats


def view_matrix(view) -> list[list[int]]:
    n = view.n_nodes
    x = [[0] * n for _ in range(n)]
    for i, row in enumerate(view.out.rows()):
        for j in row:
            x[i][j] = 1
    return x


def out_degree(x, i) -> int:
    return sum(x[i])


def in_degree(x, i) -> int:
    return sum(row[i] for row in x)


def rec_count(x, i) -> int:
    return sum(x[i][j] * x[j][i] for j in range(len(x)))


def norm_reciprocity(x, i) -> float:
    num = rec_count(x, i)
    den = out_degree(x, i) + in_degree(x, i) - num
    return num / den if den else 0.0


def cycle_count(x, i) -> int:
    n = len(x)
    return sum(x[i][j] * x[j][h] * x[h][i] for j in range(n) for h in range(n))


def matrix_cycle_closure(x, i) -> float:
    n = len(x)
    din = in_degree(x, i)
    if din == 0:
        return 0.0
    total = 0.0
    for h in range(n):
        if not x[h][i]:
            continue
        num = sum(x[i][j] * x[j][h] for j in range(n))
        den = out_degree(x, i) + in_degree(x, h) - num
        total += num / den if den else 0.0
    return total / din


def matrix_triplet_count(x, i) -> int:
    n = len(x)
    return sum(x[i][j] * x[j][h] * x[i][h] for j in range(n) for h in range(n))


def matrix_triplet_closure(x, i) -> float:
    n = len(x)
    dout = out_degree(x, i)
    if dout == 0:
        return 0.0
    total = 0.0
    for j in range(n):
        if not x[i][j]:
            continue
        num = sum(x[i][h] * x[j][h] for h in range(n))
        den = out_degree(x, i) + out_degree(x, j) - num
        total += num / den if den else 0.0
    return total / dout


def matrix_cross_reciprocity(xa, xb, i) -> float:
    n = len(xa)
    num = sum(xa[i][j] * xb[j][i] for j in range(n))
    den = out_degree(xa, i) + in_degree(xb, i) - num
    return num / den if den else 0.0


def matrix_cross_cycle_closure(xa, xb, i) -> float:
    n = len(xa)
    din = in_degree(xb, i)
    if din == 0:
        return 0.0
    total = 0.0
    for h in range(n):
        if not xb[h][i]:
            continue
        num = sum(xa[i][j] * xb[j][h] for j in range(n))
        den = out_degree(xa, i) + in_degree(xb, h) - num
        total += num / den if den else 0.0
    return total / din


def matrix_cross_triplet_closure(xa, xb, i) -> float:
    n = len(xa)
    dout = out_degree(xa, i)
    if dout == 0:
        return 0.0
    total = 0.0
    for j in range(n):
        if not xa[i][j]:
            continue
        num = sum(xa[i][h] * xb[j][h] for h in range(n))
        den = out_degree(xa, i) + out_degree(xb, j) - num
        total += num / den if den else 0.0
    return total / dout


def matrix_overlap_out(xa, xb, i) -> float:
    n = len(xa)
    num = sum(xa[i][j] * xb[i][j] for j in range(n))
    den = out_degree(xa, i) + out_degree(xb, i) - num
    return num / den if den else 0.0


def matrix_overlap_in(xa, xb, i) -> float:
    n = len(xa)
    num = sum(xa[j][i] * xb[j][i] for j in range(n))
    den = in_degree(xa, i) + in_degree(xb, i) - num
    return num / den if den else 0.0


def jaccard(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 0.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


# The set-based per-actor reference: the frozenset functions that computed
# every per-actor metric before the columnar kernels of tieplex.metrics
# and tieplex.crosslayer, which must equal them bit for bit.  A layer's
# rows are read straight from its two CSRs.


def _row(csr, i) -> frozenset[int]:
    return frozenset(csr.indices[csr.indptr[i]:csr.indptr[i + 1]].tolist())


def out_set(view, i) -> frozenset[int]:
    """Successors of ``i``: the nodes ``i`` names as ties."""
    return _row(view.out, i)


def in_set(view, i) -> frozenset[int]:
    """Predecessors of ``i``: the nodes naming ``i`` as a tie."""
    return _row(view.inn, i)


def undirected_neighbors(view, i) -> frozenset[int]:
    """Nodes adjacent to ``i`` ignoring direction."""
    return out_set(view, i) | in_set(view, i)


def edges(view) -> list[tuple[int, int]]:
    """All directed edges, sorted by (source, target) id."""
    return [(i, j) for i, row in enumerate(view.out.rows()) for j in row]


def edge_set(view) -> frozenset[tuple[int, int]]:
    return frozenset(edges(view))


def canonical_form(g):
    """Order-insensitive content of a graph: equal for equal labels, layers and ties."""
    edges_by_label = {
        name: frozenset((g.labels[i], g.labels[j]) for i, j in edges(g.view(name)))
        for name in g.layer_names
    }
    return (frozenset(g.labels), g.specs, edges_by_label)


def _mean_jaccard(anchor: frozenset[int], over: frozenset[int], neighbor_set) -> float:
    """Average of jaccard(anchor, neighbor_set(h)) for h in ``over``, 0 for none, summed by fsum."""
    if not over:
        return 0.0
    terms = [jaccard(anchor, neighbor_set(h)) for h in sorted(over)]
    return math.fsum(terms) / len(over)


def reciprocated_count(view, i) -> int:
    """Number of mutual ties of actor ``i``."""
    return len(out_set(view, i) & in_set(view, i))


def reciprocity(view, i) -> float:
    """Jaccard similarity of i's successor and predecessor sets."""
    return jaccard(out_set(view, i), in_set(view, i))


def three_cycle_count(view, i) -> int:
    """Directed three-cycles through ``i``: ordered (j, h) with i->j->h->i."""
    preds = in_set(view, i)
    return sum(len(out_set(view, j) & preds) for j in out_set(view, i))


def cycle_closure(view, i) -> float:
    """Average of jaccard(out(i), in(h)) over the predecessors h of i."""
    return _mean_jaccard(out_set(view, i), in_set(view, i), lambda h: in_set(view, h))


def triplet_count(view, i) -> int:
    """Transitive triplets from ``i``: ordered (j, h) with i->j, j->h, i->h."""
    succ = out_set(view, i)
    return sum(len(out_set(view, j) & succ) for j in succ)


def triplet_closure(view, i) -> float:
    """Average of jaccard(out(i), out(j)) over the successors j of i."""
    return _mean_jaccard(out_set(view, i), out_set(view, i), lambda j: out_set(view, j))


class ActorMetrics(NamedTuple):
    """All single-layer metrics of one actor: the fields of a ``layer_metrics`` column set at one node."""

    node: int
    out_degree: int
    in_degree: int
    reciprocated: int
    reciprocity: float
    three_cycles: int
    cycle_closure: float
    triplets: int
    triplet_closure: float


def actor_metrics(view, i) -> ActorMetrics:
    """All single-layer metrics of one actor."""
    return ActorMetrics(
        node=i,
        out_degree=len(out_set(view, i)),
        in_degree=len(in_set(view, i)),
        reciprocated=reciprocated_count(view, i),
        reciprocity=reciprocity(view, i),
        three_cycles=three_cycle_count(view, i),
        cycle_closure=cycle_closure(view, i),
        triplets=triplet_count(view, i),
        triplet_closure=triplet_closure(view, i),
    )


def cross_reciprocity(g, alpha, beta, i) -> float:
    """Jaccard similarity of i's successors in alpha with i's predecessors in beta."""
    return jaccard(out_set(g.view(alpha), i), in_set(g.view(beta), i))


def cross_cycle_closure(g, alpha, beta, i) -> float:
    """Average of jaccard(out_alpha(i), in_beta(h)) over the beta-predecessors h of i."""
    va, vb = g.view(alpha), g.view(beta)
    return _mean_jaccard(out_set(va, i), in_set(vb, i), lambda h: in_set(vb, h))


def cross_triplet_closure(g, alpha, beta, i) -> float:
    """Average of jaccard(out_alpha(i), out_beta(j)) over the alpha-successors j of i."""
    va, vb = g.view(alpha), g.view(beta)
    return _mean_jaccard(out_set(va, i), out_set(va, i), lambda j: out_set(vb, j))


def overlap_out(g, alpha, beta, i) -> float:
    """Similarity of i's successor sets across the two layers."""
    return jaccard(out_set(g.view(alpha), i), out_set(g.view(beta), i))


def overlap_in(g, alpha, beta, i) -> float:
    """Similarity of i's predecessor sets across the two layers."""
    return jaccard(in_set(g.view(alpha), i), in_set(g.view(beta), i))


class CrossLayerRecord(NamedTuple):
    """The five pair metrics of one actor for one ordered layer pair."""

    node: int
    alpha: str
    beta: str
    reciprocity: float
    cycle_closure: float
    triplet_closure: float
    overlap_out: float
    overlap_in: float


def cross_layer_record(g, alpha, beta, i) -> CrossLayerRecord:
    return CrossLayerRecord(
        i, alpha, beta,
        cross_reciprocity(g, alpha, beta, i),
        cross_cycle_closure(g, alpha, beta, i),
        cross_triplet_closure(g, alpha, beta, i),
        overlap_out(g, alpha, beta, i),
        overlap_in(g, alpha, beta, i),
    )


def cross_layer_table(g, alpha, beta) -> tuple[CrossLayerRecord, ...]:
    """Cross-layer records for every node."""
    return tuple(cross_layer_record(g, alpha, beta, i) for i in range(g.n_nodes))


def attribute_similarity(table, a, b) -> float:
    """Jaccard similarity of two nodes' attribute token sets (both empty -> 0)."""
    return jaccard(table.tokens(a), table.tokens(b))


def attribute_similarities(g, layer, table, i) -> tuple[float, float]:
    """Mean ``attribute_similarity`` of ``i`` with its successors and with its predecessors in ``layer``.

    Each mean is ``math.fsum`` of the terms over their number, 0 for none.
    """
    labels, view = g.labels, g.view(layer)
    return tuple(
        math.fsum(attribute_similarity(table, labels[i], labels[j]) for j in neighbours) / len(neighbours)
        if neighbours else 0.0
        for neighbours in (out_set(view, i), in_set(view, i))
    )


def attr_out(x, tokens: list[frozenset], i) -> float:
    n = len(x)
    dout = out_degree(x, i)
    if dout == 0:
        return 0.0
    return sum(x[i][j] * jaccard(tokens[i], tokens[j]) for j in range(n)) / dout


def attr_in(x, tokens: list[frozenset], i) -> float:
    n = len(x)
    din = in_degree(x, i)
    if din == 0:
        return 0.0
    return sum(x[j][i] * jaccard(tokens[i], tokens[j]) for j in range(n)) / din


def attr_baseline(tokens: list[frozenset]) -> float:
    n = len(tokens)
    if n < 2:
        return 0.0
    total = sum(
        jaccard(tokens[i], tokens[j]) for i in range(n) for j in range(i + 1, n)
    )
    return 2.0 * total / (n * (n - 1))


def attr_baseline_fsum(tokens: list[frozenset]) -> float:
    """Mean term over all unordered pairs: ``math.fsum`` of each pair's term, over the pair count."""
    n = len(tokens)
    pairs = n * (n - 1) // 2
    if pairs == 0:
        return 0.0
    terms = [jaccard(tokens[i], tokens[j]) for i in range(n) for j in range(i + 1, n)]
    return math.fsum(terms) / pairs


def equivalence_greedy(actors, tolerance: float, out_degree=None, in_degree=None) -> list[EquivalenceClass]:
    """Greedy grouping by ascending node id, checking each candidate against every member.

    ``actors`` are :class:`ActorMetrics` records, one per node in node order.
    """
    remaining = [
        a
        for a in actors
        if (out_degree is None or a.out_degree == out_degree)
        and (in_degree is None or a.in_degree == in_degree)
    ]
    classes = []
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


def _where(edge) -> str:
    return f"line {edge[3]}" if len(edge) > 3 else f"edge ({edge[0]}, {edge[1]}, {edge[2]})"


def build_graph_sets(labels, specs, edges):
    """The set-based build: the check loop, then per-node frozensets of every layer.

    Returns ``(views, duplicates)``: ``views[name]`` is ``(succ, pred,
    und)``, three lists of per-node frozensets, and ``und[i]`` is
    ``succ[i] | pred[i]``.  Raises the errors of ``build_graph`` with
    the same messages.
    """
    labels = list(labels)
    index: dict[str, int] = {}
    for i, label in enumerate(labels):
        if index.setdefault(label, i) != i:
            raise DuplicateNodeLabel(f"line {i + 1}: duplicate node label '{label}'")

    specs = list(specs)
    check_layers(specs)
    edge_sets = {s.name: set() for s in specs if s.kind == "basic"}
    rows = dict.fromkeys((s.name for s in specs), 0)
    for edge in edges:
        src, dst, layer = edge[0], edge[1], edge[2]
        if src not in index or dst not in index:
            raise UnknownNode(f"{_where(edge)}: unknown node '{dst if src in index else src}'")
        if layer not in edge_sets:
            if layer in rows:  # declared, so an aggregate
                raise UnknownLayer(f"{_where(edge)}: '{layer}' is an aggregate, edges go in basic layers")
            raise UnknownLayer(f"{_where(edge)}: unknown layer '{layer}'")
        if src == dst:
            raise SelfTie(f"{_where(edge)}: self-tie on '{src}' is not allowed")
        edge_sets[layer].add((index[src], index[dst]))
        rows[layer] += 1
    duplicates = {name: count - len(edge_sets.get(name, ())) for name, count in rows.items()}

    views = {}
    for spec in specs:
        if spec.kind == "basic":
            layer_edges = frozenset(edge_sets[spec.name])
        else:
            layer_edges = frozenset(set().union(*(edge_sets[c] for c in spec.constituents)))
        succ = [set() for _ in range(len(labels))]
        pred = [set() for _ in range(len(labels))]
        for i, j in layer_edges:
            succ[i].add(j)
            pred[j].add(i)
        succ = list(map(frozenset, succ))
        pred = list(map(frozenset, pred))
        views[spec.name] = (succ, pred, [s | p for s, p in zip(succ, pred)])
    return views, duplicates


def reachability(x) -> np.ndarray:
    """Transitive closure by repeated boolean squaring, self-reach included."""
    a = np.array(x, dtype=bool) | np.eye(len(x), dtype=bool)
    while True:
        nxt = a | (a @ a)
        if (nxt == a).all():
            return a
        a = nxt


def scc_partition(x) -> set[frozenset[int]]:
    reach = reachability(x)
    mutual = reach & reach.T
    return {frozenset(np.flatnonzero(mutual[i]).tolist()) for i in range(len(x))}


def floyd_warshall(x) -> np.ndarray:
    n = len(x)
    inf = float("inf")
    dist = np.full((n, n), inf)
    np.fill_diagonal(dist, 0.0)
    for i in range(n):
        for j in range(n):
            if x[i][j]:
                dist[i][j] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
    return dist


def component_path_stats(x, members: list[int]) -> tuple[float, int]:
    dist = floyd_warshall(x)
    total = 0.0
    diameter = 0
    k = len(members)
    for s in members:
        for t in members:
            if s == t:
                continue
            d = dist[s][t]
            total += d
            diameter = max(diameter, int(d))
    return total / (k * (k - 1)), diameter


def path_stats_bfs(view, component) -> PathStats:
    """One BFS per member over the whole layer, summing distances to the other members."""
    members = sorted(set(component))
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


def assortativity_sums(degree_pairs: list[tuple[int, int]]) -> float:
    """Newman's summation formula over undirected edges (each once)."""
    m = len(degree_pairs)
    s_jk = sum(j * k for j, k in degree_pairs) / m
    s_half = sum(0.5 * (j + k) for j, k in degree_pairs) / m
    s_sq = sum(0.5 * (j * j + k * k) for j, k in degree_pairs) / m
    den = s_sq - s_half**2
    if den == 0:
        return float("nan")
    return (s_jk - s_half**2) / den


def wedge_counts(x_wedge, closing: dict[str, list[list[int]]]):
    """Brute-force (center, unordered pair) wedge enumeration."""
    n = len(x_wedge)

    def und(x, a, b):
        return bool(x[a][b] or x[b][a])

    total = 0
    closed = {name: 0 for name in closing}
    any_count = 0
    for center in range(n):
        for a in range(n):
            for b in range(a + 1, n):
                if a == center or b == center:
                    continue
                if not (und(x_wedge, center, a) and und(x_wedge, center, b)):
                    continue
                total += 1
                hit = False
                for name, xc in closing.items():
                    if und(xc, a, b):
                        closed[name] += 1
                        hit = True
                if hit:
                    any_count += 1
    closed["any"] = any_count
    return total, closed


EDGE_HEADER = ("source", "target", "layer")
ATTRIBUTE_HEADER = ("node", "key", "value")


def _lines(stream: IO[str]) -> Iterable[tuple[int, str]]:
    for line_no, raw in enumerate(stream, start=1):
        yield line_no, raw.rstrip("\n").rstrip("\r")


def _split_header(stream_lines, expected: tuple[str, ...], delimiter: str | None, what: str):
    try:
        line_no, raw = next(stream_lines)
    except StopIteration:
        raise MissingHeader(f"{what} file is empty") from None
    raw = raw.lstrip("\ufeff")
    delim = delimiter or ("\t" if "\t" in raw else ",")
    fields = tuple(f.strip() for f in raw.split(delim))
    if fields != expected:
        raise MissingHeader(
            f"{what} file must start with header '{','.join(expected)}', got {raw[:80]!r}"
        )
    return delim


def _split_row(raw: str, delim: str, line_no: int, width: int) -> tuple[str, ...]:
    if raw.strip() == "":
        raise MalformedLine("blank line", line_no)
    parts = tuple(p.strip() for p in raw.split(delim))
    if len(parts) != width:
        raise MalformedLine(f"expected {width} fields, got {len(parts)}", line_no)
    for p in parts:
        if p == "":
            raise EmptyField("empty field", line_no)
    return parts


def parse_edges(stream: IO[str], delimiter: str | None = None) -> list[EdgeRecord]:
    """Parse an edge file into records, keeping line numbers for diagnostics."""
    lines = _lines(stream)
    delim = _split_header(lines, EDGE_HEADER, delimiter, "edge")
    records = []
    for line_no, raw in lines:
        src, dst, layer = _split_row(raw, delim, line_no, 3)
        records.append(EdgeRecord(src, dst, layer, line_no))
    return records


def _bucket_label(rules: tuple[BucketRule, ...], key: str, value: float, line_no: int) -> str:
    last = len(rules) - 1
    for pos, rule in enumerate(rules):
        if rule.lo <= value < rule.hi or (pos == last and value == rule.hi):
            return rule.label
    raise UnknownBucketKey(
        f"no bucket for key '{key}' covers value {value!r}", line_no
    )


def _attribute_rows(
    stream: IO[str], buckets: Mapping[str, tuple[BucketRule, ...]], delimiter: str | None
) -> Iterator[tuple[int, str, str]]:
    """``(line, node, token)`` of every attribute row, bucketed values replaced by their label."""
    lines = _lines(stream)
    delim = _split_header(lines, ATTRIBUTE_HEADER, delimiter, "attribute")
    for line_no, raw in lines:
        node, key, value = _split_row(raw, delim, line_no, 3)
        if ":" in key:
            raise MalformedLine(f"key '{key}' must not contain ':'", line_no)
        if key in buckets:
            try:
                numeric = float(value)
            except ValueError:
                raise MalformedLine(
                    f"key '{key}' is bucketed and needs a numeric value, got '{value}'",
                    line_no,
                ) from None
            value = _bucket_label(buckets[key], key, numeric, line_no)
        yield line_no, node, f"{key}:{value}"


def attribute_table(stream: IO[str], buckets, delimiter: str | None = None) -> dict[str, set[str]]:
    """Per-node token sets, grouped from :func:`_attribute_rows`."""
    tokens: dict[str, set[str]] = {}
    for _, node, token in _attribute_rows(stream, buckets, delimiter):
        tokens.setdefault(node, set()).add(token)
    return tokens

