"""Independent brute-force oracles.

Everything here evaluates the defining formulas literally on adjacency
matrices (triple loops, matrix closure, explicit correlation sums) and
shares no code with the library paths it checks; only the
``EquivalenceClass``, ``PathStats`` and ``EdgeRecord`` record types,
the error classes and the layer declaration check are imported.
``path_stats_bfs`` is the one-source-at-a-time BFS that
``structure.path_stats`` replaced, kept as its reference; likewise
``parse_edges`` and ``_attribute_rows`` are the line-by-line parsers
that the bulk column reader of ``tieplex.io`` replaced.
"""

from __future__ import annotations

import math
from typing import IO, Iterable, Iterator, Mapping

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
    for i in range(n):
        for j in view.out_set(i):
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


def cycle_closure(x, i) -> float:
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


def triplet_count(x, i) -> int:
    n = len(x)
    return sum(x[i][j] * x[j][h] * x[i][h] for j in range(n) for h in range(n))


def triplet_closure(x, i) -> float:
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


def cross_reciprocity(xa, xb, i) -> float:
    n = len(xa)
    num = sum(xa[i][j] * xb[j][i] for j in range(n))
    den = out_degree(xa, i) + in_degree(xb, i) - num
    return num / den if den else 0.0


def cross_cycle_closure(xa, xb, i) -> float:
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


def cross_triplet_closure(xa, xb, i) -> float:
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


def overlap_out(xa, xb, i) -> float:
    n = len(xa)
    num = sum(xa[i][j] * xb[i][j] for j in range(n))
    den = out_degree(xa, i) + out_degree(xb, i) - num
    return num / den if den else 0.0


def overlap_in(xa, xb, i) -> float:
    n = len(xa)
    num = sum(xa[j][i] * xb[j][i] for j in range(n))
    den = in_degree(xa, i) + in_degree(xb, i) - num
    return num / den if den else 0.0


def token_jaccard(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 0.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


def attr_out(x, tokens: list[frozenset], i) -> float:
    n = len(x)
    dout = out_degree(x, i)
    if dout == 0:
        return 0.0
    return sum(x[i][j] * token_jaccard(tokens[i], tokens[j]) for j in range(n)) / dout


def attr_in(x, tokens: list[frozenset], i) -> float:
    n = len(x)
    din = in_degree(x, i)
    if din == 0:
        return 0.0
    return sum(x[j][i] * token_jaccard(tokens[i], tokens[j]) for j in range(n)) / din


def attr_baseline(tokens: list[frozenset]) -> float:
    n = len(tokens)
    if n < 2:
        return 0.0
    total = sum(
        token_jaccard(tokens[i], tokens[j]) for i in range(n) for j in range(i + 1, n)
    )
    return 2.0 * total / (n * (n - 1))


def attr_baseline_fsum(tokens: list[frozenset]) -> float:
    """Mean term over all unordered pairs: ``math.fsum`` of each pair's term, over the pair count."""
    n = len(tokens)
    pairs = n * (n - 1) // 2
    if pairs == 0:
        return 0.0
    terms = [token_jaccard(tokens[i], tokens[j]) for i in range(n) for j in range(i + 1, n)]
    return math.fsum(terms) / pairs


def equivalence_greedy(actors, tolerance: float, out_degree=None, in_degree=None) -> list[EquivalenceClass]:
    """Greedy grouping by ascending node id, checking each candidate against every member.

    ``actors`` are the per-node records of ``layer_metrics``.
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
            f"{what} file must start with header '{','.join(expected)}', got '{raw}'"
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
