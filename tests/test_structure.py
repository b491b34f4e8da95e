import functools
import math
import random
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tieplex import (
    EdgeColumns,
    InvalidParameter,
    LayerParams,
    LayerSpec,
    LayerView,
    NotStronglyConnected,
    PathStats,
    build_graph,
    degree_assortativity,
    directed_degree_assortativity,
    generate_synthetic,
    induced_edge_count,
    largest_scc,
    layer_metrics,
    layer_summary,
    load_dataset,
    path_stats,
    strongly_connected_components,
    structural_equivalence,
    wedge_closure,
    write_demo_dataset,
)
from tieplex import graph as tieplex_graph
from tieplex import io as tieplex_io
from tieplex import kernels

from conftest import force_swar_popcount, metric_corpus, single, two_layer


def test_scc_three_cycle(three_cycle):
    comps = strongly_connected_components(three_cycle)
    assert comps == [frozenset({0, 1, 2})]
    assert induced_edge_count(three_cycle, comps[0]) == 3


def test_scc_transitive_triplet(transitive_triplet):
    comps = strongly_connected_components(transitive_triplet)
    assert comps == [frozenset({0}), frozenset({1}), frozenset({2})]


def test_scc_matches_reachability_oracle():
    for seed in range(30):
        n = 5 + (seed * 3) % 46
        p = 0.02 + (seed % 5) * 0.03
        g, _ = generate_synthetic(seed, n, [LayerParams("L", p, 0.3)])
        v = g.view("L")
        ours = set(strongly_connected_components(v))
        assert ours == oracles.scc_partition(oracles.view_matrix(v))


@pytest.mark.parametrize("shape", ["forward path", "backward path", "cycle"])
def test_scc_on_a_long_path_needs_no_recursion(shape):
    # 100,000 nodes in one chain: a recursive search would pass Python's recursion limit
    n = 100_000
    i = np.arange(n if shape == "cycle" else n - 1, dtype=np.int64)
    source, target = (i + 1, i) if shape == "backward path" else (i, (i + 1) % n)
    v = LayerView("L", n, np.sort(source * n + target))
    comps = strongly_connected_components(v)
    if shape == "cycle":
        assert comps == [frozenset(range(n))]
    else:
        assert comps == [frozenset({k}) for k in range(n)]


def test_path_stats(three_cycle, mutual_dyad):
    assert path_stats(three_cycle, {0, 1, 2}) == PathStats(1.5, 2)
    assert path_stats(mutual_dyad, {0, 1}) == PathStats(1.0, 1)
    assert path_stats(three_cycle, {0}) == PathStats(0.0, 0)


def test_path_stats_unreachable(transitive_triplet):
    with pytest.raises(NotStronglyConnected):
        path_stats(transitive_triplet, {0, 1, 2})


def mutual_path(n):
    """0 <-> 1 <-> ... <-> n-1."""
    return single([e for i in range(n - 1) for e in ((i, i + 1), (i + 1, i))], n)


def test_path_stats_counts_repeated_members_once():
    v = mutual_path(3)
    assert path_stats(v, [0, 0, 1]) == path_stats(v, [0, 1, 1, 1]) == PathStats(1.0, 1)
    assert path_stats(v, {0, 1}) == PathStats(1.0, 1)
    assert path_stats(v, [2, 0, 2, 1, 0]) == path_stats(v, {0, 1, 2})
    assert induced_edge_count(v, [0, 0, 1]) == 2


def test_path_stats_paths_may_leave_the_component():
    # 0 and 2 are linked only through 1; an induced-subgraph BFS would raise
    assert path_stats(mutual_path(3), {0, 2}) == PathStats(2.0, 2)


def assert_path_stats_match_bfs(v, component):
    """``path_stats`` equals the one-source-at-a-time BFS: the same value or the same error."""
    try:
        expected = oracles.path_stats_bfs(v, component)
    except NotStronglyConnected as err:
        with pytest.raises(NotStronglyConnected) as got:
            path_stats(v, component)
        assert type(got.value) is type(err) and str(got.value) == str(err)
        return
    assert path_stats(v, component) == expected


@pytest.mark.parametrize("step", [None, 3])
def test_path_stats_matches_bfs_on_corpus(monkeypatch, step):
    if step:  # cut the in-edges into runs of 3, so most rows are split across runs
        monkeypatch.setattr(kernels, "_STEP", step)
    assert_corpus_path_stats_match_bfs()


def test_path_stats_matches_bfs_on_corpus_with_swar_popcount(monkeypatch):
    # the popcount of numpy before 2.0, which has no np.bitwise_count
    force_swar_popcount(monkeypatch)
    assert_corpus_path_stats_match_bfs()


def assert_corpus_path_stats_match_bfs():
    """``path_stats`` matches the BFS oracle on every corpus layer, for several components each."""
    rng = random.Random(9)
    not_strong = 0
    for g in metric_corpus():
        for name in g.layer_names:
            v = g.view(name)
            comps = strongly_connected_components(v)
            nodes = range(v.n_nodes)
            half = rng.sample(nodes, len(nodes) // 2)
            for component in [largest_scc(v), *(c for c in comps if len(c) >= 2), nodes, half]:
                assert_path_stats_match_bfs(v, component)
            not_strong += len(comps) > 1
    assert not_strong > 300  # the all-nodes case takes the error path on most layers


def strongly_connected_ties(k, seed, extra):
    """A shuffled ring of ``k`` nodes plus chords, and ``extra`` more nodes that shortcut it.

    Each extra node ``x`` has one tie from a ring node and one to a ring
    node, so some shortest ring-to-ring paths pass through it.
    """
    rng = random.Random(seed)
    ring = list(range(k))
    rng.shuffle(ring)
    ties = set(zip(ring, ring[1:] + ring[:1]))
    while len(ties) < k + k // 4:
        ties.add(tuple(rng.sample(range(k), 2)))
    for x in range(k, k + extra):
        a, b = rng.sample(range(k), 2)
        ties |= {(a, x), (x, b)}
    return sorted(ties)


@pytest.mark.parametrize("k", [63, 64, 65, 1023, 1024, 1025])
def test_path_stats_matches_bfs_across_word_and_block_boundaries(k):
    ties = strongly_connected_ties(k, seed=k, extra=3)
    assert_path_stats_match_bfs(single(ties, k + 3), range(k))
    # node k + 3 is reached but reaches nothing, and it is the last
    # member; node k + 4 reaches the ring but is reached by nothing
    v = single([*ties, (0, k + 3), (k + 4, 1)], k + 5)
    assert_path_stats_match_bfs(v, [*range(k), k + 3])
    assert_path_stats_match_bfs(v, [*range(k), k + 4])


def test_path_stats_matches_bfs_on_ring_hub_and_dyad(mutual_dyad):
    ring = single([(i, (i + 1) % 300) for i in range(300)], 300)
    assert path_stats(ring, range(300)) == PathStats(150.0, 299)
    hub = single([e for leaf in range(1, 201) for e in ((0, leaf), (leaf, 0))], 201)
    # the big hub's in-row is longer than one gather step
    big_hub = single([e for leaf in range(1, 40_001) for e in ((0, leaf), (leaf, 0))], 40_001)
    cases = [(ring, range(300)), (hub, range(201)), (hub, {0, 5, 70, 199}),
             (big_hub, {0, 3, 9_999, 40_000}), (mutual_dyad, {0, 1})]
    for v, component in cases:
        assert_path_stats_match_bfs(v, component)


def test_path_stats_memory_stays_bounded():
    # ~520k random ties on 5000 nodes: one gather of every in-edge's
    # 16-word frontier would take 64 MiB
    n = 5000
    keys = np.unique(np.random.default_rng(3).integers(0, n * n, 520_000))
    keys = keys[keys // n != keys % n]
    v = LayerView("L", n, keys)
    assert v.n_edges >= 500_000
    giant = largest_scc(v)
    tracemalloc.start()
    try:
        stats = path_stats(v, giant)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(giant) == n and stats.diameter >= 2
    assert peak < 16 * 2**20


def test_assortativity_star():
    # directed star, undirected projection is K_{1,3}
    v = single([(0, 1), (0, 2), (0, 3)], 4)
    assert degree_assortativity(v) == pytest.approx(-1.0)


def test_assortativity_degenerate_cycle(three_cycle):
    assert math.isnan(degree_assortativity(three_cycle))
    assert math.isnan(degree_assortativity(single([], 3)))


def test_assortativity_matches_sum_formula_oracle():
    for seed in range(20):
        n = 6 + seed % 12
        g, _ = generate_synthetic(seed + 100, n, [LayerParams("L", 0.25, 0.4)])
        v = g.view("L")
        und = [oracles.undirected_neighbors(v, i) for i in range(n)]
        deg = [len(s) for s in und]
        pairs = [(deg[i], deg[j]) for i in range(n) for j in und[i] if j > i]
        if not pairs:
            assert math.isnan(degree_assortativity(v))
            continue
        expected = oracles.assortativity_sums(pairs)
        got = degree_assortativity(v)
        if math.isnan(expected):
            assert math.isnan(got)
        else:
            assert got == pytest.approx(expected, abs=1e-9)


def pearson_of_pairs(pairs):
    """np.corrcoef over (x, y) pairs appended one by one, NaN when degenerate."""
    if not pairs:
        return math.nan
    x = np.array([p[0] for p in pairs], dtype=float)
    y = np.array([p[1] for p in pairs], dtype=float)
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        return math.nan
    return float(np.corrcoef(x, y)[0, 1])


DEMO_MANIFEST = Path(__file__).resolve().parent.parent / "data" / "demo" / "manifest.json"


def test_assortativities_equal_edge_loop_bitwise(monkeypatch, tmp_path):
    # the vectorised sums must keep the loop's order: the sorted und rows
    # for the undirected projection, sorted edges for the directed modes;
    # each build's inputs are captured to rebuild its rows by the set-based
    # build, so the loop shares no adjacency with the library
    builds = []
    build = tieplex_graph.build_graph

    def capture(nodes, specs, edges):
        edges = list(edges)  # load_dataset passes its edge-file chunks as a one-pass generator
        rows = [row for chunk in edges for row in chunk] if edges and isinstance(edges[0], EdgeColumns) else edges
        builds.append((nodes, specs, rows))
        return build(nodes, specs, edges)

    monkeypatch.setattr(tieplex_graph, "build_graph", capture)  # generate_synthetic imports it per call
    monkeypatch.setattr(tieplex_io, "build_graph", capture)

    def graphs():
        yield from metric_corpus(200)
        yield load_dataset(DEMO_MANIFEST).graph
        write_demo_dataset(tmp_path, seed=1, n_nodes=260)  # what `generate --nodes 260 --seed 1` writes
        yield load_dataset(tmp_path / "manifest.json").graph

    for g in graphs():
        reference, _ = oracles.build_graph_sets(*builds[-1])
        for name in g.layer_names:
            v = g.view(name)
            succ, pred, und = (list(map(sorted, rows)) for rows in reference[name])
            deg = [len(row) for row in und]
            half = [(deg[i], deg[j]) for i in range(v.n_nodes) for j in und[i] if j > i]
            both = half + [(b, a) for a, b in half]
            assert repr(degree_assortativity(v)) == repr(pearson_of_pairs(both))
            degree = {"out": list(map(len, succ)), "in": list(map(len, pred))}
            for a in ("out", "in"):
                for b in ("out", "in"):
                    pairs = [(degree[a][i], degree[b][j]) for i in range(v.n_nodes) for j in succ[i]]
                    got = directed_degree_assortativity(v, a, b)
                    assert repr(got) == repr(pearson_of_pairs(pairs))


def test_directed_assortativity_modes():
    v = single([(0, 1), (0, 2), (0, 3), (1, 2)], 4)
    for a in ("out", "in"):
        for b in ("out", "in"):
            value = directed_degree_assortativity(v, a, b)
            assert math.isnan(value) or -1.0 <= value <= 1.0
    with pytest.raises(InvalidParameter):
        directed_degree_assortativity(v, "sideways", "in")


def test_structural_equivalence_dyad(mutual_dyad):
    classes = structural_equivalence(mutual_dyad, 0.0)
    assert len(classes) == 1
    assert classes[0].members == (0, 1)


@pytest.mark.parametrize("tolerance", [-0.1, float("nan")])
def test_structural_equivalence_rejects_bad_tolerance(mutual_dyad, tolerance):
    with pytest.raises(InvalidParameter):
        structural_equivalence(mutual_dyad, tolerance)


def test_structural_equivalence_tolerance_zero_distinct():
    # metric triples all differ: each node is its own class
    v = single([(0, 1), (1, 0), (1, 2), (2, 0)], 3)
    triples = {
        (c.reciprocity, c.cycle_closure, c.triplet_closure)
        for c in structural_equivalence(v, 0.0)
    }
    if len(triples) == 3:
        assert all(len(c.members) == 1 for c in structural_equivalence(v, 0.0))


def test_structural_equivalence_tolerance_merges():
    # two symmetric mutual dyads plus an asymmetric tail on one side
    # gives nearby but unequal triples for nodes 0 and 2
    v = single([(0, 1), (1, 0), (2, 3), (3, 2), (2, 4)], 5)
    tight = structural_equivalence(v, 0.0)
    loose = structural_equivalence(v, 0.5)
    assert len(loose) < len(tight)
    for cls in loose:
        assert cls.tolerance == 0.5


def test_structural_equivalence_pairwise_within_tolerance():
    g, _ = generate_synthetic(5, 14, [LayerParams("L", 0.3, 0.5)])
    v = g.view("L")
    lm = layer_metrics(v)
    for cls in structural_equivalence(v, 0.1):
        for column in (lm.reciprocity, lm.cycle_closure, lm.triplet_closure):
            values = column[list(cls.members)]
            assert (np.abs(values[:, None] - values[None, :]) <= 0.1).all()


def test_structural_equivalence_degree_filter():
    v = single([(0, 1), (1, 0), (2, 3)], 4)
    classes = structural_equivalence(v, 0.0, out_degree=1, in_degree=1)
    members = {m for c in classes for m in c.members}
    assert members == {0, 1}


def test_structural_equivalence_relabel_invariant():
    edges = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 1), (0, 3)]
    v1 = single(edges, 4)
    perm = {0: 3, 1: 0, 2: 2, 3: 1}
    v2 = single([(perm[i], perm[j]) for i, j in edges], 4)
    c1 = {frozenset(perm[m] for m in c.members) for c in structural_equivalence(v1, 0.0)}
    c2 = {frozenset(c.members) for c in structural_equivalence(v2, 0.0)}
    assert c1 == c2


EQUIV_TOLERANCES = (0.0, 0.01, 0.1, 0.5, math.inf)
DEGREE_FILTERS = ((None, None), (1, None), (None, 1), (1, 1))


def test_structural_equivalence_matches_greedy_reference(monkeypatch):
    # each view is grouped 20 times, so its metrics are computed once
    monkeypatch.setattr("tieplex.structure.layer_metrics", functools.cache(layer_metrics))
    for g in metric_corpus():
        for name in g.layer_names:
            v = g.view(name)
            actors = tuple(oracles.actor_metrics(v, i) for i in range(v.n_nodes))
            for tolerance in EQUIV_TOLERANCES:
                for out_degree, in_degree in DEGREE_FILTERS:
                    want = oracles.equivalence_greedy(actors, tolerance, out_degree, in_degree)
                    assert structural_equivalence(v, tolerance, out_degree, in_degree) == want


def test_structural_equivalence_matches_greedy_reference_on_rounding_edges(monkeypatch):
    # Differences of tenths round to either side of the tenths themselves
    # (0.3 - 0.2 < 0.1 < 0.8 - 0.7), so the grouping must compare the same
    # rounded differences as the reference to give the same classes.
    v = single([], 60)
    template = oracles.actor_metrics(v, 0)
    grid = [k / 10 for k in range(11)]
    for seed in range(30):
        rng = random.Random(seed)
        actors = tuple(
            template._replace(
                node=i,
                reciprocity=rng.choice(grid), cycle_closure=rng.choice(grid), triplet_closure=rng.choice(grid),
            )
            for i in range(60)
        )
        fields = ("out_degree", "in_degree", "reciprocity", "cycle_closure", "triplet_closure")
        columns = SimpleNamespace(**{f: np.array([getattr(a, f) for a in actors]) for f in fields})
        monkeypatch.setattr("tieplex.structure.layer_metrics", lambda view: columns)
        for tolerance in (0.1, 0.2, 0.3, 0.5):
            assert structural_equivalence(v, tolerance) == oracles.equivalence_greedy(actors, tolerance)


def test_structural_equivalence_tolerance_zero_groups_equal_triples(monkeypatch):
    # Tolerance 0 groups by equal triples instead of the greedy scan: the
    # triples repeat, in runs and scattered, and the degree filters pick
    # subsets; a triple first seen late still orders its class by its
    # smallest member.
    v = single([], 80)
    template = oracles.actor_metrics(v, 0)
    grid = [0.0, 0.25, 1 / 3, 0.5, 1.0]
    for seed in range(20):
        rng = random.Random(seed)
        actors = tuple(
            template._replace(
                node=i, out_degree=rng.randrange(3), in_degree=rng.randrange(3),
                reciprocity=rng.choice(grid), cycle_closure=rng.choice(grid[:seed % 5 + 1]),
                triplet_closure=rng.choice(grid[:2]),
            )
            for i in range(80)
        )
        fields = ("out_degree", "in_degree", "reciprocity", "cycle_closure", "triplet_closure")
        columns = SimpleNamespace(**{f: np.array([getattr(a, f) for a in actors]) for f in fields})
        monkeypatch.setattr("tieplex.structure.layer_metrics", lambda view: columns)
        for out_degree, in_degree in DEGREE_FILTERS + ((2, 0), (5, None)):
            want = oracles.equivalence_greedy(actors, 0.0, out_degree, in_degree)
            assert structural_equivalence(v, 0.0, out_degree, in_degree) == want


def test_wedge_single_closed():
    g = two_layer([(0, 1), (1, 2)], [(0, 2)], 3)
    report = wedge_closure(g, "a", ["a", "b"])
    assert report.total == 1
    assert report.pct["a"] == 0.0
    assert report.pct["b"] == 100.0
    assert report.pct["any"] == 100.0
    assert not report.no_wedges


def test_wedge_closing_layer_named_any_rejected():
    # only x closes the one wedge of w: a closing layer named 'any' would
    # share its entry with the count of wedges closed by any layer
    specs = [LayerSpec.basic("w"), LayerSpec.basic("any"), LayerSpec.basic("x")]
    g = build_graph(["0", "1", "2"], specs, [("0", "1", "w"), ("1", "2", "w"), ("0", "2", "x")])
    assert wedge_closure(g, "w", ["w", "x"]).closed == {"w": 0, "x": 1, "any": 1}
    with pytest.raises(InvalidParameter, match="closing layer 'any'"):
        wedge_closure(g, "w", ["w", "any", "x"])


def test_wedge_none_closed():
    g = two_layer([(0, 1), (0, 2), (0, 3)], [], 4)
    report = wedge_closure(g, "a", ["b"])
    assert report.total == 3  # star center has C(3,2) wedges
    assert report.closed["b"] == 0
    assert report.pct["any"] == 0.0


def test_wedge_empty_layer_flag():
    g = two_layer([], [], 3)
    report = wedge_closure(g, "a", ["b"])
    assert report.total == 0
    assert report.no_wedges
    assert report.pct["any"] == 0.0


def test_wedge_matches_brute_force_and_union():
    for seed in range(25):
        g, _ = generate_synthetic(
            seed + 300, 10,
            [LayerParams("a", 0.2, 0.3), LayerParams("b", 0.15, 0.2)],
        )
        xa = oracles.view_matrix(g.view("a"))
        xb = oracles.view_matrix(g.view("b"))
        report = wedge_closure(g, "a", ["a", "b"])
        total, closed = oracles.wedge_counts(xa, {"a": xa, "b": xb})
        assert report.total == total
        assert report.closed == closed


def test_layer_summary_three_cycle(three_cycle):
    s = layer_summary(three_cycle)
    assert (s.n_nodes, s.n_edges) == (3, 3)
    assert s.avg_total_degree == 1.0
    assert (s.scc_nodes, s.scc_edges) == (3, 3)
    assert (s.avg_path, s.diameter) == (1.5, 2)


def test_layer_summary_empty():
    s = layer_summary(single([], 5))
    assert s.n_edges == 0
    assert s.scc_nodes == 1
    assert (s.avg_path, s.diameter) == (0.0, 0)
    assert math.isnan(s.assortativity)
    # no nodes at all: no component, so 0 SCC nodes
    s = layer_summary(single([], 0))
    assert (s.n_nodes, s.n_edges, s.avg_total_degree) == (0, 0, 0.0)
    assert (s.scc_nodes, s.scc_edges) == (0, 0)
    assert (s.avg_path, s.diameter) == (0.0, 0)
    assert math.isnan(s.assortativity)


def test_layer_summary_degree_convention():
    for seed in range(8):
        g, _ = generate_synthetic(seed + 500, 9, [LayerParams("L", 0.3, 0.5)])
        v = g.view("L")
        assert layer_summary(v).avg_total_degree == v.n_edges / v.n_nodes


def test_largest_scc_tie_break():
    # two 2-cycles: the one containing node 0 wins the tie
    v = single([(0, 1), (1, 0), (2, 3), (3, 2)], 4)
    assert largest_scc(v) == {0, 1}


scc_edges = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11)).filter(lambda e: e[0] != e[1]),
    max_size=40,
)


@given(scc_edges)
@settings(max_examples=60)
def test_scc_partition_properties(edges):
    v = single(edges, 12)
    comps = strongly_connected_components(v)
    seen = [m for c in comps for m in c]
    assert sorted(seen) == list(range(12))  # disjoint cover
    giant = largest_scc(v)
    if len(giant) >= 2:
        stats = path_stats(v, giant)
        assert 1.0 <= stats.avg_path <= stats.diameter <= len(giant) - 1
