
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tieplex import (
    DuplicateLayerName,
    DuplicateNodeLabel,
    EdgeRecord,
    LayerSpec,
    SelfTie,
    TieplexError,
    UnknownLayer,
    UnknownNode,
    LayerParams,
    LayerView,
    build_graph,
    cross_layer_metrics,
    generate_synthetic,
    graph,
    induced_edge_count,
    kernels,
    layer_metrics,
    load_dataset,
    synth,
)
from tieplex.report import cross_report, endogenous_report, equivalence_report, wedge_report

from conftest import count_listings, force_probe, metric_corpus, single, write_sparse_input


def simple_graph():
    specs = [LayerSpec.basic("alpha"), LayerSpec.basic("beta"), LayerSpec.aggregate("all", "alpha", "beta")]
    edges = [("a", "b", "alpha"), ("b", "a", "alpha"), ("a", "c", "beta")]
    return build_graph(["a", "b", "c"], specs, edges)


def test_aggregate_is_union():
    g = simple_graph()
    assert oracles.edge_set(g.view("all")) == {(0, 1), (1, 0), (0, 2)}


def test_self_tie_rejected():
    with pytest.raises(SelfTie):
        build_graph(["a"], [LayerSpec.basic("alpha")], [("a", "a", "alpha")])


def test_four_basic_five_aggregates_gives_nine_views():
    basics = ["strong_off", "weak_off", "strong_on", "weak_on"]
    specs = [LayerSpec.basic(b) for b in basics] + [
        LayerSpec.aggregate("off", "strong_off", "weak_off"),
        LayerSpec.aggregate("on", "strong_on", "weak_on"),
        LayerSpec.aggregate("strong", "strong_off", "strong_on"),
        LayerSpec.aggregate("weak", "weak_off", "weak_on"),
        LayerSpec.aggregate("all", *basics),
    ]
    g = build_graph(["a", "b", "c"], specs, [("a", "b", "strong_off")])
    assert len(g.layer_names) == 9
    for name in g.layer_names:
        assert g.view(name).n_nodes == 3


def test_layer_view_contents():
    g = simple_graph()
    v = g.view("alpha")
    assert oracles.out_set(v, 0) == {1}
    assert oracles.in_set(v, 0) == {1}
    assert oracles.out_set(g.view("all"), 0) == {1, 2}


def test_unknown_layer_view():
    g = simple_graph()
    with pytest.raises(UnknownLayer):
        g.view("missing")


def test_out_in_sets():
    v = single([(0, 1), (1, 2), (2, 0)], 3)
    assert oracles.out_set(v, 0) == {1}
    assert oracles.in_set(v, 0) == {2}

    v = single([], 2)
    assert oracles.out_set(v, 0) == frozenset()
    assert oracles.in_set(v, 0) == frozenset()
    assert v.out.degrees().tolist() == v.inn.degrees().tolist() == [0, 0]

    v = single([(0, 1), (1, 0), (0, 2)], 3)
    assert oracles.out_set(v, 0) == {1, 2}
    assert oracles.in_set(v, 0) == {1}
    assert oracles.undirected_neighbors(v, 2) == {0}
    # the stored layer: two CSR matrices, rows in any order
    assert v.out.indptr.tolist() == [0, 2, 3, 3]
    assert sorted(v.out.indices[:2].tolist()) == [1, 2]
    assert v.inn.rows() == [[1], [0], [0]]
    assert [oracles.undirected_neighbors(v, i) for i in range(3)] == [{1, 2}, {0}, {0}]
    with pytest.raises(UnknownNode, match="node id 3 out of range for layer 'L'"):
        induced_edge_count(v, [3])


def test_csr_matrices_agree_over_corpus():
    for g in metric_corpus(200):
        for name in g.layer_names:
            v = g.view(name)
            out_pairs = sorted(zip(v.out.row_ids().tolist(), v.out.indices.tolist()))
            in_pairs = sorted(zip(v.inn.indices.tolist(), v.inn.row_ids().tolist()))
            assert out_pairs == in_pairs  # inn is the transpose of out
            assert v.n_edges == len(v.out.indices) == len(v.inn.indices)


@pytest.mark.parametrize("kind", ["out", "inn"])
@pytest.mark.parametrize("array", ["indptr", "indices"])
def test_view_arrays_are_read_only(kind, array):
    v = single([(0, 1), (1, 2)], 3)
    stored = getattr(getattr(v, kind), array)
    with pytest.raises(ValueError):
        stored[0] = 1


def test_build_graph_retains_few_bytes_per_edge():
    # four sparse basic layers (mean out-degree 4, n = 2000) and three
    # aggregates; neighbour frozensets kept about 169 bytes per edge here
    rng = random.Random(3)
    n = 2000
    labels = [f"n{k}" for k in range(n)]
    basics = ["strong_off", "weak_off", "strong_on", "weak_on"]
    specs = [LayerSpec.basic(name) for name in basics] + [
        LayerSpec.aggregate("strong", "strong_off", "strong_on"),
        LayerSpec.aggregate("weak", "weak_off", "weak_on"),
        LayerSpec.aggregate("all", *basics),
    ]
    edges = []
    for name in basics:
        ties = set()
        while len(ties) < 4 * n:
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                ties.add((i, j))
        edges += [(labels[i], labels[j], name) for i, j in sorted(ties)]
    tracemalloc.start()
    try:
        g = build_graph(labels, specs, edges)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stored = sum(g.view(name).n_edges for name in g.layer_names)
    assert stored > 12 * n
    assert retained / stored < 32
    # the set-based build peaked at about 146 bytes per stored edge
    assert peak / stored < 80


def test_demo_graph_holds_two_csrs_per_layer(monkeypatch):
    # out and inn hold 4 B per column id each, plus the row pointers:
    # about 8.8 B per stored tie here; a third, undirected CSR would add
    # about 6.5 B more
    held = []
    build = graph.build_graph

    def measured_build(*args):
        tracemalloc.start()
        try:
            built = build(*args)
            held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        return built

    monkeypatch.setattr(graph, "build_graph", measured_build)  # generate_synthetic imports it per call
    g, _ = synth.generate_synthetic(3, 260, synth.DEMO_LAYERS, synth.DEMO_AGGREGATES)
    stored = sum(g.view(name).n_edges for name in g.layer_names)
    assert held[0] / stored <= 10


def assert_builds_agree(labels, specs, edges):
    """The numpy build equals the set-based build, or both raise the same error."""
    try:
        views, duplicates = oracles.build_graph_sets(labels, specs, edges)
    except TieplexError as exc:
        with pytest.raises(TieplexError) as raised:
            build_graph(labels, specs, edges)
        assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
        return
    g = build_graph(labels, specs, edges)
    assert g.duplicates_collapsed == duplicates
    for name, (succ, pred, und) in views.items():
        v = g.view(name)
        assert v.n_edges == sum(map(len, succ))
        for csr, expected in ((v.out, succ), (v.inn, pred)):
            rows = csr.rows()
            assert rows == [sorted(row) for row in rows]
            assert list(map(set, rows)) == expected
        assert [oracles.undirected_neighbors(v, i) for i in range(v.n_nodes)] == und


def random_build_input(rng: random.Random, bad: int):
    """Labels, specs and edge records with duplicates, plus ``bad`` bad records at random positions."""
    n = rng.choice([2, 3, 8, 40, 300])
    labels = [f"v{k}" for k in range(n)]
    basics = [f"b{k}" for k in range(rng.randint(1, 4))]
    specs = [LayerSpec.basic(name) for name in basics]
    for k in range(rng.randint(0, 3)):
        specs.append(LayerSpec.aggregate(f"agg{k}", *rng.sample(basics, rng.randint(1, len(basics)))))
    edges = []
    for _ in range(rng.randint(0, 4 * n)):
        i, j = rng.sample(range(n), 2)
        edges.append((labels[i], labels[j], rng.choice(basics)))
    edges += rng.sample(edges, len(edges) // 4)  # duplicates, some before their first occurrence
    rng.shuffle(edges)
    spoilers = [
        lambda e: ("ghost", e[1], e[2]),
        lambda e: (e[0], "ghost", e[2]),
        lambda e: (e[0], e[1], "nope"),
        lambda e: (e[0], e[1], specs[-1].name),  # an aggregate when one is declared
        lambda e: (e[0], e[0], e[2]),
        lambda e: ("ghost", e[0], "nope"),
    ]
    for _ in range(bad):
        at = rng.randint(0, len(edges))
        edges.insert(at, rng.choice(spoilers)(edges[at - 1] if edges else (labels[0], labels[1], basics[0])))
    if rng.random() < 0.5:
        edges = [EdgeRecord(*e, line_no=k + 2) for k, e in enumerate(edges)]
    return labels, specs, edges


@pytest.mark.parametrize("bad", [0, 1, 3])
def test_build_equals_set_based_build(bad):
    rng = random.Random(bad)
    for _ in range(60):
        assert_builds_agree(*random_build_input(rng, bad))


labels8 = [f"v{k}" for k in range(8)]
layer_names = st.sampled_from(["a", "b", "c", "ab", "cc", "nope"])
records = st.tuples(st.sampled_from([*labels8, "ghost"]), st.sampled_from([*labels8, "ghost"]), layer_names)
good_records = st.tuples(st.sampled_from(labels8), st.sampled_from(labels8), st.sampled_from(["a", "b", "c"]))


@given(st.lists(good_records, max_size=60), st.lists(st.tuples(st.integers(0, 60), records), max_size=3))
@settings(derandomize=True, max_examples=200, deadline=None)
def test_build_equals_set_based_build_property(good, inserted):
    specs = [
        LayerSpec.basic("a"), LayerSpec.basic("b"), LayerSpec.basic("c"),
        LayerSpec.aggregate("ab", "a", "b"), LayerSpec.aggregate("cc", "c"),
    ]
    edges = list(good)  # self-ties among them are bad records too
    for at, record in inserted:
        edges.insert(at, record)
    assert_builds_agree(labels8, specs, edges)
    assert_builds_agree(labels8, specs, [EdgeRecord(*e, line_no=k + 2) for k, e in enumerate(edges)])


def test_node_id_errors():
    g = simple_graph()
    with pytest.raises(UnknownNode):
        g.node_id("zzz")
    with pytest.raises(UnknownNode):
        induced_edge_count(g.view("alpha"), [99])


def test_build_errors_identify_record():
    specs = [LayerSpec.basic("alpha")]
    with pytest.raises(UnknownNode, match="'x'"):
        build_graph(["a"], specs, [("x", "a", "alpha")])
    with pytest.raises(UnknownLayer, match="'nope'"):
        build_graph(["a", "b"], specs, [("a", "b", "nope")])
    with pytest.raises(DuplicateLayerName):
        build_graph(["a"], [LayerSpec.basic("alpha"), LayerSpec.basic("alpha")], [])
    with pytest.raises(DuplicateNodeLabel):
        build_graph(["a", "a"], specs, [])


def test_edge_into_aggregate_rejected():
    specs = [LayerSpec.basic("alpha"), LayerSpec.aggregate("agg", "alpha")]
    with pytest.raises(UnknownLayer, match="aggregate"):
        build_graph(["a", "b"], specs, [("a", "b", "agg")])


def test_aggregate_must_reference_declared_basic():
    with pytest.raises(UnknownLayer):
        build_graph(["a"], [LayerSpec.aggregate("agg", "ghost")], [])


def test_single_constituent_aggregate_allowed():
    specs = [LayerSpec.basic("alpha"), LayerSpec.aggregate("copy", "alpha")]
    g = build_graph(["a", "b"], specs, [("a", "b", "alpha")])
    assert oracles.edge_set(g.view("copy")) == oracles.edge_set(g.view("alpha"))


def test_duplicate_edges_collapse_with_counter():
    specs = [LayerSpec.basic("alpha")]
    g = build_graph(["a", "b"], specs, [("a", "b", "alpha")] * 3)
    assert g.view("alpha").n_edges == 1
    assert g.duplicates_collapsed["alpha"] == 2


edge_lists = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda e: e[0] != e[1]),
    max_size=30,
)


@given(edge_lists, edge_lists)
@settings(max_examples=60)
def test_adjacency_invariants(ea, eb):
    labels = [str(k) for k in range(8)]
    specs = [LayerSpec.basic("a"), LayerSpec.basic("b"), LayerSpec.aggregate("u", "a", "b")]
    triples = [(str(i), str(j), "a") for i, j in ea] + [(str(i), str(j), "b") for i, j in eb]
    g = build_graph(labels, specs, triples)
    for name in g.layer_names:
        v = g.view(name)
        assert v.out.degrees().sum() == v.inn.degrees().sum() == v.n_edges
        for i in range(8):
            for j in oracles.out_set(v, i):
                assert i in oracles.in_set(v, j)
    # out-degree against the raw edge list
    raw_a = {(i, j) for i, j in ea}
    assert g.view("a").out.degrees().tolist() == [sum(1 for s, t in raw_a if s == i) for i in range(8)]
    # union size vs constituent sizes, equality iff disjoint
    na, nb, nu = (g.view(k).n_edges for k in ("a", "b", "u"))
    assert nu <= na + nb
    assert (nu == na + nb) == oracles.edge_set(g.view("a")).isdisjoint(oracles.edge_set(g.view("b")))


@given(edge_lists, st.randoms(use_true_random=False))
@settings(max_examples=40)
def test_build_order_insensitive(ea, rnd):
    labels = [str(k) for k in range(8)]
    specs = [LayerSpec.basic("a")]
    triples = [(str(i), str(j), "a") for i, j in ea]
    g1 = build_graph(labels, specs, list(triples))
    shuffled = list(triples)
    rnd.shuffle(shuffled)
    g2 = build_graph(labels, specs, shuffled)
    assert oracles.canonical_form(g1) == oracles.canonical_form(g2)
    for i in range(8):
        assert oracles.out_set(g1.view("a"), i) == oracles.out_set(g2.view("a"), i)


def check_columns_equal_the_set_oracle(g):
    """Every ``layer_metrics`` column of every layer and every ``cross_layer_metrics`` column of every ordered pair."""
    for alpha in g.layer_names:
        v = g.view(alpha)
        lm = layer_metrics(v)
        actors = [oracles.actor_metrics(v, i) for i in range(g.n_nodes)]
        for f in oracles.ActorMetrics._fields[1:]:
            assert getattr(lm, f).tolist() == [getattr(a, f) for a in actors], (alpha, f)
        for beta in g.layer_names:
            table = oracles.cross_layer_table(g, alpha, beta)
            columns = cross_layer_metrics(g, alpha, beta)
            for f in ("reciprocity", "cycle_closure", "triplet_closure", "overlap_out", "overlap_in"):
                assert getattr(columns, f).tolist() == [getattr(r, f) for r in table], (alpha, beta, f)


@pytest.mark.parametrize("p, kept", [(0.15, True), (0.7, False)])
def test_kept_and_listed_again_unions_equal_the_set_oracle(monkeypatch, p, kept):
    # above the dense limit, a union with no more triangles than pairs is
    # listed once and kept; a denser one is listed again by each call
    force_probe(monkeypatch)
    layers = [LayerParams("a", p, 0.5), LayerParams("b", p, 0.0)]
    g, _ = generate_synthetic(4, 14, layers, aggregates=[LayerSpec.aggregate("u", "a", "b")])
    keys = g.view("u").pairs.keys
    triangles = sum(step.shape[1] for step in kernels.triangles(keys, g.n_nodes))
    assert (triangles <= len(keys)) == kept and triangles
    check_columns_equal_the_set_oracle(g)
    listing = g.view("a").pairs._listing
    assert listing.shape == (4, triangles) if kept else listing is False


@pytest.mark.parametrize("report", ["endogenous", "cross", "wedges", "equiv"])
def test_one_report_walks_the_union_listing_once(tmp_path, monkeypatch, report):
    # n = 1200 is above the dense limit and the union is sparse, so every
    # layer and pair of the report reads the one kept listing
    manifest = write_sparse_input(tmp_path, 3, 1200, monkeypatch)
    dataset = load_dataset(manifest)
    listings = count_listings(monkeypatch)
    {
        "endogenous": lambda: endogenous_report(dataset),
        "cross": lambda: cross_report(dataset),
        "wedges": lambda: wedge_report(dataset, "all"),
        "equiv": lambda: equivalence_report(dataset, "all"),
    }[report]()
    assert listings["listing"] == 1
    assert isinstance(dataset.graph.view("all").pairs._listing, np.ndarray)


def test_pair_table_is_shared_and_a_lone_view_has_its_own():
    g = simple_graph()
    tables = {id(g.view(name).pairs) for name in g.layer_names}
    assert len(tables) == 1
    for name in g.layer_names:  # basic and aggregate codes alike
        assert not g.view(name).pairs.code(name).flags.writeable
    lone = LayerView("lone", 3, np.array([1, 5], dtype=np.int64))  # 0 -> 1, 1 -> 2
    assert lone.pairs.keys.tolist() == [1, 5] and lone.pairs.code("lone").tolist() == [1, 1]
    with pytest.raises(ValueError):
        lone.pairs.code("lone")[0] = 3  # read-only


def test_threads_that_build_the_pair_table_at_once_agree(monkeypatch):
    # the pair table and its listing are built on first use by whichever
    # thread gets there; threads racing to build them must all read the
    # columns one thread reads
    force_probe(monkeypatch)
    layers = [LayerParams("a", 0.15, 0.5), LayerParams("b", 0.15, 0.0)]
    names = ("a", "b", "u") * 3

    def fresh():
        return generate_synthetic(4, 40, layers, aggregates=[LayerSpec.aggregate("u", "a", "b")])[0]

    def columns(g, name):
        lm = layer_metrics(g.view(name))
        return lm.reciprocity.tolist(), lm.cycle_closure.tolist(), lm.triplet_closure.tolist()

    expected = [columns(fresh(), name) for name in names]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            g = fresh()
            with ThreadPoolExecutor(len(names)) as pool:
                futures = [pool.submit(columns, g, name) for name in names]
                assert [f.result(timeout=60) for f in futures] == expected
    finally:
        sys.setswitchinterval(interval)
