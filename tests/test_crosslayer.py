import math
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tieplex import (
    AttributeTable,
    LayerParams,
    LayerSpec,
    attribute_metrics,
    attribute_similarity,
    build_graph,
    cross_cycle_closure,
    cross_reciprocity,
    cross_triplet_closure,
    cycle_closure,
    generate_synthetic,
    load_dataset,
    overlap_in,
    overlap_out,
    reciprocity,
    triplet_closure,
    unnetworked_similarity,
    write_demo_dataset,
)

from conftest import two_layer

DATA = Path(__file__).resolve().parent.parent / "data" / "demo"


def test_cross_reciprocity_and_asymmetry():
    g = two_layer([(0, 1), (1, 0)], [(0, 2), (2, 0), (0, 1)], 3)
    # out in 'a' is {1}, in-set in 'b' is {2}: disjoint
    assert cross_reciprocity(g, "a", "b", 0) == 0.0
    # out in 'b' is {1,2}, in-set in 'a' is {1}
    assert cross_reciprocity(g, "b", "a", 0) == 0.5
    assert cross_reciprocity(g, "a", "b", 0) != cross_reciprocity(g, "b", "a", 0)


def test_cross_cycle_closure_examples():
    cyc = [(0, 1), (1, 2), (2, 0)]
    g = two_layer(cyc, [], 3)
    assert cross_cycle_closure(g, "a", "a", 0) == cycle_closure(g.view("a"), 0) == 1.0
    assert cross_cycle_closure(g, "a", "b", 0) == 0.0  # beta empty: no in-ties

    g2 = two_layer([(0, 1)], [(1, 2), (2, 0)], 3)
    assert cross_cycle_closure(g2, "a", "b", 0) == 1.0


def test_cross_triplet_closure_examples():
    g = two_layer([(0, 1), (0, 2)], [(1, 2)], 3)
    assert cross_triplet_closure(g, "a", "b", 0) == 0.25
    assert cross_triplet_closure(g, "b", "a", 0) == 0.0  # node 0 isolated in 'b'
    tri = two_layer([(0, 1), (1, 2), (0, 2)], [], 3)
    assert cross_triplet_closure(tri, "a", "a", 0) == triplet_closure(tri.view("a"), 0)


def test_overlap_examples():
    g = two_layer([(0, 1)], [(0, 1), (0, 2)], 3)
    assert overlap_out(g, "a", "b", 0) == 0.5
    same = two_layer([(0, 1)], [(0, 1)], 3)
    assert overlap_out(same, "a", "b", 0) == 1.0
    assert overlap_in(same, "a", "b", 1) == 1.0
    disjoint = two_layer([(0, 1)], [(0, 2)], 3)
    assert overlap_out(disjoint, "a", "b", 0) == 0.0


def test_attribute_similarity():
    table = AttributeTable({"1": {"gender:F", "dept:CS"}, "2": {"gender:F", "dept:EE"}})
    assert attribute_similarity(table, "1", "2") == 1 / 3
    assert attribute_similarity(table, "1", "1") == 1.0
    assert attribute_similarity(table, "x", "y") == 0.0  # both absent


def test_attribute_metrics_single_edge():
    g = build_graph(["1", "2"], [LayerSpec.basic("L")], [("1", "2", "L")])
    table = AttributeTable({"1": {"gender:F", "dept:CS"}, "2": {"gender:F", "dept:EE"}})
    records, baseline = attribute_metrics(g, "L", table)
    assert records[0].out_similarity == 1 / 3
    assert records[1].in_similarity == 1 / 3
    assert records[0].in_similarity == 0.0
    assert baseline == 1 / 3


def test_attribute_metrics_uniform_and_empty_layer():
    labels = ["1", "2", "3"]
    table = AttributeTable({x: {"k:v"} for x in labels})
    g = build_graph(labels, [LayerSpec.basic("L")], [("1", "2", "L"), ("2", "3", "L")])
    records, baseline = attribute_metrics(g, "L", table)
    assert baseline == 1.0
    assert records[0].out_similarity == 1.0

    empty = build_graph(labels, [LayerSpec.basic("L")], [])
    records, baseline = attribute_metrics(empty, "L", table)
    assert all(r.out_similarity == 0.0 and r.in_similarity == 0.0 for r in records)
    assert baseline == 1.0  # baseline ignores the edges


def check_attribute_metrics_match_set_reference(g, table):
    """``attribute_metrics`` on every layer equals the per-actor set reference bit for bit.

    The reference averages ``attribute_similarity`` over each node's
    successors (out) and predecessors (in) with ``math.fsum``, and is 0
    for a node without such neighbours.
    """
    labels = g.labels

    def mean_similarity(i, neighbours):
        if not neighbours:
            return 0.0
        return math.fsum(attribute_similarity(table, labels[i], labels[j]) for j in neighbours) / len(neighbours)

    for layer in g.layer_names:
        view = g.view(layer)
        records, baseline = attribute_metrics(g, layer, table)
        assert baseline == unnetworked_similarity(labels, table)
        assert [(r.node, r.layer) for r in records] == [(i, layer) for i in range(g.n_nodes)]
        for i, record in enumerate(records):
            assert record.out_similarity == mean_similarity(i, view.out_set(i))
            assert record.in_similarity == mean_similarity(i, view.in_set(i))


def test_attribute_metrics_match_set_reference_bitwise_on_demo():
    dataset = load_dataset(DATA / "manifest.json")
    check_attribute_metrics_match_set_reference(dataset.graph, dataset.attributes)


def test_attribute_metrics_match_set_reference_bitwise_on_generated_260(tmp_path):
    write_demo_dataset(tmp_path, seed=1, n_nodes=260)
    dataset = load_dataset(tmp_path / "manifest.json")
    check_attribute_metrics_match_set_reference(dataset.graph, dataset.attributes)


# per node: absent from the table, in the one shared class, or in a class of its own
MISSING, SHARED, OWN = range(3)


@given(
    st.lists(st.sampled_from((MISSING, SHARED, OWN)), min_size=1, max_size=12),
    st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_attribute_metrics_match_set_reference_bitwise_by_node_kind(kinds, pairs):
    n = len(kinds)
    labels = [str(k) for k in range(n)]
    tokens = {}
    for i, kind in enumerate(kinds):
        if kind == SHARED:
            tokens[labels[i]] = {"k:0", "k:1", "k:2"}
        elif kind == OWN:
            # own id plus up to four shared tokens, so the terms have many denominators
            tokens[labels[i]] = {f"id:{i}", *(f"k:{k}" for k in range(i % 5))}
    edges = [(labels[i], labels[j], "L") for i, j in pairs if i < n and j < n and i != j]
    g = build_graph(labels, [LayerSpec.basic("L")], edges)
    check_attribute_metrics_match_set_reference(g, AttributeTable(tokens))


edge_lists = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda e: e[0] != e[1]),
    max_size=25,
)


@given(edge_lists, edge_lists)
@settings(max_examples=50)
def test_reduction_to_single_layer_is_bitwise(ea, eb):
    g = two_layer(ea, eb, 8)
    for name in ("a", "b", "both"):
        v = g.view(name)
        for i in range(8):
            assert cross_reciprocity(g, name, name, i) == reciprocity(v, i)
            assert cross_cycle_closure(g, name, name, i) == cycle_closure(v, i)
            assert cross_triplet_closure(g, name, name, i) == triplet_closure(v, i)
            assert overlap_out(g, name, name, i) == (1.0 if v.out_set(i) else 0.0)
            assert overlap_in(g, name, name, i) == (1.0 if v.in_set(i) else 0.0)


@given(edge_lists, edge_lists)
@settings(max_examples=50)
def test_cross_metrics_match_literal_formulas(ea, eb):
    g = two_layer(ea, eb, 8)
    xa = oracles.view_matrix(g.view("a"))
    xb = oracles.view_matrix(g.view("b"))
    for i in range(8):
        assert math.isclose(cross_reciprocity(g, "a", "b", i), oracles.cross_reciprocity(xa, xb, i), abs_tol=1e-12)
        assert math.isclose(cross_cycle_closure(g, "a", "b", i), oracles.cross_cycle_closure(xa, xb, i), abs_tol=1e-12)
        assert math.isclose(cross_triplet_closure(g, "a", "b", i), oracles.cross_triplet_closure(xa, xb, i), abs_tol=1e-12)
        assert overlap_out(g, "a", "b", i) == oracles.overlap_out(xa, xb, i)
        assert overlap_in(g, "a", "b", i) == oracles.overlap_in(xa, xb, i)


@given(edge_lists, edge_lists)
@settings(max_examples=50)
def test_overlap_symmetry_and_bounds(ea, eb):
    g = two_layer(ea, eb, 8)
    for i in range(8):
        assert overlap_out(g, "a", "b", i) == overlap_out(g, "b", "a", i)
        assert overlap_in(g, "a", "b", i) == overlap_in(g, "b", "a", i)
        for value in (
            cross_reciprocity(g, "a", "b", i),
            cross_cycle_closure(g, "a", "b", i),
            cross_triplet_closure(g, "a", "b", i),
            overlap_out(g, "a", "b", i),
            overlap_in(g, "a", "b", i),
        ):
            assert 0.0 <= value <= 1.0


@given(st.integers(0, 2**30))
@settings(max_examples=25, deadline=None)
def test_baseline_invariant_under_relabeling(seed):
    g, attrs = generate_synthetic(
        seed, 8, [LayerParams("L", 0.3, 0.2)], attributes={"c": ("x", "y", "z")}
    )
    base = unnetworked_similarity(g.labels, attrs)
    reversed_labels = list(reversed(g.labels))
    assert unnetworked_similarity(reversed_labels, attrs) == base
    rotated = list(g.labels[3:]) + list(g.labels[:3])
    assert unnetworked_similarity(rotated, attrs) == base


def criterion_10_tables():
    """The labels and attribute tables of acceptance criterion 10."""
    for seed in range(50):
        n = 3 + seed % 10
        g, attrs = generate_synthetic(
            3000 + seed, n, [LayerParams("L", 0.3, 0.4)],
            attributes={"c1": ("p", "q"), "c2": ("r", "s", "t")},
        )
        kept = {label: attrs.tokens(label) for k, label in enumerate(g.labels) if k % 4 != 0}
        yield g.labels, AttributeTable(kept)


# distinct sets of 2 to 8 tokens, so the terms have many denominators
DISTINCT = AttributeTable(
    {str(i): {f"id:{i}", f"m:{i % 3}", *(f"k:{k}" for k in range(i % 7))} for i in range(40)}
)
BASELINE_CASES = {
    "n=0": ([], AttributeTable()),
    "n=1": (["1"], AttributeTable({"1": {"x:1"}})),
    "n=2": (["1", "2"], AttributeTable({"1": {"x:1", "y:1"}, "2": {"x:1"}})),
    "all empty": ([str(i) for i in range(6)], AttributeTable()),
    "missing labels": (["1", "2", "3", "4"], AttributeTable({"1": {"x:1"}, "3": {"x:1", "y:2"}})),
    "one class": ([str(i) for i in range(9)], AttributeTable({str(i): {"x:1", "y:2"} for i in range(9)})),
    "all distinct": ([str(i) for i in range(40)], DISTINCT),
    "repeated labels": (["1", "2", "1", "3", "2", "1"], AttributeTable({"1": {"x:1"}, "2": {"x:1", "y:1"}})),
}


@pytest.mark.parametrize("case", BASELINE_CASES)
def test_baseline_equals_pair_loop_bitwise(case):
    labels, table = BASELINE_CASES[case]
    tokens = [table.tokens(label) for label in labels]
    assert unnetworked_similarity(labels, table) == oracles.attr_baseline_fsum(tokens)


def test_baseline_equals_pair_loop_bitwise_on_criterion_10_corpus():
    for labels, table in criterion_10_tables():
        tokens = [table.tokens(label) for label in labels]
        assert unnetworked_similarity(labels, table) == oracles.attr_baseline_fsum(tokens)


def test_baseline_memory_grows_with_classes_not_pairs():
    # 18 token classes over 4000 nodes: about 8M node pairs
    table = AttributeTable({str(i): {f"g:{i % 2}", f"d:{i % 9}"} for i in range(4000)})
    labels = [str(i) for i in range(4000)]
    tracemalloc.start()
    try:
        unnetworked_similarity(labels, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
