import math

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

import oracles
from tieplex import (
    JaccardConvention,
    LayerParams,
    cycle_closure,
    generate_synthetic,
    jaccard,
    layer_metrics,
    reciprocated_count,
    reciprocity,
    three_cycle_count,
    triplet_closure,
    triplet_count,
)

from conftest import single


def test_jaccard_examples():
    assert jaccard({2, 3}, {2}) == 0.5
    assert jaccard(set(), set(), JaccardConvention.PURE) == 1.0
    assert jaccard(set(), set(), JaccardConvention.METRIC) == 0.0
    assert jaccard(set(), set()) == 0.0  # metric is the default
    assert jaccard({1}, {2}) == 0.0


def test_reciprocated_count():
    assert reciprocated_count(single([(0, 1), (1, 0), (0, 2)], 3), 0) == 1
    cyc = single([(0, 1), (1, 2), (2, 0)], 3)
    assert all(reciprocated_count(cyc, i) == 0 for i in range(3))
    assert reciprocated_count(single([(0, 1), (1, 0)], 2), 0) == 1


def test_reciprocity_values():
    v = single([(0, 1), (1, 0), (0, 2)], 3)
    assert reciprocity(v, 0) == 0.5
    assert reciprocity(v, 1) == 1.0
    assert reciprocity(v, 2) == 0.0

    isolated = single([(0, 1)], 3)
    assert reciprocity(isolated, 2) == 0.0

    star = single([(0, 1), (1, 0), (0, 2), (2, 0)], 3)
    assert reciprocity(star, 0) == 1.0


def test_three_cycle_count(three_cycle, transitive_triplet):
    assert three_cycle_count(three_cycle, 0) == 1
    assert three_cycle_count(transitive_triplet, 0) == 0
    # two three-cycles sharing node 0
    v = single([(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)], 5)
    assert three_cycle_count(v, 0) == 2
    assert three_cycle_count(v, 0) == oracles.cycle_count(oracles.view_matrix(v), 0)


def test_cycle_closure_values(three_cycle, transitive_triplet):
    assert cycle_closure(three_cycle, 0) == 1.0
    assert cycle_closure(transitive_triplet, 2) == 0.0
    assert cycle_closure(transitive_triplet, 0) == 0.0  # no in-ties


def test_triplet_count(transitive_triplet, three_cycle):
    assert triplet_count(transitive_triplet, 0) == 1
    assert all(triplet_count(three_cycle, i) == 0 for i in range(3))
    v = single([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)], 4)
    assert triplet_count(v, 0) == 2


def test_triplet_closure_values(transitive_triplet):
    assert triplet_closure(transitive_triplet, 0) == 0.25
    assert triplet_closure(transitive_triplet, 2) == 0.0  # no out-ties
    # full clique on three nodes: frozen from the brute-force oracle
    clique = single([(i, j) for i in range(3) for j in range(3) if i != j], 3)
    expected = oracles.triplet_closure(oracles.view_matrix(clique), 0)
    assert expected == 1 / 3
    for i in range(3):
        assert triplet_closure(clique, i) == expected


def test_layer_metrics_averages(three_cycle):
    lm = layer_metrics(three_cycle)
    assert lm.avg_reciprocity == 0.0
    assert lm.avg_cycle_closure == 1.0
    assert lm.avg_triplet_closure == 0.0

    empty = single([], 4)
    lme = layer_metrics(empty)
    assert lme.avg_reciprocity == lme.avg_cycle_closure == lme.avg_triplet_closure == 0.0

    v = single([(0, 1), (1, 0), (0, 2)], 3)
    assert layer_metrics(v).avg_reciprocity == (0.5 + 1.0 + 0.0) / 3


def test_layer_metrics_columns_are_read_only(three_cycle):
    lm = layer_metrics(three_cycle)
    for column in (lm.out_degree, lm.in_degree, lm.reciprocated, lm.reciprocity,
                   lm.three_cycles, lm.cycle_closure, lm.triplets, lm.triplet_closure):
        with pytest.raises(ValueError):
            column[0] = 0
    assert lm.actors[0].cycle_closure == 1.0


def test_actor_metric_bounds():
    g, _ = generate_synthetic(7, 12, [LayerParams("L", 0.3, 0.4)])
    for a in layer_metrics(g.view("L")).actors:
        assert a.reciprocated <= min(a.out_degree, a.in_degree)
        assert 0.0 <= a.reciprocity <= 1.0
        assert 0.0 <= a.cycle_closure <= 1.0
        assert 0.0 <= a.triplet_closure <= 1.0
        assert a.three_cycles <= a.in_degree * a.out_degree
        assert a.triplets <= a.out_degree * max(a.out_degree - 1, 0)


sets_of_ints = st.frozensets(st.integers(0, 20), max_size=8)


@given(sets_of_ints, sets_of_ints)
def test_jaccard_properties(a, b):
    assert jaccard(a, b) == jaccard(b, a)
    assert 0.0 <= jaccard(a, b) <= 1.0
    if a:
        assert jaccard(a, a) == 1.0


edge_lists = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda e: e[0] != e[1]),
    max_size=40,
    unique=True,
)


@given(edge_lists)
@settings(max_examples=80)
def test_reciprocity_one_iff_equal_nonempty_sets(edges):
    v = single(edges, 10)
    for i in range(10):
        r = reciprocity(v, i)
        equal_nonempty = v.out_set(i) == v.in_set(i) != frozenset()
        assert (r == 1.0) == equal_nonempty


@given(edge_lists)
@settings(max_examples=60)
def test_metrics_match_literal_formulas(edges):
    v = single(edges, 10)
    x = oracles.view_matrix(v)
    for i in range(10):
        assert three_cycle_count(v, i) == oracles.cycle_count(x, i)
        assert triplet_count(v, i) == oracles.triplet_count(x, i)
        assert reciprocated_count(v, i) == oracles.rec_count(x, i)
        assert math.isclose(reciprocity(v, i), oracles.norm_reciprocity(x, i), abs_tol=1e-12)
        assert math.isclose(cycle_closure(v, i), oracles.cycle_closure(x, i), abs_tol=1e-12)
        assert math.isclose(triplet_closure(v, i), oracles.triplet_closure(x, i), abs_tol=1e-12)


@given(edge_lists, st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda e: e[0] != e[1]))
@settings(max_examples=60)
def test_raw_counts_monotone_under_edge_addition(edges, extra):
    before = single(edges, 10)
    after = single(list(set(edges) | {extra}), 10)
    for total in (reciprocated_count, three_cycle_count, triplet_count):
        assert sum(total(after, i) for i in range(10)) >= sum(total(before, i) for i in range(10))


@given(edge_lists)
@settings(max_examples=60)
def test_cycle_sum_is_three_times_distinct_cycles(edges):
    v = single(edges, 10)
    has = {(i, j) for i, j in edges}
    distinct = 0
    for a in range(10):
        for b in range(a + 1, 10):
            for c in range(b + 1, 10):
                if (a, b) in has and (b, c) in has and (c, a) in has:
                    distinct += 1
                if (a, c) in has and (c, b) in has and (b, a) in has:
                    distinct += 1
    assert sum(three_cycle_count(v, i) for i in range(10)) == 3 * distinct
