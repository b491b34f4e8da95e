import itertools
import math
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import oracles
import pytest
from conftest import count_listings, force_probe, force_swar_popcount, metric_corpus, undirected

from tieplex import LayerSpec, build_graph, cross_layer_metrics, kernels, layer_metrics, wedge_closure
from tieplex.graph import LayerView
from tieplex.kernels import CSR, CYCLE, TRIPLET, closure_counts, intersection_counts, jaccard_terms, popcount, row_means
from tieplex.metrics import _node_terms, _reversed


def csr(sets):
    """CSR whose row ``i`` holds the members of ``sets[i]``, each in ``0..len(sets)-1``."""
    n = len(sets)
    return CSR.from_keys(np.array(sorted(i * n + j for i, row in enumerate(sets) for j in row), dtype=np.int64), n)


def multiplex(n, ties_by_layer):
    """Graph on nodes '0'..'n-1' whose basic layer ``name`` holds the integer pairs ``ties_by_layer[name]``."""
    labels = [str(k) for k in range(n)]
    specs = [LayerSpec.basic(name) for name in ties_by_layer]
    edges = [(labels[i], labels[j], name) for name, ties in ties_by_layer.items() for i, j in ties]
    return build_graph(labels, specs, edges)


def sets_of(view):
    """Every out-row and in-row of ``view`` as Python sets."""
    return [set(r) for r in view.out.rows()], [set(r) for r in view.inn.rows()]


def listed_counts(g, alpha, beta, kept=None):
    """Per-entry cycle counts (in-rows of ``beta``) and triplet counts (out-rows of ``alpha``) from the listing.

    ``kept`` overrides how the marked sides are placed (both ways must agree).
    """
    va, vb = g.view(alpha), g.view(beta)
    pairs = va.pairs
    listing_kept, steps = pairs.triangles([alpha, beta])
    walks = [(CYCLE, vb.inn), (TRIPLET, va.out)]
    return closure_counts(
        steps, pairs.keys, g.n_nodes, pairs.code(alpha), pairs.code(beta), walks,
        listing_kept if kept is None else kept,
    )


def expected_counts(g, alpha, beta, rows=None):
    """The same counts from sets: |out_alpha[i] ∩ in_beta[h]| per in-entry (i, h), |out_alpha[i] ∩ out_beta[j]| per out-entry (i, j).

    ``rows`` may map layer names to their :func:`sets_of`.
    """
    rows = rows or {name: sets_of(g.view(name)) for name in {alpha, beta}}
    out_a, _ = rows[alpha]
    out_b, in_b = rows[beta]
    cycle = [len(out_a[i] & in_b[h]) for i, row in enumerate(g.view(beta).inn.rows()) for h in row]
    triplet = [len(out_a[i] & out_b[j]) for i, row in enumerate(g.view(alpha).out.rows()) for j in row]
    return cycle, triplet


def assert_listed_counts_match_sets(g, layers=None):
    """Both closures' per-entry counts, for every ordered pair of ``layers``, equal the set intersections, either way placed."""
    layers = g.layer_names if layers is None else layers
    rows = {name: sets_of(g.view(name)) for name in layers}
    for alpha in layers:
        for beta in layers:
            expected = expected_counts(g, alpha, beta, rows)
            for kept in (None, True, False):
                got = listed_counts(g, alpha, beta, kept)
                assert [c.tolist() for c in got] == list(expected), (alpha, beta, kept)


def test_intersection_counts_match_sets_across_blocks_and_steps():
    # n = 100k is far above the dense limit, so the listing runs; its
    # 200k+ pairs span several blocks of 2**15 oriented keys, and a hub
    # of 40k ties meets many of them
    rng = np.random.default_rng(5)
    n = 100_000
    hub = 7
    spokes = rng.choice(np.arange(8, n), 40_000, replace=False)
    near = rng.choice(spokes, 3000, replace=False)
    a = [(hub, int(j)) for j in spokes] + [(int(i), int(j)) for i, j in rng.integers(0, n, (40_000, 2)) if i != j]
    b = [(int(i), int(j)) for i, j in zip(near, rng.permutation(near)) if i != j]
    b += [(int(j), hub) for j in near[:500]] + [(int(i), int(j)) for i, j in rng.integers(0, n, (40_000, 2)) if i != j]
    g = multiplex(n, {"a": a, "b": b})
    assert len(g.view("a").pairs.keys) > 3 * kernels._STEP
    rows = {name: sets_of(g.view(name)) for name in ("a", "b")}
    for alpha, beta in (("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")):
        cycle, triplet = listed_counts(g, alpha, beta)
        expected = expected_counts(g, alpha, beta, rows)
        assert (cycle.tolist(), triplet.tolist()) == expected
    assert sum(map(bool, expected_counts(g, "a", "b", rows)[1])) > 1000


def all_pairs_match_sets(P, Q):
    """``intersection_counts`` over every (row, col) pair equals the set intersections."""
    n = len(P.indptr) - 1
    p_rows, q_rows = [set(r) for r in P.rows()], [set(r) for r in Q.rows()]
    rows, cols = np.divmod(np.arange(n * n), n)
    expected = [len(p_rows[r] & q_rows[c]) for r, c in zip(rows.tolist(), cols.tolist())]
    assert intersection_counts(P, Q, rows, cols).tolist() == expected


def test_intersection_counts_match_sets_on_corpus(kernel_path):
    for g in metric_corpus():
        if kernels.fits_dense(g.n_nodes):
            v = g.view("u")
            und = undirected(v)
            for P in (v.out, v.inn, und):
                for Q in (v.out, v.inn, und):
                    all_pairs_match_sets(P, Q)
            a, b = g.view("a"), g.view("b")
            all_pairs_match_sets(a.out, b.inn)
            all_pairs_match_sets(a.out, b.out)
        else:
            assert_listed_counts_match_sets(g)


def test_wedge_closure_matches_brute_force_on_corpus(kernel_path):
    for g in metric_corpus():
        x = {name: oracles.view_matrix(g.view(name)) for name in g.layer_names}
        for wedge_layer, closing in (("u", ["a", "b"]), ("a", ["a", "b", "u"]), ("b", ["u"])):
            report = wedge_closure(g, wedge_layer, closing)
            total, closed = oracles.wedge_counts(x[wedge_layer], {name: x[name] for name in closing})
            assert (report.total, report.closed) == (total, closed)


def test_dense_limit_gives_equal_counts_on_both_sides(monkeypatch):
    # the same ties on 512 nodes (the largest dense product) and on 513
    # (the smallest graph that takes the listing)
    dense_sizes = []
    real = kernels._dense
    monkeypatch.setattr(kernels, "_dense", lambda matrix, n: dense_sizes.append(n) or real(matrix, n))
    listings = count_listings(monkeypatch)
    rng = random.Random(3)
    k = 300
    p_sets = [set(rng.sample(range(k), rng.choice((0, 2, 9, 40)))) - {i} for i in range(k)]
    q_sets = [set(rng.sample(range(k), rng.choice((0, 3, 11, 80)))) - {i} for i in range(k)]
    p_sets[5] = set(range(k)) - {5}  # a hub
    ties = {"a": [(i, j) for i, row in enumerate(p_sets) for j in row], "b": [(i, j) for i, row in enumerate(q_sets) for j in row]}
    columns = {}
    for n in (512, 513):
        g = multiplex(n, ties)
        for name in ("a", "b"):
            m = layer_metrics(g.view(name))
            columns[n, name] = [getattr(m, f)[:k].tolist() for f in ("three_cycles", "triplets", "cycle_closure", "triplet_closure")]
            assert m.three_cycles[k:].tolist() == [0] * (n - k)
        pair = cross_layer_metrics(g, "a", "b")
        columns[n, "a-b"] = [getattr(pair, f)[:k].tolist() for f in ("cycle_closure", "triplet_closure")]
        if n == 512:
            assert listings["listing"] == 0
    assert listings["listing"]  # the 513-node graph was counted from triangles
    assert all(columns[512, key] == columns[513, key] for key in ("a", "b", "a-b"))
    v = g.view("a")
    assert columns[513, "a"][0] == [oracles.three_cycle_count(v, i) for i in range(k)]
    assert columns[513, "a"][1] == [oracles.triplet_count(v, i) for i in range(k)]
    assert set(dense_sizes) == {512}


def listed_triangles(keys, n, within=None):
    """Each listed triangle as the frozenset of its three pair indices, with a check of its id order."""
    found = []
    for step in kernels.triangles(keys, n, within):
        for uv, uw, vw, order in step.T.tolist():
            (u, v), (u2, w) = ends(keys, n, uv, uw)
            shared = {u, v} & {u2, w}
            assert len(shared) == 1
            u = shared.pop()
            v, w = ({*divmod(int(keys[uv]), n)} - {u}).pop(), ({*divmod(int(keys[uw]), n)} - {u}).pop()
            assert sorted(divmod(int(keys[vw]), n)) == sorted((v, w))
            assert order == (u < v) | (u < w) << 1 | (v < w) << 2
            found.append(frozenset((uv, uw, vw)))
    return found


def ends(keys, n, *sides):
    return [divmod(int(keys[s]), n) for s in sides]


def brute_triangles(keys, n, within=None):
    """Every triangle of the pairs ``keys[within]`` by a triple loop over the nodes."""
    index = {int(key): k for k, key in enumerate(keys.tolist()) if within is None or k in set(within.tolist())}
    found = set()
    for x, y, z in itertools.combinations(range(n), 3):
        sides = (x * n + y, x * n + z, y * n + z)
        if all(side in index for side in sides):
            found.add(frozenset(index[side] for side in sides))
    return found


def assert_listed_once(keys, n, within=None):
    found = listed_triangles(keys, n, within)
    assert len(found) == len(set(found))
    assert set(found) == brute_triangles(keys, n, within)
    return len(found)


def test_probe_chunks_that_split_single_rows(monkeypatch):
    # steps of 7 entries cut most walked rows and blocks of 7 oriented keys
    # cut the union, so every triangle must still come exactly once
    force_probe(monkeypatch)
    monkeypatch.setattr(kernels, "_STEP", 7)
    total = 0
    rng = np.random.default_rng(2)
    for g in metric_corpus():
        keys, n = g.view("u").pairs.keys, g.n_nodes
        total += assert_listed_once(keys, n)
        assert_listed_once(keys, n, np.flatnonzero(rng.random(len(keys)) < 0.6))
    assert total > 100
    for g in metric_corpus(60):
        assert_listed_counts_match_sets(g, ["a", "u"])
    n = 40
    hub = [(0, j) for j in range(1, n)] + [(j, k) for j in range(1, n) for k in range(j, n, j) if k != j]
    g = multiplex(n, {"a": hub, "empty": []})
    assert assert_listed_once(g.view("a").pairs.keys, n) > 50
    assert_listed_counts_match_sets(g)
    empty = LayerView("empty", 30, np.zeros(0, dtype=np.int64))
    assert list(kernels.triangles(empty.pairs.keys, 30)) == []
    assert layer_metrics(empty).triplets.tolist() == [0] * 30


def test_hub_graph_memory_stays_bounded():
    # hub <-> leaf ties both ways: expanding the hub row once per tie
    # would hold ~4M entries (30.5 MiB as one int64 array)
    n = 2000
    labels = [str(k) for k in range(n)]
    ties = [(src, dst, "a") for leaf in labels[1:] for src, dst in (("0", leaf), (leaf, "0"))]
    g = build_graph(labels, [LayerSpec.basic("a")], ties)
    for run in (lambda: layer_metrics(g.view("a")), lambda: wedge_closure(g, "a", ["a"])):
        tracemalloc.start()
        try:
            result = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
    assert result.total == (n - 1) * (n - 2) // 2 == 1_997_001
    assert result.closed == {"a": 0, "any": 0}
    assert g.view("a").pairs._listing.shape == (4, 0)  # the listing ran, and a star has no triangle
    peak, _ = walk_peak(g.view("a").pairs.keys, n)
    assert peak < 2**20


def walk_peak(keys, n):
    """``tracemalloc`` peak of one walk of ``triangles``, in bytes, and the triangles it found."""
    tracemalloc.start()
    try:
        found = sum(step.shape[1] for step in kernels.triangles(keys, n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, found


def test_probe_scratch_per_query_stays_bounded():
    # The listing's scratch per pair: its oriented keys (8 bytes), the
    # pair of each (4) and, while they are sorted, the sort's int64
    # order (8).  A step is bounded by _STEP, so the peak's slope over
    # two pair counts is the scratch per pair.  Ties join nearby nodes,
    # so many triangles are found.
    rng = np.random.default_rng(7)
    n = 60_000

    def near(count):
        a = rng.integers(0, n - 30, count)
        return np.unique(a * n + a + rng.integers(1, 30, count))

    small, large = near(75_000), near(300_000)
    peak_small, found_small = walk_peak(small, n)
    peak_large, found_large = walk_peak(large, n)
    assert found_large > 50_000
    per_pair = (peak_large - peak_small) / (len(large) - len(small))
    assert per_pair <= 21, per_pair


def test_int32_cols_take_no_wider_copy():
    # below 2**31 pairs the listing indexes pairs in int32, so the kept
    # listing holds 4 bytes per index, and a place table 4 per entry
    rng = np.random.default_rng(9)
    n = 6000
    ends_ = np.repeat(np.arange(n), 5)  # ties to nearby nodes, so many triangles
    ties = np.unique(ends_ * n + (ends_ + rng.integers(1, 11, len(ends_))) % n)
    view = LayerView("near", n, ties)
    kept, steps = view.pairs.triangles(["near"])
    assert kept
    (listing,) = steps
    assert listing.dtype == np.int32 and listing.shape[1] > 1000
    place = kernels._places(view.out, view.pairs.keys, n, search=False)
    assert place.__self__.dtype == np.int32


def test_int32_cols_near_the_last_node_id():
    # 49,999 * 50,000 wraps in int32, so every key of the listing is int64
    rng = random.Random(11)
    n = 50_000
    last = range(n - 50, n)
    ties = {"a": [], "b": []}
    for name in ties:
        for k in [*rng.sample(range(n - 50), 200), *last]:
            ties[name] += [(k, j) for j in set(rng.sample(last, 5)) | set(rng.sample(range(n), 5)) if j != k]
    g = multiplex(n, ties)
    assert_listed_counts_match_sets(g)
    assert sum(map(bool, expected_counts(g, "a", "b")[1])) > 100


def node_term_counts(g, alpha, beta):
    """The three diagonal counts of the pair codes: out_alpha ∩ in_beta, out_alpha ∩ out_beta, in_alpha ∩ in_beta."""
    va, vb = g.view(alpha), g.view(beta)
    pairs = va.pairs
    a, b = pairs.code(alpha), pairs.code(beta)
    return [
        _node_terms(pairs, x, y, P, Q)[0].tolist()
        for x, y, P, Q in (
            (a, _reversed(b), va.out, vb.inn),
            (a, b, va.out, vb.out),
            (_reversed(a), _reversed(b), va.inn, vb.inn),
        )
    ]


def expected_node_terms(g, alpha, beta):
    out_a, in_a = sets_of(g.view(alpha))
    out_b, in_b = sets_of(g.view(beta))
    return [[len(p & q) for p, q in zip(P, Q)] for P, Q in ((out_a, in_b), (out_a, out_b), (in_a, in_b))]


def test_row_intersections_match_intersection_counts_on_corpus():
    # the diagonal counts |P[i] ∩ Q[i]| of reciprocity and the overlaps
    # come from the pair codes, as bit tests
    for g in metric_corpus():
        for alpha in g.layer_names:
            assert layer_metrics(g.view(alpha)).reciprocated.tolist() == expected_node_terms(g, alpha, alpha)[0]
            for beta in g.layer_names:
                assert node_term_counts(g, alpha, beta) == expected_node_terms(g, alpha, beta)


def test_row_intersections_hub_empty_rows_and_empty_layer():
    n = 2000
    hub = [(0, j) for j in range(1, n)] + [(j, 0) for j in range(1, n)]
    spokes = [(0, j) for j in range(1, n, 2)] + [(j, 0) for j in range(1, n) if j % 3]
    g = multiplex(n, {"hub": hub, "spokes": spokes, "empty": []})
    for alpha in g.layer_names:
        for beta in g.layer_names:
            assert node_term_counts(g, alpha, beta) == expected_node_terms(g, alpha, beta)
    assert node_term_counts(g, "hub", "spokes")[0][:4] == [len(range(1, n)) - len(range(3, n, 3)), 1, 0, 1]
    assert node_term_counts(g, "hub", "spokes")[1][:4] == [n // 2, 1, 1, 0]
    assert node_term_counts(g, "hub", "empty") == [[0] * n] * 3
    none = LayerView("none", 0, np.zeros(0, dtype=np.int64))
    assert layer_metrics(none).reciprocated.tolist() == []


def test_csr_row_starts_round_trip_past_46340_nodes():
    # 46,341 squared exceeds 2**31: row starts computed in a 32-bit
    # default integer would wrap and misplace every row near the end
    # (only on a platform whose default integer is 32 bits; elsewhere
    # this passes either way)
    n = 50_000
    rows = {n - 1: [0, 7, n - 2], n - 2: [n - 1], n - 3: [1, n - 4], 46_341: [46_340, 49_000], 3: [n - 1]}
    keys = np.array(sorted(i * n + j for i, row in rows.items() for j in row), dtype=np.int64)
    matrix = CSR.from_keys(keys, n)
    assert matrix.indptr.dtype == np.int64 and matrix.indptr[-1] == len(keys)
    stored = matrix.rows()
    assert {i: row for i, row in enumerate(stored) if row} == {i: sorted(row) for i, row in rows.items()}


@pytest.mark.parametrize("swar", [False, True])
def test_popcount_counts_set_bits(monkeypatch, swar):
    if swar:
        force_swar_popcount(monkeypatch)
    rng = np.random.default_rng(11)
    words = rng.integers(0, 2**64, size=(500, 16), dtype=np.uint64)
    words[0] = [0, 2**64 - 1, 1, 2**63, 0x5555555555555555, 0xAAAAAAAAAAAAAAAA, 0xFF, 0xFF << 56, *range(8)]
    words[1] &= words[2]  # sparser words
    counts = popcount(words)
    assert counts.shape == words.shape
    assert counts.tolist() == [[bin(w).count("1") for w in row] for row in words.tolist()]
    assert counts[0, :4].tolist() == [0, 64, 1, 1]


def fsum_means(terms, indptr):
    """The reference: ``math.fsum`` of each row over its length, 0 for an empty row."""
    values, bounds = list(terms), list(indptr)
    return [math.fsum(values[s:e]) / (e - s) if e > s else 0.0 for s, e in zip(bounds, bounds[1:])]


def assert_row_means_exact(rows):
    """``row_means`` over ``rows`` (lists of floats) equals ``fsum_means`` in every bit."""
    terms = np.array([x for row in rows for x in row], dtype=np.float64)
    indptr = np.concatenate(([0], np.cumsum([len(row) for row in rows], dtype=np.int64)))
    got = row_means(terms, indptr)
    assert got.dtype == np.float64
    assert list(map(float.hex, got.tolist())) == list(map(float.hex, fsum_means(terms.tolist(), indptr.tolist())))


def closure_rows(g):
    """``(terms, indptr)`` of every cycle and triplet closure the reports compute on ``g``."""
    views = [g.view(name) for name in g.layer_names]
    for va in views:
        for vb in views:
            for anchor, walk, compared in ((va.out, vb.inn, vb.inn), (va.out, va.out, vb.out)):
                nodes = walk.row_ids()
                inter = intersection_counts(anchor, compared, nodes, walk.indices)
                yield jaccard_terms(inter, anchor.degrees()[nodes], compared.degrees()[walk.indices]), walk.indptr


def test_row_means_equal_fsum_on_every_corpus_closure_row():
    rows = 0
    for g in metric_corpus():
        for terms, indptr in closure_rows(g):
            got = row_means(terms, indptr).tolist()
            assert list(map(float.hex, got)) == list(map(float.hex, fsum_means(terms.tolist(), indptr.tolist())))
            rows += len(indptr) - 1
    assert rows > 10_000


def test_row_means_equal_fsum_on_random_jaccard_rows():
    rng = random.Random(17)
    for n in (10, 1000, 50_000):
        rows = []
        for _ in range(300):
            row = []
            for _ in range(rng.choice((0, 1, 2, 7, 60, 900))):
                k = rng.randint(1, 2 * n)
                row.append(rng.randint(0, k) / k)
            rows.append(row)
        assert_row_means_exact(rows)


def test_row_means_round_the_exact_sum_once():
    row = [0.1] * 10
    assert sum(row) != math.fsum(row)  # plain addition rounds at every step
    assert_row_means_exact([row])
    assert row_means(np.array(row), np.array([0, 10])).tolist() == [0.1]
    third = [1 / 3, 2 / 3, 1 / 7, 6 / 7, 1 / 9973]
    assert_row_means_exact([third, third[::-1], [1.0] * 3 + third])


def test_row_means_of_empty_zero_and_single_rows():
    assert_row_means_exact([[], [0.0, 0.0], [], [0.5], [0.0]])
    assert_row_means_exact([[0.25]])
    assert_row_means_exact([[], []])
    assert_row_means_exact([[0.0] * 4])
    assert row_means(np.zeros(0), np.array([0])).tolist() == []


@pytest.mark.parametrize("rows, falls_back", [
    ([[2.0 ** -80, 0.5, 1 / 3], [0.75]], True),  # S = 53 + 79 > 72
    ([[2.0 ** -20, 0.5], [1.0] * (2 ** 17 - 1)], False),  # S = 72 and the longest row summed exactly
    ([[0.5] * 2 ** 17, [1 / 3]], True),  # a row of 2**17 terms
])
def test_row_means_fall_back_to_fsum(monkeypatch, rows, falls_back):
    calls = []
    monkeypatch.setattr(kernels, "math", SimpleNamespace(fsum=lambda values: calls.append(1) or math.fsum(values)))
    assert_row_means_exact(rows)
    assert bool(calls) == falls_back
