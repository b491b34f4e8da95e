import math
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import oracles
import pytest
from conftest import force_probe, force_swar_popcount, metric_corpus, undirected

from tieplex import LayerSpec, build_graph, kernels, layer_metrics, wedge_closure
from tieplex.kernels import CSR, intersection_counts, jaccard_terms, popcount, row_intersections, row_means


def csr(sets):
    """CSR whose row ``i`` holds the members of ``sets[i]``, each in ``0..len(sets)-1``."""
    n = len(sets)
    return CSR.from_keys(np.array(sorted(i * n + j for i, row in enumerate(sets) for j in row), dtype=np.int64), n)


def test_intersection_counts_match_sets_across_blocks_and_steps():
    # n = 100k is far above the dense limit, so the probe runs; one row
    # of 40k entries spans two gather steps of 2**15
    rng = random.Random(5)
    n = 100_000
    p_rows, q_rows = [set() for _ in range(n)], [set() for _ in range(n)]
    for k in rng.sample(range(n), 300):
        p_rows[k] = set(rng.sample(range(n), rng.choice((1, 30, 300))))
        q_rows[k] = set(rng.sample(range(n), rng.choice((2, 50, 500)))) | set(rng.sample(sorted(p_rows[k]), 1))
    p_rows[7] = set(rng.sample(range(n), 40_000))
    q_rows[11] = p_rows[7] | {0}
    P, Q = csr(p_rows), csr(q_rows)
    busy = [k for k in range(n) if p_rows[k] or q_rows[k]] + [3]
    same = rng.sample(busy, 200)
    rows = [rng.choice(busy) for _ in range(200)] + same + [7, 7, 11, 7]
    cols = [rng.choice(busy) for _ in range(200)] + same + [11, 7, 7, 3]
    expected = [len(p_rows[r] & q_rows[c]) for r, c in zip(rows, cols)]
    assert sum(map(bool, expected)) > 200
    assert intersection_counts(P, Q, rows, cols).tolist() == expected
    assert intersection_counts(P, Q, [], []).tolist() == []


def all_pairs_match_sets(P, Q):
    """``intersection_counts`` over every (row, col) pair equals the set intersections."""
    n = len(P.indptr) - 1
    p_rows, q_rows = [set(r) for r in P.rows()], [set(r) for r in Q.rows()]
    rows, cols = np.divmod(np.arange(n * n), n)
    expected = [len(p_rows[r] & q_rows[c]) for r, c in zip(rows.tolist(), cols.tolist())]
    assert intersection_counts(P, Q, rows, cols).tolist() == expected


def test_intersection_counts_match_sets_on_corpus(kernel_path):
    for g in metric_corpus():
        v = g.view("u")
        und = undirected(v)
        for P in (v.out, v.inn, und):
            for Q in (v.out, v.inn, und):
                all_pairs_match_sets(P, Q)
        a, b = g.view("a"), g.view("b")
        all_pairs_match_sets(a.out, b.inn)
        all_pairs_match_sets(a.out, b.out)


def test_wedge_closure_matches_brute_force_on_corpus(kernel_path):
    for g in metric_corpus():
        x = {name: oracles.view_matrix(g.view(name)) for name in g.layer_names}
        for wedge_layer, closing in (("u", ["a", "b"]), ("a", ["a", "b", "u"]), ("b", ["u"])):
            report = wedge_closure(g, wedge_layer, closing)
            total, closed = oracles.wedge_counts(x[wedge_layer], {name: x[name] for name in closing})
            assert (report.total, report.closed) == (total, closed)


def padded(sets, n):
    """``csr(sets)`` with isolated rows appended up to ``n`` rows."""
    return csr([*sets, *(set() for _ in range(n - len(sets)))])


def test_dense_limit_gives_equal_counts_on_both_sides(monkeypatch):
    # the same ties on 512 nodes (the largest dense product) and on 513
    # (the smallest graph that takes the probe)
    dense_sizes = []
    real = kernels._dense
    monkeypatch.setattr(kernels, "_dense", lambda matrix, n: dense_sizes.append(n) or real(matrix, n))
    rng = random.Random(3)
    k = 300
    p_sets = [set(rng.sample(range(k), rng.choice((0, 2, 9, 40)))) for _ in range(k)]
    q_sets = [set(rng.sample(range(k), rng.choice((0, 3, 11, 80)))) for _ in range(k)]
    p_sets[5] = set(range(k))  # a hub
    rows = [rng.randrange(k) for _ in range(5000)] + [5] * k
    cols = [rng.randrange(k) for _ in range(5000)] + list(range(k))
    for n in (512, 513):
        P, Q = padded(p_sets, n), padded(q_sets, n)
        assert intersection_counts(P, Q, rows, cols).tolist() == [len(p_sets[r] & q_sets[c]) for r, c in zip(rows, cols)]
        assert intersection_counts(P, P, rows, cols).tolist() == [len(p_sets[r] & p_sets[c]) for r, c in zip(rows, cols)]
    assert dense_sizes == [512, 512, 512]  # P and Q, then P once for P with itself


def test_probe_chunks_that_split_single_rows(monkeypatch):
    # chunks of 7 probes cut most rows, so a count is summed across chunks
    force_probe(monkeypatch)
    monkeypatch.setattr(kernels, "_STEP", 7)
    for g in metric_corpus(60):
        v = g.view("u")
        und = undirected(v)
        for P, Q in ((v.out, v.inn), (und, und), (v.inn, v.out)):
            all_pairs_match_sets(P, Q)
    n = 40
    hub = csr([set(range(1, n))] + [{0, *range(k, n, k)} for k in range(1, n)])
    all_pairs_match_sets(hub, hub)


def test_hub_graph_memory_stays_bounded():
    # hub <-> leaf ties both ways: probing the hub row once per tie would
    # expand ~4M entries (30.5 MiB as one int64 array)
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


def probe_peak(P, Q, rows, cols):
    """``tracemalloc`` peak of one ``intersection_counts`` call, in bytes, and its counts."""
    tracemalloc.start()
    try:
        counts = intersection_counts(P, Q, rows, cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, counts


def test_probe_scratch_per_query_stays_bounded():
    # n = 6000 takes the probe.  Rows tie to nearby columns and queries
    # pair nearby rows, so many counts are nonzero.  Most queries expand
    # P's row, the rest Q's, so both groups run.  The probed keys and
    # the blocks do not grow with the query count, so the peak's slope
    # over two query counts is the scratch each query holds plus its
    # 8-byte count in the result.
    rng = np.random.default_rng(7)
    n = 6000

    def near(degrees):
        rows = np.repeat(np.arange(n), degrees)
        return CSR.from_keys(np.unique(rows * n + (rows + rng.integers(-20, 21, len(rows))) % n), n)

    P, Q = near(rng.choice([0, 1, 2, 3, 4, 12], size=n, p=[0.1, 0.2, 0.3, 0.2, 0.15, 0.05])), near(6)
    rows = rng.integers(0, n, 300_000).astype(np.intp)
    cols = (rows + rng.integers(-10, 11, len(rows))) % n
    assert 0.8 < (P.degrees()[rows] <= Q.degrees()[cols]).mean() < 0.97
    small, large = 75_000, 300_000
    peak_small, _ = probe_peak(P, Q, rows[:small], cols[:small])
    peak_large, counts = probe_peak(P, Q, rows, cols)
    p_rows, q_rows = P.rows(), Q.rows()
    sample = range(0, large, 97)
    assert [counts[t] for t in sample] == [len(set(p_rows[rows[t]]) & set(q_rows[cols[t]])) for t in sample]
    assert np.count_nonzero(counts) > 50_000
    per_query = (peak_large - peak_small) / (large - small) - 8
    assert per_query <= 40, per_query


def test_int32_cols_take_no_wider_copy():
    # metrics._closure passes a CSR's int32 indices as ``cols``; a widened
    # copy of them all would hold 8 more bytes per query than intp ``cols``
    rng = np.random.default_rng(9)
    n = 6000
    ends = np.repeat(np.arange(n), 5)  # ties to nearby nodes, so many counts are nonzero
    walk = CSR.from_keys(np.unique(ends * n + (ends + rng.integers(-10, 11, len(ends))) % n), n)
    rows, cols = walk.row_ids(), walk.indices
    assert cols.dtype == np.int32
    intersection_counts(walk, walk, rows, cols)  # the first call allocates a few hundred bytes once
    peak_int32, counts = probe_peak(walk, walk, rows, cols)
    peak_intp, expected = probe_peak(walk, walk, rows, cols.astype(np.intp))
    assert counts.tolist() == expected.tolist()
    assert np.count_nonzero(counts) > 1000
    assert peak_int32 <= peak_intp, (peak_int32, peak_intp)


def test_int32_cols_near_the_last_node_id():
    # 49,999 * 50,000 wraps in int32, so the probe widens each step's
    # column ids before it keys them
    rng = random.Random(11)
    n = 50_000
    ends = range(n - 50, n)
    p_rows, q_rows = [set() for _ in range(n)], [set() for _ in range(n)]
    for k in [*rng.sample(range(n - 50), 200), *ends]:
        p_rows[k] = set(rng.sample(ends, 5)) | set(rng.sample(range(n), 5))
        q_rows[k] = set(rng.sample(ends, 5)) | set(rng.sample(range(n), 5))
    P, Q = csr(p_rows), csr(q_rows)
    busy = [k for k in range(n) if p_rows[k]]
    rows = [rng.choice(busy) for _ in range(2000)] + [n - 1] * 50
    cols = [rng.choice(busy) for _ in range(2000)] + list(ends)
    expected = [len(p_rows[r] & q_rows[c]) for r, c in zip(rows, cols)]
    assert sum(map(bool, expected)) > 500
    counts = intersection_counts(P, Q, np.array(rows, dtype=np.int32), np.array(cols, dtype=np.int32))
    assert counts.tolist() == expected


def assert_diagonal(P, Q):
    nodes = np.arange(len(P.indptr) - 1)
    counts = row_intersections(P, Q)
    assert counts.dtype == np.int64
    assert counts.tolist() == intersection_counts(P, Q, nodes, nodes).tolist()


def test_row_intersections_match_intersection_counts_on_corpus():
    for g in metric_corpus():
        views = [g.view(name) for name in g.layer_names]
        matrices = [m for v in views for m in (v.out, v.inn, undirected(v))]
        for P in matrices:
            for Q in matrices:
                assert_diagonal(P, Q)


def test_row_intersections_hub_empty_rows_and_empty_layer():
    n = 2000
    hub = csr([set(range(1, n))] + [{0} for _ in range(1, n)])
    spokes = csr([set(range(1, n, 2))] + [{0} if k % 3 else set() for k in range(1, n)])
    empty = csr([set() for _ in range(n)])
    for P, Q in ((hub, spokes), (spokes, hub), (hub, hub), (hub, empty), (empty, spokes), (empty, empty)):
        assert_diagonal(P, Q)
    assert row_intersections(hub, spokes)[:4].tolist() == [n // 2, 1, 1, 0]
    assert row_intersections(hub, empty).tolist() == [0] * n
    none = csr([])
    assert row_intersections(none, none).tolist() == []


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
