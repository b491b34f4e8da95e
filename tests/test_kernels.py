import random
import tracemalloc

import numpy as np
from conftest import metric_corpus

from tieplex import LayerSpec, build_graph, layer_metrics, wedge_closure
from tieplex.kernels import CSR, intersection_counts, row_intersections


def csr(sets):
    """CSR whose row ``i`` holds the members of ``sets[i]``, each in ``0..len(sets)-1``."""
    n = len(sets)
    return CSR.from_keys(np.array(sorted(i * n + j for i, row in enumerate(sets) for j in row), dtype=np.int64), n)


def test_intersection_counts_match_sets_across_blocks_and_steps():
    # n = 100k columns gives mark blocks of 10 rows; one row of 40k
    # entries spans two gather steps of 2**15
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


def assert_diagonal(P, Q):
    nodes = np.arange(len(P.indptr) - 1)
    counts = row_intersections(P, Q)
    assert counts.dtype == np.int64
    assert counts.tolist() == intersection_counts(P, Q, nodes, nodes).tolist()


def test_row_intersections_match_intersection_counts_on_corpus():
    for g in metric_corpus():
        views = [g.view(name) for name in g.layer_names]
        matrices = [m for v in views for m in (v.out, v.inn, v.und)]
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
