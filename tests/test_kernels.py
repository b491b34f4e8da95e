import random
import tracemalloc

from tieplex import LayerSpec, build_graph, layer_metrics, wedge_closure
from tieplex.kernels import CSR, intersection_counts


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
    P, Q = CSR.from_sets(p_rows), CSR.from_sets(q_rows)
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
