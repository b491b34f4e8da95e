import pytest

from tieplex import LayerParams, LayerSpec, build_graph, generate_synthetic


def single(edges, n):
    """One-layer graph on nodes '0'..'n-1' with integer-pair edges."""
    labels = [str(k) for k in range(n)]
    triples = [(str(i), str(j), "L") for i, j in edges]
    return build_graph(labels, [LayerSpec.basic("L")], triples).view("L")


def two_layer(edges_a, edges_b, n):
    """Two basic layers 'a'/'b' plus their union 'both'."""
    labels = [str(k) for k in range(n)]
    specs = [LayerSpec.basic("a"), LayerSpec.basic("b"), LayerSpec.aggregate("both", "a", "b")]
    triples = [(str(i), str(j), "a") for i, j in edges_a]
    triples += [(str(i), str(j), "b") for i, j in edges_b]
    return build_graph(labels, specs, triples)


def metric_corpus(count=200):
    """Seeded multiplex graphs: n <= 15, two basic layers plus an aggregate, p = 0.2."""
    for seed in range(count):
        n = 2 + seed % 14
        bias_a = (seed % 3) * 0.5
        bias_b = ((seed // 3) % 3) * 0.5
        g, _ = generate_synthetic(
            seed, n,
            [LayerParams("a", 0.2, bias_a), LayerParams("b", 0.2, bias_b)],
            aggregates=[LayerSpec.aggregate("u", "a", "b")],
        )
        yield g


@pytest.fixture
def three_cycle():
    return single([(0, 1), (1, 2), (2, 0)], 3)


@pytest.fixture
def transitive_triplet():
    return single([(0, 1), (1, 2), (0, 2)], 3)


@pytest.fixture
def mutual_dyad():
    return single([(0, 1), (1, 0)], 2)
