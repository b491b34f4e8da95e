import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from tieplex import (
    LayerParams,
    LayerSpec,
    build_graph,
    cross_layer_metrics,
    generate_synthetic,
    graph,
    kernels,
    layer_metrics,
    structure,
)


# Every report verb with the arguments it requires, each layer argument
# naming a layer called "all"; test_report_cli checks it against verbs.REPORTS.
REPORT_VERBS = (
    ["summary"],
    ["endogenous"],
    ["cross"],
    ["equiv", "--layer", "all"],
    ["wedges", "--wedge-layer", "all"],
    ["attrs", "--layer", "all"],
)


def single(edges, n):
    """One-layer graph on nodes '0'..'n-1' with integer-pair edges."""
    labels = [str(k) for k in range(n)]
    triples = [(str(i), str(j), "L") for i, j in edges]
    return build_graph(labels, [LayerSpec.basic("L")], triples).view("L")


def undirected(view):
    """The undirected projection of ``view`` (out ∪ in), built as ``wedge_closure`` builds it."""
    return structure._undirected(view)


def two_layer(edges_a, edges_b, n):
    """Two basic layers 'a'/'b' plus their union 'both'."""
    labels = [str(k) for k in range(n)]
    specs = [LayerSpec.basic("a"), LayerSpec.basic("b"), LayerSpec.aggregate("both", "a", "b")]
    triples = [(str(i), str(j), "a") for i, j in edges_a]
    triples += [(str(i), str(j), "b") for i, j in edges_b]
    return build_graph(labels, specs, triples)


def actor_column(name):
    """``f(view, i)``: entry ``i`` of the ``layer_metrics(view)`` column ``name``, as the package ships it."""
    return lambda view, i: getattr(layer_metrics(view), name)[i].item()


def pair_column(name):
    """``f(g, alpha, beta, i)``: entry ``i`` of the ``cross_layer_metrics(g, alpha, beta)`` column ``name``."""
    return lambda g, alpha, beta, i: getattr(cross_layer_metrics(g, alpha, beta), name)[i].item()


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


def force_probe(monkeypatch):
    """Send every closure count to the triangle listing: no dense matrix fits a 0-byte budget."""
    monkeypatch.setattr(kernels, "_DENSE_BYTES", 0)


def force_swar_popcount(monkeypatch):
    """Send every ``kernels.popcount`` call to its SWAR fallback, as on numpy before 2.0, and hide ``np.bitwise_count``."""
    monkeypatch.setattr(kernels, "_BITWISE_COUNT", False)
    monkeypatch.delattr(np, "bitwise_count", raising=False)


def count_listings(monkeypatch):
    """Count the triangle listings the pair tables start: a dict whose ``"listing"`` entry grows by one per walk."""
    calls = {"listing": 0}
    real = graph.triangles

    def counted(*args):
        calls["listing"] += 1
        return real(*args)

    monkeypatch.setattr(graph, "triangles", counted)
    return calls


@pytest.fixture(params=["dense", "probe"])
def kernel_path(request, monkeypatch):
    """Run a test once on each closure strategy, the dense product and (``probe``) the triangle listing.

    The ``probe`` id names the path above the dense limit, which the
    sorted-key probe took before the listing.  Yields the calls each
    strategy got.
    """
    if request.param == "probe":
        force_probe(monkeypatch)
    calls = count_listings(monkeypatch)
    calls["dense"] = 0
    real = kernels._dense

    def counted(*args):
        calls["dense"] += 1
        return real(*args)

    monkeypatch.setattr(kernels, "_dense", counted)
    yield calls
    used, other = ("dense", "listing") if request.param == "dense" else ("listing", "dense")
    assert calls[used] and not calls[other], calls


def write_sparse_input(path, seed, n, monkeypatch):
    """Write the ``benchmarks/sparse_gen.py`` dataset of ``n`` nodes under ``path``; returns its manifest path."""
    spec = importlib.util.spec_from_file_location(
        "bench_sparse_gen", Path(__file__).parents[1] / "benchmarks" / "sparse_gen.py"
    )
    sparse_gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, sparse_gen)  # its dataclass looks itself up there
    spec.loader.exec_module(sparse_gen)
    sparse_gen.write_sparse_dataset(path, seed, n)
    return path / "manifest.json"
