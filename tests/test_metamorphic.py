"""Metamorphic properties: input changes whose effect on every result is known in advance.

Appending isolated nodes leaves every count and every per-actor value
of the old nodes as it was; only the averages that divide by the node
count change, to the old sum over the new count.  Declaring the layers
in another order changes nothing a layer's row holds.
"""

import json
import math

import numpy as np
import pytest

from tieplex import (
    build_graph,
    cross_layer_averages,
    cross_layer_metrics,
    generate_synthetic,
    layer_metrics,
    layer_summary,
    load_dataset,
    wedge_closure,
    write_demo_dataset,
)
from tieplex.report import cross_report, endogenous_report, summary_report, wedge_report
from tieplex.synth import DEMO_AGGREGATES, DEMO_LAYERS

import oracles
from conftest import metric_corpus

METRIC_COLUMNS = (
    "out_degree", "in_degree", "reciprocated", "reciprocity",
    "three_cycles", "cycle_closure", "triplets", "triplet_closure",
)
CROSS_COLUMNS = ("reciprocity", "cycle_closure", "triplet_closure", "overlap_out", "overlap_in")


def with_isolates(g, k):
    """``g`` rebuilt from its basic ties with ``k`` isolated nodes appended."""
    labels = [*g.labels, *(f"isolated-{j}" for j in range(k))]
    edges = [
        (g.labels[i], g.labels[j], name)
        for name in g.basic_layer_names
        for i, j in oracles.edges(g.view(name))
    ]
    return build_graph(labels, g.specs, edges)


def graphs():
    """Small corpus graphs and one demo-sized multiplex, the latter with SCCs of many nodes."""
    yield from metric_corpus(40)
    yield generate_synthetic(3, 60, DEMO_LAYERS, DEMO_AGGREGATES)[0]


def same_float(x, y):
    return x == y or (math.isnan(x) and math.isnan(y))


@pytest.mark.parametrize("k", [1, 7])
def test_isolates_leave_layer_metrics_and_scale_averages(kernel_path, k):
    for g in graphs():
        h = with_isolates(g, k)
        n = g.n_nodes
        for name in g.layer_names:
            before, after = layer_metrics(g.view(name)), layer_metrics(h.view(name))
            for column in METRIC_COLUMNS:
                old, new = getattr(before, column), getattr(after, column)
                assert np.array_equal(new[:n], old), (name, column)
                assert not new[n:].any(), (name, column)
            for column in ("reciprocity", "cycle_closure", "triplet_closure"):
                expected = math.fsum(getattr(before, column).tolist()) / (n + k)
                assert getattr(after, f"avg_{column}") == expected, (name, column)


@pytest.mark.parametrize("k", [1, 7])
def test_isolates_leave_cross_layer_metrics_and_scale_averages(kernel_path, k):
    for g in graphs():
        h = with_isolates(g, k)
        n = g.n_nodes
        layers = g.layer_names
        for alpha, beta in zip(layers, layers[1:] + layers[:1]):
            before, after = cross_layer_metrics(g, alpha, beta), cross_layer_metrics(h, alpha, beta)
            averages = cross_layer_averages(h, alpha, beta)
            for column in CROSS_COLUMNS:
                old = getattr(before, column).tolist()
                assert getattr(after, column).tolist() == old + [0.0] * k, (alpha, beta, column)
                assert getattr(averages, f"avg_{column}") == math.fsum(old) / (n + k), (alpha, beta, column)


@pytest.mark.parametrize("k", [1, 7])
def test_isolates_leave_summary_rows(k):
    big_scc = 0
    for g in graphs():
        h = with_isolates(g, k)
        for name in g.layer_names:
            before, after = layer_summary(g.view(name)), layer_summary(h.view(name))
            assert same_float(after.assortativity, before.assortativity), name
            assert (after.n_nodes, after.n_edges) == (before.n_nodes + k, before.n_edges)
            assert after.avg_total_degree == before.n_edges / (before.n_nodes + k)
            if before.scc_nodes >= 2:
                big_scc += 1
                scc = ("scc_nodes", "scc_edges", "avg_path", "diameter")
                assert [getattr(after, c) for c in scc] == [getattr(before, c) for c in scc], name
    assert big_scc >= 50


@pytest.mark.parametrize("k", [1, 7])
def test_isolates_leave_wedge_counts(kernel_path, k):
    for g in graphs():
        h = with_isolates(g, k)
        for name in g.layer_names:
            closing = [c for c in g.layer_names if c != name]
            before, after = wedge_closure(g, name, closing), wedge_closure(h, name, closing)
            assert (after.total, after.closed, after.pct) == (before.total, before.closed, before.pct)


def reorder_layers(manifest, order):
    """Rewrite ``manifest`` with its layers declared as ``order`` arranges them."""
    doc = json.loads(manifest.read_text(encoding="utf-8"))
    doc["layers"] = order(doc["layers"])
    manifest.write_text(json.dumps(doc), encoding="utf-8")


def aggregates_reversed(layers):
    basic = [layer for layer in layers if layer["kind"] == "basic"]
    aggregates = [layer for layer in layers if layer["kind"] == "aggregate"]
    return basic + aggregates[::-1]


def all_reversed(layers):
    # aggregates first, each listing its constituents backwards
    return [{**layer, "constituents": layer["constituents"][::-1]} for layer in layers[::-1]]


def rows_by(report, *key):
    return {tuple(row[k] for k in key): json.dumps(row, sort_keys=True) for row in report["rows"]}


@pytest.mark.parametrize("order", [aggregates_reversed, all_reversed])
def test_layer_order_leaves_every_row(tmp_path, order):
    write_demo_dataset(tmp_path / "declared", seed=5, n_nodes=60)
    write_demo_dataset(tmp_path / "reordered", seed=5, n_nodes=60)
    reorder_layers(tmp_path / "reordered" / "manifest.json", order)
    declared, reordered = (load_dataset(tmp_path / d / "manifest.json") for d in ("declared", "reordered"))
    assert reordered.graph.layer_names != declared.graph.layer_names
    assert set(reordered.graph.layer_names) == set(declared.graph.layer_names)
    keys = {summary_report: ("layer",), endogenous_report: ("layer",), cross_report: ("alpha", "beta")}
    for report, key in keys.items():
        assert rows_by(report(reordered), *key) == rows_by(report(declared), *key), report.__name__
    details = (summary_report(d)["details"]["directed_assortativity"] for d in (reordered, declared))
    assert json.dumps(next(details), sort_keys=True) == json.dumps(next(details), sort_keys=True)
    names = sorted(declared.graph.layer_names)
    for name in names:
        closing = [c for c in names if c != name]
        wedges = (wedge_report(d, name, closing) for d in (reordered, declared))
        assert json.dumps(next(wedges), sort_keys=True) == json.dumps(next(wedges), sort_keys=True), name
