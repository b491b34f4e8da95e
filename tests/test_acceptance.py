"""Acceptance suite.

Each test is one acceptance criterion at its stated tolerance and
prints one PASS/FAIL line (visible with ``pytest -s``).
"""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

from tieplex import (
    AttributeTable,
    CrossLayerAverages,
    LayerParams,
    LayerSpec,
    actor_metrics,
    attribute_metrics,
    build_graph,
    cross_cycle_closure,
    cross_layer_averages,
    cross_layer_table,
    cross_reciprocity,
    cross_triplet_closure,
    cycle_closure,
    generate_synthetic,
    layer_metrics,
    overlap_in,
    overlap_out,
    path_stats,
    reciprocated_count,
    reciprocity,
    strongly_connected_components,
    three_cycle_count,
    triplet_closure,
    triplet_count,
    unnetworked_similarity,
    wedge_closure,
    write_demo_dataset,
)
from tieplex.cli import main
from tieplex.report import endogenous_report, summary_report
from tieplex.io import load_dataset
from tieplex.structure import largest_scc

import oracles
from conftest import force_probe, metric_corpus, two_layer

DATA = Path(__file__).resolve().parent.parent / "data" / "demo"
TOL = 1e-12


@contextmanager
def criterion(num, name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:2d} {name}: PASS ({time.perf_counter() - start:.2f}s)")


def test_criterion_1_metric_oracle_equivalence():
    with criterion(1, "single-layer metrics vs literal formula oracle"):
        start = time.perf_counter()
        for g in metric_corpus(200):
            for name in g.layer_names:
                v = g.view(name)
                x = oracles.view_matrix(v)
                for i in range(g.n_nodes):
                    assert abs(reciprocity(v, i) - oracles.norm_reciprocity(x, i)) <= TOL
                    assert three_cycle_count(v, i) == oracles.cycle_count(x, i)
                    assert abs(cycle_closure(v, i) - oracles.cycle_closure(x, i)) <= TOL
                    assert triplet_count(v, i) == oracles.triplet_count(x, i)
                    assert abs(triplet_closure(v, i) - oracles.triplet_closure(x, i)) <= TOL
        assert time.perf_counter() - start < 10.0


def test_criterion_2_cross_layer_reduction_bitwise():
    with criterion(2, "cross-layer metrics reduce bitwise at alpha == beta"):
        for g in metric_corpus(200):
            for name in g.layer_names:
                v = g.view(name)
                for i in range(g.n_nodes):
                    assert cross_reciprocity(g, name, name, i) == reciprocity(v, i)
                    assert cross_cycle_closure(g, name, name, i) == cycle_closure(v, i)
                    assert cross_triplet_closure(g, name, name, i) == triplet_closure(v, i)


def test_criterion_3_bounds_fuzzing():
    with criterion(3, "10k+ evaluations stay in [0,1], rec <= min(dout,din)"):
        evaluations = 0
        for g in metric_corpus(90):
            for name in g.layer_names:
                v = g.view(name)
                for i in range(g.n_nodes):
                    values = (
                        reciprocity(v, i),
                        cycle_closure(v, i),
                        triplet_closure(v, i),
                        cross_reciprocity(g, "a", "b", i),
                        overlap_out(g, "a", "b", i),
                        overlap_in(g, "a", "b", i),
                    )
                    evaluations += len(values)
                    for value in values:
                        assert 0.0 <= value <= 1.0
                    assert reciprocated_count(v, i) <= min(v.out_degree(i), v.in_degree(i))
        assert evaluations >= 10_000


def test_criterion_4_scc_and_path_oracle():
    with criterion(4, "SCC partition and path stats vs matrix-closure oracle"):
        start = time.perf_counter()
        for k in range(100):
            n = 2 + (k * 7) % 49
            p = 0.02 + (k % 5) * 0.04
            g, _ = generate_synthetic(1000 + k, n, [LayerParams("L", p, 0.3)])
            v = g.view("L")
            x = oracles.view_matrix(v)
            assert set(strongly_connected_components(v)) == oracles.scc_partition(x)
            giant = largest_scc(v)
            assert len(giant) == max(len(c) for c in oracles.scc_partition(x))
            if len(giant) >= 2:
                stats = path_stats(v, giant)
                avg, diam = oracles.component_path_stats(x, sorted(giant))
                assert stats.avg_path == avg
                assert stats.diameter == diam
        assert time.perf_counter() - start < 30.0


def test_criterion_5_wedge_oracle_and_union():
    with criterion(5, "wedge totals and closure vs brute force; any == union"):
        for k in range(100):
            n = 2 + (k * 3) % 19
            g, _ = generate_synthetic(
                2000 + k, n,
                [LayerParams("a", 0.2, 0.3), LayerParams("b", 0.18, 0.6)],
                aggregates=[LayerSpec.aggregate("u", "a", "b")],
            )
            xa = oracles.view_matrix(g.view("a"))
            xb = oracles.view_matrix(g.view("b"))
            report = wedge_closure(g, "a", ["a", "b"])
            total, closed = oracles.wedge_counts(xa, {"a": xa, "b": xb})
            assert report.total == total
            assert report.closed == closed
            for name, c in closed.items():
                expected = (100.0 * c / total) if total else 0.0
                assert report.pct[name] == expected
            union_report = wedge_closure(g, "a", ["u"])
            assert union_report.closed["u"] == report.closed["any"]
            assert union_report.pct["u"] == report.pct["any"]


def test_criterion_6_avg_total_degree_convention(tmp_path):
    with criterion(6, "avg_total_degree is edges over nodes"):
        (tmp_path / "nodes.txt").write_text("a\nb\nc\n", encoding="utf-8")
        (tmp_path / "edges.csv").write_text(
            "source,target,layer\na,b,x\nb,c,x\nc,a,y\n", encoding="utf-8"
        )
        (tmp_path / "manifest.json").write_text(
            json.dumps(
                {
                    "nodes": "nodes.txt",
                    "edges": "edges.csv",
                    "layers": [
                        {"name": "x", "kind": "basic"},
                        {"name": "y", "kind": "basic"},
                        {"name": "all", "kind": "aggregate", "constituents": ["x", "y"]},
                    ],
                }
            ),
            encoding="utf-8",
        )
        dataset = load_dataset(tmp_path / "manifest.json")
        assert dataset.graph.view("all").n_edges == 3
        report = summary_report(dataset)
        row = next(r for r in report["rows"] if r["layer"] == "all")
        assert row["avg_total_degree"] == 1.0


def test_criterion_7_hand_worked_fixtures():
    with criterion(7, "hand-worked fixture values"):
        def close(a, b):
            assert abs(a - b) <= TOL

        ring = build_graph(
            ["1", "2", "3"], [LayerSpec.basic("L")],
            [("1", "2", "L"), ("2", "3", "L"), ("3", "1", "L")],
        ).view("L")
        for i in range(3):
            close(reciprocity(ring, i), 0.0)
            assert three_cycle_count(ring, i) == 1
            close(cycle_closure(ring, i), 1.0)
            assert triplet_count(ring, i) == 0
            close(triplet_closure(ring, i), 0.0)
        lm = layer_metrics(ring)
        close(lm.avg_reciprocity, 0.0)
        close(lm.avg_cycle_closure, 1.0)
        close(lm.avg_triplet_closure, 0.0)
        stats = path_stats(ring, {0, 1, 2})
        close(stats.avg_path, 1.5)
        assert stats.diameter == 2

        triplet = build_graph(
            ["1", "2", "3"], [LayerSpec.basic("L")],
            [("1", "2", "L"), ("2", "3", "L"), ("1", "3", "L")],
        ).view("L")
        assert triplet_count(triplet, 0) == 1
        close(triplet_closure(triplet, 0), 0.25)
        close(cycle_closure(triplet, 2), 0.0)
        assert all(three_cycle_count(triplet, i) == 0 for i in range(3))
        assert all(abs(reciprocity(triplet, i)) <= TOL for i in range(3))

        dyad = build_graph(
            ["1", "2"], [LayerSpec.basic("L")], [("1", "2", "L"), ("2", "1", "L")]
        ).view("L")
        assert reciprocated_count(dyad, 0) == 1
        close(reciprocity(dyad, 0), 1.0)
        assert three_cycle_count(dyad, 0) == triplet_count(dyad, 0) == 0
        close(cycle_closure(dyad, 0), 0.0)
        close(triplet_closure(dyad, 0), 0.0)
        stats = path_stats(dyad, {0, 1})
        close(stats.avg_path, 1.0)
        assert stats.diameter == 1


def test_criterion_8_determinism(tmp_path, capsys):
    with criterion(8, "byte-identical reports and demo regeneration"):
        manifest = str(DATA / "manifest.json")
        for command in ("summary", "endogenous", "cross"):
            first = tmp_path / f"{command}-1.json"
            second = tmp_path / f"{command}-2.json"
            for out in (first, second):
                code = main([command, "--manifest", manifest, "--format", "json", "--out", str(out)])
                assert code == 0
            assert first.read_bytes() == second.read_bytes()
        write_demo_dataset(tmp_path / "regen")
        for name in ("nodes.txt", "edges.csv", "attributes.csv", "manifest.json"):
            assert (tmp_path / "regen" / name).read_bytes() == (DATA / name).read_bytes()


def test_criterion_9_strong_more_reciprocal_than_weak():
    with criterion(9, "demo strong layers more reciprocal than weak"):
        dataset = load_dataset(DATA / "manifest.json")
        report = endogenous_report(dataset)
        rows = {r["layer"]: r["avg_reciprocity"] for r in report["rows"]}
        assert rows["strong"] > rows["weak"]
        assert rows["strong_off"] > rows["weak_off"]
        assert rows["strong_on"] > rows["weak_on"]


def test_criterion_10_attribute_oracle_and_relabel_invariance():
    with criterion(10, "attribute metrics vs literal formulas; baseline relabel-invariant"):
        for seed in range(50):
            n = 3 + seed % 10
            g, attrs = generate_synthetic(
                3000 + seed, n, [LayerParams("L", 0.3, 0.4)],
                attributes={"c1": ("p", "q"), "c2": ("r", "s", "t")},
            )
            # blank out every fourth node so empty attribute sets occur
            kept = {
                label: attrs.tokens(label)
                for k, label in enumerate(g.labels)
                if k % 4 != 0
            }
            table = AttributeTable(kept)
            tokens = [table.tokens(label) for label in g.labels]
            x = oracles.view_matrix(g.view("L"))
            records, baseline = attribute_metrics(g, "L", table)
            for i, record in enumerate(records):
                assert abs(record.out_similarity - oracles.attr_out(x, tokens, i)) <= TOL
                assert abs(record.in_similarity - oracles.attr_in(x, tokens, i)) <= TOL
            assert abs(baseline - oracles.attr_baseline(tokens)) <= TOL
            shuffled = list(g.labels)
            shuffled.reverse()
            assert unnetworked_similarity(shuffled, table) == baseline


def test_criterion_11_kernels_match_set_reference_bitwise():
    with criterion(11, "layer and cross-layer kernels equal the per-actor set functions bitwise"):
        check_kernels_match_set_reference()


def test_criterion_11_kernels_match_set_reference_bitwise_on_probe_path(monkeypatch):
    force_probe(monkeypatch)
    check_kernels_match_set_reference()


def fsum_mean(values, n):
    """The reference layer average: ``math.fsum`` over all ``n`` nodes, 0 for no nodes."""
    return math.fsum(values) / n if n else 0.0


def check_kernels_match_set_reference():
    edge_cases = [
        two_layer([], [], 4),  # all isolates
        two_layer([(0, 1), (1, 2), (2, 0), (0, 2)], [], 3),  # layer b has no edges
        two_layer([(0, 1)], [(1, 0)], 2),  # n = 2
        # in a, 0 -> 1 and 2 -> 3 come from nodes with no in-ties into
        # nodes with no out-ties: both-empty cycle terms at 1 and 3
        two_layer([(0, 1), (2, 3)], [(1, 2), (3, 0)], 4),
    ]
    for g in [*metric_corpus(200), *edge_cases]:
        n = g.n_nodes
        for alpha in g.layer_names:
            v = g.view(alpha)
            lm = layer_metrics(v)
            actors = tuple(actor_metrics(v, i) for i in range(n))
            assert lm.actors == actors
            assert lm.avg_reciprocity == fsum_mean([a.reciprocity for a in actors], n)
            assert lm.avg_cycle_closure == fsum_mean([a.cycle_closure for a in actors], n)
            assert lm.avg_triplet_closure == fsum_mean([a.triplet_closure for a in actors], n)
            for beta in g.layer_names:
                table = cross_layer_table(g, alpha, beta)
                fields = ("reciprocity", "cycle_closure", "triplet_closure", "overlap_out", "overlap_in")
                expected = CrossLayerAverages(
                    alpha, beta, *(fsum_mean([getattr(r, f) for r in table], n) for f in fields)
                )
                assert cross_layer_averages(g, alpha, beta) == expected
