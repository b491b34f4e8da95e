"""Tests of the benchmark's own parts: generator, output checker, tracer.

Run with ``python -m pytest benchmarks``.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import run
from oracle import Dataset, check_output
from sparse_gen import BENCH_LAYERS, SparseLayer, draw_layer, write_sparse_dataset
from spans import Tracer, self_seconds

ROOT = Path(__file__).resolve().parent.parent


def _read_edges(path: Path) -> list[tuple[str, str, str]]:
    lines = path.read_text("utf-8").splitlines()
    assert lines[0] == "source,target,layer"
    return [tuple(line.split(",")) for line in lines[1:]]


def test_same_seed_same_bytes(tmp_path):
    write_sparse_dataset(tmp_path / "a", seed=7, n=500)
    write_sparse_dataset(tmp_path / "b", seed=7, n=500)
    write_sparse_dataset(tmp_path / "c", seed=8, n=500)
    for name in run.INPUT_FILES:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "edges.csv").read_bytes() != (tmp_path / "c" / "edges.csv").read_bytes()


def test_no_self_or_duplicate_ties(tmp_path):
    write_sparse_dataset(tmp_path, seed=3, n=300)
    edges = _read_edges(tmp_path / "edges.csv")
    assert edges
    assert all(src != dst for src, dst, _ in edges)
    assert len(set(edges)) == len(edges)


def test_mean_degree_in_expected_range(tmp_path):
    n = 4000
    info = write_sparse_dataset(tmp_path, seed=11, n=n)
    for layer in BENCH_LAYERS:
        # Each drawn tie brings its reverse with probability `mutuality`;
        # collisions with independently drawn reverses are O(d / n).
        expected = layer.mean_degree * (1 + layer.mutuality)
        assert 0.95 * expected < info["ties"][layer.name] / n < 1.05 * expected


class CountingRandom(random.Random):
    draws = 0

    def random(self):
        self.draws += 1
        return super().random()


def test_draws_grow_with_ties_not_pairs():
    rng = CountingRandom(5)
    ties = draw_layer(rng, 100_000, SparseLayer("x", 1.0, 0.0))
    # One skip draw and one mutuality draw per tie, plus the final skip.
    assert rng.draws == 2 * len(ties) + 1
    assert 0.9e5 < len(ties) < 1.1e5


def test_files_pass_validate_and_load(tmp_path):
    from tieplex.io import load_dataset

    info = write_sparse_dataset(tmp_path, seed=2, n=400)
    manifest = tmp_path / "manifest.json"
    proc = subprocess.run(
        [sys.executable, "-m", "tieplex.cli", "validate", "--manifest", str(manifest)],
        capture_output=True, text=True, env=run.CHILD_ENV, cwd=ROOT,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("manifest ok: 7 layers, 12 pairs")
    ds = load_dataset(manifest)
    assert ds.graph.n_nodes == 400
    assert {name: ds.report.edge_counts[name] for name in info["ties"]} == info["ties"]
    assert sum(ds.report.duplicates_collapsed.values()) == 0


VERBS = (
    run.VALIDATE,
    run.Verb("endogenous", fmt="json"),
    run.Verb("cross", fmt="json"),
    run.Verb("wedges", ("--wedge-layer", "all"), "csv"),
    run.Verb("attrs", ("--layer", "all"), "json"),
)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """A small dense dataset and each verb's output, run in this process."""
    directory = tmp_path_factory.mktemp("dense")
    write_sparse_dataset(directory, seed=4, n=150, layers=tuple(
        SparseLayer(layer.name, 6.0, layer.mutuality) for layer in BENCH_LAYERS
    ))
    manifest = directory / "manifest.json"
    runs = [run.call_main(v.argv(manifest), Tracer(), v.name) for v in VERBS]
    assert all(r.code == 0 and r.err == b"" for r in runs)
    return Dataset(manifest), [r.out for r in runs]


@pytest.fixture(scope="module")
def schema():
    from tieplex.report import load_report_schema

    return load_report_schema()


def test_outputs_pass_every_check(outputs, schema):
    ds, data = outputs
    for verb, out in zip(VERBS, data):
        assert check_output(ds, verb.name, verb.fmt, verb.args, out, schema) == []


def _bump_digit(data: bytes, key: bytes) -> bytes:
    """Change the last digit of the first number after ``key``."""
    start = data.index(key) + len(key)
    end = start
    while data[end : end + 1] not in (b",", b"\n", b"}"):
        end += 1
    pos = max(i for i in range(start, end) if data[i : i + 1].isdigit())
    digit = (data[pos] - ord("0") + 1) % 10
    return data[:pos] + bytes([ord("0") + digit]) + data[pos + 1 :]


@pytest.mark.parametrize("index,key", [
    (1, b'"avg_cycle_closure": '),
    (2, b'"avg_overlap_in": '),
    (3, b"# total_wedges="),
    (3, b"strong_on,"),
    (4, b'"baseline": '),
])
def test_one_corrupted_byte_is_caught(outputs, schema, index, key):
    ds, data = outputs
    verb = VERBS[index]
    bad = _bump_digit(data[index], key)
    assert sum(a != b for a, b in zip(bad, data[index])) == 1
    assert check_output(ds, verb.name, verb.fmt, verb.args, bad, schema)
    assert run.run_problems(run.Run(0.0, 0, None, bad, b""), data[index])


def test_unparsable_json_is_caught(outputs, schema):
    ds, data = outputs
    bad = data[1].replace(b"{", b"[", 1)
    assert check_output(ds, "endogenous", "json", (), bad, schema)


def test_tracer_records_nested_spans_and_restores_bindings(tmp_path):
    import tieplex.io
    import tieplex.report

    original = (tieplex.report.layer_metrics, tieplex.io.build_graph)
    write_sparse_dataset(tmp_path, seed=1, n=100)
    tracer = Tracer()
    with tracer.installed():
        assert tieplex.report.layer_metrics is not original[0]
        result = run.call_main(["endogenous", "--manifest", str(tmp_path / "manifest.json")], tracer, "endogenous")
    assert result.code == 0
    assert (tieplex.report.layer_metrics, tieplex.io.build_graph) == original
    assert tracer.missing == []
    names = [s.name for s in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0].parent is None
    assert names.count("metrics.layer_metrics") == 7
    build = tracer.spans[names.index("graph.build_graph")]
    assert tracer.spans[build.parent].name == "io.load_dataset"
    own = self_seconds(tracer.spans)
    assert min(own) >= 0
    assert sum(own) == pytest.approx(tracer.spans[0].seconds)


def test_tracer_restores_bindings_when_the_call_raises():
    import tieplex.report

    original = tieplex.report.render
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("boom")
    assert tieplex.report.render is original


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.end_to_end_metrics()
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.per_layer_metrics()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
