import argparse
import contextlib
import csv
import hashlib
import io
import json
import random
import shutil
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tieplex.report
from tieplex import load_dataset, write_demo_dataset
from tieplex.cli import build_parser, main
from tieplex.report import (
    attribute_report,
    cross_report,
    endogenous_report,
    equivalence_report,
    load_report_schema,
    render_csv,
    render_json,
    render_text,
    summary_report,
    wedge_report,
)
from tieplex.verbs import REPORTS

from conftest import REPORT_VERBS

DATA = Path(__file__).resolve().parent.parent / "data" / "demo"
# sha256 of every report verb and format on data/demo, keyed by CLI arguments
DEMO_DIGESTS = json.loads(Path(__file__).with_name("demo_digests.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def demo():
    return load_dataset(DATA / "manifest.json")


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    # single-layer directed 3-cycle dataset
    root = tmp_path_factory.mktemp("tiny")
    (root / "nodes.txt").write_text("a\nb\nc\n", encoding="utf-8")
    (root / "edges.csv").write_text(
        "source,target,layer\na,b,ring\nb,c,ring\nc,a,ring\n", encoding="utf-8"
    )
    (root / "manifest.json").write_text(
        json.dumps(
            {
                "nodes": "nodes.txt",
                "edges": "edges.csv",
                "layers": [{"name": "ring", "kind": "basic"}],
            }
        ),
        encoding="utf-8",
    )
    return root / "manifest.json"


def test_summary_report_rows(demo):
    report = summary_report(demo)
    assert [r["layer"] for r in report["rows"]] == list(demo.graph.layer_names)
    assert len(report["rows"]) == 9
    assert report["conventions"]["version"] == "2"
    da = report["details"]["directed_assortativity"]["all"]
    assert set(da) == {"out_out", "out_in", "in_out", "in_in"}


def test_endogenous_three_cycle(tiny):
    report = endogenous_report(load_dataset(tiny))
    row = report["rows"][0]
    assert row["layer"] == "ring"
    assert row["avg_reciprocity"] == 0.0
    assert row["avg_cycle_closure"] == 1.0
    assert row["avg_triplet_closure"] == 0.0


def test_cross_default_pairs(demo):
    report = cross_report(demo)
    assert len(report["rows"]) == 12
    labels = [(r["alpha"], r["beta"]) for r in report["rows"]]
    assert ("strong_off", "strong_on") in labels
    assert ("strong_on", "strong_off") in labels
    by_pair = {(r["alpha"], r["beta"]): r for r in report["rows"]}
    fwd = by_pair[("weak_off", "weak_on")]
    rev = by_pair[("weak_on", "weak_off")]
    assert fwd["avg_overlap_out"] == rev["avg_overlap_out"]
    assert fwd["avg_overlap_in"] == rev["avg_overlap_in"]


def test_cross_reduction_matches_endogenous(demo):
    cross = cross_report(demo, [("strong", "strong")])
    endo = endogenous_report(demo)
    endo_row = next(r for r in endo["rows"] if r["layer"] == "strong")
    cross_row = cross["rows"][0]
    assert cross_row["avg_reciprocity"] == endo_row["avg_reciprocity"]
    assert cross_row["avg_cycle_closure"] == endo_row["avg_cycle_closure"]
    assert cross_row["avg_triplet_closure"] == endo_row["avg_triplet_closure"]


def test_equivalence_report_empty_layer(tmp_path):
    (tmp_path / "nodes.txt").write_text("a\nb\nc\n", encoding="utf-8")
    (tmp_path / "edges.csv").write_text("source,target,layer\n", encoding="utf-8")
    (tmp_path / "manifest.json").write_text(
        json.dumps(
            {"nodes": "nodes.txt", "edges": "edges.csv", "layers": [{"name": "L"}]}
        ),
        encoding="utf-8",
    )
    report = equivalence_report(load_dataset(tmp_path / "manifest.json"), "L")
    assert len(report["rows"]) == 1
    assert report["rows"][0]["size"] == 3


def test_equivalence_tolerance_merges_classes(demo):
    strict = equivalence_report(demo, "weak_on", tolerance=0.0)
    loose = equivalence_report(demo, "weak_on", tolerance=0.05)
    assert len(loose["rows"]) < len(strict["rows"])


def test_wedge_report_shape(demo):
    report = wedge_report(demo, "strong", ["strong", "weak"])
    names = [r["closing_layer"] for r in report["rows"]]
    assert names == ["strong", "weak", "any"]
    assert report["total_wedges"] >= 0
    assert isinstance(report["no_wedges"], bool)


def test_attribute_report(demo):
    report = attribute_report(demo, "all")
    assert len(report["rows"]) == demo.graph.n_nodes
    assert 0.0 <= report["baseline"] <= 1.0
    assert all(r["layer"] == "all" for r in report["rows"])


def test_reports_validate_against_schema(demo, tiny):
    schema = load_report_schema()
    reports = [
        summary_report(demo),
        endogenous_report(demo),
        cross_report(demo),
        equivalence_report(demo, "strong", tolerance=0.05),
        wedge_report(demo, "strong", ["strong", "weak"]),
        attribute_report(demo, "all"),
    ]
    for report in reports:
        jsonschema.validate(json.loads(render_json(report)), schema)


def test_text_and_json_agree_rounded(demo):
    report = summary_report(demo)
    text = render_text(report)
    doc = json.loads(render_json(report))
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    header = lines[0].split()
    for line, row in zip(lines[1:], doc["rows"]):
        cells = line.split()
        for key, cell in zip(header, cells):
            value = row[key]
            if isinstance(value, float):
                assert cell == f"{value:.4f}"
            elif value is None:
                assert cell == "n/a"
            else:
                assert cell == str(value)


def text_table(labels):
    """The table lines of ``render_text`` over a node column of ``labels`` and an int column."""
    report = {
        "report": "t", "conventions": {}, "parameters": {}, "columns": ["node", "score"],
        "rows": [{"node": label, "score": 10 ** k} for k, label in enumerate(labels)],
    }
    return [line for line in render_text(report).splitlines() if not line.startswith("#")]


def test_text_table_pads_a_zero_width_character_by_display_width():
    # U+FEFF (category Cf) takes no column, so the second row pads as "b"
    assert text_table(["a", "\ufeffb", "c"]) == ["node  score", "a     1", "\ufeffb     10", "c     100"]
    assert text_table(["a\u0301", "bb"]) == ["node  score", "a\u0301     1", "bb    10"]  # a combining accent


def test_text_table_pads_a_wide_character_by_display_width():
    # each CJK character takes two columns
    assert text_table(["中文", "a", "文b"]) == ["node  score", "中文  1", "a     10", "文b   100"]
    assert text_table(["中文字", "a"]) == ["node    score", "中文字  1", "a       10"]


def test_renderers_are_deterministic(demo):
    report = cross_report(demo)
    assert render_json(report) == render_json(cross_report(demo))
    assert render_text(report) == render_text(cross_report(demo))
    assert render_csv(report) == render_csv(cross_report(demo))
    assert "\x1b" not in render_text(report)  # never any color codes


def run_cli(*argv):
    return main(list(argv))


def test_cli_summary_json(tmp_path, capsys):
    out = tmp_path / "summary.json"
    code = run_cli("summary", "--manifest", str(DATA / "manifest.json"), "--format", "json", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["report"] == "summary"
    assert len(doc["rows"]) == 9


def test_cli_byte_identical_runs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run_cli("endogenous", "--manifest", str(DATA / "manifest.json"), "--format", "json", "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_cross_pair_override(tmp_path):
    out = tmp_path / "cross.json"
    code = run_cli(
        "cross", "--manifest", str(DATA / "manifest.json"),
        "--pairs", "strong:weak,weak:strong", "--format", "json", "--out", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert [(r["alpha"], r["beta"]) for r in doc["rows"]] == [("strong", "weak"), ("weak", "strong")]


def test_cli_equiv_mutual_dyad(tmp_path, capsys):
    (tmp_path / "nodes.txt").write_text("a\nb\n", encoding="utf-8")
    (tmp_path / "edges.csv").write_text("source,target,layer\na,b,L\nb,a,L\n", encoding="utf-8")
    (tmp_path / "manifest.json").write_text(
        json.dumps({"nodes": "nodes.txt", "edges": "edges.csv", "layers": [{"name": "L"}]}),
        encoding="utf-8",
    )
    code = run_cli("equiv", "--manifest", str(tmp_path / "manifest.json"), "--layer", "L", "--format", "json")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["rows"]) == 1
    assert doc["rows"][0]["members"] == "a;b"


def test_cli_equiv_member_label_holding_the_separator_exit_2(tmp_path, capsys):
    # members are joined with ';', so a label holding one would read as two members
    (tmp_path / "nodes.txt").write_text("a;b\nc\nd\n", encoding="utf-8")
    (tmp_path / "edges.csv").write_text("source,target,layer\na;b,c,x\nc,d,x\n", encoding="utf-8")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps({"nodes": "nodes.txt", "edges": "edges.csv", "layers": [{"name": "x"}]}), encoding="utf-8"
    )
    assert run_cli("equiv", "--manifest", str(manifest), "--layer", "x", "--format", "csv") == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: node label 'a;b' must not contain ';', which separates the members of an equivalence class\n"
    )
    assert captured.out == ""
    # the other verbs still read the label
    assert run_cli("endogenous", "--manifest", str(manifest)) == 0


def test_cli_wedges_single(tmp_path, capsys):
    (tmp_path / "nodes.txt").write_text("a\nb\nc\n", encoding="utf-8")
    (tmp_path / "edges.csv").write_text(
        "source,target,layer\na,b,w\nb,c,w\na,c,s\n", encoding="utf-8"
    )
    (tmp_path / "manifest.json").write_text(
        json.dumps({"nodes": "nodes.txt", "edges": "edges.csv", "layers": [{"name": "w"}, {"name": "s"}]}),
        encoding="utf-8",
    )
    code = run_cli(
        "wedges", "--manifest", str(tmp_path / "manifest.json"),
        "--wedge-layer", "w", "--closing-layers", "s,w", "--format", "json",
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["total_wedges"] == 1
    by_layer = {r["closing_layer"]: r["closed_pct"] for r in doc["rows"]}
    assert by_layer == {"s": 100.0, "w": 0.0, "any": 100.0}


@pytest.mark.parametrize("verb", [["attrs", "--layer", "L"], ["equiv", "--layer", "L"]], ids=["attrs", "equiv"])
def test_cli_csv_cells_read_back_as_json_cells(tmp_path, capsys, verb):
    # node labels are not split, so one may hold a comma or a quote, or open with '#'
    (tmp_path / "nodes.txt").write_text('Smith, J\n#1\nDoe "Jo"\n', encoding="utf-8")
    (tmp_path / "edges.tsv").write_text(
        'source\ttarget\tlayer\nSmith, J\t#1\tL\n#1\tDoe "Jo"\tL\n', encoding="utf-8"
    )
    (tmp_path / "attributes.tsv").write_text("node\tkey\tvalue\nSmith, J\tg\tF\n#1\tg\tM\n", encoding="utf-8")
    (tmp_path / "manifest.json").write_text(
        json.dumps({"nodes": "nodes.txt", "edges": "edges.tsv", "attributes": "attributes.tsv", "layers": [{"name": "L"}]}),
        encoding="utf-8",
    )
    outputs = {}
    for fmt in ("json", "csv"):
        assert run_cli(*verb, "--manifest", str(tmp_path / "manifest.json"), "--format", fmt) == 0
        outputs[fmt] = capsys.readouterr().out
    doc = json.loads(outputs["json"])
    cells = [["" if row[c] is None else str(row[c]) for c in doc["columns"]] for row in doc["rows"]]
    body = [line for line in outputs["csv"].splitlines() if not line.startswith("#")]
    assert list(csv.reader(body)) == [doc["columns"], *cells]


def test_cli_cross_without_pair_list_exit_2(tiny, capsys):
    # non-stock layer names and no manifest pairs: pairs must be supplied
    code = run_cli("cross", "--manifest", str(tiny))
    assert code == 2
    assert "pair" in capsys.readouterr().err


def test_cli_attrs_missing_attributes_exit_2(tiny, capsys):
    code = run_cli("attrs", "--manifest", str(tiny), "--layer", "ring")
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cli_unknown_layer_exit_2(capsys):
    code = run_cli("equiv", "--manifest", str(DATA / "manifest.json"), "--layer", "nope")
    assert code == 2
    capsys.readouterr()
    # the unknown closing layer is named, not reported as listed twice
    code = run_cli(
        "wedges", "--manifest", str(DATA / "manifest.json"),
        "--wedge-layer", "all", "--closing-layers", ",",
    )
    assert code == 2
    assert "unknown layer ''" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cross", "--pairs", ""], "bad pair ''"),
        (["wedges", "--wedge-layer", "all", "--closing-layers", ""], "unknown layer ''"),
    ],
    ids=["pairs", "closing-layers"],
)
def test_cli_empty_list_value_exit_2(capsys, argv, message):
    # an empty value is a list with one empty name, not the default list
    assert run_cli(*argv, "--manifest", str(DATA / "manifest.json")) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("name", ["x:y", "x,y"])
def test_cli_layer_name_the_lists_cannot_name_exit_2(tmp_path, capsys, name):
    # --pairs and --closing-layers split on ':' and ',', so no layer may hold them
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps({"nodes": "nodes.txt", "edges": "edges.csv", "layers": [{"name": name}]}), encoding="utf-8"
    )
    for verb in (["validate"], ["endogenous"]):
        assert run_cli(*verb, "--manifest", str(manifest)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {manifest}: layer name '{name}' must not contain ':' or ','\n"
        assert captured.out == ""


def test_wedge_report_defaults_to_every_basic_layer(demo, capsys):
    assert run_cli("wedges", "--manifest", str(DATA / "manifest.json"), "--wedge-layer", "all", "--format", "json") == 0
    assert render_json(wedge_report(demo, "all")) == capsys.readouterr().out


@pytest.mark.parametrize("flag, name", [("--dout", "out_degree"), ("--din", "in_degree")])
def test_cli_equiv_negative_degree_exit_2(capsys, flag, name):
    assert run_cli("equiv", "--manifest", str(DATA / "manifest.json"), "--layer", "all", flag, "-1") == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {name} must be >= 0, got -1\n"
    assert captured.out == ""


def test_report_verbs_list_every_report():
    # a verb missing here would skip the exit-code fuzz and the empty-graph test
    assert {verb[0] for verb in REPORT_VERBS} == set(REPORTS)


_HELP = (("-h", "--help"), "help", "==SUPPRESS==", False, None, None)
_REPORT_OPTIONS = (
    _HELP,
    (("--manifest",), "manifest", None, True, None, None),
    (("--out",), "out", None, False, None, None),
    (("--format",), "format", "text", False, ("json", "text", "csv"), None),
)
# Every verb in order, each with its actions as (option strings, dest,
# default, required, choices, type name); help texts are left out, as
# argparse words them differently across Python versions
CLI_SURFACE = {
    "summary": _REPORT_OPTIONS,
    "endogenous": _REPORT_OPTIONS,
    "cross": _REPORT_OPTIONS + ((("--pairs",), "pairs", None, False, None, None),),
    "equiv": _REPORT_OPTIONS + (
        (("--layer",), "layer", None, True, None, None),
        (("--tolerance",), "tolerance", 0.0, False, None, "float"),
        (("--dout",), "dout", None, False, None, "int"),
        (("--din",), "din", None, False, None, "int"),
    ),
    "wedges": _REPORT_OPTIONS + (
        (("--wedge-layer",), "wedge_layer", None, True, None, None),
        (("--closing-layers",), "closing_layers", None, False, None, None),
    ),
    "attrs": _REPORT_OPTIONS + ((("--layer",), "layer", None, True, None, None),),
    "generate": (
        _HELP,
        (("--out",), "out", None, True, None, None),
        (("--seed",), "seed", 42, False, None, "int"),
        (("--nodes",), "nodes", 60, False, None, "int"),
    ),
    "validate": (_HELP, (("--manifest",), "manifest", None, True, None, None)),
}


def test_cli_surface_is_unchanged():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        verb: tuple(
            (
                tuple(a.option_strings), a.dest, a.default, a.required,
                None if a.choices is None else tuple(a.choices),
                None if a.type is None else a.type.__name__,
            )
            for a in parser._actions
        )
        for verb, parser in sub.choices.items()
    }
    assert list(surface) == list(CLI_SURFACE)
    assert surface == CLI_SURFACE


@pytest.mark.parametrize(
    "verb, function",
    zip(REPORT_VERBS, ("summary_report", "endogenous_report", "cross_report",
                       "equivalence_report", "wedge_report", "attribute_report")),
    ids=lambda arg: arg if isinstance(arg, str) else arg[0],
)
def test_report_verb_calls_the_module_report_function(monkeypatch, capsys, verb, function):
    # a tracer rebinds these module globals, so the table must look them up per call
    real, calls = getattr(tieplex.report, function), []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(tieplex.report, function, spy)
    assert run_cli(*verb, "--manifest", str(DATA / "manifest.json")) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("verb", REPORT_VERBS, ids=lambda verb: verb[0])
def test_cli_reports_on_graph_without_nodes(tmp_path, capsys, verb):
    (tmp_path / "nodes.txt").write_text("", encoding="utf-8")
    (tmp_path / "edges.csv").write_text("source,target,layer\n", encoding="utf-8")
    (tmp_path / "attributes.csv").write_text("node,key,value\n", encoding="utf-8")
    layers = [{"name": "a"}, {"name": "all", "kind": "aggregate", "constituents": ["a"]}]
    (tmp_path / "manifest.json").write_text(
        json.dumps({
            "nodes": "nodes.txt", "edges": "edges.csv", "attributes": "attributes.csv",
            "layers": layers, "pairs": [["a", "all"]],
        }),
        encoding="utf-8",
    )
    assert run_cli(*verb, "--manifest", str(tmp_path / "manifest.json"), "--format", "json") == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    jsonschema.validate(json.loads(captured.out), load_report_schema())


def test_cli_repeated_closing_layer_exit_2(capsys):
    # counted twice, strong_off would report 2x the wedges it closes
    code = run_cli(
        "wedges", "--manifest", str(DATA / "manifest.json"),
        "--wedge-layer", "all", "--closing-layers", "strong_off,strong_off",
    )
    assert code == 2
    assert "'strong_off'" in capsys.readouterr().err


def test_cli_bad_manifest_exit_2(tmp_path, capsys):
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps({"nodes": "n", "edges": "e", "layers": [], "oops": 1}), encoding="utf-8")
    assert run_cli("validate", "--manifest", str(bad)) == 2
    missing = tmp_path / "missing.json"
    assert run_cli("summary", "--manifest", str(missing)) == 2


def test_cli_unwritable_out_exit_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.txt"
    assert run_cli("endogenous", "--manifest", str(DATA / "manifest.json"), "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert str(out) in captured.err
    assert captured.out == ""


def test_cli_validate_ok(capsys):
    assert run_cli("validate", "--manifest", str(DATA / "manifest.json")) == 0
    assert "manifest ok" in capsys.readouterr().out


def test_cli_generate_regenerates_bundled_demo(tmp_path):
    assert run_cli("generate", "--out", str(tmp_path / "demo")) == 0
    for name in ("nodes.txt", "edges.csv", "attributes.csv", "manifest.json"):
        assert (tmp_path / "demo" / name).read_bytes() == (DATA / name).read_bytes()


def test_cli_generate_too_many_nodes_exit_2(tmp_path, capsys):
    start = time.perf_counter()
    assert run_cli("generate", "--out", str(tmp_path / "big"), "--nodes", "5001") == 2
    assert time.perf_counter() - start < 1.0  # rejected before any draw
    assert "at most 5000 nodes" in capsys.readouterr().err
    assert not (tmp_path / "big").exists()


def test_write_demo_dataset_deterministic(tmp_path):
    write_demo_dataset(tmp_path / "one", seed=9, n_nodes=15)
    write_demo_dataset(tmp_path / "two", seed=9, n_nodes=15)
    for name in ("nodes.txt", "edges.csv", "attributes.csv", "manifest.json"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


@pytest.mark.parametrize("command", sorted(DEMO_DIGESTS))
def test_demo_report_bytes_unchanged(command, capsys):
    assert run_cli(*command.split(), "--manifest", str(DATA / "manifest.json")) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DEMO_DIGESTS[command]


def report_outputs(manifest: Path) -> dict[str, str]:
    """stdout of every report verb in every format, by verb and format."""
    outputs = {}
    for verb in REPORT_VERBS:
        for fmt in ("json", "text", "csv"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main([*verb, "--manifest", str(manifest), "--format", fmt]) == 0
            outputs[f"{verb[0]} {fmt}"] = out.getvalue()
    return outputs


def copy_with_edge_rows(original: Path, root: Path, edit) -> Path:
    """Copy the dataset in ``original`` to ``root``, ``edit`` its list of edge rows in place; the copy's manifest."""
    for name in ("nodes.txt", "attributes.csv", "manifest.json"):
        shutil.copy(original / name, root / name)
    header, *rows = (original / "edges.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    edit(rows)
    (root / "edges.csv").write_text(header + "".join(rows), encoding="utf-8")
    return root / "manifest.json"


def dataset_and_outputs(root: Path, n_nodes: int, seed: int) -> tuple[Path, dict[str, str]]:
    write_demo_dataset(root, seed=seed, n_nodes=n_nodes)
    return root, report_outputs(root / "manifest.json")


@pytest.fixture(scope="module")
def forty(tmp_path_factory):
    return dataset_and_outputs(tmp_path_factory.mktemp("forty"), 40, 5)


@pytest.fixture(scope="module")
def hundred(tmp_path_factory):
    return dataset_and_outputs(tmp_path_factory.mktemp("hundred"), 100, 42)


@given(st.integers(1, 500), st.randoms(use_true_random=False))
@settings(derandomize=True, max_examples=20, deadline=None)
def test_reports_unchanged_by_repeated_edge_rows(tmp_path_factory, forty, copies, rnd):
    # a repeated row collapses into the tie it repeats
    original, expected = forty

    def repeat(rows):
        for _ in range(copies):
            at = rnd.randrange(len(rows))
            rows.insert(rnd.randint(at + 1, len(rows)), rows[at])  # somewhere after the row it copies

    manifest = copy_with_edge_rows(original, tmp_path_factory.mktemp("repeated"), repeat)
    assert report_outputs(manifest) == expected


@given(st.integers(0, 2**32 - 1))
@settings(derandomize=True, max_examples=10, deadline=None)
def test_reports_unchanged_by_shuffled_edge_rows(tmp_path_factory, hundred, seed):
    # no report depends on the order of the edge rows; at 100 nodes the
    # assortativity of a graph filled in edge-row order changes its last digit
    original, expected = hundred
    shuffle = random.Random(seed).shuffle  # drawing the whole permutation trips a Hypothesis health check
    manifest = copy_with_edge_rows(original, tmp_path_factory.mktemp("shuffled"), shuffle)
    assert report_outputs(manifest) == expected


@pytest.mark.parametrize(
    "name, content, where",
    [
        ("edges.csv", "source,target,layer\na,b,x\nc,c,x\n", "line 3"),
        ("edges.csv", "source,target,layer\na,zzz,x\n", "line 2"),
        ("edges.csv", "source,target,layer\na,b,x\nb,a,u\n", "line 3"),
        ("nodes.txt", "a\nb\na\n", "line 3"),
        ("edges.csv", b"source,target,layer\na,b,\xff\n", "UTF-8"),
        ("manifest.json", b'{"nodes": "\xff"}', "UTF-8"),
        ("manifest.json", '{"nodes": "nodes.txt", "edges": "edges.csv", "layers": 5}', "'layers'"),
        ("manifest.json", '{"nodes": "nodes.txt", "edges": "gone.csv", "layers": [{"name": "x"}]}', "gone.csv"),
        ("attributes.csv", "node,key,value\na,g,F\nzz,g,M\nb,g,F\nyy,g,M\n", "line 3: unknown node label 'zz'"),
        ("edges.csv", "source,target,layer\na,b,x\n\nb,c,x\n", "line 3: blank line"),
        ("edges.csv", "source,target,layer\na,b,x\nb,c\n", "line 3: expected 3 fields, got 2"),
        ("edges.csv", "source,target,layer\na,b,x,x\n", "line 2: expected 3 fields, got 4"),
        ("edges.csv", "source,target,layer\na,b,x\nb,,x\n", "line 3: empty field"),
        ("attributes.csv", "node,key,value\na,g,F\nb, \t ,F\n", "line 3: empty field"),
        ("attributes.csv", "node,key,value\na,gpa,7.5\nb,gpa,high\n", "line 3: key 'gpa' is bucketed"),
        ("attributes.csv", "node,key,value\na,gpa,7.5\nb,gpa,12\n", "line 3: no bucket for key 'gpa'"),
        ("attributes.csv", "node,key,value\na,a,b:c\nb,a:b,c\n", "line 3: key 'a:b' must not contain ':'"),
    ],
    ids=[
        "self-tie", "unknown-node", "aggregate-edge", "duplicate-label",
        "edges-not-utf8", "manifest-not-utf8", "manifest-field-type", "manifest-names-missing-file",
        "attribute-unknown-node", "blank-line", "short-row", "long-row", "empty-field",
        "whitespace-field", "bucket-not-numeric", "bucket-out-of-range", "attribute-key-colon",
    ],
)
def test_cli_bad_input_exit_2_names_file(tmp_path, capsys, name, content, where):
    (tmp_path / "nodes.txt").write_text("a\nb\nc\n", encoding="utf-8")
    (tmp_path / "edges.csv").write_text("source,target,layer\na,b,x\n", encoding="utf-8")
    (tmp_path / "attributes.csv").write_text("node,key,value\na,g,F\n", encoding="utf-8")
    layers = [{"name": "x"}, {"name": "u", "kind": "aggregate", "constituents": ["x"]}]
    buckets = {"gpa": [{"label": "low", "min": 6, "max": 8}, {"label": "high", "min": 8, "max": 10}]}
    (tmp_path / "manifest.json").write_text(
        json.dumps({
            "nodes": "nodes.txt", "edges": "edges.csv", "attributes": "attributes.csv",
            "layers": layers, "buckets": buckets,
        }),
        encoding="utf-8",
    )
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    assert run_cli("summary", "--manifest", str(tmp_path / "manifest.json")) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: " in err
    assert where in err
    if where.startswith("line "):
        assert f"error: {path}: {where}" in err
