import io as stdio
import json
import random
import tracemalloc

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tieplex import (
    AttributeTable,
    DuplicateNodeLabel,
    EmptyField,
    InvalidParameter,
    LayerParams,
    LayerSpec,
    MalformedLine,
    MissingHeader,
    ParseError,
    UnknownBucketKey,
    UnknownLayer,
    UnknownNode,
    generate_synthetic,
    graph_from_json,
    graph_to_json,
    load_dataset,
    manifest_from_dict,
    parse_attributes,
    parse_edges,
    parse_nodes,
    reciprocity,
    write_demo_dataset,
)
from tieplex.io import BucketRule

GPA_BUCKETS = {
    "gpa": (
        BucketRule("low", 6.0, 7.0),
        BucketRule("mid", 7.0, 9.0),
        BucketRule("high", 9.0, 10.0),
    )
}


def test_parse_edges_simple():
    records = parse_edges(stdio.StringIO("source,target,layer\na,b,strong_off\n"))
    assert len(records) == 1
    assert (records[0].source, records[0].target, records[0].layer) == ("a", "b", "strong_off")
    assert records[0].line_no == 2


def test_parse_edges_missing_column_reports_line():
    text = "source,target,layer\n" + "a,b,x\n" * 3 + "a,b\n"
    with pytest.raises(MalformedLine) as err:
        parse_edges(stdio.StringIO(text))
    assert err.value.line_no == 5


def test_parse_edges_crlf_equals_lf():
    lf = parse_edges(stdio.StringIO("source,target,layer\na,b,x\nb,c,x\n"))
    crlf = parse_edges(stdio.StringIO("source,target,layer\r\na,b,x\r\nb,c,x\r\n"))
    assert lf == crlf


def test_parse_edges_header_required():
    with pytest.raises(MissingHeader):
        parse_edges(stdio.StringIO("a,b,x\n"))
    with pytest.raises(MissingHeader):
        parse_edges(stdio.StringIO(""))


def test_parse_edges_empty_field():
    with pytest.raises(EmptyField) as err:
        parse_edges(stdio.StringIO("source,target,layer\na,,x\n"))
    assert err.value.line_no == 2


def test_parse_edges_blank_line_rejected():
    with pytest.raises(MalformedLine):
        parse_edges(stdio.StringIO("source,target,layer\na,b,x\n\nc,d,x\n"))


def test_parse_edges_tab_autodetected():
    records = parse_edges(stdio.StringIO("source\ttarget\tlayer\na\tb\tx\n"))
    assert records[0].source == "a"


def test_parse_edges_whitespace_trimmed():
    records = parse_edges(stdio.StringIO("source,target,layer\n a , b , x \n"))
    assert (records[0].source, records[0].target, records[0].layer) == ("a", "b", "x")


def test_parse_nodes():
    assert parse_nodes(stdio.StringIO("a\nb\nc\n")) == ["a", "b", "c"]
    with pytest.raises(MalformedLine):
        parse_nodes(stdio.StringIO("a\n\nb\n"))


def test_parse_attributes_plain_token():
    table = parse_attributes(stdio.StringIO("node,key,value\nn1,gender,F\n"))
    assert table.tokens("n1") == {"gender:F"}


def test_parse_attributes_bucketing():
    table = parse_attributes(
        stdio.StringIO("node,key,value\nn1,gpa,8.7\n"), buckets=GPA_BUCKETS
    )
    assert table.tokens("n1") == {"gpa:mid"}


def test_parse_attributes_bucket_endpoints():
    text = "node,key,value\nn1,gpa,6.0\nn2,gpa,7.0\nn3,gpa,10.0\n"
    table = parse_attributes(stdio.StringIO(text), buckets=GPA_BUCKETS)
    assert table.tokens("n1") == {"gpa:low"}
    assert table.tokens("n2") == {"gpa:mid"}
    assert table.tokens("n3") == {"gpa:high"}  # last bucket is closed on top


def test_parse_attributes_duplicate_rows_collapse():
    text = "node,key,value\nn1,gender,F\nn1,gender,F\n"
    table = parse_attributes(stdio.StringIO(text))
    assert table.tokens("n1") == {"gender:F"}


def test_parse_attributes_bad_numeric():
    with pytest.raises(MalformedLine):
        parse_attributes(stdio.StringIO("node,key,value\nn1,gpa,abc\n"), buckets=GPA_BUCKETS)


def test_parse_attributes_out_of_range():
    with pytest.raises(UnknownBucketKey):
        parse_attributes(stdio.StringIO("node,key,value\nn1,gpa,11.5\n"), buckets=GPA_BUCKETS)


def manifest_doc(**overrides):
    doc = {
        "nodes": "nodes.txt",
        "edges": "edges.csv",
        "layers": [
            {"name": "x", "kind": "basic"},
            {"name": "y", "kind": "basic"},
            {"name": "u", "kind": "aggregate", "constituents": ["x", "y"]},
        ],
    }
    doc.update(overrides)
    return doc


def test_manifest_unknown_field_rejected():
    with pytest.raises(InvalidParameter, match="unknown fields"):
        manifest_from_dict(manifest_doc(surprise=1))


def test_manifest_missing_required():
    doc = manifest_doc()
    del doc["edges"]
    with pytest.raises(InvalidParameter, match="edges"):
        manifest_from_dict(doc)


def test_manifest_bad_aggregate_fails_before_any_file_read(tmp_path):
    # no files exist: a UnknownLayer (not FileNotFoundError) proves fail-fast
    doc = manifest_doc()
    doc["layers"].append({"name": "bad", "kind": "aggregate", "constituents": ["ghost"]})
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(UnknownLayer):
        load_dataset(path)


@pytest.mark.parametrize(
    "override",
    [
        {"layers": 5},
        {"pairs": 1},
        {"buckets": ["gpa"]},
        {"nodes": 5},
        {"edges": ["edges.csv"]},
        {"attributes": ["attributes.csv"]},
        {"buckets": {"gpa": [{"label": "low", "min": "abc", "max": 7.0}]}},
        {"buckets": {"gpa": [{"label": "low", "min": 6.0, "max": None}]}},
        {"layers": [{"name": "x"}, {"name": "y"}, {"name": "u", "constituents": "xy"}]},
    ],
    ids=["layers", "pairs", "buckets", "nodes", "edges", "attributes", "bucket-min", "bucket-max", "constituents"],
)
def test_manifest_malformed_field_rejected(override):
    with pytest.raises(InvalidParameter):
        manifest_from_dict(manifest_doc(**override))


def test_manifest_pairs_validated():
    with pytest.raises(UnknownLayer):
        manifest_from_dict(manifest_doc(pairs=[["x", "ghost"]]))


def write_dataset(tmp_path, nodes, edges_text, doc):
    (tmp_path / "nodes.txt").write_text(nodes, encoding="utf-8")
    (tmp_path / "edges.csv").write_text(edges_text, encoding="utf-8")
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_load_dataset_nine_layers(tmp_path):
    basics = ["strong_off", "weak_off", "strong_on", "weak_on"]
    doc = manifest_doc(
        layers=[{"name": b, "kind": "basic"} for b in basics]
        + [
            {"name": "off", "kind": "aggregate", "constituents": ["strong_off", "weak_off"]},
            {"name": "on", "kind": "aggregate", "constituents": ["strong_on", "weak_on"]},
            {"name": "strong", "kind": "aggregate", "constituents": ["strong_off", "strong_on"]},
            {"name": "weak", "kind": "aggregate", "constituents": ["weak_off", "weak_on"]},
            {"name": "all", "kind": "aggregate", "constituents": basics},
        ]
    )
    path = write_dataset(tmp_path, "a\nb\nc\n", "source,target,layer\na,b,strong_off\n", doc)
    first = load_dataset(path)
    assert len(first.graph.layer_names) == 9
    assert first.report.node_count == 3
    assert first.report.edge_counts["all"] == 1
    second = load_dataset(path)
    assert first.graph == second.graph


def test_load_dataset_unknown_node_has_line(tmp_path):
    path = write_dataset(tmp_path, "a\nb\n", "source,target,layer\na,zzz,x\n", manifest_doc())
    with pytest.raises(UnknownNode, match="line 2"):
        load_dataset(path)


def test_parse_nodes_drops_a_byte_order_mark_on_line_1_only():
    assert parse_nodes(stdio.StringIO("\ufeffa\nb\n")) == ["a", "b"]
    assert parse_nodes(stdio.StringIO("a\n\ufeffb\n")) == ["a", "\ufeffb"]


def test_load_dataset_later_label_starting_with_bom_matches_its_edges(tmp_path):
    path = write_dataset(tmp_path, "\ufeffa\n\ufeffb\n", "source,target,layer\na,\ufeffb,x\n", manifest_doc())
    loaded = load_dataset(path)
    assert loaded.graph.labels == ("a", "\ufeffb")
    assert loaded.graph.view("x").edge_set() == {(0, 1)}


def test_load_dataset_duplicate_reporting(tmp_path):
    path = write_dataset(
        tmp_path, "a\nb\n", "source,target,layer\na,b,x\na,b,x\n", manifest_doc()
    )
    loaded = load_dataset(path)
    assert loaded.report.duplicates_collapsed["x"] == 1
    assert loaded.report.edge_counts["x"] == 1


def test_graph_json_round_trip():
    g, _ = generate_synthetic(
        11, 9,
        [LayerParams("a", 0.25, 0.5), LayerParams("b", 0.2, 0.0)],
        aggregates=[LayerSpec.aggregate("u", "a", "b")],
    )
    text = graph_to_json(g)
    again = graph_from_json(text)
    assert again == g
    assert graph_to_json(again) == text  # canonical bytes are stable


def test_synthetic_empty_at_zero_probability():
    g, _ = generate_synthetic(42, 10, [LayerParams("L", 0.0, 0.5)])
    assert g.view("L").n_edges == 0


def test_synthetic_seed_determinism():
    args = (42, 12, [LayerParams("a", 0.3, 0.4), LayerParams("b", 0.1, 0.9)])
    g1, t1 = generate_synthetic(*args, attributes={"c": ("x", "y")})
    g2, t2 = generate_synthetic(*args, attributes={"c": ("x", "y")})
    assert graph_to_json(g1) == graph_to_json(g2)
    assert t1 == t2
    g3, _ = generate_synthetic(43, 12, args[2])
    assert graph_to_json(g3) != graph_to_json(g1)


def test_synthetic_full_mutuality():
    g, _ = generate_synthetic(7, 12, [LayerParams("L", 0.4, 1.0)])
    v = g.view("L")
    assert v.n_edges > 0
    for i in range(12):
        assert v.out_set(i) == v.in_set(i)
        if v.out_set(i):
            assert reciprocity(v, i) == 1.0


def test_synthetic_parameter_validation():
    with pytest.raises(InvalidParameter):
        generate_synthetic(1, 1, [LayerParams("L", 0.2, 0.2)])
    with pytest.raises(InvalidParameter):
        generate_synthetic(1, 5, [LayerParams("L", 1.2, 0.2)])
    with pytest.raises(InvalidParameter):
        generate_synthetic(1, 5, [LayerParams("L", 0.2, -0.1)])
    with pytest.raises(InvalidParameter):
        generate_synthetic(1, 5, [])


def test_write_demo_dataset_loads(tmp_path):
    paths = write_demo_dataset(tmp_path / "demo", seed=1, n_nodes=12)
    assert sorted(p.name for p in paths) == ["attributes.csv", "edges.csv", "manifest.json", "nodes.txt"]
    loaded = load_dataset(tmp_path / "demo" / "manifest.json")
    assert len(loaded.graph.layer_names) == 9
    assert loaded.attributes is not None
    some = loaded.attributes.tokens(loaded.graph.labels[0])
    assert any(t.startswith("gpa:") for t in some)


def test_load_dataset_duplicate_node_label(tmp_path):
    path = write_dataset(tmp_path, "a\na\n", "source,target,layer\n", manifest_doc())
    with pytest.raises(DuplicateNodeLabel):
        load_dataset(path)


# Fragments that file iteration keeps inside a line although
# str.splitlines would split there, plus whitespace str.strip removes.
ODD = ["\ufeff", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", " ", "\t"]
ODD_RUN = st.lists(st.sampled_from(ODD), max_size=2).map("".join)


def odd_labels(*cores):
    """A core label, or one wrapped in odd fragments and maybe grown by an inner run."""
    return st.one_of(
        st.sampled_from(cores),
        st.tuples(ODD_RUN, st.sampled_from(cores), ODD_RUN, st.sampled_from(["", "a"]), ODD_RUN).map("".join),
    )


LABELS = odd_labels("a", "b", "x", "n 1", "7.5")
KEYS = odd_labels("g", "gpa", "age")  # gpa and age are bucketed
VALUES = odd_labels("F", "7.5", "6", "10", "19.5", "11", "-1", "abc", "nan", "-inf", "1e400")
BUCKETS = {
    "gpa": GPA_BUCKETS["gpa"],
    "age": (BucketRule("young", 0.0, 20.0), BucketRule("old", 20.0, 99.0)),
}


@st.composite
def headed_texts(draw, header, columns=(LABELS, LABELS, LABELS)):
    """A headed file: odd fields, 2- to 4-field and blank rows, CRLF, a BOM, an optional final newline."""
    delim = draw(st.sampled_from([",", "\t"]))
    rows = [draw(st.sampled_from(["\ufeff", ""])) + delim.join(header)]
    kinds = ["row"] if draw(st.booleans()) else ["row", "row", "row", "short", "long", "blank"]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            rows.append(draw(st.sampled_from(["", " ", "\t", "\r", "\x0b", delim * 2])))
            continue
        width = {"row": 3, "short": 2, "long": 4}[kind]
        fields = [
            draw(column if kinds == ["row"] or draw(st.integers(0, 5)) else st.sampled_from(["", *ODD]))
            for column in (columns * 2)[:width]
        ]
        rows.append(draw(st.sampled_from([delim, ",", "\t"])).join(fields) if kind != "row" else delim.join(fields))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(rows) + draw(st.sampled_from([eol, ""]))
    pinned = draw(st.sampled_from([None, None, delim, ",", "\t"]))
    newline = draw(st.sampled_from(["\n", None]))  # None translates "\r" as a file opened for reading does
    return text, pinned, newline


def outcome(parse):
    try:
        return parse()
    except ParseError as exc:
        return type(exc), str(exc), exc.line_no


@given(headed_texts(("source", "target", "layer")))
@settings(derandomize=True, max_examples=400, deadline=None)
def test_parse_edges_equals_line_parser(case):
    text, pinned, newline = case
    got = outcome(lambda: parse_edges(stdio.StringIO(text, newline=newline), delimiter=pinned))
    want = outcome(lambda: oracles.parse_edges(stdio.StringIO(text, newline=newline), delimiter=pinned))
    if isinstance(want, list):
        assert [tuple(r) for r in got] == [tuple(r) for r in want]
        assert got == want and len(got) == len(want)
        assert [r.line_no for r in got] == list(range(2, len(want) + 2))
    else:
        assert got == want


@given(headed_texts(("node", "key", "value"), (LABELS, KEYS, VALUES)))
@settings(derandomize=True, max_examples=400, deadline=None)
def test_parse_attributes_equals_line_parser(case):
    text, pinned, newline = case
    got = outcome(lambda: parse_attributes(stdio.StringIO(text, newline=newline), BUCKETS, pinned))
    want = outcome(lambda: oracles.attribute_table(stdio.StringIO(text, newline=newline), BUCKETS, pinned))
    if isinstance(want, dict):
        assert got == AttributeTable(want)
        rows = oracles._attribute_rows(stdio.StringIO(text, newline=newline), BUCKETS, pinned)
        firsts = {}
        for line_no, node, _ in rows:
            firsts.setdefault(node, line_no)
        assert {label: got.first_line(label) for label in got.labels()} == firsts
    else:
        assert got == want


def test_edge_columns_behave_as_records():
    records = parse_edges(stdio.StringIO("source,target,layer\na,b,x\nb,c,y\nc,a,x\n"))
    listed = oracles.parse_edges(stdio.StringIO("source,target,layer\na,b,x\nb,c,y\nc,a,x\n"))
    assert records == listed and listed == records
    assert records[-1] == listed[-1]
    assert records[0].line_no == 2 and records[-1].line_no == 4
    assert list(reversed(records)) == listed[::-1]
    with pytest.raises(IndexError):
        records[3]


def test_load_dataset_memory_per_edge_row(tmp_path):
    # 80k edge rows: the label columns, the checks and the layer build
    # stay below 340 B per row (the line-by-line parser with one record
    # per row peaked at 389 B here, the column reader at 295 B)
    rng = random.Random(4)
    n, rows = 8000, 80_000
    names = [f"n{k:05d}" for k in range(n)]
    lines = ["source,target,layer"]
    for _ in range(rows):
        i, j = rng.sample(range(n), 2)
        lines.append(f"{names[i]},{names[j]},{rng.choice(('x', 'y'))}")
    path = write_dataset(tmp_path, "\n".join(names) + "\n", "\n".join(lines) + "\n", manifest_doc())
    tracemalloc.start()
    try:
        loaded = load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.report.edge_counts["u"] > 0.99 * rows
    assert peak / rows < 340
