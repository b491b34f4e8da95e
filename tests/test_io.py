import hashlib
import io as stdio
import json
import random
import tracemalloc
from pathlib import Path
from unittest import mock

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
    SelfTie,
    UnknownBucketKey,
    UnknownLayer,
    UnknownNode,
    build_graph,
    generate_synthetic,
    layer_metrics,
    load_dataset,
    manifest_from_dict,
    parse_attributes,
    parse_edges,
    parse_nodes,
    write_demo_dataset,
)
import tieplex.io
from tieplex.cli import main
from tieplex.io import BucketRule

GPA_BUCKETS = {
    "gpa": (
        BucketRule("low", 6.0, 7.0),
        BucketRule("mid", 7.0, 9.0),
        BucketRule("high", 9.0, 10.0),
    )
}


def edge_rows(stream, delimiter=None):
    """Every row of an edge file, drawn from the chunks :func:`parse_edges` yields."""
    return [record for chunk in parse_edges(stream, delimiter) for record in chunk]


def test_parse_edges_simple():
    records = edge_rows(stdio.StringIO("source,target,layer\na,b,strong_off\n"))
    assert len(records) == 1
    assert (records[0].source, records[0].target, records[0].layer) == ("a", "b", "strong_off")
    assert records[0].line_no == 2


def test_parse_edges_missing_column_reports_line():
    text = "source,target,layer\n" + "a,b,x\n" * 3 + "a,b\n"
    with pytest.raises(MalformedLine) as err:
        edge_rows(stdio.StringIO(text))
    assert err.value.line_no == 5


def test_parse_edges_crlf_equals_lf():
    lf = edge_rows(stdio.StringIO("source,target,layer\na,b,x\nb,c,x\n"))
    crlf = edge_rows(stdio.StringIO("source,target,layer\r\na,b,x\r\nb,c,x\r\n"))
    assert lf == crlf


def test_parse_edges_header_required():
    chunks = parse_edges(stdio.StringIO("a,b,x\n"))  # raised when the chunks are drawn
    with pytest.raises(MissingHeader):
        next(chunks)
    with pytest.raises(MissingHeader):
        edge_rows(stdio.StringIO(""))


def test_missing_header_quotes_an_escaped_prefix_of_the_line():
    # a file whose lines end in a lone CR is one line; the message shows 80 characters of it
    with pytest.raises(MissingHeader) as err:
        edge_rows(stdio.StringIO("source,target,layer\r" + "a,b,x\r" * 1000))
    assert str(err.value).endswith("got " + repr(("source,target,layer\r" + "a,b,x\r" * 1000)[:80]))
    assert "\r" not in str(err.value) and len(str(err.value)) < 200


def test_parse_edges_empty_field():
    with pytest.raises(EmptyField) as err:
        edge_rows(stdio.StringIO("source,target,layer\na,,x\n"))
    assert err.value.line_no == 2


def test_parse_edges_blank_line_rejected():
    with pytest.raises(MalformedLine):
        edge_rows(stdio.StringIO("source,target,layer\na,b,x\n\nc,d,x\n"))


def test_parse_edges_tab_autodetected():
    records = edge_rows(stdio.StringIO("source\ttarget\tlayer\na\tb\tx\n"))
    assert records[0].source == "a"


def test_parse_edges_whitespace_trimmed():
    records = edge_rows(stdio.StringIO("source,target,layer\n a , b , x \n"))
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
        {"buckets": {"g:pa": [{"label": "low", "min": 6.0, "max": 7.0}]}},
        {"layers": [{"name": "x"}, {"name": "y"}, {"name": "u", "constituents": "xy"}]},
        {"layers": [{"name": "x:y"}]},
        {"layers": [{"name": "x,y"}]},
    ],
    ids=["layers", "pairs", "buckets", "nodes", "edges", "attributes", "bucket-min", "bucket-max", "bucket-key-colon", "constituents", "layer-colon", "layer-comma"],
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
    assert oracles.canonical_form(first.graph) == oracles.canonical_form(second.graph)


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
    assert oracles.edge_set(loaded.graph.view("x")) == {(0, 1)}


def test_load_dataset_duplicate_reporting(tmp_path):
    path = write_dataset(
        tmp_path, "a\nb\n", "source,target,layer\na,b,x\na,b,x\n", manifest_doc()
    )
    loaded = load_dataset(path)
    assert loaded.report.duplicates_collapsed["x"] == 1
    assert loaded.report.edge_counts["x"] == 1


def test_graph_rebuilds_from_its_basic_ties():
    g, _ = generate_synthetic(
        11, 9,
        [LayerParams("a", 0.25, 0.5), LayerParams("b", 0.2, 0.0)],
        aggregates=[LayerSpec.aggregate("u", "a", "b")],
    )
    ties = [(g.labels[i], g.labels[j], name) for name in g.basic_layer_names for i, j in oracles.edges(g.view(name))]
    again = build_graph(g.labels, g.specs, ties)
    assert oracles.canonical_form(again) == oracles.canonical_form(g)


def test_synthetic_empty_at_zero_probability():
    g, _ = generate_synthetic(42, 10, [LayerParams("L", 0.0, 0.5)])
    assert g.view("L").n_edges == 0


def test_synthetic_seed_determinism():
    args = (42, 12, [LayerParams("a", 0.3, 0.4), LayerParams("b", 0.1, 0.9)])
    g1, t1 = generate_synthetic(*args, attributes={"c": ("x", "y")})
    g2, t2 = generate_synthetic(*args, attributes={"c": ("x", "y")})
    assert oracles.canonical_form(g1) == oracles.canonical_form(g2)
    assert t1 == t2
    g3, _ = generate_synthetic(43, 12, args[2])
    assert oracles.canonical_form(g3) != oracles.canonical_form(g1)


def test_synthetic_full_mutuality():
    g, _ = generate_synthetic(7, 12, [LayerParams("L", 0.4, 1.0)])
    v = g.view("L")
    assert v.n_edges > 0
    reciprocity = layer_metrics(v).reciprocity
    for i in range(12):
        assert oracles.out_set(v, i) == oracles.in_set(v, i)
        if oracles.out_set(v, i):
            assert reciprocity[i] == 1.0


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


# sha256 of each file `generate` writes, keyed by its arguments
GENERATE_DIGESTS = json.loads(Path(__file__).with_name("generate_digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("args", GENERATE_DIGESTS)
def test_generate_files_unchanged(args, tmp_path, capsys):
    assert main(["generate", "--out", str(tmp_path), *args.split()]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == GENERATE_DIGESTS[args]


def test_load_dataset_duplicate_node_label(tmp_path):
    path = write_dataset(tmp_path, "a\na\n", "source,target,layer\n", manifest_doc())
    with pytest.raises(DuplicateNodeLabel):
        load_dataset(path)


def test_parse_nodes_and_load_dataset_split_lines_alike(tmp_path):
    # only "\n" ends a line, whether the text comes from a string or a file
    nodes = "a\rb\nc\n"
    path = write_dataset(tmp_path, nodes, "source,target,layer\n", manifest_doc())
    assert list(load_dataset(path).graph.labels) == parse_nodes(stdio.StringIO(nodes)) == ["a\rb", "c"]


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
KEYS = odd_labels("g", "gpa", "age", "g:x")  # gpa and age are bucketed; a key holding ":" is refused
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


# The reader's chunk size, as loaded and as small as one, two or three rows.
CHUNK_ROWS = st.sampled_from([tieplex.io._ROWS, 1, 2, 3])


@given(headed_texts(("source", "target", "layer")), CHUNK_ROWS)
@settings(derandomize=True, max_examples=400, deadline=None)
def test_parse_edges_equals_line_parser(case, rows):
    text, pinned, newline = case
    with mock.patch.object(tieplex.io, "_ROWS", rows):
        got = outcome(lambda: edge_rows(stdio.StringIO(text, newline=newline), delimiter=pinned))
    want = outcome(lambda: oracles.parse_edges(stdio.StringIO(text, newline=newline), delimiter=pinned))
    if isinstance(want, list):
        assert [tuple(r) for r in got] == [tuple(r) for r in want]
        assert got == want and len(got) == len(want)
        assert [r.line_no for r in got] == list(range(2, len(want) + 2))
    else:
        assert got == want


@given(headed_texts(("node", "key", "value"), (LABELS, KEYS, VALUES)), CHUNK_ROWS)
@settings(derandomize=True, max_examples=400, deadline=None)
def test_parse_attributes_equals_line_parser(case, rows):
    text, pinned, newline = case
    with mock.patch.object(tieplex.io, "_ROWS", rows):
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
    text = "source,target,layer\na,b,x\nb,c,y\nc,a,x\n"
    (records,) = parse_edges(stdio.StringIO(text))
    listed = oracles.parse_edges(stdio.StringIO(text))
    assert records[-1] == listed[-1]
    assert records[0].line_no == 2 and records[-1].line_no == 4
    assert list(reversed(records)) == listed[::-1]
    with pytest.raises(IndexError):
        records[3]


def test_load_dataset_memory_per_edge_row(tmp_path):
    # 80k edge rows: the chunks of label columns, the checks and the
    # layer build stay below 170 B per row (the line-by-line parser with
    # one record per row peaked at 389 B here, the whole-file column
    # reader at 256 B, the chunked one at 101 B)
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
    assert peak / rows < 170


@pytest.fixture(params=[1, 2, 3])
def chunk_rows(request, monkeypatch):
    """Read edge and attribute files in chunks of one, two or three rows."""
    monkeypatch.setattr(tieplex.io, "_ROWS", request.param)
    return request.param


# Each public parser on a bad third row followed by more rows: the
# header, the rows and the error the bad row raises.
BAD_ROW_CASES = {
    "blank node line": (parse_nodes, "", ["a", "b", "", "c", "d", "e", "f"], MalformedLine),
    "short edge row": (edge_rows, "source,target,layer\n", ["a,b,x", "b,a,x", "a,b", *["b,a,y"] * 4], MalformedLine),
    "bucket miss": (
        lambda stream: parse_attributes(stream, GPA_BUCKETS),
        "node,key,value\n", ["a,gpa,7", "b,gpa,9.5", "a,gpa,11", *["b,club,go"] * 4], UnknownBucketKey,
    ),
}


@pytest.mark.parametrize("case", BAD_ROW_CASES.values(), ids=BAD_ROW_CASES.keys())
def test_parsers_stop_at_the_bad_row(chunk_rows, case):
    parse, header, rows, error = case
    stream = stdio.StringIO(header + "".join(f"{row}\n" for row in rows))
    with pytest.raises(error) as err:
        parse(stream)
    assert err.value.line_no == (4 if header else 3)
    # the rest of the caller's stream is left unread: all after the bad
    # row's chunk, or after the bad line of a node file
    chunk = chunk_rows if header else 1
    assert stream.read() == "".join(f"{row}\n" for row in rows[(2 // chunk + 1) * chunk:])


EARLY_EDGE_ERRORS = {
    "unknown node": "a,zzz,x",
    "unknown layer": "a,b,nope",
    "aggregate layer": "a,b,u",
    "self-tie": "a,a,x",
}


@pytest.mark.parametrize("early", EARLY_EDGE_ERRORS.values(), ids=EARLY_EDGE_ERRORS.keys())
def test_late_format_error_beats_early_edge_error(tmp_path, chunk_rows, early):
    rows = [early, "a,b,x", "b,a,y", "b,a,x", "a,b,y", "a,b"]
    text = "source,target,layer\n" + "\n".join(rows) + "\n"
    path = write_dataset(tmp_path, "a\nb\n", text, manifest_doc())
    with pytest.raises(MalformedLine, match="edges.csv: line 7: expected 3 fields"):
        load_dataset(path)
    # without the late row, the early one raises with its line
    path = write_dataset(tmp_path, "a\nb\n", text.replace("a,b\n", ""), manifest_doc())
    with pytest.raises((UnknownNode, UnknownLayer, SelfTie), match="edges.csv: line 2: "):
        load_dataset(path)


def test_late_format_error_beats_duplicate_node_label(tmp_path, chunk_rows):
    text = "source,target,layer\na,b,x\nb,a,x\na,b,y\n\n"
    path = write_dataset(tmp_path, "a\nb\na\n", text, manifest_doc())
    with pytest.raises(MalformedLine, match="edges.csv: line 5: blank line"):
        load_dataset(path)
    path = write_dataset(tmp_path, "a\nb\na\n", text.rstrip("\n") + "\n", manifest_doc())
    with pytest.raises(DuplicateNodeLabel, match="nodes.txt: line 3: duplicate node label 'a'"):
        load_dataset(path)


# Enough good rows that the undecodable byte lies past the first block
# the text layer decodes, so only reading on after the bad row finds it.
FILLER = "a,b,x\n" * 4000


@pytest.mark.parametrize("bad_row", ["a,b", "a,zzz,x", "a,a,x"], ids=["format", "unknown node", "self-tie"])
def test_utf8_error_after_a_bad_edge_row_is_reported(tmp_path, chunk_rows, bad_row):
    path = write_dataset(tmp_path, "a\nb\n", "", manifest_doc())
    text = f"source,target,layer\na,b,x\n{bad_row}\n{FILLER}"
    (tmp_path / "edges.csv").write_bytes(text.encode() + b"a,\xff,x\n")
    with pytest.raises(ParseError, match="edges.csv: not valid UTF-8"):
        load_dataset(path)


@pytest.mark.parametrize("bad_row", ["a,gpa,11", "a,gpa,abc", "a,gpa"], ids=["bucket", "numeric", "format"])
def test_utf8_error_after_a_bad_attribute_row_is_reported(tmp_path, chunk_rows, bad_row):
    doc = manifest_doc(attributes="attributes.csv", buckets={"gpa": [{"label": "low", "min": 0, "max": 10}]})
    path = write_dataset(tmp_path, "a\nb\n", "source,target,layer\n", doc)
    text = f"node,key,value\na,gpa,7\n{bad_row}\n" + "b,g,F\n" * 4000
    (tmp_path / "attributes.csv").write_bytes(text.encode() + b"b,g,\xff\n")
    with pytest.raises(ParseError, match="attributes.csv: not valid UTF-8"):
        load_dataset(path)


def test_utf8_error_after_a_blank_node_line_is_reported(tmp_path):
    nodes = "a\n\n" + "".join(f"n{k}\n" for k in range(4000))
    path = write_dataset(tmp_path, nodes, "source,target,layer\n", manifest_doc())
    with pytest.raises(MalformedLine, match="nodes.txt: line 2: blank line in node file"):
        load_dataset(path)
    (tmp_path / "nodes.txt").write_bytes(nodes.encode() + b"\xff\n")
    with pytest.raises(ParseError, match="nodes.txt: not valid UTF-8"):
        load_dataset(path)


BOUNDARY_TEXTS = {
    "crlf": "source,target,layer\r\na,b,x\r\nb,c,y\r\nc,a,x\r\na,c,y\r\n",
    "bom": "\ufeffsource,target,layer\na,b,x\nb,c,y\nc,a,x\n",
    "tab": "source\ttarget\tlayer\na\tb\tx\nb\tc\ty\nc\ta\tx\na\tc\ty",
    "blank line 3": "source,target,layer\na,b,x\n\nc,a,x\n",
    "blank line 4": "source,target,layer\na,b,x\nb,c,y\n\r\nc,a,x\n",
    "blank tab row": "source\ttarget\tlayer\na\tb\tx\nb\tc\ty\n\t\t\nc\ta\tx\n",
    "spaces line 5": "source,target,layer\na,b,x\nb,c,y\nc,a,x\n  \na,c,y\n",
}


@pytest.mark.parametrize("text", BOUNDARY_TEXTS.values(), ids=BOUNDARY_TEXTS.keys())
@pytest.mark.parametrize("newline", ["\n", None])
def test_chunk_boundaries_read_as_lines(chunk_rows, text, newline):
    got = outcome(lambda: edge_rows(stdio.StringIO(text, newline=newline)))
    want = outcome(lambda: oracles.parse_edges(stdio.StringIO(text, newline=newline)))
    if isinstance(want, list):
        assert [(*r,) for r in got] == [(*r,) for r in want]
    else:
        assert got == want


def test_load_dataset_same_graph_at_every_chunk_size(tmp_path, monkeypatch):
    text = "\ufeff" + BOUNDARY_TEXTS["crlf"] + "c,b,x\r\nc,b,x\r\n"
    path = write_dataset(tmp_path, "\ufeffa\nb\nc\n", text, manifest_doc())
    loaded = load_dataset(path)
    for rows in (1, 2, 3):
        monkeypatch.setattr(tieplex.io, "_ROWS", rows)
        again = load_dataset(path)
        assert oracles.canonical_form(again.graph) == oracles.canonical_form(loaded.graph)
        assert again.report == loaded.report
    assert loaded.report.duplicates_collapsed["x"] == 1
    assert loaded.graph.view("u").n_edges == 5


BUCKET_CASES = {
    "bucket first": "a,gpa,7\nb,gpa,11\na,g,F\nb,gpa\n",
    "format first": "a,gpa,7\nb,gpa\na,g,F\nb,gpa,11\n",
    "numeric first": "a,g,F\na,gpa,x\nb,gpa,11\n\n",
    "two buckets": "a,g,F\nb,g,M\na,gpa,5\nb,gpa,11\n",
    "late bucket": "a,g,F\nb,g,M\na,gpa,8\nb,gpa,9\nb,gpa,-1\n",
    "colon key first": "a,g,1:30\nb,g:x,F\nb,gpa,11\nb,gpa\n",
    "bucket before colon key": "a,gpa,11\nb,g:x,F\n",
    "format before colon key": "a,gpa\nb,g:x,F\n",
}


@pytest.mark.parametrize("rows", BUCKET_CASES.values(), ids=BUCKET_CASES.keys())
def test_first_bad_attribute_row_wins_across_chunks(chunk_rows, rows):
    text = "node,key,value\n" + rows
    got = outcome(lambda: parse_attributes(stdio.StringIO(text), GPA_BUCKETS))
    want = outcome(lambda: oracles.attribute_table(stdio.StringIO(text), GPA_BUCKETS))
    assert isinstance(want, tuple) and got == want


def test_load_dataset_calls_build_graph_once(tmp_path, monkeypatch):
    # benchmarks/run.py measures the graph by wrapping tieplex.io.build_graph
    # and reading its first call; each chunk it draws holds at most _ROWS rows
    monkeypatch.setattr(tieplex.io, "_ROWS", 2)
    build = tieplex.io.build_graph
    calls, chunk_sizes = [], []

    def counted(nodes, specs, edges):
        calls.append(specs)
        return build(nodes, specs, (chunk_sizes.append(len(chunk)) or chunk for chunk in edges))

    monkeypatch.setattr(tieplex.io, "build_graph", counted)
    path = write_dataset(tmp_path, "a\nb\nc\n", BOUNDARY_TEXTS["crlf"].replace("b,c,y", "b,c,x"), manifest_doc())
    loaded = load_dataset(path)
    assert len(calls) == 1
    assert chunk_sizes == [2, 2]
    assert loaded.report.edge_counts == {"x": 3, "y": 1, "u": 4}
