import io as stdio
import json

import pytest

from tieplex import (
    DuplicateNodeLabel,
    EmptyField,
    InvalidParameter,
    LayerParams,
    LayerSpec,
    MalformedLine,
    MissingHeader,
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
