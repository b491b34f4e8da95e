"""Report bytes on an input large enough for the triangle listing.

``data/demo`` has 60 nodes, so ``demo_digests.json`` pins the dense
``intersection_counts`` path only.  ``generate --nodes 600 --seed 1``
is above the dense limit of 512 nodes, so every closure count here
comes from the triangle listing (before it, from the sorted-key probe,
which gave the name ``probe_digests.json``).  Its union has far more
triangles than pairs, so each call lists its own layers' pairs again.
``probe_digests.json`` holds the sha256 of each command's stdout, keyed
by its arguments.

``ingest_digests.json`` pins what the command line makes of small edge,
node and attribute files, readable and malformed: the sha256 of stdout,
stderr and the exit code, keyed by the case and the arguments.
"""

import hashlib
import json
from pathlib import Path

import pytest

from conftest import count_listings, write_sparse_input

from tieplex import kernels, load_dataset
from tieplex.cli import main
from tieplex.report import endogenous_report

PROBE_DIGESTS = json.loads(Path(__file__).with_name("probe_digests.json").read_text(encoding="utf-8"))
NODES, SEED = 600, 1


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("probe")
    assert main(["generate", "--out", str(root), "--nodes", str(NODES), "--seed", str(SEED)]) == 0
    return root / "manifest.json"


def test_input_takes_the_probe(manifest, monkeypatch, capsys):
    assert not kernels.fits_dense(NODES)
    listings = count_listings(monkeypatch)
    for verb in ("endogenous", "cross", "wedges --wedge-layer all", "equiv --layer all"):
        before = listings["listing"]
        assert main([*verb.split(), "--manifest", str(manifest)]) == 0
        assert listings["listing"] > before, verb
    capsys.readouterr()


def test_dense_union_keeps_no_listing(manifest):
    # 2,016,224 triangles on 68,864 pairs: the first walk stops once it
    # passes the pair count, and each call lists its own layers again
    dataset = load_dataset(manifest)
    endogenous_report(dataset)
    pairs = dataset.graph.view("all").pairs
    assert len(pairs.keys) == 68_864
    assert pairs._listing is False


def test_sparse_wide_listing_holds_three_pair_indices_per_pair(tmp_path, monkeypatch):
    # the sparse-wide benchmark input: 670 triangles on 63,660 pairs
    dataset = load_dataset(write_sparse_input(tmp_path, 1, 8000, monkeypatch))
    endogenous_report(dataset)
    pairs = dataset.graph.view("all").pairs
    assert pairs._listing.shape == (4, 670) and len(pairs.keys) == 63_660
    assert pairs._listing[:3].size <= 3 * len(pairs.keys)


@pytest.mark.parametrize("command", sorted(PROBE_DIGESTS))
def test_probe_report_bytes_unchanged(command, manifest, capsys):
    assert main([*command.split(), "--manifest", str(manifest)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PROBE_DIGESTS[command]


# Edge-file cases for the ingestion digests.  Each dataset has the nodes
# a, b, c, d and the layers x, y and u = x + y; the 3,000-row cases cross
# the reader's 1,024-row chunk boundary.
INGEST_DIGESTS = json.loads(Path(__file__).with_name("ingest_digests.json").read_text(encoding="utf-8"))
INGEST_MANIFEST = {
    "nodes": "nodes.txt",
    "edges": "edges.csv",
    "layers": [
        {"name": "x", "kind": "basic"},
        {"name": "y", "kind": "basic"},
        {"name": "u", "kind": "aggregate", "constituents": ["x", "y"]},
    ],
}
NODE_FILE = b"a\nb\nc\nd\n"
HEADER = b"source,target,layer\n"
ROWS = [b"a,b,x", b"b,c,x", b"c,a,y", b"a,c,y", b"b,d,y", b"d,a,x"]
GOOD = HEADER + b"".join(row + b"\n" for row in ROWS)
REPEATED = HEADER + b"".join(row + b"\n" for row in ROWS * 500)  # 3,000 rows
INGEST_CASES = {
    "crlf": (NODE_FILE.replace(b"\n", b"\r\n"), GOOD.replace(b"\n", b"\r\n")),
    "bom": (b"\xef\xbb\xbf" + NODE_FILE, b"\xef\xbb\xbf" + GOOD),
    "tab": (NODE_FILE, GOOD.replace(b",", b"\t").rstrip(b"\n")),
    "repeated": (NODE_FILE, REPEATED),
    "no header": (NODE_FILE, GOOD[len(HEADER):]),
    "empty file": (NODE_FILE, b""),
    "empty field": (NODE_FILE, HEADER + b"a,b,x\na,,x\n"),
    "blank line": (NODE_FILE, HEADER + b"a,b,x\n\nb,c,x\n"),
    "blank tab row": (NODE_FILE, b"source\ttarget\tlayer\na\tb\tx\n\t\t\nb\tc\tx\n"),
    "whitespace line": (NODE_FILE, HEADER + b"a,b,x\n   \nb,c,x\n"),
    "short row at 3002": (NODE_FILE, REPEATED + b"a,b\n"),
    "unknown node at 3002": (NODE_FILE, REPEATED + b"a,zzz,x\n"),
    "aggregate edge": (NODE_FILE, HEADER + b"a,b,x\nb,c,u\n"),
    "unknown layer": (NODE_FILE, HEADER + b"a,b,x\nb,c,nope\n"),
    "self-tie": (NODE_FILE, HEADER + b"a,b,x\nc,c,y\n"),
    "duplicate label, bad row": (NODE_FILE + b"a\n", GOOD + b"a,b\n"),
    "duplicate label": (NODE_FILE + b"a\n", GOOD),
    "bad row, then bad UTF-8": (NODE_FILE, HEADER + b"a,b\n" + b"a,b,x\n" * 4000 + b"a,\xff,x\n"),
}
READABLE = ("crlf", "bom", "tab", "repeated")
INGEST_VERBS = ("endogenous", "wedges --wedge-layer u", "summary")

# Node- and attribute-file cases, read with the edge file GOOD and an
# attribute file whose key gpa is bucketed; the "bad UTF-8" cases put
# the undecodable byte past the first block the text layer decodes.
ATTRIBUTE_MANIFEST = {
    **INGEST_MANIFEST,
    "attributes": "attributes.csv",
    "buckets": {"gpa": [{"label": "low", "min": 0, "max": 5}, {"label": "high", "min": 5, "max": 10}]},
}
ATTRIBUTES = b"node,key,value\na,gpa,7\nb,gpa,3\nc,club,chess\nd,gpa,10\nd,club,go\na,club,go\n"
ATTRIBUTE_CASES = {
    "nodes crlf": (NODE_FILE.replace(b"\n", b"\r\n"), ATTRIBUTES),
    "nodes bom": (b"\xef\xbb\xbf" + NODE_FILE, ATTRIBUTES),
    "attributes crlf": (NODE_FILE, ATTRIBUTES.replace(b"\n", b"\r\n")),
    "attributes bom": (NODE_FILE, b"\xef\xbb\xbf" + ATTRIBUTES),
    "nodes blank line": (b"a\nb\n\nc\nd\n", ATTRIBUTES),
    "nodes blank line, then bad UTF-8": (
        NODE_FILE + b"\n" + b"".join(b"n%d\n" % k for k in range(4000)) + b"\xff\n", ATTRIBUTES
    ),
    "nodes duplicate label": (NODE_FILE + b"b\n", ATTRIBUTES),
    "attributes bucket miss": (NODE_FILE, ATTRIBUTES + b"a,gpa,11\n"),
    "attributes non-numeric bucketed value": (NODE_FILE, ATTRIBUTES + b"a,gpa,abc\n"),
    "attributes short row": (NODE_FILE, ATTRIBUTES + b"a,gpa\n"),
    "attributes key with colon": (NODE_FILE, ATTRIBUTES + b"a,x:y,1\n"),
    "attributes unknown node": (NODE_FILE, ATTRIBUTES + b"zzz,club,go\n"),
    "attributes bad row, then bad UTF-8": (
        NODE_FILE, ATTRIBUTES + b"a,gpa\n" + b"b,club,go\n" * 4000 + b"b,club,\xff\n"
    ),
}
ATTRIBUTE_READABLE = ("nodes crlf", "nodes bom", "attributes crlf", "attributes bom")

# One file of each kind with "\r" alone ending its lines; only "\n" ends
# a line, so each of these files is read as a single line.
LONE_CR_CASES = {
    "nodes lone cr": {"nodes.txt": NODE_FILE.replace(b"\n", b"\r"), "edges.csv": GOOD, "attributes.csv": ATTRIBUTES},
    "edges lone cr": {"nodes.txt": NODE_FILE, "edges.csv": GOOD.replace(b"\n", b"\r"), "attributes.csv": ATTRIBUTES},
    "attributes lone cr": {"nodes.txt": NODE_FILE, "edges.csv": GOOD, "attributes.csv": ATTRIBUTES.replace(b"\n", b"\r")},
}

# Every case: its manifest and its files.
CASE_FILES = {
    **{case: (INGEST_MANIFEST, {"nodes.txt": nodes, "edges.csv": edges})
       for case, (nodes, edges) in INGEST_CASES.items()},
    **{case: (ATTRIBUTE_MANIFEST, {"nodes.txt": nodes, "edges.csv": GOOD, "attributes.csv": attributes})
       for case, (nodes, attributes) in ATTRIBUTE_CASES.items()},
    **{case: (ATTRIBUTE_MANIFEST, files) for case, files in LONE_CR_CASES.items()},
}


def ingest_argvs():
    """``(case, arguments)`` of each digest: every verb and format on a readable case, one on the rest."""
    for case in INGEST_CASES:
        if case in READABLE:
            for verb in INGEST_VERBS:
                for fmt in ("text", "json", "csv"):
                    yield case, f"{verb} --format {fmt}"
        else:
            yield case, "endogenous --format csv"
    for case in ATTRIBUTE_CASES:
        for fmt in ("text", "json", "csv") if case in ATTRIBUTE_READABLE else ("csv",):
            yield case, f"attrs --layer u --format {fmt}"
    for case in LONE_CR_CASES:
        yield case, "attrs --layer u --format csv"


@pytest.fixture(scope="module")
def ingest_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("ingest")
    for k, (doc, files) in enumerate(CASE_FILES.values()):
        case = root / f"case{k}"
        case.mkdir()
        for name, data in files.items():
            (case / name).write_bytes(data)
        (case / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
    return root


def ingest_digest(root, case, args, capsys):
    """sha256 of stdout, stderr (the dataset root replaced by ``<root>``) and the exit code."""
    manifest = root / f"case{list(CASE_FILES).index(case)}" / "manifest.json"
    code = main([*args.split(), "--manifest", str(manifest)])
    captured = capsys.readouterr()
    err = captured.err.replace(str(root), "<root>")
    return hashlib.sha256(f"{captured.out}\0{err}\0{code}".encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case, args", list(ingest_argvs()))
def test_ingest_outcome_unchanged(case, args, ingest_root, capsys):
    assert ingest_digest(ingest_root, case, args, capsys) == INGEST_DIGESTS[f"{case}: {args}"]
