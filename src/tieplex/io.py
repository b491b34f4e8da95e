"""Deterministic dataset ingestion and canonical serialization.

File formats (all UTF-8, LF or CRLF):

* node file: one label per line, isolates included
* edge file: ``source,target,layer`` with that exact header
* attribute file: ``node,key,value`` with that exact header
* manifest: one JSON document naming the files, the layer
  declarations, the cross-layer pair list, and attribute bucketing
  rules; unknown fields are rejected

Parsers reject rather than repair: a bad line raises with its line
number instead of being dropped.  Comma is the default delimiter; a tab
in the header line switches to tab unless the manifest pins one.  The
edge and attribute files are read whole and split into columns in
bulk; the first row that fails a check is handed to the one row
checker, which words every row error.

Each check runs once: the parsers here check file format, and
:func:`manifest_from_dict` the manifest fields; layer declarations, node
labels and edges are checked in :mod:`tieplex.graph`.  Loading prefixes
the file path to any input error: ``<file>: line N: ...``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice, repeat
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping

from .crosslayer import AttributeTable
from .errors import (
    DuplicateNodeLabel,
    EmptyField,
    InvalidParameter,
    MalformedLine,
    MissingHeader,
    ParseError,
    TieplexError,
    UnknownBucketKey,
    UnknownLayer,
    UnknownNode,
)
from .graph import EdgeColumns, LayerSpec, MultiplexGraph, build_graph, check_layers

EDGE_HEADER = ("source", "target", "layer")
ATTRIBUTE_HEADER = ("node", "key", "value")
# The JSON type of each manifest field; null counts as absent.
MANIFEST_FIELDS = {
    "nodes": str, "edges": str, "attributes": str, "delimiter": str,
    "layers": list, "pairs": list, "buckets": dict,
}
JSON_TYPES = {str: "a string", list: "a list", dict: "an object"}


@dataclass(frozen=True)
class BucketRule:
    """Half-open numeric range [lo, hi) mapped to a label.

    The last rule of a key is closed ([lo, hi]) so the top of the scale
    belongs to the top bucket.
    """

    label: str
    lo: float
    hi: float


@dataclass(frozen=True)
class DatasetManifest:
    nodes_path: Path
    edges_path: Path
    attributes_path: Path | None
    layers: tuple[LayerSpec, ...]
    pairs: tuple[tuple[str, str], ...] | None
    buckets: dict[str, tuple[BucketRule, ...]]
    delimiter: str | None


@dataclass(frozen=True)
class IngestionReport:
    """What was read: counts per layer plus collapsed duplicates."""

    node_count: int
    edge_counts: dict[str, int]
    duplicates_collapsed: dict[str, int]
    attribute_node_count: int


@dataclass(frozen=True)
class LoadedDataset:
    graph: MultiplexGraph
    attributes: AttributeTable | None
    report: IngestionReport
    manifest: DatasetManifest


def _lines(stream: IO[str]) -> Iterable[tuple[int, str]]:
    for line_no, raw in enumerate(stream, start=1):
        yield line_no, raw.rstrip("\n").rstrip("\r")


def _split_header(raw: str, expected: tuple[str, ...], delimiter: str | None, what: str) -> str:
    raw = raw.rstrip("\r").lstrip("\ufeff")
    delim = delimiter or ("\t" if "\t" in raw else ",")
    fields = tuple(f.strip() for f in raw.split(delim))
    if fields != expected:
        raise MissingHeader(
            f"{what} file must start with header '{','.join(expected)}', got '{raw}'"
        )
    return delim


def _split_row(raw: str, delim: str, line_no: int, width: int) -> tuple[str, ...]:
    if raw.strip() == "":
        raise MalformedLine("blank line", line_no)
    parts = tuple(p.strip() for p in raw.split(delim))
    if len(parts) != width:
        raise MalformedLine(f"expected {width} fields, got {len(parts)}", line_no)
    for p in parts:
        if p == "":
            raise EmptyField("empty field", line_no)
    return parts


def _read_columns(
    stream: IO[str], expected: tuple[str, ...], delimiter: str | None, what: str
) -> tuple[list[list[str]], ParseError | None]:
    """The stripped fields of a headed file, one list per column, read in bulk.

    Row ``k`` is line ``k + 2``.  The columns stop before the first row
    :func:`_split_row` rejects, and that row's error is returned with
    them (``None`` when every row is good), so a caller can raise an
    error of its own from an earlier row first.
    """
    # file iteration splits on "\n" alone; str.splitlines would also split on "\x0b", "\u2028", ...
    lines = stream.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise MissingHeader(f"{what} file is empty")
    delim = _split_header(lines[0], expected, delimiter, what)
    width = len(expected)
    good = len(lines) - 1
    if not set(map(str.count, islice(lines, 1, None), repeat(delim))) <= {width - 1}:
        good = next(k for k, raw in enumerate(islice(lines, 1, None)) if raw.count(delim) != width - 1)
    bad = lines[good + 1] if good + 1 < len(lines) else None
    body = delim.join(islice(lines, 1, good + 1))
    del lines
    parts = body.split(delim) if good else []
    del body
    # "\r" is whitespace, so stripping each field also drops a CRLF ending
    cells = list(map(str.strip, parts))
    if "" in cells:  # an empty field, or a blank line of tab delimiters
        good = cells.index("") // width
        bad = delim.join(parts[good * width:(good + 1) * width])
        del cells[good * width:]
    del parts
    error = None
    if bad is not None:
        try:
            _split_row(bad, delim, good + 2, width)
        except ParseError as exc:
            error = exc
    return [cells[j::width] for j in range(width)], error


def parse_edges(stream: IO[str], delimiter: str | None = None) -> EdgeColumns:
    """Parse an edge file into records, keeping line numbers for diagnostics.

    The records are held as label columns (:class:`EdgeColumns`); each
    row passes the same checks, with the same messages, as
    :func:`_split_row` gives it.
    """
    columns, error = _read_columns(stream, EDGE_HEADER, delimiter, "edge")
    if error is not None:
        raise error
    return EdgeColumns(*columns, first_line=2)


def parse_nodes(stream: IO[str]) -> list[str]:
    """Parse a node file: one label per line."""
    labels = []
    for line_no, raw in _lines(stream):
        # a byte order mark can only open the file
        label = (raw.lstrip("\ufeff") if line_no == 1 else raw).strip()
        if label == "":
            raise MalformedLine("blank line in node file", line_no)
        labels.append(label)
    return labels


def _bucket_label(rules: tuple[BucketRule, ...], key: str, value: float, line_no: int) -> str:
    last = len(rules) - 1
    for pos, rule in enumerate(rules):
        if rule.lo <= value < rule.hi or (pos == last and value == rule.hi):
            return rule.label
    raise UnknownBucketKey(
        f"no bucket for key '{key}' covers value {value!r}", line_no
    )


def _attribute_columns(
    stream: IO[str], buckets: Mapping[str, tuple[BucketRule, ...]], delimiter: str | None
) -> tuple[list[str], list[str]]:
    """The node and token columns of an attribute file, bucketed values replaced by their label.

    The first bad row raises, whether its format or its bucketed value
    is at fault.
    """
    (nodes, keys, values), error = _read_columns(stream, ATTRIBUTE_HEADER, delimiter, "attribute")
    for k in [k for k, key in enumerate(keys) if key in buckets]:
        key, value = keys[k], values[k]
        try:
            numeric = float(value)
        except ValueError:
            raise MalformedLine(
                f"key '{key}' is bucketed and needs a numeric value, got '{value}'", k + 2
            ) from None
        values[k] = _bucket_label(buckets[key], key, numeric, k + 2)
    if error is not None:
        raise error
    return nodes, list(map("{}:{}".format, keys, values))


def parse_attributes(
    stream: IO[str],
    buckets: Mapping[str, tuple[BucketRule, ...]] | None = None,
    delimiter: str | None = None,
) -> AttributeTable:
    """Parse an attribute file into per-node token sets.

    Keys listed in ``buckets`` must carry numeric values, which are
    replaced by their bucket label; any other value is kept verbatim.
    Duplicate rows collapse via set semantics.  The table keeps the
    line of each node's first row (:meth:`AttributeTable.first_line`).
    """
    nodes, tokens = _attribute_columns(stream, buckets or {}, delimiter)
    return AttributeTable.from_rows(nodes, tokens, first_line=2)


def _layer_spec_from_dict(doc: dict) -> LayerSpec:
    if not isinstance(doc, dict):
        raise InvalidParameter(f"layer entry must be an object, got {doc!r}")
    extra = set(doc) - {"name", "kind", "constituents"}
    if extra:
        raise InvalidParameter(f"layer entry has unknown fields {sorted(extra)}")
    name = doc.get("name")
    if not isinstance(name, str):
        raise InvalidParameter("layer entry needs a string 'name'")
    constituents = doc.get("constituents", ())
    kind = doc.get("kind", "aggregate" if constituents else "basic")
    return LayerSpec(name=name, kind=kind, constituents=constituents)


def _bucket_rules_from_list(key: str, entries) -> tuple[BucketRule, ...]:
    if not isinstance(entries, list) or not entries:
        raise InvalidParameter(f"bucket rules for '{key}' must be a non-empty list")
    rules = []
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != {"label", "min", "max"}:
            raise InvalidParameter(
                f"bucket rule for '{key}' needs exactly label/min/max, got {entry!r}"
            )
        try:
            lo, hi = float(entry["min"]), float(entry["max"])
        except (TypeError, ValueError):
            raise InvalidParameter(f"bucket rule for '{key}': min and max must be numbers") from None
        if not lo < hi:
            raise InvalidParameter(f"bucket rule for '{key}': min must be < max")
        rules.append(BucketRule(label=str(entry["label"]), lo=lo, hi=hi))
    return tuple(rules)


def manifest_from_dict(doc: dict, base_dir: str | Path = ".") -> DatasetManifest:
    """Validate a manifest document; no file is touched here (fail fast)."""
    base = Path(base_dir)
    if not isinstance(doc, dict):
        raise InvalidParameter("manifest must be a JSON object")
    unknown = doc.keys() - MANIFEST_FIELDS.keys()
    if unknown:
        raise InvalidParameter(f"manifest has unknown fields {sorted(unknown)}")
    for required in ("nodes", "edges", "layers"):
        if doc.get(required) is None:
            raise InvalidParameter(f"manifest is missing required field '{required}'")
    for field, kind in MANIFEST_FIELDS.items():
        if doc.get(field) is not None and not isinstance(doc[field], kind):
            raise InvalidParameter(f"manifest field '{field}' must be {JSON_TYPES[kind]}")

    layers = tuple(_layer_spec_from_dict(entry) for entry in doc["layers"])
    check_layers(layers)
    declared = [s.name for s in layers]

    pairs = doc.get("pairs")
    if pairs is not None:
        for entry in pairs:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise InvalidParameter(f"pair entry must be a 2-element list, got {entry!r}")
            for name in entry:
                if name not in declared:
                    raise UnknownLayer(f"manifest pair references undeclared layer '{name}'")
        pairs = tuple(tuple(entry) for entry in pairs)

    buckets = {
        key: _bucket_rules_from_list(key, entries)
        for key, entries in (doc.get("buckets") or {}).items()
    }

    delimiter = doc.get("delimiter")
    if delimiter is not None and delimiter not in (",", "\t"):
        raise InvalidParameter("manifest delimiter must be ',' or tab")

    attributes = doc.get("attributes")
    return DatasetManifest(
        nodes_path=base / doc["nodes"],
        edges_path=base / doc["edges"],
        attributes_path=(base / attributes) if attributes else None,
        layers=layers,
        pairs=pairs,
        buckets=buckets,
        delimiter=delimiter,
    )


@contextmanager
def _open_input(path: Path) -> Iterator[IO[str]]:
    """Open ``path`` as UTF-8 text; an input error raised in the block names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 ({exc.reason})") from None
    except TieplexError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def load_manifest(path: str | Path) -> DatasetManifest:
    path = Path(path)
    with _open_input(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidParameter(f"manifest is not valid JSON: {exc}") from None
        return manifest_from_dict(doc, base_dir=path.parent)


def load_dataset(manifest: DatasetManifest | str | Path) -> LoadedDataset:
    """Read all files of a manifest and build the graph and attribute table.

    Edge records carry their lines into :func:`build_graph`, which checks them.
    Given a manifest path, a data file it names that cannot be opened is
    an input error of the manifest, and the message names both files.
    """
    if not isinstance(manifest, DatasetManifest):
        path = Path(manifest)
        manifest = load_manifest(path)
        try:
            return load_dataset(manifest)
        except OSError as exc:
            raise InvalidParameter(f"{path}: {exc}") from None

    with _open_input(manifest.nodes_path) as fh:
        labels = parse_nodes(fh)
    with _open_input(manifest.edges_path) as fh:
        records = parse_edges(fh, delimiter=manifest.delimiter)
    try:
        graph = build_graph(labels, manifest.layers, records)
    except TieplexError as exc:
        path = manifest.nodes_path if isinstance(exc, DuplicateNodeLabel) else manifest.edges_path
        exc.args = (f"{path}: {exc}",)
        raise
    del records  # the graph holds the ties now

    attributes = None
    if manifest.attributes_path is not None:
        with _open_input(manifest.attributes_path) as fh:
            attributes = parse_attributes(fh, buckets=manifest.buckets, delimiter=manifest.delimiter)
            unknown = set(attributes.labels()).difference(graph.labels)
            if unknown:
                node = min(unknown, key=attributes.first_line)
                raise UnknownNode(f"line {attributes.first_line(node)}: unknown node label '{node}'")

    report = IngestionReport(
        node_count=graph.n_nodes,
        edge_counts={name: graph.view(name).n_edges for name in graph.layer_names},
        duplicates_collapsed=dict(graph.duplicates_collapsed),
        attribute_node_count=len(attributes) if attributes is not None else 0,
    )
    return LoadedDataset(graph=graph, attributes=attributes, report=report, manifest=manifest)


def graph_to_json(graph: MultiplexGraph) -> str:
    """Canonical JSON for a graph: sorted labels, sorted edge lists per basic layer.

    Aggregates are not serialized; they are reproduced from their
    constituents on load.  Output is byte-stable for equal graphs.
    """
    doc = {
        "nodes": sorted(graph.labels),
        "layers": [
            {"name": s.name, "kind": s.kind, "constituents": list(s.constituents)}
            for s in graph.specs
        ],
        "edges": {
            s.name: sorted(
                [graph.node_label(i), graph.node_label(j)] for i, j in graph.edge_set(s.name)
            )
            for s in graph.specs
            if s.kind == "basic"
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def graph_from_json(text: str) -> MultiplexGraph:
    doc = json.loads(text)
    specs = [_layer_spec_from_dict(entry) for entry in doc["layers"]]
    triples = [
        (src, dst, name)
        for name, pairs in doc["edges"].items()
        for src, dst in pairs
    ]
    return build_graph(doc["nodes"], specs, triples)
