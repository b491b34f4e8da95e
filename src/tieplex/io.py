"""Deterministic dataset ingestion.

File formats (all UTF-8, LF or CRLF; a lone CR does not end a line):

* node file: one label per line, isolates included
* edge file: ``source,target,layer`` with that exact header
* attribute file: ``node,key,value`` with that exact header
* manifest: one JSON document naming the files, the layer
  declarations, the cross-layer pair list, and attribute bucketing
  rules; unknown fields are rejected

Parsers reject rather than repair: a bad line raises with its line
number instead of being dropped, and what follows its chunk is left
unread.  Comma is the default delimiter; a tab in the header line
switches to tab unless the manifest pins one.  The edge and attribute
files are read in chunks of ``_ROWS`` rows, each split into columns in
bulk; the first row that fails a check is handed to the one row checker,
which words every row error.  :func:`load_dataset` opens every file
through :func:`_open_input`, which reads a failed file to its end, so a
decoding error anywhere in it is reported first.
:func:`parse_edges` yields the edge chunks as :class:`EdgeColumns`, and
:func:`load_dataset` hands them to :func:`build_graph`, which maps each
to ids before the next is read, so no more than one chunk's label
strings are held at a time.

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
_ROWS = 1 << 10  # rows of an edge or attribute file read, checked and mapped per chunk


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


def _split_header(raw: str, expected: tuple[str, ...], delimiter: str | None, what: str) -> str:
    raw = raw.rstrip("\r").lstrip("\ufeff")
    delim = delimiter or ("\t" if "\t" in raw else ",")
    fields = tuple(f.strip() for f in raw.split(delim))
    if fields != expected:
        raise MissingHeader(
            f"{what} file must start with header '{','.join(expected)}', got {raw[:80]!r}"
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
    stream: Iterable[str], expected: tuple[str, ...], delimiter: str | None, what: str
) -> Iterator[tuple[list[list[str]], int]]:
    """The stripped fields of a headed file, one list per column, ``_ROWS`` rows at a time.

    Yields each chunk's columns with the line of its first row.  The
    chunks stop before the first row :func:`_split_row` rejects, and that
    row's error is raised as soon as its chunk has been read.
    """
    # a stream opened with newline="\n" (as by _open_input) splits on "\n" alone,
    # where str.splitlines would also split on "\r", "\x0b", "\u2028", ...
    lines = iter(stream)
    header = next(lines, None)
    if header is None:
        raise MissingHeader(f"{what} file is empty")
    delim = _split_header(header.rstrip("\n"), expected, delimiter, what)
    width = len(expected)
    first = 2
    for chunk in iter(lambda: list(islice(lines, _ROWS)), []):
        good = len(chunk)
        if not set(map(str.count, chunk, repeat(delim))) <= {width - 1}:
            good = next(k for k, raw in enumerate(chunk) if raw.count(delim) != width - 1)
        bad = chunk[good] if good < len(chunk) else None
        parts = delim.join(islice(chunk, good)).split(delim) if good else []
        del chunk
        # "\n" and "\r" are whitespace, so stripping each field also drops the line ends
        cells = list(map(str.strip, parts))
        if "" in cells:  # an empty field, or a blank line of tab delimiters
            good = cells.index("") // width
            bad = delim.join(parts[good * width:(good + 1) * width])
            del cells[good * width:]
        del parts
        if good:
            yield [cells[j::width] for j in range(width)], first
        if bad is not None:
            _split_row(bad.rstrip("\n"), delim, first + good, width)  # raises
        first += good


def parse_edges(stream: IO[str], delimiter: str | None = None) -> Iterator[EdgeColumns]:
    """Parse an edge file into :class:`EdgeColumns` chunks of at most ``_ROWS`` rows.

    A generator: each row keeps its line number for diagnostics and
    passes the same checks, with the same messages, as :func:`_split_row`
    gives it; an error is raised when the chunks are drawn, and the rows
    after the failing chunk are left unread.  Every row in one list:
    ``[r for chunk in parse_edges(fh) for r in chunk]``.
    """
    for columns, first in _read_columns(stream, EDGE_HEADER, delimiter, "edge"):
        yield EdgeColumns(*columns, first_line=first)


def parse_nodes(stream: IO[str]) -> list[str]:
    """Parse a node file: one label per line; a blank line raises and the rest is left unread."""
    labels = []
    for line_no, raw in enumerate(stream, start=1):
        # a byte order mark can only open the file; stripping drops the line end
        label = (raw.lstrip("\ufeff") if line_no == 1 else raw).strip()
        if label == "":
            raise MalformedLine("blank line in node file", line_no)
        labels.append(label)
    return labels


def _bucket_label(rules: tuple[BucketRule, ...], key: str, value: str, line_no: int) -> str:
    try:
        numeric = float(value)
    except ValueError:
        raise MalformedLine(
            f"key '{key}' is bucketed and needs a numeric value, got '{value}'", line_no
        ) from None
    last = len(rules) - 1
    for pos, rule in enumerate(rules):
        if rule.lo <= numeric < rule.hi or (pos == last and numeric == rule.hi):
            return rule.label
    raise UnknownBucketKey(
        f"no bucket for key '{key}' covers value {numeric!r}", line_no
    )


def _attribute_chunks(
    stream: IO[str], buckets: Mapping[str, tuple[BucketRule, ...]], delimiter: str | None
) -> Iterator[tuple[list[str], list[str], int]]:
    """The node and token columns of an attribute file, ``_ROWS`` rows at a time.

    Yields each chunk's columns with the line of its first row.
    Bucketed values are replaced by their label.  A key may not hold
    ``:``, which ends the key in a token (``a:b`` + ``c`` and ``a`` +
    ``b:c`` would both read ``a:b:c``).  The first bad row raises,
    whether its format, its key or its bucketed value is at fault.
    """
    for (nodes, keys, values), first in _read_columns(stream, ATTRIBUTE_HEADER, delimiter, "attribute"):
        bad = min(map(keys.index, [key for key in set(keys) if ":" in key]), default=len(keys))
        for k in [k for k, key in enumerate(keys) if key in buckets and k < bad]:
            values[k] = _bucket_label(buckets[keys[k]], keys[k], values[k], first + k)
        if bad < len(keys):
            raise MalformedLine(f"key '{keys[bad]}' must not contain ':'", first + bad)
        yield nodes, list(map("{}:{}".format, keys, values)), first


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
    The first bad row raises; the rows after its chunk are left unread.
    """
    return AttributeTable.from_rows(_attribute_chunks(stream, buckets or {}, delimiter))


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
    if ":" in key:
        raise InvalidParameter(f"bucket key '{key}' must not contain ':'")
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
    """Open ``path`` as UTF-8 text; an input error raised in the block names the file.

    Only ``"\n"`` ends a line, as in a :class:`io.StringIO` handed to the
    parsers.  After an input error the rest of the file is read, so a
    decoding error in it wins.
    """
    try:
        with open(path, encoding="utf-8", newline="\n") as fh:
            try:
                yield fh
            except TieplexError:
                for _ in fh:
                    pass
                raise
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

    The edge file goes to :func:`build_graph` as the chunks of
    :func:`parse_edges`, each mapped to ids before the next is read, so
    no more than one chunk's label strings are held at a time.  Edge
    records carry their lines into :func:`build_graph`, which checks
    them.
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
    duplicate = None
    with _open_input(manifest.edges_path) as fh:
        try:
            graph = build_graph(labels, manifest.layers, parse_edges(fh, manifest.delimiter))
        except DuplicateNodeLabel as exc:
            duplicate = exc  # an error of the node file, named outside this block
    if duplicate is not None:
        duplicate.args = (f"{manifest.nodes_path}: {duplicate}",)
        raise duplicate

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
