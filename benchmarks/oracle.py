"""Independent output checks for the benchmark.

Nothing here imports ``tieplex``: the dataset is read with a plain CSV
reader, layers are Python sets, and every average is a ``math.fsum``
over the same per-actor terms the reports define, so the recomputed
values must equal the reported ones bit for bit.  Only values in full
precision are compared (JSON and CSV renderings, never rounded text).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

INPUT_KEYS = ("nodes", "edges", "attributes")


def _data_rows(path: Path, header: str, delim: str) -> list[tuple[str, ...]]:
    lines = path.read_text("utf-8").splitlines()
    if not lines or lines[0].lstrip("﻿") != header.replace(",", delim):
        raise ValueError(f"{path}: expected header '{header}'")
    return [tuple(field.strip() for field in line.split(delim)) for line in lines[1:]]


def jaccard(a: frozenset | set, b: frozenset | set) -> float:
    """Intersection over union; two empty sets give 0."""
    if not a and not b:
        return 0.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


def _mean_over(anchor: set, over: set, sets: list[set]) -> float:
    if not over:
        return 0.0
    return math.fsum(jaccard(anchor, sets[h]) for h in over) / len(over)


def _bucket(rules: list[dict], value: float) -> str:
    last = len(rules) - 1
    for pos, rule in enumerate(rules):
        lo, hi = float(rule["min"]), float(rule["max"])
        if lo <= value < hi or (pos == last and value == hi):
            return str(rule["label"])
    raise ValueError(f"no bucket covers {value!r}")


class Dataset:
    """A manifest's files read without tieplex."""

    def __init__(self, manifest_path: str | Path):
        manifest_path = Path(manifest_path)
        base = manifest_path.parent
        doc = json.loads(manifest_path.read_text("utf-8"))
        delim = doc.get("delimiter") or ","
        self.input_bytes = manifest_path.stat().st_size + sum(
            (base / doc[key]).stat().st_size for key in INPUT_KEYS if doc.get(key)
        )
        self.labels = [
            line.strip() for line in (base / doc["nodes"]).read_text("utf-8").splitlines()
        ]
        index = {label: i for i, label in enumerate(self.labels)}
        self.layers = [
            (entry["name"], tuple(entry.get("constituents") or ())) for entry in doc["layers"]
        ]
        self.basic = [name for name, parts in self.layers if not parts]
        self.pairs = [tuple(p) for p in doc.get("pairs") or ()]

        rows = _data_rows(base / doc["edges"], "source,target,layer", delim)
        self.edge_records = len(rows)
        basic_edges: dict[str, set[tuple[int, int]]] = {name: set() for name in self.basic}
        for src, dst, layer in rows:
            basic_edges[layer].add((index[src], index[dst]))
        self.edges = {
            name: basic_edges[name] if not parts else set().union(*(basic_edges[p] for p in parts))
            for name, parts in self.layers
        }

        self.tokens = [frozenset()] * len(self.labels)
        if doc.get("attributes"):
            buckets = doc.get("buckets") or {}
            tokens: dict[int, set[str]] = {}
            for node, key, value in _data_rows(base / doc["attributes"], "node,key,value", delim):
                if key in buckets:
                    value = _bucket(buckets[key], float(value))
                tokens.setdefault(index[node], set()).add(f"{key}:{value}")
            for i, toks in tokens.items():
                self.tokens[i] = frozenset(toks)

    @property
    def n(self) -> int:
        return len(self.labels)

    def stored_edges(self, name: str) -> int:
        return len(self.edges[name])

    def adjacency(self, name: str) -> tuple[list[set[int]], list[set[int]]]:
        out = [set() for _ in range(self.n)]
        inn = [set() for _ in range(self.n)]
        for i, j in self.edges[name]:
            out[i].add(j)
            inn[j].add(i)
        return out, inn


def endogenous_row(ds: Dataset, layer: str) -> dict[str, float]:
    """The endogenous report row of one layer."""
    out, inn = ds.adjacency(layer)
    n = ds.n
    rec = [jaccard(out[i], inn[i]) for i in range(n)]
    cyc = [_mean_over(out[i], inn[i], inn) for i in range(n)]
    trip = [_mean_over(out[i], out[i], out) for i in range(n)]
    return {
        "avg_reciprocity": math.fsum(rec) / n,
        "avg_cycle_closure": math.fsum(cyc) / n,
        "avg_triplet_closure": math.fsum(trip) / n,
    }


def overlaps(ds: Dataset, alpha: str, beta: str) -> dict[str, float]:
    """Average out- and in-overlap of one ordered layer pair."""
    out_a, in_a = ds.adjacency(alpha)
    out_b, in_b = ds.adjacency(beta)
    n = ds.n
    return {
        "avg_overlap_out": math.fsum(jaccard(out_a[i], out_b[i]) for i in range(n)) / n,
        "avg_overlap_in": math.fsum(jaccard(in_a[i], in_b[i]) for i in range(n)) / n,
    }


def wedge_counts(ds: Dataset, wedge_layer: str, closing: list[str]) -> tuple[int, dict[str, int]]:
    """Total wedges of a layer and how many each closing layer closes.

    A wedge is (center, unordered neighbor pair) in the undirected
    projection.  Instead of walking wedges, each undirected link {a, b}
    of a closing layer closes exactly the wedges centred on the common
    neighbors of a and b, so closed = sum over links of |N(a) & N(b)|.
    """
    out, inn = ds.adjacency(wedge_layer)
    und = [out[i] | inn[i] for i in range(ds.n)]
    total = sum(len(s) * (len(s) - 1) // 2 for s in und)
    links = {name: {(min(i, j), max(i, j)) for i, j in ds.edges[name]} for name in closing}
    links["any"] = set().union(*links.values()) if closing else set()
    closed = {name: sum(len(und[a] & und[b]) for a, b in pairs) for name, pairs in links.items()}
    return total, closed


def attribute_baseline(ds: Dataset) -> float:
    """Mean attribute similarity over all unordered node pairs.

    Nodes with equal token sets form a class, so the sum over n(n-1)/2
    pairs is a sum over class pairs weighted by their pair counts.  The
    terms are exact rationals of the float similarities, so rounding
    the exact sum once equals ``math.fsum`` over the individual terms.
    """
    n = ds.n
    pairs = n * (n - 1) // 2
    if pairs == 0:
        return 0.0
    classes = list(Counter(ds.tokens).items())
    exact = Fraction(0)
    for x, (tok_x, count_x) in enumerate(classes):
        exact += count_x * (count_x - 1) // 2 * Fraction(jaccard(tok_x, tok_x))
        for tok_y, count_y in classes[x + 1:]:
            exact += count_x * count_y * Fraction(jaccard(tok_x, tok_y))
    return float(exact) / pairs


def report_rows(fmt: str, text: str) -> tuple[dict, list[dict]]:
    """Top-level metadata and rows of a JSON, CSV or text rendering.

    CSV and text carry their metadata as ``# key=value`` comment lines;
    their cells stay strings.
    """
    if fmt == "json":
        doc = json.loads(text)
        return doc, doc["rows"]
    meta, lines = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif not line.startswith("baseline"):
            lines.append(line.split(",") if fmt == "csv" else line.split())
    header, body = lines[0], lines[1:]
    return meta, [dict(zip(header, row)) for row in body]


def check_output(ds: Dataset, verb: str, fmt: str | None, args: tuple[str, ...], data: bytes, schema=None) -> list[str]:
    """Problems found in one verb's stdout; empty when it is correct."""
    try:
        text = data.decode("utf-8")
        doc = json.loads(text) if fmt == "json" else None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return [f"{verb}: unreadable output ({exc})"]
    problems = []
    if doc is not None and schema is not None:
        import jsonschema

        try:
            jsonschema.validate(doc, schema)
        except jsonschema.ValidationError as exc:
            problems.append(f"{verb}: schema: {exc.message}")
    try:
        problems += _check_values(ds, verb, fmt, args, text, doc)
    except (KeyError, IndexError, ValueError, TypeError, StopIteration) as exc:
        problems.append(f"{verb}: malformed report ({exc!r})")
    return problems


def _check_values(ds: Dataset, verb, fmt, args, text, doc) -> list[str]:
    if verb == "validate":
        return [] if text.startswith("manifest ok:") else [f"validate: got {text!r}"]
    if verb == "endogenous" and fmt == "json":
        layer = ds.basic[0]
        row = next(r for r in doc["rows"] if r["layer"] == layer)
        return _compare(f"endogenous[{layer}]", endogenous_row(ds, layer), row)
    if verb == "cross" and fmt == "json":
        alpha, beta = ds.pairs[0]
        row = doc["rows"][0]
        problems = [] if (row["alpha"], row["beta"]) == (alpha, beta) else ["cross: first pair"]
        return problems + _compare(f"cross[{alpha}:{beta}]", overlaps(ds, alpha, beta), row)
    if verb == "wedges" and fmt == "csv":
        layer = args[args.index("--wedge-layer") + 1]
        total, closed = wedge_counts(ds, layer, list(ds.basic))
        meta, rows = report_rows("csv", text)
        got = {r["closing_layer"]: int(r["closed_count"]) for r in rows}
        want = {"total_wedges": total, **closed}
        return _compare("wedges", want, {"total_wedges": int(meta["total_wedges"]), **got})
    if verb == "attrs" and fmt == "json":
        return _compare("attrs", {"baseline": attribute_baseline(ds)}, doc)
    return []


def _compare(what: str, want: dict, got: dict) -> list[str]:
    return [
        f"{what}.{key}: reported {got.get(key)!r}, oracle {value!r}"
        for key, value in want.items()
        if got.get(key) != value or type(got.get(key)) is not type(value)
    ]
