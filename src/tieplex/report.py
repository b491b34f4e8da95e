"""Report assembly and rendering.

Every report is a plain dict with the same skeleton: the report name,
a versioned conventions block echoing all computation choices in
force, the parameters it was run with, a column list, and rows.  JSON
keeps full precision and writes a missing value (None) as null; text
and CSV render the same numbers, text rounded to a fixed precision,
and a missing value as n/a and an empty cell.  All output is
deterministic: identical input gives byte-identical bytes.  The
command line's verbs name their functions here (``verbs.REPORTS``).
"""

from __future__ import annotations

import json
import math
import re
from importlib import resources
from typing import Iterable, Sequence

from .crosslayer import attribute_metrics, cross_layer_averages
from .errors import InvalidParameter, MissingAttributes
from .io import LoadedDataset
from .metrics import layer_metrics
from .structure import (
    directed_degree_assortativity,
    layer_summary,
    structural_equivalence,
    wedge_closure,
)
from .synth import DEMO_PAIRS
from .verbs import FORMATS

TEXT_PRECISION = 4

CONVENTIONS = {
    "version": "2",
    "jaccard_both_empty": "zero",
    "degenerate_denominator": "zero",
    "cycle_closure_reference_layer": "beta",
    "triplet_closure_reference_layer": "alpha",
    "metric_average_denominator": "all_nodes",
    "avg_total_degree": "edges_over_nodes",
    "assortativity": "undirected_projection_pearson",
    "path_average": "ordered_pairs_largest_scc",
    "wedge_count": "per_center_unordered_pair",
    "equivalence_grouping": "greedy_smallest_id",
    "text_precision": TEXT_PRECISION,
}


def _base(report_name: str, parameters: dict, columns: Sequence[str], rows: list[dict], **extra) -> dict:
    return {
        "report": report_name,
        "conventions": dict(CONVENTIONS),
        "parameters": parameters,
        "columns": list(columns),
        "rows": rows,
        **extra,
    }


def _rows(columns: Sequence[str], records: Iterable, **renames) -> list[dict]:
    """One row per record, each column read off the record attribute of that name.

    ``renames`` maps a column to another attribute name.  ``records`` is
    iterated once, so a generator frees each record after its row.
    """
    cells = [(c, renames.get(c, c)) for c in columns]
    return [{c: getattr(r, cell) for c, cell in cells} for r in records]


def summary_report(dataset: LoadedDataset) -> dict:
    """Structural summary, one row per declared layer; a degenerate assortativity is None."""
    g = dataset.graph
    columns = [
        "layer", "nodes", "edges", "avg_total_degree", "assortativity",
        "scc_nodes", "scc_edges", "avg_path", "diameter",
    ]
    views = [g.view(name) for name in g.layer_names]
    rows = _rows(columns, (layer_summary(v) for v in views), nodes="n_nodes", edges="n_edges")
    for row in rows:
        row["assortativity"] = _or_none(row["assortativity"])
    directed = {
        v.name: {
            f"{a}_{b}": _or_none(directed_degree_assortativity(v, a, b))
            for a in ("out", "in")
            for b in ("out", "in")
        }
        for v in views
    }
    return _base("summary", {}, columns, rows, details={"directed_assortativity": directed})


def _or_none(value: float) -> float | None:
    """``value``, or None for a NaN: a degenerate assortativity, rendered n/a, an empty cell or null."""
    return None if math.isnan(value) else value


def endogenous_report(dataset: LoadedDataset) -> dict:
    """Per-layer averages of reciprocity and the two closure scores."""
    g = dataset.graph
    columns = ["layer", "avg_reciprocity", "avg_cycle_closure", "avg_triplet_closure"]
    rows = _rows(columns, (layer_metrics(g.view(name)) for name in g.layer_names))
    return _base("endogenous", {}, columns, rows)


def resolve_pairs(
    dataset: LoadedDataset, override: Sequence[tuple[str, str]] | None = None
) -> tuple[tuple[str, str], ...]:
    """Ordered pair list for the cross-layer table.

    Priority: explicit override, then the manifest's pair list, then
    the stock 12-pair list when the stock nine layer names are all
    declared.  Otherwise the caller must supply pairs.
    """
    g = dataset.graph
    if override is not None:
        pairs = tuple((a, b) for a, b in override)
    elif dataset.manifest.pairs is not None:
        pairs = dataset.manifest.pairs
    elif {name for p in DEMO_PAIRS for name in p} <= set(g.layer_names):
        pairs = DEMO_PAIRS
    else:
        raise InvalidParameter(
            "no pair list: supply pairs explicitly or declare them in the manifest"
        )
    for a, b in pairs:
        g.view(a)
        g.view(b)
    return pairs


def cross_report(dataset: LoadedDataset, pairs: Sequence[tuple[str, str]] | None = None) -> dict:
    """Averaged cross-layer metrics, one row per ordered layer pair."""
    g = dataset.graph
    resolved = resolve_pairs(dataset, pairs)
    columns = [
        "alpha", "beta", "avg_reciprocity", "avg_cycle_closure",
        "avg_triplet_closure", "avg_overlap_out", "avg_overlap_in",
    ]
    rows = _rows(columns, (cross_layer_averages(g, alpha, beta) for alpha, beta in resolved))
    return _base("cross", {"pairs": [list(p) for p in resolved]}, columns, rows)


def equivalence_report(
    dataset: LoadedDataset,
    layer: str,
    tolerance: float = 0.0,
    out_degree: int | None = None,
    in_degree: int | None = None,
) -> dict:
    """Structural equivalence classes of ``layer``, each listing its member labels joined by ``;``.

    Raises :class:`InvalidParameter` if a member label holds ``;``,
    which would read as two members, or if ``tolerance`` is infinite,
    which the ``tolerance`` parameter of a JSON report cannot hold.
    """
    if math.isinf(tolerance):  # structural_equivalence refuses NaN and negative values
        raise InvalidParameter(f"tolerance must be finite, got {tolerance!r}")
    g = dataset.graph
    classes = structural_equivalence(
        g.view(layer), tolerance=tolerance, out_degree=out_degree, in_degree=in_degree
    )
    members = [[g.node_label(m) for m in c.members] for c in classes]
    ambiguous = next((label for labels in members for label in labels if ";" in label), None)
    if ambiguous is not None:
        raise InvalidParameter(
            f"node label '{ambiguous}' must not contain ';', which separates the members of an equivalence class"
        )
    columns = ["class", "size", "members", "reciprocity", "cycle_closure", "triplet_closure"]
    rows = [
        dict(zip(columns, (
            idx, len(labels), ";".join(labels), c.reciprocity, c.cycle_closure, c.triplet_closure,
        )))
        for idx, (c, labels) in enumerate(zip(classes, members))
    ]
    params = {"layer": layer, "tolerance": tolerance, "out_degree": out_degree, "in_degree": in_degree}
    return _base("equivalence", params, columns, rows)


def wedge_report(
    dataset: LoadedDataset, wedge_layer: str, closing_layers: Sequence[str] | None = None
) -> dict:
    """Wedge closure of ``wedge_layer`` by ``closing_layers``, by default every basic layer."""
    if closing_layers is None:
        closing_layers = dataset.graph.basic_layer_names
    result = wedge_closure(dataset.graph, wedge_layer, closing_layers)
    columns = ["wedge_layer", "closing_layer", "closed_count", "closed_pct"]
    rows = [
        dict(zip(columns, (wedge_layer, name, result.closed[name], result.pct[name])))
        for name in [*closing_layers, "any"]
    ]
    params = {"wedge_layer": wedge_layer, "closing_layers": list(closing_layers)}
    return _base("wedges", params, columns, rows, total_wedges=result.total, no_wedges=result.no_wedges)


def attribute_report(dataset: LoadedDataset, layer: str) -> dict:
    if dataset.attributes is None:
        raise MissingAttributes("dataset has no attribute file")
    g = dataset.graph
    m = attribute_metrics(g, layer, dataset.attributes)
    columns = ["node", "layer", "out_similarity", "in_similarity"]
    rows = [
        dict(zip(columns, (label, layer, out, inn)))
        for label, out, inn in zip(g.labels, m.out_similarity.tolist(), m.in_similarity.tolist())
    ]
    return _base("attributes", {"layer": layer}, columns, rows, baseline=m.baseline)


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _format_cell(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.{TEXT_PRECISION}f}" if isinstance(value, float) else str(value)


def _header_lines(report: dict) -> list[str]:
    lines = [f"# report: {report['report']}"]
    for key in sorted(report["conventions"]):
        lines.append(f"# convention {key}={report['conventions'][key]}")
    for key in sorted(report["parameters"]):
        lines.append(f"# param {key}={report['parameters'][key]}")
    if "total_wedges" in report:
        lines.append(f"# total_wedges={report['total_wedges']}")
        lines.append(f"# no_wedges={report['no_wedges']}")
    return lines


def render_text(report: dict) -> str:
    """Fixed-width table; floats rounded to the declared text precision."""
    columns = report["columns"]
    grid = [list(columns)]
    for row in report["rows"]:
        grid.append([_format_cell(row[c]) for c in columns])
    shown = [[_display_width(cell) for cell in line] for line in grid]
    widths = [max(column) for column in zip(*shown)]
    lines = _header_lines(report)
    for line, sizes in zip(grid, shown):
        # ljust counts characters, so a cell narrower or wider than its length pads to a shifted target
        lines.append("  ".join(cell.ljust(len(cell) + w - size) for cell, size, w in zip(line, sizes, widths)).rstrip())
    if "baseline" in report:
        lines.append(f"baseline {_format_cell(report['baseline'])}")
    return "\n".join(lines) + "\n"


def _display_width(cell: str) -> int:
    """Columns ``cell`` takes in a terminal.

    Combining characters and format characters (category Cf, such as
    U+FEFF) take none, wide and fullwidth East Asian characters two,
    every other character one.
    """
    if cell.isascii():
        return len(cell)
    # imported here: its tables add about 0.1 MiB to the resident size
    # of every run, and most reports hold ASCII cells only
    import unicodedata

    return sum(
        0 if unicodedata.combining(ch) or unicodedata.category(ch) == "Cf"
        else 2 if unicodedata.east_asian_width(ch) in ("W", "F") else 1
        for ch in cell
    )


def render_csv(report: dict) -> str:
    """CSV with '#'-prefixed metadata comment lines, full-precision numbers.

    A column name or cell that holds ``,``, ``"`` or a line break, or
    starts with ``#``, is quoted as RFC 4180 quotes it, so a node label
    stays one field and no data row reads as a comment line.
    """
    lines = _header_lines(report)
    columns = report["columns"]
    lines.append(",".join(map(_quote_csv, columns)))
    for row in report["rows"]:
        lines.append(",".join(_quote_csv(_format_cell_csv(row[c])) for c in columns))
    if "baseline" in report:
        lines.append(f"# baseline={_format_cell_csv(report['baseline'])}")
    return "\n".join(lines) + "\n"


def _format_cell_csv(value) -> str:
    if value is None:
        return ""
    return str(value)


_CSV_QUOTED = re.compile(r'[,"\r\n]|^#')


def _quote_csv(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"' if _CSV_QUOTED.search(cell) else cell


RENDERERS = dict(zip(FORMATS, (render_json, render_text, render_csv)))


def render(report: dict, fmt: str) -> str:
    try:
        renderer = RENDERERS[fmt]
    except KeyError:
        raise InvalidParameter(f"unknown format '{fmt}'") from None
    return renderer(report)


def load_report_schema() -> dict:
    """JSON schema the JSON renderings validate against."""
    text = resources.files("tieplex").joinpath("schemas/report.schema.json").read_text("utf-8")
    return json.loads(text)
