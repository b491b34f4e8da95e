"""Report assembly and rendering.

Every report is a plain dict with the same skeleton: the report name,
a versioned conventions block echoing all computation choices in
force, the parameters it was run with, a column list, and rows.  JSON
keeps full precision (NaN becomes null); text and CSV render the same
numbers, text rounded to a fixed precision.  All output is
deterministic: identical input gives byte-identical bytes.
"""

from __future__ import annotations

import json
import math
from importlib import resources
from typing import Sequence

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


def _base(report_name: str, parameters: dict, columns: Sequence[str], rows: list[dict]) -> dict:
    return {
        "report": report_name,
        "conventions": dict(CONVENTIONS),
        "parameters": parameters,
        "columns": list(columns),
        "rows": rows,
    }


def summary_report(dataset: LoadedDataset) -> dict:
    """Structural summary, one row per declared layer."""
    g = dataset.graph
    columns = [
        "layer", "nodes", "edges", "avg_total_degree", "assortativity",
        "scc_nodes", "scc_edges", "avg_path", "diameter",
    ]
    rows = []
    directed = {}
    for name in g.layer_names:
        view = g.view(name)
        s = layer_summary(view)
        rows.append(
            {
                "layer": s.layer,
                "nodes": s.n_nodes,
                "edges": s.n_edges,
                "avg_total_degree": s.avg_total_degree,
                "assortativity": s.assortativity,
                "scc_nodes": s.scc_nodes,
                "scc_edges": s.scc_edges,
                "avg_path": s.avg_path,
                "diameter": s.diameter,
            }
        )
        directed[name] = {
            f"{a}_{b}": directed_degree_assortativity(view, a, b)
            for a in ("out", "in")
            for b in ("out", "in")
        }
    report = _base("summary", {}, columns, rows)
    report["details"] = {"directed_assortativity": directed}
    return report


def endogenous_report(dataset: LoadedDataset) -> dict:
    """Per-layer averages of reciprocity and the two closure scores."""
    g = dataset.graph
    columns = ["layer", "avg_reciprocity", "avg_cycle_closure", "avg_triplet_closure"]
    rows = []
    for name in g.layer_names:
        lm = layer_metrics(g.view(name))
        rows.append(
            {
                "layer": name,
                "avg_reciprocity": lm.avg_reciprocity,
                "avg_cycle_closure": lm.avg_cycle_closure,
                "avg_triplet_closure": lm.avg_triplet_closure,
            }
        )
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
    rows = []
    for alpha, beta in resolved:
        avg = cross_layer_averages(g, alpha, beta)
        rows.append(
            {
                "alpha": alpha,
                "beta": beta,
                "avg_reciprocity": avg.avg_reciprocity,
                "avg_cycle_closure": avg.avg_cycle_closure,
                "avg_triplet_closure": avg.avg_triplet_closure,
                "avg_overlap_out": avg.avg_overlap_out,
                "avg_overlap_in": avg.avg_overlap_in,
            }
        )
    return _base("cross", {"pairs": [list(p) for p in resolved]}, columns, rows)


def equivalence_report(
    dataset: LoadedDataset,
    layer: str,
    tolerance: float = 0.0,
    out_degree: int | None = None,
    in_degree: int | None = None,
) -> dict:
    g = dataset.graph
    classes = structural_equivalence(
        g.view(layer), tolerance=tolerance, out_degree=out_degree, in_degree=in_degree
    )
    columns = ["class", "size", "members", "reciprocity", "cycle_closure", "triplet_closure"]
    rows = []
    for idx, cls in enumerate(classes):
        rows.append(
            {
                "class": idx,
                "size": len(cls.members),
                "members": ";".join(g.node_label(m) for m in cls.members),
                "reciprocity": cls.reciprocity,
                "cycle_closure": cls.cycle_closure,
                "triplet_closure": cls.triplet_closure,
            }
        )
    params = {
        "layer": layer,
        "tolerance": tolerance,
        "out_degree": out_degree,
        "in_degree": in_degree,
    }
    return _base("equivalence", params, columns, rows)


def wedge_report(dataset: LoadedDataset, wedge_layer: str, closing_layers: Sequence[str]) -> dict:
    g = dataset.graph
    result = wedge_closure(g, wedge_layer, closing_layers)
    columns = ["wedge_layer", "closing_layer", "closed_count", "closed_pct"]
    rows = []
    for name in list(closing_layers) + ["any"]:
        rows.append(
            {
                "wedge_layer": wedge_layer,
                "closing_layer": name,
                "closed_count": result.closed[name],
                "closed_pct": result.pct[name],
            }
        )
    report = _base(
        "wedges",
        {"wedge_layer": wedge_layer, "closing_layers": list(closing_layers)},
        columns,
        rows,
    )
    report["total_wedges"] = result.total
    report["no_wedges"] = result.no_wedges
    return report


def attribute_report(dataset: LoadedDataset, layer: str) -> dict:
    if dataset.attributes is None:
        raise MissingAttributes("dataset has no attribute file")
    g = dataset.graph
    records, baseline = attribute_metrics(g, layer, dataset.attributes)
    columns = ["node", "layer", "out_similarity", "in_similarity"]
    rows = [
        {
            "node": g.node_label(r.node),
            "layer": r.layer,
            "out_similarity": r.out_similarity,
            "in_similarity": r.in_similarity,
        }
        for r in records
    ]
    report = _base("attributes", {"layer": layer}, columns, rows)
    report["baseline"] = baseline
    return report


def _json_safe(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_safe(v) for v in value]
    return value


def render_json(report: dict) -> str:
    return json.dumps(_json_safe(report), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _format_cell(value, precision: int | None) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        if math.isnan(value):
            return "n/a"
        return f"{value:.{precision}f}" if precision is not None else repr(value)
    return str(value)


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
        grid.append([_format_cell(row[c], TEXT_PRECISION) for c in columns])
    widths = [max(len(line[k]) for line in grid) for k in range(len(columns))]
    lines = _header_lines(report)
    for line in grid:
        lines.append("  ".join(cell.ljust(widths[k]) for k, cell in enumerate(line)).rstrip())
    if "baseline" in report:
        lines.append(f"baseline {_format_cell(report['baseline'], TEXT_PRECISION)}")
    return "\n".join(lines) + "\n"


def render_csv(report: dict) -> str:
    """CSV with '#'-prefixed metadata comment lines, full-precision numbers."""
    lines = _header_lines(report)
    columns = report["columns"]
    lines.append(",".join(columns))
    for row in report["rows"]:
        lines.append(",".join(_format_cell_csv(row[c]) for c in columns))
    if "baseline" in report:
        lines.append(f"# baseline={_format_cell_csv(report['baseline'])}")
    return "\n".join(lines) + "\n"


def _format_cell_csv(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and math.isnan(value):
        return ""
    return str(value)


RENDERERS = {"json": render_json, "text": render_text, "csv": render_csv}


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
