"""The command line's table of report verbs.

Plain data, so that building the parser imports no numpy: each row
names its ``*_report`` function in :mod:`tieplex.report` instead of
holding it, and the command line looks it up there when the verb runs.
A rebound module global (a tracer's wrapper, say) is then the one that
runs.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

from .errors import InvalidParameter

# Output formats, the keys of ``report.RENDERERS`` in this order.
FORMATS = ("json", "text", "csv")


class ReportVerb(NamedTuple):
    """One report verb of the command line.

    ``options`` are the ``add_argument`` calls beyond the shared
    ``--manifest``/``--out``/``--format``; ``function`` is the name of the
    :mod:`tieplex.report` function that makes the report from a loaded
    dataset, and ``arguments`` maps the parsed arguments to its keyword
    arguments.
    """

    help: str
    options: tuple[tuple[str, dict], ...]
    function: str
    arguments: Callable[[Any], dict] = lambda args: {}


def _parse_pairs(text: str) -> list[tuple[str, str]]:
    pairs = []
    for chunk in text.split(","):
        parts = chunk.split(":")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise InvalidParameter(f"bad pair '{chunk}': expected 'alpha:beta'")
        pairs.append((parts[0], parts[1]))
    return pairs


REPORTS: dict[str, ReportVerb] = {
    "summary": ReportVerb("structural summary per layer", (), "summary_report"),
    "endogenous": ReportVerb("reciprocity and closure averages per layer", (), "endogenous_report"),
    "cross": ReportVerb(
        "cross-layer averages per ordered pair",
        (("--pairs", {"help": "override pair list, e.g. 'a:b,b:a'"}),),
        "cross_report",
        lambda args: {"pairs": None if args.pairs is None else _parse_pairs(args.pairs)},
    ),
    "equiv": ReportVerb(
        "structural-equivalence classes of one layer",
        (
            ("--layer", {"required": True}),
            ("--tolerance", {"type": float, "default": 0.0}),
            ("--dout", {"type": int, "help": "restrict to this out-degree"}),
            ("--din", {"type": int, "help": "restrict to this in-degree"}),
        ),
        "equivalence_report",
        lambda args: {
            "layer": args.layer, "tolerance": args.tolerance,
            "out_degree": args.dout, "in_degree": args.din,
        },
    ),
    "wedges": ReportVerb(
        "wedge closure of one layer by others",
        (
            ("--wedge-layer", {"required": True}),
            ("--closing-layers", {"help": "comma list (default: all basic layers)"}),
        ),
        "wedge_report",
        lambda args: {
            "wedge_layer": args.wedge_layer,
            "closing_layers": None if args.closing_layers is None else args.closing_layers.split(","),
        },
    ),
    "attrs": ReportVerb(
        "attribute similarity along one layer's ties",
        (("--layer", {"required": True}),),
        "attribute_report",
        lambda args: {"layer": args.layer},
    ),
}
