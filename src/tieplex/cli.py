"""Command-line driver.

Verbs: summary, endogenous, cross, equiv, wedges, attrs, generate,
validate.  Exit codes: 0 success, 2 input or validation error, 3
unexpected internal error.  Text output carries no color codes, so
NO_COLOR needs no special handling.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import report as rpt
from .errors import TieplexError
from .io import load_dataset, load_manifest
from .synth import DEMO_NODES, DEMO_SEED, MAX_NODES, write_demo_dataset


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tieplex",
        description="Multiplex directed-graph analytics reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_report_args(p):
        p.add_argument("--manifest", required=True, help="dataset manifest path")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--format", choices=("json", "text", "csv"), default="text")

    p = sub.add_parser("summary", help="structural summary per layer")
    add_report_args(p)

    p = sub.add_parser("endogenous", help="reciprocity and closure averages per layer")
    add_report_args(p)

    p = sub.add_parser("cross", help="cross-layer averages per ordered pair")
    add_report_args(p)
    p.add_argument("--pairs", help="override pair list, e.g. 'a:b,b:a'")

    p = sub.add_parser("equiv", help="structural-equivalence classes of one layer")
    add_report_args(p)
    p.add_argument("--layer", required=True)
    p.add_argument("--tolerance", type=float, default=0.0)
    p.add_argument("--dout", type=int, default=None, help="restrict to this out-degree")
    p.add_argument("--din", type=int, default=None, help="restrict to this in-degree")

    p = sub.add_parser("wedges", help="wedge closure of one layer by others")
    add_report_args(p)
    p.add_argument("--wedge-layer", required=True)
    p.add_argument("--closing-layers", help="comma list (default: all basic layers)")

    p = sub.add_parser("attrs", help="attribute similarity along one layer's ties")
    add_report_args(p)
    p.add_argument("--layer", required=True)

    p = sub.add_parser("generate", help="write the seeded synthetic demo dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=DEMO_SEED)
    p.add_argument("--nodes", type=int, default=DEMO_NODES, help=f"node count, 2 to {MAX_NODES}")

    p = sub.add_parser("validate", help="check a manifest without loading data files")
    p.add_argument("--manifest", required=True)

    return parser


def _parse_pairs(text: str) -> list[tuple[str, str]]:
    pairs = []
    for chunk in text.split(","):
        parts = chunk.split(":")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise TieplexError(f"bad pair '{chunk}': expected 'alpha:beta'")
        pairs.append((parts[0], parts[1]))
    return pairs


def _run(args: argparse.Namespace) -> str:
    if args.command == "generate":
        paths = write_demo_dataset(args.out, seed=args.seed, n_nodes=args.nodes)
        return "".join(f"wrote {p}\n" for p in paths)

    if args.command == "validate":
        manifest = load_manifest(args.manifest)
        n_pairs = len(manifest.pairs) if manifest.pairs else 0
        return (
            f"manifest ok: {len(manifest.layers)} layers, {n_pairs} pairs, "
            f"attributes={'yes' if manifest.attributes_path else 'no'}\n"
        )

    dataset = load_dataset(args.manifest)
    if args.command == "summary":
        report = rpt.summary_report(dataset)
    elif args.command == "endogenous":
        report = rpt.endogenous_report(dataset)
    elif args.command == "cross":
        pairs = _parse_pairs(args.pairs) if args.pairs else None
        report = rpt.cross_report(dataset, pairs)
    elif args.command == "equiv":
        report = rpt.equivalence_report(
            dataset, args.layer, tolerance=args.tolerance,
            out_degree=args.dout, in_degree=args.din,
        )
    elif args.command == "wedges":
        closing = (
            args.closing_layers.split(",")
            if args.closing_layers
            else list(dataset.graph.basic_layer_names)
        )
        report = rpt.wedge_report(dataset, args.wedge_layer, closing)
    elif args.command == "attrs":
        report = rpt.attribute_report(dataset, args.layer)
    else:  # pragma: no cover - argparse enforces the choices
        raise AssertionError(f"unhandled command {args.command}")
    return rpt.render(report, args.format)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = getattr(args, "out", None)
    try:
        text = _run(args)
        if out and args.command != "generate":
            with open(Path(out), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (TieplexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal invariant violation, never expected
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
    return 0


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
