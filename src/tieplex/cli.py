"""Command-line driver.

The report verbs and their options come from ``report.REPORTS``;
``generate`` and ``validate`` are the two other verbs.  Exit codes: 0
success, 2 input or validation error, 3 unexpected internal error.
Text output carries no color codes, so NO_COLOR needs no special
handling.
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

    for verb, report in rpt.REPORTS.items():
        p = sub.add_parser(verb, help=report.help)
        p.add_argument("--manifest", required=True, help="dataset manifest path")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--format", choices=tuple(rpt.RENDERERS), default="text")
        for flag, options in report.options:
            p.add_argument(flag, **options)

    p = sub.add_parser("generate", help="write the seeded synthetic demo dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=DEMO_SEED)
    p.add_argument("--nodes", type=int, default=DEMO_NODES, help=f"node count, 2 to {MAX_NODES}")

    p = sub.add_parser("validate", help="check a manifest without loading data files")
    p.add_argument("--manifest", required=True)

    return parser


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

    report = rpt.REPORTS[args.command].run(load_dataset(args.manifest), args)
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
