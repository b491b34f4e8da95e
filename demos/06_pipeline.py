"""End-to-end pipeline: generate a dataset, load it, render every report.

The same steps are available from the command line:

    tieplex generate --out work/demo --seed 42
    tieplex summary    --manifest work/demo/manifest.json
    tieplex endogenous --manifest work/demo/manifest.json --format json
    tieplex cross      --manifest work/demo/manifest.json
    tieplex equiv      --manifest work/demo/manifest.json --layer strong_on --tolerance 0.05
    tieplex wedges     --manifest work/demo/manifest.json --wedge-layer strong
    tieplex attrs      --manifest work/demo/manifest.json --layer all
"""

import tempfile
from pathlib import Path

from tieplex import load_dataset, write_demo_dataset
from tieplex.report import (
    attribute_report,
    cross_report,
    endogenous_report,
    equivalence_report,
    render_text,
    summary_report,
    wedge_report,
)

# the dataset is held in memory once loaded, so its files can go
with tempfile.TemporaryDirectory(prefix="tieplex-demo-") as tmp:
    workdir = Path(tmp)
    write_demo_dataset(workdir, seed=42, n_nodes=60)
    print(f"dataset written to {workdir}")
    dataset = load_dataset(workdir / "manifest.json")

report = dataset.report
print(f"loaded {report.node_count} nodes; edges per layer: {report.edge_counts}")
print()

print(render_text(summary_report(dataset)))
print(render_text(endogenous_report(dataset)))
print(render_text(cross_report(dataset)))
print(render_text(equivalence_report(dataset, "strong_on", tolerance=0.05)))
print(render_text(wedge_report(dataset, "strong", ["strong", "weak"])))
print(render_text(attribute_report(dataset, "all")))
