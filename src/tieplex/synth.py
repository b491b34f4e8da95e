"""Seeded synthetic multiplex datasets.

The generator exists because realistic survey data cannot ship with the
library; property tests and the demo pipeline need reproducible input.
Determinism contract: all randomness comes from ``random.Random(seed)``
through ``random()`` only (its output stream is guaranteed stable
across Python versions and platforms), and the draw order is fixed:

    for each layer, in declaration order:
        for each node pair (i, j) with i < j, in ascending order:
            draw forward tie, draw backward tie, draw mutuality coupling

Exactly three draws per pair per layer, taken whether or not a tie is
made, so edge sets never depend on earlier outcomes.  That is O(n²)
work, so the node count is capped at ``MAX_NODES``.  With mutuality
bias m the backward tie is forced equal to the forward tie with
probability m (bias 1 makes every tie mutual, bias 0 leaves the two
directions independent); the marginal tie probability stays p either
way.  Attribute draws follow after all layers, one draw per node per
category in declaration order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from .errors import InvalidParameter
from .layers import LayerSpec

if TYPE_CHECKING:
    from .crosslayer import AttributeTable
    from .graph import MultiplexGraph


@dataclass(frozen=True)
class LayerParams:
    name: str
    edge_probability: float
    mutuality_bias: float


# Three draws per node pair and layer: 5000 nodes already take 37.5M
# draws per layer, and a larger count would hang or exhaust memory.
MAX_NODES = 5000


def _validate(n_nodes: int, layers: Sequence[LayerParams]) -> None:
    if n_nodes < 2:
        raise InvalidParameter(f"need at least 2 nodes, got {n_nodes}")
    if n_nodes > MAX_NODES:
        raise InvalidParameter(f"at most {MAX_NODES} nodes, got {n_nodes}")
    if not layers:
        raise InvalidParameter("need at least one layer")
    for lp in layers:
        if not 0.0 <= lp.edge_probability <= 1.0:
            raise InvalidParameter(f"layer '{lp.name}': edge probability must be in [0, 1]")
        if not 0.0 <= lp.mutuality_bias <= 1.0:
            raise InvalidParameter(f"layer '{lp.name}': mutuality bias must be in [0, 1]")


def node_labels(n_nodes: int) -> list[str]:
    """Zero-padded labels so lexicographic order equals id order."""
    width = len(str(n_nodes - 1))
    return [f"n{i:0{width}d}" for i in range(n_nodes)]


def _layer_ties(rng: random.Random, n_nodes: int, lp: LayerParams) -> list[tuple[int, int]]:
    """The ties ``(i, j)`` of one layer drawn by the fixed scheme, sorted."""
    ties = []
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            forward = rng.random() < lp.edge_probability
            backward = rng.random() < lp.edge_probability
            if rng.random() < lp.mutuality_bias:
                backward = forward
            if forward:
                ties.append((i, j))
            if backward:
                ties.append((j, i))
    ties.sort()
    return ties


def _tokens(
    rng: random.Random, labels: Sequence[str], attributes: Mapping[str, Sequence[str]] | None
) -> dict[str, set[str]]:
    """Each label's attribute tokens, one draw per category in declaration order."""
    tokens: dict[str, set[str]] = {}
    if attributes:
        for label in labels:
            tokens[label] = {f"{key}:{values[int(rng.random() * len(values))]}" for key, values in attributes.items()}
    return tokens


def generate_synthetic(
    seed: int,
    n_nodes: int,
    layers: Sequence[LayerParams],
    aggregates: Sequence[LayerSpec] = (),
    attributes: Mapping[str, Sequence[str]] | None = None,
) -> tuple[MultiplexGraph, AttributeTable]:
    """Deterministic pseudo-random multiplex graph plus attribute table.

    Identical arguments give identical output on every platform; see
    the module docstring for the fixed draw scheme.
    """
    # imported here, not at module level: they load numpy, and write_demo_dataset needs neither
    from .crosslayer import AttributeTable
    from .graph import build_graph

    _validate(n_nodes, layers)
    rng = random.Random(seed)
    labels = node_labels(n_nodes)
    edges = [
        (labels[i], labels[j], lp.name) for lp in layers for i, j in _layer_ties(rng, n_nodes, lp)
    ]
    specs = [LayerSpec.basic(lp.name) for lp in layers] + list(aggregates)
    graph = build_graph(labels, specs, edges)
    return graph, AttributeTable(_tokens(rng, labels, attributes))


# Demo preset: four basic tie types and the five usual unions.  Strong
# layers are drawn with high mutuality, weak layers nearly independent,
# so reciprocity separates cleanly between them.
DEMO_SEED = 42
DEMO_NODES = 60
DEMO_LAYERS = (
    LayerParams("strong_off", 0.05, 0.85),
    LayerParams("weak_off", 0.09, 0.10),
    LayerParams("strong_on", 0.04, 0.85),
    LayerParams("weak_on", 0.10, 0.10),
)
DEMO_AGGREGATES = (
    LayerSpec.aggregate("off", "strong_off", "weak_off"),
    LayerSpec.aggregate("on", "strong_on", "weak_on"),
    LayerSpec.aggregate("strong", "strong_off", "strong_on"),
    LayerSpec.aggregate("weak", "weak_off", "weak_on"),
    LayerSpec.aggregate("all", "strong_off", "weak_off", "strong_on", "weak_on"),
)
DEMO_ATTRIBUTES = {"gender": ("F", "M"), "program": ("cs", "se", "math")}
DEMO_GPA_RANGE = (6.0, 10.0)
DEMO_PAIRS = (
    ("strong_off", "strong_on"),
    ("weak_off", "weak_on"),
    ("strong_off", "weak_off"),
    ("strong_on", "weak_on"),
    ("strong", "weak"),
    ("off", "on"),
    ("strong_on", "strong_off"),
    ("weak_on", "weak_off"),
    ("weak_off", "strong_off"),
    ("weak_on", "strong_on"),
    ("weak", "strong"),
    ("on", "off"),
)


def write_demo_dataset(out_dir: str | Path, seed: int = DEMO_SEED, n_nodes: int = DEMO_NODES) -> list[Path]:
    """Write the demo dataset files (nodes, edges, attributes, manifest).

    Byte-identical for identical (seed, n_nodes): graph and categorical
    attributes come from the fixed draw scheme, then one extra draw per
    node produces a numeric gpa column that exercises manifest
    bucketing.  Returns the written paths.
    """
    _validate(n_nodes, DEMO_LAYERS)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    labels = node_labels(n_nodes)
    specs = [LayerSpec.basic(lp.name) for lp in DEMO_LAYERS] + list(DEMO_AGGREGATES)
    edge_lines = ["source,target,layer\n"]
    for lp in DEMO_LAYERS:
        for i, j in _layer_ties(rng, n_nodes, lp):
            edge_lines.append(f"{labels[i]},{labels[j]},{lp.name}\n")
    tokens = _tokens(rng, labels, DEMO_ATTRIBUTES)
    lo, hi = DEMO_GPA_RANGE
    gpa = {label: lo + (hi - lo) * rng.random() for label in labels}

    paths = []

    def write(name: str, text: str) -> None:
        path = out / name
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        paths.append(path)

    write("nodes.txt", "".join(f"{label}\n" for label in labels))
    write("edges.csv", "".join(edge_lines))

    attr_lines = ["node,key,value\n"]
    for label in labels:
        for token in sorted(tokens[label]):
            key, value = token.split(":", 1)
            attr_lines.append(f"{label},{key},{value}\n")
        attr_lines.append(f"{label},gpa,{gpa[label]:.2f}\n")
    write("attributes.csv", "".join(attr_lines))

    manifest = {
        "nodes": "nodes.txt",
        "edges": "edges.csv",
        "attributes": "attributes.csv",
        "layers": [
            {"name": s.name, "kind": s.kind, "constituents": list(s.constituents)}
            for s in specs
        ],
        "pairs": [list(p) for p in DEMO_PAIRS],
        "buckets": {
            "gpa": [
                {"label": "low", "min": 6.0, "max": 7.0},
                {"label": "mid", "min": 7.0, "max": 9.0},
                {"label": "high", "min": 9.0, "max": 10.0},
            ]
        },
    }
    write("manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return paths
