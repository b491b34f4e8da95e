"""Seeded sparse multiplex generator for the benchmark workloads.

Each basic layer is a directed G(n, p) over ordered node pairs with
p = mean_degree / (n - 1), drawn by geometric skipping (Batagelj &
Brandes 2005, "Efficient generation of large random networks", Phys.
Rev. E 71): one uniform draw jumps straight to the next tie, so the
work is O(n + E) instead of one draw per node pair.  After each drawn
tie (i, j) one more draw decides whether the reverse tie (j, i) is
added too ("mutual completion"), with the layer's mutuality as the
probability.

Determinism: all randomness comes from ``random.Random(seed).random()``
in a fixed order (layers in declaration order, then one attribute pass
over the nodes), and the files are written sorted, so one seed gives
the same bytes on one platform.  The skip length uses ``math.log``;
a libm that rounds differently could move a tie on another platform.

The files follow the formats ``tieplex.io`` documents: ``nodes.txt``,
``edges.csv`` (``source,target,layer``), ``attributes.csv``
(``node,key,value``) and ``manifest.json``.  This generator is
separate from ``tieplex.synth`` and carries its own version number.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

GENERATOR_VERSION = 1

CATEGORIES = {"gender": ("F", "M"), "program": ("cs", "se", "math")}
GPA_RANGE = (6.0, 10.0)
GPA_BUCKETS = [
    {"label": "low", "min": 6.0, "max": 7.0},
    {"label": "mid", "min": 7.0, "max": 9.0},
    {"label": "high", "min": 9.0, "max": 10.0},
]


@dataclass(frozen=True)
class SparseLayer:
    name: str
    mean_degree: float
    mutuality: float


# Two basic layers with strong mutual completion and two with weak, in
# the demo's layer names; "strong" and "weak" are the even- and
# odd-indexed basic layers.
BENCH_LAYERS = (
    SparseLayer("strong_off", 2.0, 0.5),
    SparseLayer("weak_off", 2.0, 0.1),
    SparseLayer("strong_on", 2.0, 0.5),
    SparseLayer("weak_on", 2.0, 0.1),
)
BENCH_AGGREGATES = {
    "all": ("strong_off", "weak_off", "strong_on", "weak_on"),
    "strong": ("strong_off", "strong_on"),
    "weak": ("weak_off", "weak_on"),
}


def node_labels(n: int) -> list[str]:
    width = len(str(n - 1))
    return [f"n{i:0{width}d}" for i in range(n)]


def draw_layer(rng: random.Random, n: int, layer: SparseLayer) -> set[tuple[int, int]]:
    """Ties of one layer as (source id, target id) pairs, no self-ties."""
    p = layer.mean_degree / (n - 1)
    if not 0.0 < p < 1.0:
        raise ValueError(f"layer '{layer.name}': mean degree must be in (0, n - 1)")
    if not 0.0 <= layer.mutuality <= 1.0:
        raise ValueError(f"layer '{layer.name}': mutuality must be in [0, 1]")
    log_q = math.log(1.0 - p)
    n_pairs = n * (n - 1)
    ties: set[tuple[int, int]] = set()
    k = -1
    while True:
        k += 1 + int(math.log(1.0 - rng.random()) / log_q)
        if k >= n_pairs:
            return ties
        i, jj = divmod(k, n - 1)
        j = jj + (jj >= i)
        ties.add((i, j))
        if rng.random() < layer.mutuality:
            ties.add((j, i))


def write_sparse_dataset(
    out_dir: str | Path,
    seed: int,
    n: int,
    layers: tuple[SparseLayer, ...] = BENCH_LAYERS,
) -> dict:
    """Write the four dataset files and return what was written.

    The manifest declares the basic layers, the aggregates of
    ``BENCH_AGGREGATES`` (so ``layers`` keeps the bench layer names) and
    every ordered pair of distinct basic layers.  The returned dict
    holds the node count, the ties per basic layer and the bytes per
    file.
    """
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    rng = random.Random(seed)
    labels = node_labels(n)
    ties = {layer.name: sorted(draw_layer(rng, n, layer)) for layer in layers}

    attr_lines = ["node,key,value\n"]
    lo, hi = GPA_RANGE
    for label in labels:
        for key, values in CATEGORIES.items():
            attr_lines.append(f"{label},{key},{values[int(rng.random() * len(values))]}\n")
        attr_lines.append(f"{label},gpa,{lo + (hi - lo) * rng.random():.2f}\n")

    edge_lines = ["source,target,layer\n"]
    for name, pairs in ties.items():
        edge_lines.extend(f"{labels[i]},{labels[j]},{name}\n" for i, j in pairs)

    basic = [layer.name for layer in layers]
    manifest = {
        "nodes": "nodes.txt",
        "edges": "edges.csv",
        "attributes": "attributes.csv",
        "layers": [{"name": name, "kind": "basic", "constituents": []} for name in basic]
        + [
            {"name": name, "kind": "aggregate", "constituents": list(parts)}
            for name, parts in BENCH_AGGREGATES.items()
        ],
        "pairs": [[a, b] for a in basic for b in basic if a != b],
        "buckets": {"gpa": GPA_BUCKETS},
    }

    texts = {
        "nodes.txt": "".join(f"{label}\n" for label in labels),
        "edges.csv": "".join(edge_lines),
        "attributes.csv": "".join(attr_lines),
        "manifest.json": json.dumps(manifest, sort_keys=True, indent=2) + "\n",
    }
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sizes = {}
    for name, text in texts.items():
        data = text.encode("utf-8")
        (out / name).write_bytes(data)
        sizes[name] = len(data)
    return {
        "generator_version": GENERATOR_VERSION,
        "n": n,
        "ties": {name: len(pairs) for name, pairs in ties.items()},
        "bytes": sizes,
    }
