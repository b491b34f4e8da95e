"""Cross-layer metrics: how tie patterns carry over between layers.

For an ordered layer pair (alpha, beta) the single-layer metrics
generalize by anchoring on alpha's out-sets and comparing against
beta's neighbor sets.  The pair order matters for reciprocity and the
closure scores; the two overlapping indexes are symmetric.
"""

from tieplex import (
    LayerParams,
    LayerSpec,
    cross_layer_averages,
    cross_layer_metrics,
    generate_synthetic,
    layer_metrics,
)

g, _ = generate_synthetic(
    seed=2024,
    n_nodes=40,
    layers=[
        LayerParams("strong", edge_probability=0.06, mutuality_bias=0.9),
        LayerParams("weak", edge_probability=0.12, mutuality_bias=0.1),
    ],
    aggregates=[LayerSpec.aggregate("any_tie", "strong", "weak")],
)

print("one node, both pair orders (asymmetry is expected):")
node = 10
strong_weak = cross_layer_metrics(g, "strong", "weak")  # one column per metric, entry i for node i
weak_strong = cross_layer_metrics(g, "weak", "strong")
print(f"  r(strong, weak, {node}) = {strong_weak.reciprocity[node]:.4f}")
print(f"  r(weak, strong, {node}) = {weak_strong.reciprocity[node]:.4f}")
print(f"  oi_out({node})          = {strong_weak.overlap_out[node]:.4f} (same either way)")
print(f"  oi_in({node})           = {strong_weak.overlap_in[node]:.4f}")
print()

print("pair averages over all nodes:")
for alpha, beta in [("strong", "weak"), ("weak", "strong"), ("strong", "strong")]:
    avg = cross_layer_averages(g, alpha, beta)
    print(
        f"  ({alpha:7s}, {beta:7s})  r={avg.avg_reciprocity:.4f}"
        f"  cycle={avg.avg_cycle_closure:.4f}  triplet={avg.avg_triplet_closure:.4f}"
        f"  oi_out={avg.avg_overlap_out:.4f}  oi_in={avg.avg_overlap_in:.4f}"
    )
print()

print("alpha == beta reduces exactly to the single-layer metrics:")
pair, single = cross_layer_metrics(g, "strong", "strong"), layer_metrics(g.view("strong"))
checks = [
    getattr(pair, column).tobytes() == getattr(single, column).tobytes()
    for column in ("reciprocity", "cycle_closure", "triplet_closure")
]
print(f"  bitwise equal: {all(checks)}")
