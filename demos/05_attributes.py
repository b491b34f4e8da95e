"""Attribute similarity: does similarity travel along ties?

Node attributes become token sets (category:value), tie-weighted
similarity averages are compared against the edge-free baseline over
all node pairs.
"""

from tieplex import (
    AttributeTable,
    LayerSpec,
    attribute_metrics,
    build_graph,
    jaccard,
    unnetworked_similarity,
)

labels = ["ana", "boris", "carla", "dino"]
table = AttributeTable(
    {
        "ana": {"gender:F", "program:cs", "gpa:high"},
        "boris": {"gender:M", "program:cs", "gpa:high"},
        "carla": {"gender:F", "program:math", "gpa:mid"},
        "dino": {"gender:M", "program:cs", "gpa:mid"},
    }
)

print("pairwise attribute similarity:")
for a in labels:
    row = "  ".join(f"{jaccard(table.tokens(a), table.tokens(b)):.2f}" for b in labels)
    print(f"  {a:6s} {row}")
print()

g = build_graph(
    labels,
    [LayerSpec.basic("friend")],
    [
        ("ana", "boris", "friend"),
        ("boris", "ana", "friend"),
        ("ana", "carla", "friend"),
        ("dino", "boris", "friend"),
    ],
)

m = attribute_metrics(g, "friend", table)
print("tie-weighted similarity per node on the 'friend' layer:")
for label, out, inn in zip(g.labels, m.out_similarity, m.in_similarity):
    print(f"  {label:6s} out={out:.3f} in={inn:.3f}")
print(f"unnetworked baseline: {m.baseline:.3f}")
print()

above = [label for label, out in zip(g.labels, m.out_similarity) if out > m.baseline]
print(f"nodes whose named friends are more similar than chance: {above}")
print(f"baseline ignores edges entirely: {unnetworked_similarity(labels, table):.3f}")
