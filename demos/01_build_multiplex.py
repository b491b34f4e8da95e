"""Building a multiplex graph: basic layers, aggregates, adjacency views.

A multiplex keeps one node set and several named edge sets.  Here we
declare the four usual tie types of a two-mode friendship survey (a
strong and a weak variant of offline and online contact) plus the five
unions that are worth reading as layers of their own.
"""

from tieplex import LayerSpec, build_graph

students = ["ana", "boris", "carla", "dino", "ema"]

basics = ["strong_off", "weak_off", "strong_on", "weak_on"]
specs = [LayerSpec.basic(name) for name in basics] + [
    LayerSpec.aggregate("off", "strong_off", "weak_off"),
    LayerSpec.aggregate("on", "strong_on", "weak_on"),
    LayerSpec.aggregate("strong", "strong_off", "strong_on"),
    LayerSpec.aggregate("weak", "weak_off", "weak_on"),
    LayerSpec.aggregate("all", *basics),
]

# who named whom, and on which channel / at which intensity
edges = [
    ("ana", "boris", "strong_off"),
    ("boris", "ana", "strong_off"),
    ("ana", "carla", "weak_off"),
    ("carla", "dino", "weak_off"),
    ("ana", "boris", "strong_on"),
    ("boris", "carla", "weak_on"),
    ("dino", "ana", "weak_on"),
    ("dino", "ana", "weak_on"),  # duplicate answers collapse silently
]

g = build_graph(students, specs, edges)

print(f"{g!r}")
print(f"duplicates collapsed: {g.duplicates_collapsed}")
print()

print("edge counts per layer (aggregates are exact unions):")
for name in g.layer_names:
    view = g.view(name)
    kind = g.spec(name).kind
    print(f"  {name:11s} [{kind:9s}] |E| = {view.n_edges}")
print()

view = g.view("all")
print("adjacency in the 'all' layer:")
successors, predecessors = view.out.rows(), view.inn.rows()
for label in students:
    i = g.node_id(label)
    succ = sorted(g.node_label(j) for j in successors[i])
    pred = sorted(g.node_label(j) for j in predecessors[i])
    print(f"  {label:6s} names {succ or '-'}   named by {pred or '-'}")
print()

print("ema is isolated but remains a member of every layer's vertex set:")
ema = g.node_id("ema")
print(f"  degree in 'all': out={view.out.degrees()[ema]}, in={view.inn.degrees()[ema]}")
