"""Single-layer actor metrics, worked on the three canonical fixtures.

Reciprocity, three-cycles and transitive triplets share one mechanism:
compare two neighbor sets of an actor with the Jaccard index.  The
directed 3-cycle, the transitive triplet and the mutual dyad make the
values easy to verify by hand.
"""

from tieplex import LayerSpec, build_graph, jaccard, layer_metrics


def show(view, title):
    print(title)
    print(f"  {'node':4s} {'dout':>4s} {'din':>4s} {'rec':>4s} {'recip':>6s} {'cyc':>4s} {'cyclo':>6s} {'plt':>4s} {'trilo':>6s}")
    lm = layer_metrics(view)
    for i in range(view.n_nodes):
        print(
            f"  {i:<4d} {lm.out_degree[i]:>4d} {lm.in_degree[i]:>4d}"
            f" {lm.reciprocated[i]:>4d} {lm.reciprocity[i]:>6.3f}"
            f" {lm.three_cycles[i]:>4d} {lm.cycle_closure[i]:>6.3f}"
            f" {lm.triplets[i]:>4d} {lm.triplet_closure[i]:>6.3f}"
        )
    print(f"  layer averages: reciprocity={lm.avg_reciprocity:.3f}"
          f" cycle_closure={lm.avg_cycle_closure:.3f}"
          f" triplet_closure={lm.avg_triplet_closure:.3f}")
    print()


def ring():
    return build_graph(["0", "1", "2"], [LayerSpec.basic("L")],
                       [("0", "1", "L"), ("1", "2", "L"), ("2", "0", "L")]).view("L")


def triplet():
    return build_graph(["0", "1", "2"], [LayerSpec.basic("L")],
                       [("0", "1", "L"), ("1", "2", "L"), ("0", "2", "L")]).view("L")


def dyad():
    return build_graph(["0", "1"], [LayerSpec.basic("L")],
                       [("0", "1", "L"), ("1", "0", "L")]).view("L")


print("the Jaccard index underneath everything:")
print(f"  J({{2,3}}, {{2}})   = {jaccard({2, 3}, {2})}")
print(f"  J({{}}, {{}})       = {jaccard(set(), set())} (metric convention: no ties, no closure)")
print()

show(ring(), "directed 3-cycle 0->1->2->0: no reciprocity, full cycle closure")
show(triplet(), "transitive triplet 0->1->2 with shortcut 0->2: hierarchy, no cycles")
show(dyad(), "mutual dyad 0<->1: full reciprocity, no triads")

# triplet_closure of node 0 on the transitive triplet, by hand:
# successors of 0 are {1, 2}; compare with out(1)={2} -> J = 1/2,
# and with out(2)={} -> J = 0; average over out-degree 2 gives 0.25.
print(f"hand check, triplet fixture node 0: {layer_metrics(triplet()).triplet_closure[0].item()} == 0.25")
