"""Multiplex directed-graph analytics.

Actor metrics built on neighbor-set Jaccard similarity (reciprocity,
three-cycle and transitive-triplet closure), their cross-layer
generalizations and overlap indexes, attribute similarity, and layer
structure analytics (components, paths, assortativity, equivalence
grouping, wedge closure), plus deterministic dataset ingestion,
seeded synthetic generation, and table reports.

Each public name is imported from its module on first access, so
``import tieplex`` alone loads no numpy.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the module that defines it.
_MODULES = {
    "crosslayer": (
        "AttributeMetrics", "AttributeTable", "CrossLayerAverages", "CrossLayerMetrics",
        "attribute_metrics", "cross_layer_averages", "cross_layer_metrics",
        "unnetworked_similarity",
    ),
    "errors": (
        "DuplicateLayerName", "DuplicateNodeLabel", "EmptyField", "InvalidParameter",
        "MalformedLine", "MissingAttributes", "MissingHeader", "NotStronglyConnected", "ParseError",
        "SelfTie", "TieplexError", "UnknownBucketKey", "UnknownLayer", "UnknownNode",
    ),
    "graph": ("EdgeColumns", "EdgeRecord", "LayerView", "MultiplexGraph", "build_graph"),
    "io": (
        "BucketRule", "DatasetManifest", "IngestionReport", "LoadedDataset", "load_dataset",
        "load_manifest", "manifest_from_dict", "parse_attributes", "parse_edges", "parse_nodes",
    ),
    "layers": ("LayerSpec",),
    "metrics": ("ActorMetrics", "JaccardConvention", "LayerMetrics", "jaccard", "layer_metrics"),
    "structure": (
        "EquivalenceClass", "LayerSummary", "PathStats", "WedgeReport", "degree_assortativity",
        "directed_degree_assortativity", "induced_edge_count", "largest_scc", "layer_summary",
        "path_stats", "strongly_connected_components", "structural_equivalence", "wedge_closure",
    ),
    "synth": ("LayerParams", "generate_synthetic", "node_labels", "write_demo_dataset"),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}
__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
