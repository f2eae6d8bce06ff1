"""indturan: rooted-family constructions, rational density exponents, and
executable embedding lemmas for induced-Turan-style extremal questions.

Layers: `graph` (vertex/edge primitives, the one backtracking matcher
`placements` that `oracles` and `embeddings` both search with, induced-map row
checks, JSON, DOT), `families` (rooted patterns, powers, bipartite
reductions), `density` (incident-edge density and balancedness),
`realizability` (exponent certificates), `oracles` (exhaustive ground truth at
desk scale), `canonical` (the canonical form that `oracles` deduplicates graph
classes with), `embeddings` (lemma procedures), `regularity` (the
almost-regular subgraph lemma), `cli` (the argument parser) and `commands`
(the subcommand handlers it loads once the arguments parse).

Each name below is imported from its layer on first use (PEP 562), so that
`import indturan` and a CLI run load only the layers they need: the embed
jobs load neither `oracles` nor `canonical`, and no module imports
`dataclasses`.
"""

from importlib import import_module

__version__ = "0.1.0"

_NAMES = {
    "density": ("DensityReport", "is_balanced", "rho", "rho_subset"),
    "embeddings": ("EmbeddingOutcome", "Thresholds", "asymmetric_embed", "bad_set",
                   "extract_induced_power", "greedy_tree_embed", "hall_disjoint_sets",
                   "key_lemma_embed", "rich_s_set"),
    "errors": ("IndturanError",),
    "families": ("BipartiteTemplate", "RootedGraph", "attach_ktt_rooted", "height_two_tree",
                 "leaf_rooted_star", "parse_descriptor", "rooted_path", "rooted_power", "theta",
                 "tree_r11"),
    "graph": ("Graph", "Host", "bipartition", "contains_kss", "cross_subgraph",
              "edge_subgraph", "induced_subgraph"),
    "oracles": ("ExtremalResult", "contains_induced", "contains_subgraph", "extremal_bip_star",
                "extremal_classical", "extremal_star", "is_isomorphic", "kst_check"),
    "realizability": ("RealizabilityCertificate", "derive", "enumerate_realizable",
                      "qualifies", "verify_certificate"),
    "regularity": ("regularize",),
}
_LAYER = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_LAYER)


def __getattr__(name: str):
    module = _LAYER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
