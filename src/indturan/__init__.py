"""indturan: rooted-family constructions, rational density exponents, and
executable embedding lemmas for induced-Turan-style extremal questions.

Layers: `graph` (vertex/edge primitives, JSON, DOT), `families` (rooted
patterns, powers, bipartite reductions), `density` (incident-edge density and
balancedness), `realizability` (exponent certificates), `oracles` (exhaustive
ground truth at desk scale), `embeddings` (lemma procedures), `regularity`
(the almost-regular subgraph lemma), `cli`.
"""

from .density import DensityReport, is_balanced, rho, rho_subset
from .embeddings import (
    EmbeddingOutcome,
    Thresholds,
    asymmetric_embed,
    bad_set,
    extract_induced_power,
    greedy_tree_embed,
    hall_disjoint_sets,
    key_lemma_embed,
    rich_s_set,
)
from .errors import IndturanError
from .families import (
    BipartiteTemplate,
    RootedGraph,
    attach_ktt,
    attach_ktt_rooted,
    height_two_tree,
    leaf_rooted_star,
    parse_descriptor,
    rooted_path,
    rooted_power,
    theta,
    tree_r11,
)
from .graph import Graph, Host, bipartition, cross_subgraph, edge_subgraph, induced_subgraph
from .oracles import (
    ExtremalResult,
    contains_induced,
    contains_kss,
    contains_subgraph,
    extremal_bip_star,
    extremal_classical,
    extremal_star,
    is_isomorphic,
    kst_check,
)
from .realizability import (
    RealizabilityCertificate,
    derive,
    enumerate_realizable,
    qualifies,
    verify_certificate,
)
from .regularity import regularize

__version__ = "0.1.0"

__all__ = [
    "BipartiteTemplate",
    "DensityReport",
    "EmbeddingOutcome",
    "ExtremalResult",
    "Graph",
    "Host",
    "IndturanError",
    "RealizabilityCertificate",
    "RootedGraph",
    "Thresholds",
    "asymmetric_embed",
    "attach_ktt",
    "attach_ktt_rooted",
    "bad_set",
    "bipartition",
    "contains_induced",
    "contains_kss",
    "contains_subgraph",
    "cross_subgraph",
    "derive",
    "edge_subgraph",
    "enumerate_realizable",
    "extract_induced_power",
    "extremal_bip_star",
    "extremal_classical",
    "extremal_star",
    "greedy_tree_embed",
    "hall_disjoint_sets",
    "height_two_tree",
    "induced_subgraph",
    "is_balanced",
    "is_isomorphic",
    "key_lemma_embed",
    "kst_check",
    "leaf_rooted_star",
    "parse_descriptor",
    "qualifies",
    "regularize",
    "rho",
    "rho_subset",
    "rich_s_set",
    "rooted_path",
    "rooted_power",
    "theta",
    "tree_r11",
    "verify_certificate",
]
