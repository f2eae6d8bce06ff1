"""Test-side generators and checkers that no runtime path of the package needs.

The seeded K_{s,s}-free host generators feed the fuzz tests; the map and
regularity checkers are definitional references that tests compare the
package's answers against.
"""

from fractions import Fraction
from itertools import combinations

from indturan.graph import Graph, Host, VertexMap, degree_stats
from indturan.oracles import _kss_through_vertex


def random_kss_free(n: int, s: int, rng, keep: float = 1.0) -> Graph:
    """Random maximal-ish K_{s,s}-free graph: candidate pairs in random order,
    each kept with probability `keep` if it does not complete a K_{s,s}."""
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    return _greedy_kss_free(n, pairs, s, rng, keep)


def random_kss_free_bipartite(nx: int, ny: int, s: int, rng, keep: float = 1.0) -> Host:
    """Random K_{s,s}-free bipartite host on sides 0..nx-1 and nx..nx+ny-1."""
    pairs = [(u, nx + w) for u in range(nx) for w in range(ny)]
    rng.shuffle(pairs)
    g = _greedy_kss_free(nx + ny, pairs, s, rng, keep)
    return Host(g, s, (tuple(range(nx)), tuple(range(nx, nx + ny))))


def _greedy_kss_free(n: int, pairs, s: int, rng, keep: float) -> Graph:
    adj = [0] * n
    for u, v in pairs:
        if keep < 1.0 and rng.random() > keep:
            continue
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        # The graph was K_{s,s}-free before uv, so a K_{s,s} through v uses uv.
        if _kss_through_vertex(adj, v, s):
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
    return Graph.from_rows(adj)


def verify_subgraph_map(g: Graph, h: Graph, vm: VertexMap) -> bool:
    """Definitional check that vm is an injective edge-preserving map of h into g."""
    if len(vm) != h.n or len(set(vm)) != h.n:
        return False
    return all(g.has_edge(vm[u], vm[v]) for u, v in h.edges)


def is_k_almost_regular(g: Graph, k: Fraction | int) -> bool:
    """True iff max degree <= k * min degree, exactly."""
    k = Fraction(k)
    if k < 1:
        raise ValueError("k must be at least 1")
    dmin, dmax, _ = degree_stats(g)
    return Fraction(dmax) <= k * dmin
