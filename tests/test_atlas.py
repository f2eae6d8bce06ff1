"""The extremal oracles against the networkx graph atlas.

`nx.graph_atlas_g()` lists every graph on at most 7 vertices, one per class
(1,253 graphs).  The references here read the answers off that list by brute
force: a pattern is in a host exactly when some vertex subset of the host
induces (for a copy that need not be induced: contains) one of the pattern's
labelled copies on that many vertices.  They use networkx and the standard
library only, nothing of `indturan.oracles` or `indturan.canonical`, so the
package's generator, canonical forms and matcher are checked against an
independent list of all graphs.
"""

from functools import lru_cache
from itertools import combinations, permutations

import networkx as nx
import pytest

from indturan import oracles
from indturan.families import as_template
from indturan.graph import Graph
from indturan.oracles import extremal_bip_star, extremal_classical, extremal_star

# The connected bipartite patterns on 4 or 5 vertices, which the bip oracle
# also takes as templates (side A the colour class of vertex 0)
BIPARTITE = {
    "P4": (4, ((0, 1), (1, 2), (2, 3))),
    "C4": (4, ((0, 1), (1, 2), (2, 3), (0, 3))),
    "K13": (4, ((0, 1), (0, 2), (0, 3))),
    "P5": (5, ((0, 1), (1, 2), (2, 3), (3, 4))),
    "K23": (5, ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))),
    "K14": (5, ((0, 1), (0, 2), (0, 3), (0, 4))),
    "chair": (5, ((0, 4), (1, 3), (2, 3), (3, 4))),
    "banner": (5, ((0, 1), (1, 2), (2, 3), (0, 3), (0, 4))),
}
# and, for star and classical only, patterns that are not connected and
# bipartite: an odd cycle, a triangle with a pendant, and two disconnected ones
PATTERNS = {
    **BIPARTITE,
    "K3": (3, ((0, 1), (1, 2), (0, 2))),
    "paw": (4, ((0, 1), (1, 2), (0, 2), (2, 3))),
    "2K2": (4, ((0, 1), (2, 3))),
    "P3+K1": (4, ((0, 1), (1, 2))),
    "C5": (5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))),
}
CASES = [(name, s) for name in PATTERNS for s in (2, 3)]
BIP_CASES = [(name, s) for name in BIPARTITE for s in (2, 3)]
STAR_N = 7
BIP_N = 6
MEMBER_N = 6


# --- the references: networkx and brute force only -------------------------------


@lru_cache(maxsize=None)
def atlas() -> dict[int, list[nx.Graph]]:
    """The atlas graphs by order."""
    out: dict[int, list[nx.Graph]] = {}
    for g in nx.graph_atlas_g():
        out.setdefault(g.number_of_nodes(), []).append(g)
    return out


def _pair_bits(k: int) -> dict[tuple[int, int], int]:
    """The bit of each vertex pair of a k-vertex labelled graph."""
    return {p: 1 << i for i, p in enumerate(combinations(range(k), 2))}


class Copies:
    """The labelled copies of a pattern on its own k vertices: each edge mask
    (over `_pair_bits(k)`) with the vertex masks its side A lands on."""

    def __init__(self, k: int, edges, a_side=()):
        pair = _pair_bits(k)
        self.k = k
        self.sides: dict[int, set[int]] = {}
        for perm in permutations(range(k)):
            em = 0
            for u, v in edges:
                em |= pair[min(perm[u], perm[v]), max(perm[u], perm[v])]
            self.sides.setdefault(em, set()).add(sum(1 << perm[p] for p in a_side))
        # every labelled k-vertex graph that holds a copy, induced or not
        self.within = {m for m in range(1 << len(pair))
                       if any(em & ~m == 0 for em in self.sides)}


@lru_cache(maxsize=None)
def copies(name: str) -> Copies:
    """The pattern's copies; a bipartite pattern's with side A the colour
    class of vertex 0."""
    k, edges = PATTERNS[name]
    g = nx.Graph(edges)
    g.add_nodes_from(range(k))
    if not nx.is_bipartite(g):
        return Copies(k, edges)
    colour = nx.bipartite.color(g)
    return Copies(k, edges, a_side=[v for v in range(k) if colour[v] == colour[0]])


@lru_cache(maxsize=None)
def kss_copies(s: int) -> Copies:
    return Copies(2 * s, [(a, s + b) for a in range(s) for b in range(s)])


def subsets(g: nx.Graph, k: int):
    """(vertices, edge mask of the subgraph they induce) for each k-subset."""
    pair = _pair_bits(k)
    for vs in combinations(sorted(g.nodes), k):
        em = 0
        for i, j in combinations(range(k), 2):
            if g.has_edge(vs[i], vs[j]):
                em |= pair[i, j]
        yield vs, em


def has_copy(g: nx.Graph, c: Copies, induced: bool) -> bool:
    return any(em in c.sides if induced else em in c.within for _, em in subsets(g, c.k))


@lru_cache(maxsize=None)
def star_ok(g: nx.Graph, name: str, s: int) -> bool:
    """No K_{s,s} subgraph and no induced copy of the pattern.  Cached by
    the identity of g, one of the atlas graphs, which several tests ask
    about."""
    return not has_copy(g, kss_copies(s), False) and not has_copy(g, copies(name), True)


def classical_ok(g: nx.Graph, name: str) -> bool:
    """No copy of the pattern, induced or not."""
    return not has_copy(g, copies(name), False)


def bip_ok(g: nx.Graph, name: str, x: frozenset) -> bool:
    """No induced copy of the pattern with its side A inside one of x and the
    rest of the vertices, and its side B inside the other."""
    c = copies(name)
    for vs, em in subsets(g, c.k):
        for am in c.sides.get(em, ()):
            a = {v for i, v in enumerate(vs) if am >> i & 1}
            b = set(vs) - a
            if a <= x and not b & x or b <= x and not a & x:
                return False
    return True


def bip_value(g: nx.Graph, name: str, s: int):
    """The most cross edges over the partitions (X, Y), vertex 0 in X, that
    bip_ok admits, or None if g has a K_{s,s} or no partition is admitted."""
    if has_copy(g, kss_copies(s), False):
        return None
    n = g.number_of_nodes()
    best = None
    for xm in range(1, 1 << n, 2) if n else (0,):
        x = frozenset(v for v in range(n) if xm >> v & 1)
        if bip_ok(g, name, x):
            cross = sum((u in x) != (v in x) for u, v in g.edges)
            best = cross if best is None else max(best, cross)
    return best


def degree_sequence(g: nx.Graph) -> list[int]:
    """The sorted degrees, which isomorphic graphs share."""
    return sorted(d for _, d in g.degree)


def to_nx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edge_list())
    return out


# --- the package against them ----------------------------------------------------


def pattern(name: str) -> Graph:
    k, edges = PATTERNS[name]
    return Graph(k, edges)


def extend_ok_of(monkeypatch, run):
    """The extend_ok that run's oracle hands to its generator."""
    seen = []

    class Spy(oracles._Generator):
        def __init__(self, extend_ok):
            seen.append(extend_ok)
            super().__init__(extend_ok)

    with monkeypatch.context() as m:
        m.setattr(oracles, "_Generator", Spy)
        run()
    return seen[0]


def class_counts(extend_ok, top: int) -> list[int]:
    gen = oracles._Generator(extend_ok)
    return [len(gen.classes(n)) for n in range(top + 1)]


def assert_classes_match(extend_ok, keeps) -> None:
    """Up to MEMBER_N vertices, each class the generator keeps is one atlas
    graph that keeps admits, and each such atlas graph is one class (degree
    sequences filter the isomorphism tests)."""
    gen = oracles._Generator(extend_ok)
    for n in range(MEMBER_N + 1):
        kept = [g for g in atlas()[n] if keeps(g)]
        degrees = [degree_sequence(g) for g in kept]
        matched = [0] * len(kept)
        for node in gen.classes(n):
            w = to_nx(node.graph)
            dw = degree_sequence(w)
            hits = [i for i, g in enumerate(kept) if degrees[i] == dw and nx.is_isomorphic(w, g)]
            assert len(hits) == 1, (n, node.graph.edge_list(), len(hits))
            matched[hits[0]] += 1
        assert matched == [1] * len(kept), n


def assert_witness_reaches(witness: Graph, reaching: list[nx.Graph]) -> None:
    w = to_nx(witness)
    assert any(nx.is_isomorphic(w, g) for g in reaching)


def assert_densest(oracle, free) -> None:
    """oracle(n) finds the most edges of an atlas graph on n <= 7 vertices
    that free admits, with a witness isomorphic to one that has them."""
    for n in range(STAR_N + 1):
        admitted = [g for g in atlas()[n] if free(g)]
        value = max(g.number_of_edges() for g in admitted)
        got = oracle(n)
        assert got.value == value, (n, got.value, value)
        assert_witness_reaches(got.witness, [g for g in admitted if g.number_of_edges() == value])


class TestStarAndClassical:
    @pytest.mark.parametrize("name, s", CASES)
    def test_star_values_and_witnesses(self, name, s):
        assert_densest(lambda n: extremal_star(n, pattern(name), s), lambda g: star_ok(g, name, s))

    @pytest.mark.parametrize("name", PATTERNS)
    def test_classical_values_and_witnesses(self, name):
        assert_densest(lambda n: extremal_classical(n, pattern(name)),
                       lambda g: classical_ok(g, name))

    @pytest.mark.parametrize("name, s", CASES)
    def test_star_generator_counts(self, monkeypatch, name, s):
        ok = extend_ok_of(monkeypatch, lambda: extremal_star(1, pattern(name), s))
        want = [sum(star_ok(g, name, s) for g in atlas()[n]) for n in range(STAR_N + 1)]
        assert class_counts(ok, STAR_N) == want

    @pytest.mark.parametrize("name, s", CASES)
    def test_star_generator_classes(self, monkeypatch, name, s):
        ok = extend_ok_of(monkeypatch, lambda: extremal_star(1, pattern(name), s))
        assert_classes_match(ok, lambda g: star_ok(g, name, s))

    @pytest.mark.parametrize("name", PATTERNS)
    def test_classical_generator_counts(self, monkeypatch, name):
        ok = extend_ok_of(monkeypatch, lambda: extremal_classical(1, pattern(name)))
        want = [sum(classical_ok(g, name) for g in atlas()[n]) for n in range(STAR_N + 1)]
        assert class_counts(ok, STAR_N) == want

    @pytest.mark.parametrize("name", PATTERNS)
    def test_classical_generator_classes(self, monkeypatch, name):
        ok = extend_ok_of(monkeypatch, lambda: extremal_classical(1, pattern(name)))
        assert_classes_match(ok, lambda g: classical_ok(g, name))


class TestBip:
    @pytest.mark.parametrize("name, s", BIP_CASES)
    def test_values_and_witnesses(self, name, s):
        template = as_template(pattern(name))
        for n in range(BIP_N + 1):
            values = [(g, bip_value(g, name, s)) for g in atlas()[n]]
            value = max(v for _, v in values if v is not None)
            got = extremal_bip_star(n, template, s)
            assert got.value == value, (n, got.value, value)
            assert_witness_reaches(got.witness, [g for g, v in values if v == value])
            w = to_nx(got.witness)
            x = frozenset(got.partition[0])
            assert bip_ok(w, name, x)
            assert sum((u in x) != (v in x) for u, v in w.edges) == value

    @pytest.mark.parametrize("s", (2, 3))
    def test_generator_counts(self, monkeypatch, s):
        ok = extend_ok_of(monkeypatch, lambda: extremal_bip_star(1, as_template(pattern("P4")), s))
        want = [sum(not has_copy(g, kss_copies(s), False) for g in atlas()[n])
                for n in range(STAR_N + 1)]
        assert class_counts(ok, STAR_N) == want

    @pytest.mark.parametrize("s", (2, 3))
    def test_generator_classes(self, monkeypatch, s):
        ok = extend_ok_of(monkeypatch, lambda: extremal_bip_star(1, as_template(pattern("P4")), s))
        assert_classes_match(ok, lambda g: not has_copy(g, kss_copies(s), False))
