"""Exhaustive oracles: pattern containment and extremal values.

Everything here is exact search at desk scale.  Every containment question
goes to `_embed`, the first map of the backtracking matcher `graph.placements`
that the greedy tree embedding also runs: it places pattern vertices in order
of decreasing degree, and a per-vertex host mask (less the host vertices of too
small a degree) is the only way to restrict or pin where a pattern vertex goes.
The matcher runs from a `Pattern`, the pattern compiled once: its placement
order, the edge and non-edge pairs of each step, its degree floors and one
vertex per automorphism orbit.  Each extremal oracle compiles its pattern once
per call, and a "copy through the new vertex" test pins only one vertex per
orbit to it.

The extremal oracles work by orderly vertex-extension generation
(`_Generator`): a graph is grown one vertex at a time, and both constraints
(no K_{s,s} subgraph, no induced copy of h) are hereditary, so a branch is
pruned the moment either pattern appears through the newest vertex.  The
children are deduplicated by a dict keyed by their canonical form
(`canonical`), which keeps the first-seen child of each class.  A parent
automorphism that maps a neighbour mask to a lesser one makes that mask's
child a duplicate, so only the least mask of each orbit is tested.

All three oracles search by branch and bound on the edge count (`_descend`).
A target starts at n(n-1)/2 and goes down on one generator; order j keeps
only the classes with at least ceil(target j(j-1) / (n(n-1))) edges.  Each
class with exactly target edges is scanned once, from its stored canonical
form, and the search stops once the target falls below the best value found,
since a class's value (its edge count, or for bip a cross count) is at most
its edge count.  Every witness is a property of its class, printed in its
canonical labelling: for star and classical, the densest class whose
canonical form has the least edge list; for bip, the least key (-cross,
canonical edge list, X).  `explored` counts the states actually tested: each
(class, mask) handed to the extension test once over every target, plus the
partitions handed to the bip matcher.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .canonical import canonical
from .errors import DisprovesLemma, InvalidPartition, NoPartition, NotKssFree, TooLarge
from .families import BipartiteTemplate, Parts
from .graph import (
    Graph,
    Host,
    VertexMap,
    bits,
    contains_kss,  # it and the row checks live in graph; oracles keeps their names
    cross_subgraph,
    first_rich_subset,
    graph_to_json_dict,
    mask_of,
    placement_steps,
    placements,
    verify_bip_induced_map,
    verify_induced_map,
)

STAR_BUDGET = 11
BIP_BUDGET = 8


# --- K_{s,s} as a subgraph ----------------------------------------------------


def _kss_through_vertex(adj: Sequence[int], v: int, s: int) -> bool:
    """K_{s,s} using vertex v, given adjacency rows: an s-set T of v's
    neighbours with s common neighbours, v itself among them."""
    return first_rich_subset(adj, tuple(bits(adj[v])), s, s) is not None


# --- induced / subgraph embedding ---------------------------------------------


class Pattern(Graph):
    """A pattern graph with its match plan, compiled once.

    A `Pattern` is the same graph as the one it compiles, so it goes wherever
    a graph goes (a template's graph included); `_embed` reads the plan
    instead of re-deriving it on every call.  The plan:

    * `order`: pattern vertices by decreasing degree, ties by id;
    * `steps[i]`: for every later position j > i, the pair (j, is-edge
      between order[i] and order[j]) (`graph.placement_steps`), computed on
      first use;
    * `floors[i]`: the degree of order[i], below which no host vertex fits it;
    * `orbit_reps`: the least vertex of each automorphism orbit, computed on
      first use.
    """

    def __init__(self, h: Graph):
        self.n, self.adj = h.n, h.adj
        deg = [row.bit_count() for row in h.adj]
        self.order = sorted(range(h.n), key=lambda v: (-deg[v], v))
        self.floors = [deg[p] for p in self.order]

    @cached_property
    def steps(self) -> list[list[tuple[int, int]]]:
        return placement_steps(self.adj, self.order)

    @cached_property
    def orbit_reps(self) -> tuple[int, ...]:
        """The least vertex of each orbit of the automorphisms that
        `canonical` returns, which generate the whole group."""
        return tuple(m.bit_length() - 1 for m in _least_in_orbit(
            [1 << p for p in range(self.n)], canonical(self.adj)[1]))


def _compiled(h: Graph) -> Pattern:
    """h itself if it is already compiled, else its `Pattern`."""
    return h if isinstance(h, Pattern) else Pattern(h)


def _embed(g: Graph, h: Graph, induced: bool,
           initial: Optional[Sequence[int]] = None) -> Optional[VertexMap]:
    """The first embedding of h (a graph or its `Pattern`) into g, or None;
    induced=True matches non-edges too.

    Pattern vertex p may only map into the host mask initial[p] (default: every
    vertex), less the host vertices of degree below h's degree at p; these
    masks are the only way to pin a vertex.  `graph.placements` places pattern
    vertices in the pattern's `order`, a neighbour of a placed host vertex w in
    w's row and a non-neighbour outside it (induced) or anywhere but at w.
    """
    pat = _compiled(h)
    order, adj = pat.order, g.adj
    if pat.n > g.n:
        return None
    at_least = [0] * (g.n + 1)  # at_least[d]: the host vertices of degree >= d
    for w, row in enumerate(adj):
        at_least[row.bit_count()] |= 1 << w
    for d in range(g.n - 1, -1, -1):
        at_least[d] |= at_least[d + 1]
    cands = [at_least[d] for d in pat.floors]
    if initial is not None:
        cands = [c & initial[p] for c, p in zip(cands, order)]
    no = [~(row | 1 << w) if induced else ~(1 << w) for w, row in enumerate(adj)]
    return next(placements(order, pat.steps, cands, adj, no), None)


def contains_induced(g: Graph, h: Graph) -> Optional[VertexMap]:
    """An injective map with adjacency matched exactly (induced copy), or None."""
    return _embed(g, h, induced=True)


def contains_subgraph(g: Graph, h: Graph) -> Optional[VertexMap]:
    """An injective map preserving edges (copy, not necessarily induced)."""
    return _embed(g, h, induced=False)


def _contains_using(g: Graph, h: Graph, v: int, induced: bool) -> bool:
    """Is there a copy of h whose image contains host vertex v?  Only one
    vertex per orbit of h is pinned to v: if a copy φ has φ(p) = v and σ is an
    automorphism of h, then φ∘σ is a copy with v at σ⁻¹(p)."""
    if h.n > g.n:  # no copy, and `canonical` would recurse once per twin of h
        return False
    pat = _compiled(h)
    full = g.vertex_mask()
    return any(_embed(g, pat, induced, [1 << v if q == p else full for q in range(pat.n)])
               is not None for p in pat.orbit_reps)


def contains_bip_induced(host: Host, h: BipartiteTemplate) -> Optional[VertexMap]:
    """A copy of h in the cross graph G[X, Y] that is induced in all of G.

    The template's A side maps entirely into one partition class and B into the
    other; both orientations are tried.  Returns the vertex map or None.
    """
    if host.partition is None:
        raise NoPartition("host carries no (X, Y) partition")
    x, y = host.partition
    return _bip_embed(host.graph, h, mask_of(x), mask_of(y))


def _bip_embed(g: Graph, h: BipartiteTemplate, xm: int, ym: int) -> Optional[VertexMap]:
    """A copy of h induced in g, with its A side inside one of the side masks
    xm, ym and its B side inside the other; the caller guarantees that the
    masks partition g's vertices."""
    pat = _compiled(h.graph)
    a_mask = mask_of(h.a_side)
    for am, bm in ((xm, ym), (ym, xm)):
        initial = [am if a_mask >> p & 1 else bm for p in range(pat.n)]
        vm = _embed(g, pat, induced=True, initial=initial)
        if vm is not None:
            return vm
    return None


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Equal canonical forms."""
    return g.n == h.n and canonical(g.adj)[0] == canonical(h.adj)[0]


# --- orderly vertex-extension generation ---------------------------------------


def _extend(g: Graph, mask: int) -> Graph:
    """g plus a new vertex g.n adjacent to the vertices in mask."""
    bit = 1 << g.n
    return Graph.from_rows([row | bit if mask >> v & 1 else row
                            for v, row in enumerate(g.adj)] + [mask])


@lru_cache(maxsize=None)
def _masks(k: int, fewest: int, below: int) -> tuple[int, ...]:
    """The subsets of vertices 0..k-1 with at least fewest and fewer than
    below members, as masks in increasing order."""
    return tuple(m for m in range(1 << k) if fewest <= m.bit_count() < below)


def _least_in_orbit(masks: Sequence[int], autos: Sequence[Sequence[int]]) -> list[int]:
    """The masks, given in increasing order and closed under the permutations
    autos, that are the least in their orbit."""
    seen: set[int] = set()
    out = []
    for mask in masks:
        if mask in seen:
            continue
        out.append(mask)
        seen.add(mask)
        todo = [mask]
        while todo:
            x = todo.pop()
            for g in autos:
                y, rest = 0, x
                while rest:
                    low = rest & -rest
                    y |= 1 << g[low.bit_length() - 1]
                    rest ^= low
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
    return out


class _Node:
    """One class found by the generation: its first-seen graph with m edges,
    its canonical form (its level's key), automorphisms generating its group,
    and its children so far, which come from every mask with >= `low` members."""

    __slots__ = ("graph", "m", "form", "autos", "kids", "low")

    def __init__(self, graph: Graph, form: tuple[int, ...], autos: list):
        self.graph, self.m, self.form, self.autos = graph, graph.m, form, autos
        self.kids: list[_Node] = []
        self.low = graph.n + 1


class _Generator:
    """Orderly vertex-extension generation of the classes of graphs every
    prefix of which passes extend_ok(new_graph, new_vertex).

    A class's children are the graphs g + vertex k, for g its first-seen
    graph and each mask of neighbours, that pass extend_ok; each child class
    is kept once, keyed by its canonical form, as its first child in (class,
    mask) order.  A mask that an automorphism of g maps to a lesser one gives
    a child isomorphic to an earlier one, so only the least mask of each orbit
    is tested.  Every (class, mask) is tested at most once over all calls of
    `classes`, whatever their targets: `explored` counts those tests."""

    def __init__(self, extend_ok: Callable[[Graph, int], bool]):
        self.extend_ok = extend_ok
        self.levels: list[dict[tuple[int, ...], _Node]] = [{(): _Node(Graph(0, []), (), [])}]
        self.explored = 0

    def classes(self, n: int, target: int = 0) -> list[_Node]:
        """The classes of order n with at least target edges.

        Order k keeps only the classes with at least
        ceil(target * k(k-1) / (n(n-1))) edges.  This is exact: deleting a
        vertex of least degree from a graph with m edges on j vertices leaves
        at least m (j-2)/j edges, so deleting such vertices one at a time
        leaves prefixes above that line; and extend_ok only asks for a
        forbidden copy through the new vertex, so isomorphic children pass
        alike."""
        frontier = list(self.levels[0].values())
        for k in range(n):
            if len(self.levels) == k + 1:
                self.levels.append({})
            least = -(-target * (k + 1) * k // (n * (n - 1))) if target else 0
            reached: dict[_Node, None] = {}
            for node in frontier:
                self._expand(node, k, max(least - node.m, 0))
                for child in node.kids:
                    if child.m >= least:
                        reached[child] = None
            frontier = list(reached)
        return frontier

    def _expand(self, node: _Node, k: int, fewest: int) -> None:
        """Test node's masks with at least fewest members not tested yet."""
        if fewest >= node.low:
            return
        masks = _masks(k, fewest, node.low)
        if node.autos:
            masks = _least_in_orbit(masks, node.autos)
        self.explored += len(masks)
        level = self.levels[k + 1]
        for mask in masks:
            child = _extend(node.graph, mask)
            if self.extend_ok(child, k):
                form, autos = canonical(child.adj)
                kid = level.get(form)
                if kid is None:
                    kid = level[form] = _Node(child, form, autos)
                node.kids.append(kid)
        node.low = fewest


Candidate = tuple[tuple, Graph, Graph, Optional[Parts]]  # (key, witness, rep, partition)


def _descend(n: int, extend_ok: Callable[[Graph, int], bool],
             scan: Callable[..., Iterable[Candidate]]) -> tuple[list[Candidate], int]:
    """Branch and bound on the edge count over the n-vertex graphs every
    prefix of which passes extend_ok: the candidates found, each beating the
    one before it, and the extensions tested.

    A target goes down from n(n-1)/2 on one generator.  Each class with
    exactly target edges goes to scan(its canonical form, its first-seen
    graph, the last candidate or None), which yields the candidates that
    beat that one; a value is at most its class's edge count, so the search
    stops once the target falls below the best value.  Each target keeps a
    subset of the (class, mask) pairs that the last one keeps, and the
    generator tests each pair once.  Bounds for smaller orders would prune
    nothing more: the properties are hereditary, so ex(k)/C(k,2) never
    increases with k (Katona, Nemetz and Simonovits, 1964), and a target of
    ex(k) at order k keeps a subset of what one of ex(n) at order n keeps.
    """
    gen = _Generator(extend_ok)
    found: list[Candidate] = []
    for target in range(n * (n - 1) // 2, -1, -1):
        if found and target < -found[-1][0][0]:
            break
        for node in gen.classes(n, target):
            if node.m == target:  # a denser class was scanned at its own target
                found += scan(node.form, node.graph, found[-1] if found else None)
    return found, gen.explored


def _densest(form: tuple[int, ...], rep: Graph, best: Optional[Candidate]) -> Iterable[Candidate]:
    """The class as a star or classical candidate, keyed (-edges, canonical
    edge list), if it beats best."""
    w = Graph.from_rows(form)
    key = (-w.m, w.edge_list())
    if best is None or key < best[0]:
        yield key, w, rep, None


class ExtremalResult(NamedTuple):
    """An extremal value with its witness (and, for bip, its partition).
    The witness is a property of its class, in its canonical labelling.
    `explored` is the number of extensions tested, each (class, mask) once
    over the whole search, plus, for bip, the number of partitions handed to
    the matcher."""
    value: int
    witness: Graph
    explored: int
    partition: Optional[Parts] = None

    def as_json_dict(self) -> dict:
        return {"value": self.value, "explored": self.explored,
                "witness": graph_to_json_dict(self.witness, partition=self.partition)}


def _extremal_result(candidates: Iterable[Candidate], explored: int,
                     is_free: Callable[[Graph, Optional[Parts]], bool]) -> ExtremalResult:
    """The (key, witness, rep, partition) candidate with the least key, whose
    first entry is minus the value.  The winner is re-checked with
    `is_isomorphic` against rep, the class representative it was relabelled
    from, and with is_free."""
    best = min(candidates, key=lambda c: c[0], default=None)
    if best is None:
        raise ValueError("no graph of this order avoids the pattern")
    key, witness, rep, partition = best
    if not is_isomorphic(witness, rep):
        raise DisprovesLemma("the extremal witness is not a relabelling of its class")
    if not is_free(witness, partition):
        raise DisprovesLemma("the extremal witness contains a forbidden pattern")
    return ExtremalResult(-key[0], witness, explored, partition=partition)


def _check_order(n: int, budget: int) -> None:
    """ValueError for a negative order, TooLarge for one above the budget."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > budget:
        raise TooLarge(f"n={n} exceeds the search budget {budget}")


def extremal_star(n: int, h: Graph, s: int, budget: int = STAR_BUDGET) -> ExtremalResult:
    """Exact max edge count of an n-vertex graph with no K_{s,s} subgraph and no
    induced copy of h, by branch and bound on the edge count
    (`_descend`).  The witness is the densest class whose canonical
    form has the least edge list, in its canonical labelling; `explored`
    counts the extensions tested."""
    _check_order(n, budget)
    if s < 1:
        raise ValueError("s must be positive")
    if h.n == 0:
        raise ValueError("pattern must have at least one vertex")
    h = Pattern(h)  # compiled once for every matcher call below

    def ok(g2: Graph, k: int) -> bool:
        if _kss_through_vertex(g2.adj, k, s):
            return False
        return not _contains_using(g2, h, k, induced=True)

    return _extremal_result(*_descend(n, ok, _densest), lambda w, _: contains_kss(w, s) is None
                            and contains_induced(w, h) is None)


def extremal_classical(n: int, h: Graph, budget: int = STAR_BUDGET) -> ExtremalResult:
    """Exact max edges of an n-vertex graph with no copy of h (induced or not),
    searched and witnessed as in `extremal_star`; `explored` counts the
    extensions tested."""
    _check_order(n, budget)
    if h.n == 0:
        raise ValueError("pattern must have at least one vertex")
    h = Pattern(h)  # compiled once for every matcher call below

    def ok(g2: Graph, k: int) -> bool:
        return not _contains_using(g2, h, k, induced=False)

    return _extremal_result(*_descend(n, ok, _densest),
                            lambda w, _: contains_subgraph(w, h) is None)


def extremal_bip_star(n: int, h: BipartiteTemplate, s: int,
                      budget: int = BIP_BUDGET) -> ExtremalResult:
    """Exact max of e(G[X, Y]) over K_{s,s}-free n-vertex graphs G and vertex
    partitions (X, Y) such that G[X, Y] has no copy of h induced in G.

    Partitions are enumerated up to swapping the sides (vertex 0 stays in X).
    Each class with exactly target edges is scanned in its canonical
    labelling (`_descend`), and the search stops once the target falls below
    the best cross count, since cross <= m.  The least key (-cross edges,
    canonical edge list, X) wins, so the witness and its partition depend
    only on the class; `explored` counts the extensions tested plus the
    partitions handed to the matcher.
    """
    _check_order(n, budget)
    if s < 1:
        raise ValueError("s must be positive")
    if n == 0:
        return ExtremalResult(0, Graph(0, []), 0, partition=((), ()))
    h = BipartiteTemplate(Pattern(h.graph), h.parts)  # compiled once for every matcher call below

    def ok(g2: Graph, k: int) -> bool:
        return not _kss_through_vertex(g2.adj, k, s)

    def is_free(w: Graph, partition: Parts) -> bool:
        return contains_kss(w, s) is None \
            and contains_bip_induced(Host(w, s, partition), h) is None

    full = (1 << n) - 1
    sides = [(xm, tuple(bits(xm)), tuple(bits(full ^ xm))) for xm in range(1, 1 << n, 2)]
    matched = 0

    def scan(form: tuple[int, ...], rep: Graph, best: Optional[Candidate]) -> Iterable[Candidate]:
        # The key orders the candidates totally, so the least one does not
        # depend on the scan order, and a partition whose key is no better
        # than the best one found goes to no matcher.
        nonlocal matched
        g = Graph.from_rows(form)
        edge_list = g.edge_list()
        for xm, x, y in sides:
            key = (-sum((g.adj[v] & ~xm).bit_count() for v in x), edge_list, x)
            if best is not None and key >= best[0]:
                continue
            matched += 1
            if _bip_embed(g, h, xm, full ^ xm) is None:
                best = (key, g, rep, (x, y))
                yield best

    found, explored = _descend(n, ok, scan)
    return _extremal_result(found, explored + matched, is_free)


# --- Kovari-Sos-Turan check -----------------------------------------------------


def kst_check(host: Host) -> bool:
    """For a bipartite host with equal sides of size m whose cross graph is
    K_{s,s}-free, test e <= (s-1)^(1/s) m^(2-1/s) + (s-1) m exactly
    (via (e - (s-1)m)^s <= (s-1) m^(2s-1))."""
    if host.partition is None:
        raise NoPartition("kst_check needs a bipartition")
    x, y = host.partition
    if len(x) != len(y):
        raise InvalidPartition(f"sides must be equal, got {len(x)} and {len(y)}")
    cross = cross_subgraph(host)
    if contains_kss(cross, host.s) is not None:
        raise NotKssFree(f"cross graph contains K_{{{host.s},{host.s}}}")
    m = len(x)
    e = cross.m
    s = host.s
    lhs = e - (s - 1) * m
    if lhs <= 0:
        return True
    return lhs ** s <= (s - 1) * m ** (2 * s - 1)
