"""Test-side generators and checkers that no runtime path of the package needs.

The seeded K_{s,s}-free host generators and the `graphs` strategy feed the
fuzz and property tests; the map and regularity checkers are definitional
references that tests compare the package's answers against,
`verify_induced_map_reference` is the pairwise twin of the package's row
check `graph.verify_induced_map`, `bipartition_reference` the
neighbour-by-neighbour twin of the layered colouring `graph.bipartition`, and `product_pow_le_reference` the
`Fraction`-product twin of `regularity.product_pow_le`.  The
`*_reference` functions are the embedding helpers as first written, with
`Fraction` thresholds and pairwise scans: the package's integer and bitset
versions must give the same answers; `key_lemma_candidates_reference` is
the key lemma's placement order by its definition, every random draw then
the whole product, and `key_lemma_b_choice_reference` its B side as a
clique of compatibility rows over the Hall sets.  `canonical_form_reference`
is the canonical form by its definition, the least leaf of the whole
individualise-refine tree with no automorphism pruning.  `generate_classes` generates every class of one order
with no edge-count bound, on the package's generator.  The
`extremal_*_reference` oracles use it and hand every bip partition of every
class, in its canonical labelling, to the matcher: the package's edge-count
descent (`oracles._descend`) must find the same value, witness and
partition.  The references pick their witness with their own `canonical`
call (`_densest_result` for star and classical); the choice of the least
key, `oracles._extremal_result` with its re-checks, is shared.
"""

import math
import random
from fractions import Fraction
from itertools import combinations, product

from hypothesis import strategies as st

from indturan.canonical import _equitable, canonical
from indturan.embeddings import KEY_LEMMA_EXHAUSTIVE_CAP, KEY_LEMMA_RETRIES
from indturan.errors import DisprovesLemma, HypothesisUnmet, InvalidPartition
from indturan.families import BipartiteTemplate, RootedGraph
from indturan.graph import Graph, Host, VertexMap, bits, first_clique, mask_of, relabel
from indturan.oracles import (
    ExtremalResult,
    Pattern,
    _bip_embed,
    _contains_using,
    _extremal_result,
    _Generator,
    _kss_through_vertex,
    contains_bip_induced,
    contains_induced,
    contains_kss,
    contains_subgraph,
)


@st.composite
def graphs(draw, max_n, min_n=0):
    """A graph on min_n to max_n vertices, each pair an edge or not."""
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


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


def verify_induced_map_reference(g: Graph, h: Graph, vm: VertexMap) -> bool:
    """Definitional check that vm is an induced embedding of h into g, pair by
    pair: the oracle of the package's row check `graph.verify_induced_map`."""
    if len(vm) != h.n or len(set(vm)) != h.n:
        return False
    if not all(0 <= w < g.n for w in vm):
        return False
    return all(g.has_edge(vm[p], vm[q]) == h.has_edge(p, q)
               for p, q in combinations(range(h.n), 2))


def bipartition_reference(g: Graph):
    """A 2-colouring (side containing the least vertex of each component
    first), or None if some component is odd-cyclic, found one neighbour at a
    time: the oracle of the package's layered colouring `graph.bipartition`."""
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for w in bits(g.adj[u]):
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    side0 = tuple(v for v in range(g.n) if color[v] == 0)
    side1 = tuple(v for v in range(g.n) if color[v] == 1)
    return side0, side1


def induced_subgraph_reference(g: Graph, s) -> tuple[Graph, tuple[int, ...]]:
    """`graph.induced_subgraph` through the edge set, as first written."""
    keep = sorted(set(s))
    for v in keep:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    pos = {v: i for i, v in enumerate(keep)}
    edges = [(pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos]
    return Graph(len(keep), edges), tuple(keep)


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
    degs = [g.degree(v) for v in range(g.n)]
    return Fraction(max(degs)) <= k * min(degs)


def product_pow_le_reference(lhs, rhs) -> bool:
    """`regularity.product_pow_le` with `Fraction` products: raise both sides
    to the exponents' lcm and compare the two rationals."""
    lhs = [(Fraction(b), Fraction(e)) for b, e in lhs]
    rhs = [(Fraction(b), Fraction(e)) for b, e in rhs]
    if any(b < 0 or b == 0 and e <= 0 for b, e in lhs + rhs):
        raise ValueError("bases must be positive, or zero under a positive exponent")
    scale = math.lcm(*(e.denominator for _, e in lhs + rhs))

    def value(side):
        return math.prod(b ** int(e * scale) for b, e in side)

    return value(lhs) <= value(rhs)


# --- the embedding helpers as first written --------------------------------------


def _check_ids(g: Graph, ids) -> None:
    """ValueError unless every id is a vertex of g."""
    for v in ids:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")


def bad_set_reference(g: Graph, w, c: Fraction, s=None) -> set[int]:
    """`embeddings.bad_set` with one `Fraction` product per vertex."""
    wset = set(w)
    _check_ids(g, wset)
    c = Fraction(c)
    wm = mask_of(wset)
    size = len(wset)
    out = {x for x in range(g.n) if x not in wset and (g.adj[x] & wm).bit_count() >= c * size}
    if s is not None:
        if Fraction(size) >= s * (2 / c) ** s and contains_kss(g, s) is None:
            if Fraction(len(out)) >= 2 * s / c:
                raise DisprovesLemma("bound violated")
    return out


def rich_s_set_reference(g: Graph, x, y, c: Fraction, s: int) -> tuple[int, ...]:
    """`embeddings.rich_s_set` with `Fraction` thresholds."""
    xs, ys = sorted(set(x)), sorted(set(y))
    _check_ids(g, xs + ys)
    if set(xs) & set(ys):
        raise InvalidPartition("sides overlap")
    c = Fraction(c)
    ym = mask_of(ys)
    e = sum((g.adj[v] & ym).bit_count() for v in xs)
    if Fraction(e) < c * len(xs) * len(ys) or c * len(xs) < 2 * s:
        raise HypothesisUnmet("hypotheses unmet")
    need = (c / 2) ** s * len(ys)
    for cand in combinations(xs, s):
        common = ym
        for v in cand:
            common &= g.adj[v]
        if Fraction(common.bit_count()) >= need:
            return cand
    raise DisprovesLemma("no rich s-set")


def tree_bad_sets_reference(g: Graph, l: Graph, t_count: int, d: int) -> dict[int, int]:
    """`embeddings.tree_bad_sets` with one `Fraction` per (x, y) pair."""
    thresh = Fraction(d, 4 * t_count)
    return {x: mask_of(y for y in range(l.n)
                       if Fraction((g.adj[y] & l.adj[x]).bit_count()) >= thresh)
            for x in range(l.n)}


def key_lemma_candidates_reference(parts: dict, a_order, m_blow: int, seed: int) -> list:
    """The placements `key_lemma_embed` tries, in order: all KEY_LEMMA_RETRIES
    draws from random.Random(seed), then the whole product when it has at most
    KEY_LEMMA_EXHAUSTIVE_CAP placements, each placement at its first sight."""
    rng = random.Random(seed)
    order = [tuple(parts[v][rng.randrange(m_blow)] for v in a_order)
             for _ in range(KEY_LEMMA_RETRIES)]
    if m_blow ** len(a_order) <= KEY_LEMMA_EXHAUSTIVE_CAP:
        order += product(*(parts[v] for v in a_order))
    return list(dict.fromkeys(order))


def key_lemma_b_choice_reference(g: Graph, u_sets) -> list[int] | None:
    """The key lemma's B images as first written: one vertex per Hall set,
    pairwise non-adjacent in g, as the least clique of the compatibility rows
    (another set, no edge in g) over the sets' vertices listed set by set;
    None when there is none."""
    flat = [(k, w) for k, u in enumerate(u_sets) for w in u]
    rows = [sum(1 << j for j, (k2, x) in enumerate(flat) if k2 != k and not g.adj[w] >> x & 1)
            for k, w in flat]
    pick = first_clique(rows, len(u_sets))
    return None if pick is None else [flat[j][1] for j in pick]


def extraction_aux_reference(g: Graph, copies, f: RootedGraph) -> dict:
    """`embeddings.extraction_aux` by a pairwise `has_edge` scan."""
    non = f.non_roots()
    out = {}
    for i, j in combinations(range(len(copies)), 2):
        best = None
        for a_idx, a_v in enumerate(non):
            for b_idx, b_v in enumerate(non):
                if g.has_edge(copies[i][a_v], copies[j][b_v]):
                    cand = (a_idx, b_idx)
                    if best is None or cand < best:
                        best = cand
        if best is not None:
            out[(i, j)] = best
    return out


def first_independent_reference(aux: dict, lam: int, l: int):
    """The first l-subset of 0..lam-1 in `combinations` order with no aux
    edge inside it, or None."""
    for sel in combinations(range(lam), l):
        if not any((sel[i], sel[j]) in aux
                   for i in range(len(sel)) for j in range(i + 1, len(sel))):
            return sel
    return None


def first_mono_clique_reference(aux: dict, s: int):
    """(color, clique): in sorted color order, the first 2s-subset in
    `combinations` order whose pairs are all aux edges of that color; or None."""
    by_color: dict = {}
    for e, color in aux.items():
        by_color.setdefault(color, set()).add(e)
    for color in sorted(by_color):
        es = by_color[color]
        verts = sorted({i for e in es for i in e})
        for clique in combinations(verts, 2 * s):
            if all((clique[i], clique[j]) in es
                   for i in range(len(clique)) for j in range(i + 1, len(clique))):
                return color, clique
    return None


def canonical_form_reference(adj) -> tuple[int, ...]:
    """The least `relabel` rows over every leaf of the individualise-refine
    tree of `canonical`: the same refinement and the same target cell (the
    first smallest non-singleton one), every child visited."""
    n = len(adj)
    full = (1 << n) - 1
    forms = []
    todo = [_equitable(adj, [full], [full]) if n else []]
    while todo:
        cells = todo.pop()
        if len(cells) == n:
            forms.append(relabel(adj, [c.bit_length() - 1 for c in cells]))
            continue
        target = min((c for c in cells if c & (c - 1)), key=int.bit_count)
        t = cells.index(target)
        todo.extend(_equitable(adj, cells[:t] + [1 << w, target ^ 1 << w] + cells[t + 1:],
                               [1 << w]) for w in bits(target))
    return min(forms)


# --- the extremal oracles as first written ---------------------------------------


def generate_classes(n: int, extend_ok) -> tuple[list[Graph], int]:
    """Every class of the n-vertex graphs every prefix of which passes
    extend_ok(new_graph, new_vertex), with no edge-count bound: the first
    child of each class in (class, mask) order, and the extensions tested."""
    gen = _Generator(extend_ok)
    return [node.graph for node in gen.classes(n)], gen.explored


def star_classes_reference(n: int, h: Graph, s: int) -> tuple[list[Graph], int]:
    """Every class of n-vertex graphs with no K_{s,s} and no induced h, and
    the extensions tested to generate them."""
    pat = Pattern(h)
    return generate_classes(n, lambda g2, k: not _kss_through_vertex(g2.adj, k, s)
                            and not _contains_using(g2, pat, k, induced=True))


def classical_classes_reference(n: int, h: Graph) -> tuple[list[Graph], int]:
    """Every class of n-vertex graphs with no copy of h, and the extensions
    tested to generate them."""
    pat = Pattern(h)
    return generate_classes(n, lambda g2, k: not _contains_using(g2, pat, k, induced=False))


def _densest_result(reps, explored: int, is_free) -> ExtremalResult:
    """The references' witness rule over class representatives: among the
    densest classes, the one whose canonical form (computed here) has the
    least edge list, printed in its canonical labelling."""
    forms = ((Graph.from_rows(canonical(g.adj)[0]), g) for g in reps)
    return _extremal_result((((-w.m, w.edge_list()), w, g, None) for w, g in forms),
                            explored, is_free)


def extremal_star_reference(n: int, h: Graph, s: int) -> ExtremalResult:
    """`oracles.extremal_star` with every n-vertex class generated; `explored`
    counts every extension."""
    if s < 1 or h.n == 0:
        raise ValueError("s must be positive and the pattern nonempty")
    reps, explored = star_classes_reference(n, h, s)
    return _densest_result(reps, explored, lambda w, _: contains_kss(w, s) is None
                           and contains_induced(w, h) is None)


def extremal_classical_reference(n: int, h: Graph) -> ExtremalResult:
    """`oracles.extremal_classical` with every n-vertex class generated."""
    if h.n == 0:
        raise ValueError("pattern must have at least one vertex")
    reps, explored = classical_classes_reference(n, h)
    return _densest_result(reps, explored, lambda w, _: contains_subgraph(w, h) is None)


def extremal_bip_star_reference(n: int, h, s: int) -> ExtremalResult:
    """`oracles.extremal_bip_star` with every partition (vertex 0 in X) of
    every n-vertex class, in its canonical labelling, handed to the matcher;
    `explored` counts each extension and each partition."""
    if s < 1:
        raise ValueError("s must be positive")
    if n == 0:
        return ExtremalResult(0, Graph(0, []), 0, partition=((), ()))
    h = BipartiteTemplate(Pattern(h.graph), h.parts)
    reps, explored = generate_classes(n, lambda g2, k: not _kss_through_vertex(g2.adj, k, s))
    full = (1 << n) - 1

    def candidates():
        for rep in reps:
            g = Graph.from_rows(canonical(rep.adj)[0])
            for sub in range(1 << (n - 1)):
                xm = (sub << 1) | 1
                if _bip_embed(g, h, xm, full ^ xm) is None:
                    x = tuple(bits(xm))
                    cross = sum((g.adj[v] & ~xm).bit_count() for v in x)
                    yield (-cross, g.edge_list(), x), g, rep, (x, tuple(bits(full ^ xm)))

    return _extremal_result(candidates(), explored + (len(reps) << (n - 1)),
                            lambda w, part: contains_kss(w, s) is None
                            and contains_bip_induced(Host(w, s, part), h) is None)
