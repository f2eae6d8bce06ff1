"""Executable embedding procedures with honest desk-scale behavior.

Each procedure runs real constructive steps (bad-set avoidance, rich-set
extraction, Hall-style placement, copy extraction) with all thresholds exposed
as parameters, every emitted map re-checked, and `found=False` a legitimate
outcome when the small parameters used in tests do not reach the asymptotic
guarantees.  The tree copies and the key lemma's copy come from
`oracles._embed`'s matcher, `graph.placements`.  Each tree copy is re-checked
by one row rule (`_rechecked`); a copy that shares all images but its last
leaf's with the copy before it is checked at the leaf alone.  Every other map
is re-checked in full.  The blowup procedures read a template's B vertex's
A-side neighbourhood as its adjacency row, and the extraction writes its map
in `families.rooted_power`'s vertex numbering, which the map's re-check
guards.  A violation of a bound that is guaranteed once its hypotheses are
verified raises DisprovesLemma, which is never expected.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, product
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import (
    BadBlowup,
    DisprovesLemma,
    EmptyQuery,
    HypothesisUnmet,
    InvalidPartition,
    NoPartition,
    NotSemiInduced,
)
from .families import BipartiteTemplate, RootedGraph, rooted_power
from .graph import (
    Graph,
    Host,
    VertexMap,
    bits,
    common_neighborhood_mask,
    contains_kss,
    first_clique,
    first_rich_subset,
    int_field,
    mask_of,
    placement_steps,
    placements,
    verify_bip_induced_map,
    verify_induced_map,
)

# `fractions` is imported where a rational is read, so the tree and
# extraction procedures, which read none, do not load it.
if TYPE_CHECKING:
    from fractions import Fraction


# --- thresholds -------------------------------------------------------------------


class Thresholds:
    """The constants read by `key_lemma_embed` and `asymmetric_embed`.

    The defaults are desk-scale values, far below the source's asymptotic
    ones; tests run with small overrides, exercising mechanisms rather than
    magnitudes.  The source's c is an argument of `bad_set`, and its alpha
    and C are arguments of `regularity.regularize`.

    c_hs is the rich common-neighborhood threshold and m_blow the blowup
    multiplicity; gamma, the rich-set density fraction in (0, 1), and c3, the
    asymmetric edge-count coefficient, are stored as Fractions.  gamma
    defaults to 1/2 and c3 to 1.
    """

    __slots__ = ("c_hs", "m_blow", "gamma", "c3")

    def __init__(self, c_hs: int = 3, m_blow: int = 1, gamma: Optional[Fraction] = None,
                 c3: Optional[Fraction] = None):
        from fractions import Fraction
        self.c_hs = c_hs
        self.m_blow = m_blow
        self.gamma = Fraction(1, 2) if gamma is None else Fraction(gamma)
        self.c3 = Fraction(1) if c3 is None else Fraction(c3)
        if not 0 < self.gamma < 1:
            raise ValueError("gamma must lie in (0, 1)")
        if self.c3 <= 0:
            raise ValueError("factors must be positive")
        if self.c_hs < 1 or self.m_blow < 1:
            raise ValueError("integer thresholds must be positive")


# --- bad sets and rich sets -------------------------------------------------------


def bad_set(g: Graph, w: Iterable[int], c: Fraction, s: Optional[int] = None) -> set[int]:
    """B(W): vertices outside W with at least c|W| neighbors inside W.

    An id of W outside g is a ValueError.  When s is given, the instance
    verifies K_{s,s}-free, and |W| >= s (2/c)^s, the bound |B(W)| < 2s/c is
    checked; it is guaranteed under those hypotheses, so a failure raises
    DisprovesLemma.
    """
    from fractions import Fraction
    wset = set(w)
    if not wset:
        raise EmptyQuery("bad_set needs a nonempty W")
    c = Fraction(c)
    if not 0 < c <= 1:
        raise ValueError("c must lie in (0, 1]")
    num, den = c.numerator, c.denominator
    wm = g.mask(wset)
    size = len(wset)
    need = num * size  # count >= c|W| as count * den >= num |W|
    # c|W| > 0, so only a neighbour of W can qualify
    near = 0
    for v in bits(wm):
        near |= g.adj[v]
    out = {x for x in bits(near & ~wm) if (g.adj[x] & wm).bit_count() * den >= need}
    if s is not None:
        if s < 1:
            raise ValueError("s must be positive")
        # |B(W)| >= 2s/c and |W| >= s (2/c)^s, cleared of denominators: only
        # then can the K_{s,s} search decide anything.  The first bounds s by
        # n, so the powers of the second are built only for such an s.
        if len(out) * num >= 2 * s * den and size * num ** s >= s * (2 * den) ** s:
            if contains_kss(g, s) is None:
                raise DisprovesLemma(
                    f"|B(W)| = {len(out)} >= 2s/c on a K_{{{s},{s}}}-free instance")
    return out


def rich_s_set(g: Graph, x: Iterable[int], y: Iterable[int], c: Fraction,
               s: int) -> tuple[int, ...]:
    """An s-subset of X whose common cross-neighborhood in Y has size at least
    (c/2)^s |Y|, given e(G[X, Y]) >= c|X||Y| and c|X| >= 2s.

    Existence is guaranteed under the hypotheses, so exhausting all s-subsets
    without a hit raises DisprovesLemma.  An id outside g is a ValueError.
    """
    from fractions import Fraction
    xm, ym = g.mask(x), g.mask(y)
    if xm & ym:
        raise InvalidPartition("sides overlap")
    if s < 1:
        raise ValueError("s must be positive")
    c = Fraction(c)
    num, den = c.numerator, c.denominator
    xs, ny = list(bits(xm)), ym.bit_count()
    adj_y = [g.adj[v] & ym for v in range(g.n)]
    e = sum(adj_y[v].bit_count() for v in xs)
    if e * den < num * len(xs) * ny:
        raise HypothesisUnmet(f"e = {e} below c|X||Y| = {c * len(xs) * ny}")
    if num * len(xs) < 2 * s * den:
        raise HypothesisUnmet(f"c|X| = {c * len(xs)} below 2s = {2 * s}")
    # count >= (c/2)^s |Y| as count * (2 den)^s >= num^s |Y|, which for an
    # integer count is count >= ceil(num^s |Y| / (2 den)^s)
    least = -(-(num ** s * ny) // (2 * den) ** s)
    cand = first_rich_subset(adj_y, xs, s, least)
    if cand is None:
        raise DisprovesLemma("no rich s-set despite verified hypotheses")
    return cand


# --- greedy tree embedding ----------------------------------------------------------


def _check_spanning(g: Graph, sub: Graph, name: str) -> None:
    """ValueError unless sub is a spanning subgraph of g: the same vertices,
    and every edge of sub an edge of g."""
    if sub.n != g.n:
        raise ValueError(f"{name} has {sub.n} vertices, the host graph {g.n}")
    for v, (row, host_row) in enumerate(zip(sub.adj, g.adj)):
        extra = row & ~host_row
        if extra:
            raise ValueError(f"{name} edge {(v, (extra & -extra).bit_length() - 1)} "
                             "is not an edge of the host graph")


def _check_crossing(g: Graph, xm: int, sub: Graph, name: str) -> None:
    """InvalidPartition for sub's least edge inside a side (xm is X), then `_check_spanning`."""
    if sub.n == g.n:  # else _check_spanning names the vertex counts
        for u, v in sub.edge_list():  # in increasing order, so the least is named
            if (xm >> u & 1) == (xm >> v & 1):
                raise InvalidPartition(f"{name} edge {(u, v)} does not cross the partition")
    _check_spanning(g, sub, name)


def tree_bad_sets(g: Graph, l: Graph, t_count: int, d: int) -> dict[int, int]:
    """B(x) per L-vertex x as bitmasks: y with |N_G(y) ∩ N_L(x)| >= d/(4t),
    tested as 4t |N_G(y) ∩ N_L(x)| >= d."""
    scale = 4 * t_count
    return {x: mask_of(y for y in range(l.n) if (g.adj[y] & l.adj[x]).bit_count() * scale >= d)
            for x in range(l.n)}


def _grow_order(t: Graph) -> list[int]:
    """Vertex order where each prefix is a subtree: breadth first from 0,
    each layer's vertices taken in increasing id."""
    if t.n == 0:
        raise ValueError("tree must be nonempty")
    if t.m != t.n - 1:
        raise ValueError("pattern is not a tree")
    order, seen, start = [0], {0}, 0
    while start < len(order):  # order[start:] is the last layer found
        layer, start = sorted(order[start:]), len(order)
        for u in layer:
            for w in t.neighbors(u):
                if w not in seen:
                    seen.add(w)
                    order.append(w)
    if len(order) != t.n:
        raise ValueError("pattern is not a tree (disconnected)")
    return order


def greedy_tree_embed(host: Host, l: Graph, t: Graph, d: int) -> Iterator[VertexMap]:
    """Stream every good labeled copy of the tree t inside l.

    A copy is good when its tree edges lie in l, it is induced in the host
    graph, and no copy vertex lies in another's bad set B(x) (common-neighbor
    count threshold d/(4|V(t)|)).  Enumeration is exhaustive.  Copies come out
    in increasing lexicographic order of their images listed in grow order, so
    the copies that share all images but the last vertex's, a leaf, come out
    together as one batch, and each is re-checked by `_rechecked`'s row rule
    before being yielded.  The tree is checked, l checked to be a spanning
    subgraph of the host graph (ValueError otherwise), and the bad sets built,
    when the function is called, before the first copy is asked for.
    """
    order = _grow_order(t)
    g = host.graph
    _check_spanning(g, l, "l")
    return _rechecked(g, l, t, order, _tree_copies(g, l, t, order, tree_bad_sets(g, l, t.n, d)))


def _tree_copies(g: Graph, l: Graph, t: Graph, order: list[int],
                 bad: dict[int, int]) -> Iterator[VertexMap]:
    """The good copies of t, unchecked, from `graph.placements` in the grow
    order: placing w keeps a later tree neighbour in w's l row, a later
    non-neighbour off w's host row, and both out of sym[w], which is B(w)
    together with every x whose B(x) holds w."""
    sym = [bad[w] | mask_of(x for x in range(l.n) if bad[x] >> w & 1) for w in range(l.n)]
    yes = [row & ~m for row, m in zip(l.adj, sym)]
    no = [~(row | m | 1 << w) for w, (row, m) in enumerate(zip(g.adj, sym))]
    return placements(order, placement_steps(t.adj, order), [l.vertex_mask()] * t.n, yes, no)


def _rechecked(g: Graph, l: Graph, t: Graph, order: Sequence[int],
               copies: Iterable[VertexMap]) -> Iterator[VertexMap]:
    """The copies of t, each re-checked by one row rule (DisprovesLemma on a
    failure) before it is yielded.  For each position i of the grow order,
    the image x must be a host vertex outside the earlier positions' images
    P, x's host row must meet P in exactly the image u of i's one earlier
    tree neighbour, and u's l row must hold x; at position 0, x only has to
    be a vertex of l.  The rule runs from position 0 for a copy whose images
    but the leaf's (its head) differ from the copy before it, and at the last
    position alone for any other copy.  A copy of the wrong length raises."""
    gn, gadj, ln, ladj = g.n, g.adj, l.n, l.adj
    k, leaf = len(order), order[-1]
    # plan[i]: order[i] and its one earlier tree neighbour (-1 at position 0)
    plan = [(v, (t.adj[v] & mask_of(order[:i])).bit_length() - 1) for i, v in enumerate(order)]
    prefix = [0] * (k + 1)  # prefix[i]: the images of positions < i, as a mask
    head = None
    for vm in copies:
        if len(vm) != k:
            raise DisprovesLemma(f"tree copy has {len(vm)} images, the tree {k} vertices")
        rest = vm[:leaf] + vm[leaf + 1:]
        i = k - 1 if rest == head else 0
        while i < k:  # not a range loop, which costs a sixth more per copy
            v, up = plan[i]
            x, p = vm[v], prefix[i]
            if up < 0:
                ok = 0 <= x < gn and x < ln
            else:
                u = vm[up]
                ok = (0 <= x < gn and not p >> x & 1 and gadj[x] & p == 1 << u
                      and ladj[u] >> x & 1)
            if not ok:
                raise DisprovesLemma("tree copy failed the row re-check")
            i += 1
            prefix[i] = p | 1 << x
        head = rest
        yield vm


def admissible_tree_copies(l: Graph, t: Graph, stream: Iterable[VertexMap],
                           star_leaves: int, threshold: int) -> Iterator[VertexMap]:
    """Filter a copy stream down to copies containing no heavy star:
    no copy vertex has star_leaves copy-neighbors whose common L-neighborhood
    reaches the threshold (`graph.first_rich_subset` over the sorted
    copy-neighbors of each copy vertex).  A copy that is not t.n vertex ids
    of l raises ValueError."""
    for vm in stream:
        if len(vm) != t.n:
            raise ValueError(f"copy {list(vm)} has {len(vm)} vertices, the tree {t.n}")
        if not all(0 <= x < l.n for x in vm):
            raise ValueError(f"copy {list(vm)} has a vertex outside l's 0..{l.n - 1}")
        if not any(first_rich_subset(l.adj, sorted(vm[w] for w in bits(row)),
                                     star_leaves, threshold) is not None
                   for row in t.adj):
            yield vm


# --- Hall-style disjoint representatives ----------------------------------------------


def hall_disjoint_sets(sets: Sequence[Iterable[int]], t: int) -> Optional[list[tuple[int, ...]]]:
    """Pairwise-disjoint t-subsets U_i of sets[i], or None when impossible.

    Solved as bipartite matching with t unit slots per index (augmenting paths),
    which succeeds exactly under the defect Hall condition."""
    if t < 1:
        raise ValueError("t must be positive")
    adj = [sorted(set(s)) for s in sets]
    owner: dict[int, int] = {}  # element -> slot
    slot_set = []  # slot -> set index
    for i in range(len(adj)):
        slot_set.extend([i] * t)

    def augment(root: int) -> bool:
        """Depth-first search for an augmenting path from slot root.  A stack
        frame is (slot, its untried elements, the element it was entered by)."""
        seen: set[int] = set()
        stack = [(root, iter(adj[slot_set[root]]), None)]
        while stack:
            w = next((w for w in stack[-1][1] if w not in seen), None)
            if w is None:
                stack.pop()
                continue
            seen.add(w)
            if w in owner:
                stack.append((owner[w], iter(adj[slot_set[owner[w]]]), w))
                continue
            for slot, _, via in reversed(stack):
                owner[w] = slot
                w = via
            return True
        return False

    for slot in range(len(slot_set)):
        if not augment(slot):
            return None
    result = [[] for _ in adj]
    for w, slot in sorted(owner.items()):
        result[slot_set[slot]].append(w)
    return [tuple(sorted(u)) for u in result]


# --- the key embedding procedure --------------------------------------------------------


KEY_LEMMA_RETRIES = 64           # random placements of A tried first
KEY_LEMMA_EXHAUSTIVE_CAP = 4096  # largest placement space then enumerated in full


class EmbeddingOutcome(NamedTuple):
    found: bool
    mapping: Optional[VertexMap]
    trace: list
    kss_witness: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None

    def as_json_dict(self) -> dict:
        return {
            "found": self.found,
            "mapping": list(self.mapping) if self.mapping is not None else None,
            "trace": self.trace,
            "kss_witness": [list(side) for side in self.kss_witness]
            if self.kss_witness is not None else None,
        }


def _check_no_isolated_b(template: BipartiteTemplate) -> None:
    """ValueError unless every B-side vertex of the template has a neighbour."""
    if any(not template.graph.adj[b] for b in template.b_side):
        raise ValueError("template has an isolated B-side vertex")


def key_lemma_embed(host: Host, l: Graph, template: BipartiteTemplate,
                    parts: dict[int, Sequence[int]], rich: Callable[[frozenset], bool],
                    th: Thresholds, seed: int = 0, *, checked: bool = False) -> EmbeddingOutcome:
    """Place the template's A side on declared blowup parts inside X and extend
    to the B side through rich common neighborhoods.  Every blowup edge (one
    part vertex per A vertex of a B vertex's neighborhood) must satisfy rich.

    Steps per candidate placement phi of A: (1) phi(A) independent in the host
    graph; (2) no phi(u) lies in the bad set of another edge's common
    L-neighborhood (threshold 1/(2h)); then candidate sets Gamma(e) are carved,
    Hall's theorem yields disjoint t-sets, and the copy is the first induced
    placement (`graph.placements`) of A on phi and each B vertex in its set:
    the first pairwise non-adjacent B images, in product order over the sets.
    KEY_LEMMA_RETRIES random placements are followed by exhaustive enumeration
    when there are at most KEY_LEMMA_EXHAUSTIVE_CAP placements; drawing stops
    once every placement has been tried.  Only untried placements reach the
    trace.  found=False after that is a legitimate desk-scale outcome.  The
    parts' keys and members are integer fields (`graph.int_field`).

    checked=True says that the caller has already verified that l spans the
    host graph with crossing edges (`_check_crossing`) and that every blowup
    edge is rich, so neither is tested again; `asymmetric_embed` passes it
    for the M and the blowup it has checked.
    """
    from fractions import Fraction
    if host.partition is None:
        raise NoPartition("key_lemma_embed needs an (X, Y) partition")
    x_side, y_side = host.partition
    g = host.graph
    if not checked:
        _check_crossing(g, mask_of(x_side), l, "l")
    h = template.graph.n
    parts_map = {int_field(v): tuple(map(int_field, ws)) for v, ws in parts.items()}
    if set(parts_map) != set(template.a_side):
        raise BadBlowup("parts must be keyed by the A-side vertices")
    xset = set(x_side)
    seen_vertices: set[int] = set()
    for v, ws in parts_map.items():
        if len(ws) != th.m_blow or len(set(ws)) != len(ws):
            raise BadBlowup(f"part for vertex {v} must have exactly m={th.m_blow} vertices")
        if not set(ws) <= xset:
            raise BadBlowup(f"part for vertex {v} leaves X")
        if seen_vertices & set(ws):
            raise BadBlowup("parts must be pairwise disjoint")
        seen_vertices |= set(ws)
    _check_no_isolated_b(template)
    a_order = list(template.a_side)
    order = a_order + list(template.b_side)
    steps = placement_steps(template.graph.adj, order)
    edges = [template.graph.adj[b] for b in template.b_side]  # each B vertex's A side, as a mask
    if not checked:
        for e in edges:
            for combo in product(*(parts_map[v] for v in bits(e))):
                if not rich(frozenset(combo)):
                    raise BadBlowup(f"blowup edge {sorted(combo)} is outside the rich family")

    rng = random.Random(seed)
    trace: list = []
    total = th.m_blow ** len(a_order)  # the placements of A
    tried: set[tuple[int, ...]] = set()

    def candidates() -> Iterator[tuple[int, ...]]:
        """Random draws, then every placement; none once all have been tried."""
        for _ in range(KEY_LEMMA_RETRIES):
            if len(tried) == total:
                return
            yield tuple(parts_map[v][rng.randrange(th.m_blow)] for v in a_order)
        if len(tried) < total <= KEY_LEMMA_EXHAUSTIVE_CAP:
            yield from product(*(parts_map[v] for v in a_order))

    t_size = max(1, th.c_hs // (2 * h))
    for phi in candidates():
        if phi in tried:
            continue
        tried.add(phi)
        img = dict(zip(a_order, phi))
        entry: dict = {"phi": list(phi)}
        trace.append(entry)
        if any(g.has_edge(p, q) for p, q in combinations(phi, 2)):
            entry["stage"] = "independence"
            continue
        commons = []  # Gamma(e): W less the host rows of the A images off e
        for e in edges:
            w_mask = common_neighborhood_mask(l.adj, [img[v] for v in bits(e)])
            if w_mask == 0:
                entry["stage"] = "empty-common"
                break
            b_w = bad_set(g, bits(w_mask), Fraction(1, 2 * h))
            off = [img[u] for u in a_order if not e >> u & 1]
            if any(x in b_w for x in off):
                entry["stage"] = "bad-set"
                break
            commons.append(w_mask & ~mask_of(w for x in off for w in bits(g.adj[x])))
        if "stage" in entry:
            continue
        u_sets = hall_disjoint_sets([list(bits(m)) for m in commons], t_size)
        if u_sets is None:
            entry["stage"] = "hall"
            continue

        # phi(A) is independent and each Gamma(e) keeps to the A images' rows,
        # so the matcher only keeps the B images apart: its first map takes
        # them in product order over the Hall sets
        cands = [1 << w for w in phi] + [mask_of(u) for u in u_sets]
        no = {w: ~(g.adj[w] | 1 << w) for m in cands for w in bits(m)}
        vm = next(placements(order, steps, cands, g.adj, no), None)
        if vm is None:
            entry["stage"] = "placement"
            continue
        if not verify_bip_induced_map(g, x_side, y_side, template, vm):
            raise DisprovesLemma("key-lemma embedding failed the induced re-check")
        if not all(l.has_edge(vm[a], vm[b]) for a, b in template.graph.edges):
            raise DisprovesLemma("key-lemma embedding uses an edge outside l")
        entry["stage"] = "success"
        return EmbeddingOutcome(True, vm, trace)
    return EmbeddingOutcome(False, None, trace)


# --- asymmetric host form ------------------------------------------------------------


def _find_blowup(t_vertices: Sequence[int], template: BipartiteTemplate, m: int,
                 rich: Callable[[frozenset], bool]) -> Optional[dict[int, tuple[int, ...]]]:
    """Disjoint m-sets per A-side vertex such that every combination drawn
    from a B vertex's A-side neighbourhood (its row) is rich, once all of its
    sets are assigned; deterministic backtracking."""
    ground = list(template.a_side)
    edges = [template.graph.adj[b] for b in template.b_side]
    pool = sorted(t_vertices)
    chosen: dict[int, tuple[int, ...]] = {}

    def edge_ok(e: int) -> bool:
        if not all(v in chosen for v in bits(e)):
            return True
        return all(rich(frozenset(combo))
                   for combo in product(*(chosen[v] for v in bits(e))))

    def rec(i: int, remaining: tuple[int, ...]) -> bool:
        if i == len(ground):
            return True
        v = ground[i]
        for pick in combinations(remaining, m):
            chosen[v] = pick
            if all(edge_ok(e) for e in edges if e >> v & 1):
                rest = tuple(w for w in remaining if w not in pick)
                if rec(i + 1, rest):
                    return True
            del chosen[v]
        return False

    if rec(0, tuple(pool)):
        return dict(chosen)
    return None


def asymmetric_embed(host: Host, m_sub: Graph, template: BipartiteTemplate,
                     th: Thresholds, delta_y: Optional[int] = None,
                     seed: int = 0) -> EmbeddingOutcome:
    """Derandomized asymmetric search: for each y in Y, test whether the rich
    p-sets inside N_M(y) are gamma-dense, then look for a blowup of the
    template's A side among them, every B vertex's neighbourhood rich, and
    delegate to key_lemma_embed with M as the cross subgraph."""
    from fractions import Fraction
    if host.partition is None:
        raise NoPartition("asymmetric_embed needs an (X, Y) partition")
    x_side, y_side = host.partition
    xm = mask_of(x_side)
    _check_crossing(host.graph, xm, m_sub, "M")
    if not template.b_side:
        raise ValueError("template must have a nonempty B side")
    _check_no_isolated_b(template)
    p = max(template.graph.degree(b) for b in template.b_side)
    degrees = {y: (m_sub.adj[y] & xm).bit_count() for y in y_side}
    dmin = min(degrees.values()) if degrees else 0
    if delta_y is not None and dmin < delta_y:
        raise HypothesisUnmet(f"some y has M-degree {dmin} < delta_y = {delta_y}")
    delta = delta_y if delta_y is not None else dmin
    e_m = m_sub.m
    guarantee = Fraction(e_m) * Fraction(delta) ** max(p - 1, 0) >= \
        th.c3 * Fraction(len(x_side)) ** p if x_side else False
    trace: list = [{"e_m": e_m, "delta": delta, "p": p, "c3_guarantee": guarantee}]

    def rich(sset: frozenset) -> bool:
        return common_neighborhood_mask(m_sub.adj, sset).bit_count() >= th.c_hs

    for y in sorted(y_side):
        t_vertices = list(bits(m_sub.adj[y] & xm))
        entry: dict = {"y": y, "t_size": len(t_vertices)}
        trace.append(entry)
        if len(t_vertices) < p:
            entry["stage"] = "degree"
            continue
        total = math.comb(len(t_vertices), p)
        rich_count = sum(1 for sset in combinations(t_vertices, p)
                         if rich(frozenset(sset)))
        entry["rich"] = rich_count
        entry["total"] = total
        if rich_count * th.gamma.denominator <= th.gamma.numerator * total:
            entry["stage"] = "density"
            continue
        parts = _find_blowup(t_vertices, template, th.m_blow, rich)
        if parts is None:
            entry["stage"] = "blowup"
            continue
        entry["parts"] = {str(v): list(ws) for v, ws in parts.items()}
        # M's rows were checked above and _find_blowup has tested every blowup edge
        sub_outcome = key_lemma_embed(host, m_sub, template, parts, rich, th, seed=seed,
                                      checked=True)
        entry["stage"] = "delegated"
        trace.extend(sub_outcome.trace)
        if sub_outcome.found:
            return EmbeddingOutcome(True, sub_outcome.mapping, trace)
    return EmbeddingOutcome(False, None, trace)


# --- semi-induced power extraction ------------------------------------------------------


def extraction_aux(g: Graph, copies: Sequence[VertexMap],
                   f: RootedGraph) -> dict[tuple[int, int], tuple[int, int]]:
    """Auxiliary colored graph on copy indices: an edge where some host edge
    joins two copies' non-root images, colored by the lexicographically least
    (position, position) pair of non-root indices that realizes one."""
    non = f.non_roots()
    images = [mask_of(vm[v] for v in non) for vm in copies]
    out: dict[tuple[int, int], tuple[int, int]] = {}
    for i, vm in enumerate(copies):
        rows = [g.adj[vm[v]] for v in non]
        reach = 0
        for row in rows:
            reach |= row
        for j in range(i + 1, len(copies)):
            if reach & images[j]:
                a_idx = next(a for a, row in enumerate(rows) if row & images[j])
                b_idx = next(b for b, v in enumerate(non) if rows[a_idx] >> copies[j][v] & 1)
                out[(i, j)] = (a_idx, b_idx)
    return out


def _check_semi_induced(g: Graph, copies: Sequence[VertexMap], f: RootedGraph) -> None:
    if not copies:
        raise NotSemiInduced("need at least one copy")
    roots = sorted(f.roots)
    non = f.non_roots()
    for i, vm in enumerate(copies):
        if len(vm) != f.graph.n or len(set(vm)) != len(vm):
            raise NotSemiInduced(f"copy {i} is not an injective map of the pattern")
        if not verify_induced_map(g, f.graph, vm):
            raise NotSemiInduced(f"copy {i} is not induced in the host")
    for r in roots:
        if len({vm[r] for vm in copies}) != 1:
            raise NotSemiInduced(f"copies disagree on root {r}")
    seen: set[int] = set()
    for i, vm in enumerate(copies):
        imgs = {vm[v] for v in non}
        if imgs & seen:
            raise NotSemiInduced(f"copy {i} reuses another copy's non-root image")
        seen |= imgs


def extract_induced_power(g: Graph, copies: Sequence[VertexMap], f: RootedGraph,
                          l: int, s: int) -> EmbeddingOutcome:
    """From semi-induced copies of f (induced, root-agreeing, disjoint
    elsewhere), extract l copies with no host edges between them: an induced
    copy of the l-th rooted power.

    When no such l-subset exists, the auxiliary colored graph is searched for a
    monochromatic 2s-clique, which converts directly into a K_{s,s} witness in
    the host; that witness is surfaced as a finding, not an error.
    """
    if l < 1 or s < 1:
        raise ValueError("l and s must be positive")
    _check_semi_induced(g, copies, f)
    non = f.non_roots()
    aux = extraction_aux(g, copies, f)
    lam = len(copies)
    trace: list = [{"copies": lam, "aux_edges": len(aux)}]
    # an independent l-set of the auxiliary graph is an l-clique of its complement
    full = (1 << lam) - 1
    missing = [full & ~(1 << i) for i in range(lam)]
    for i, j in aux:
        missing[i] &= ~(1 << j)
        missing[j] &= ~(1 << i)
    sel = first_clique(missing, l)
    if sel is not None:
        # `rooted_power`'s numbering: the shared roots' images, then each
        # selected copy's non-roots' images; the re-check guards the numbering
        vm = tuple([copies[sel[0]][v] for v in sorted(f.roots)]
                   + [copies[c][v] for c in sel for v in non])
        if not verify_induced_map(g, rooted_power(f, l).graph, vm):
            raise DisprovesLemma("extracted selection failed the induced re-check")
        trace.append({"selected": sel, "stage": "success"})
        return EmbeddingOutcome(True, vm, trace)
    # no independent l-set; look for a monochromatic 2s-clique
    by_color: dict[tuple[int, int], list[int]] = {}
    for (i, j), color in aux.items():
        rows = by_color.setdefault(color, [0] * lam)
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    for color in sorted(by_color):
        clique = first_clique(by_color[color], 2 * s)
        if clique is None:
            continue
        a_idx, b_idx = color
        side1 = tuple(copies[i][non[a_idx]] for i in clique[:s])
        side2 = tuple(copies[j][non[b_idx]] for j in clique[s:])
        if not all(g.has_edge(u, v) for u in side1 for v in side2):
            raise DisprovesLemma("monochromatic clique gave no K_{s,s}")
        trace.append({"stage": "kss", "color": list(color), "clique": clique})
        return EmbeddingOutcome(False, None, trace, kss_witness=(side1, side2))
    trace.append({"stage": "exhausted"})
    return EmbeddingOutcome(False, None, trace)
