"""Finite simple graphs on dense integer vertex ids, with bitset adjacency.

Vertices of a graph on n vertices are exactly 0..n-1.  Adjacency is stored as
one Python int per vertex, bit w set iff vw is an edge, which makes
common-neighborhood and candidate-filtering work single AND operations.
Graphs are immutable after construction; operations return new graphs plus an
index map back to the original vertex ids where relabeling happens.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from .errors import InvalidPartition, Multigraph, NoPartition

if TYPE_CHECKING:
    from .families import BipartiteTemplate

# An injective map from pattern vertices to host vertices, indexed by pattern id.
VertexMap = tuple[int, ...]


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int):
    """Yield set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable simple graph with per-vertex bitset adjacency.

    The adjacency rows are the graph, and nothing else is stored: `edges`
    and `edge_list()` are read off the rows on each call.  `Graph(n, edges)`
    validates outside input; `Graph.from_rows` wraps rows that the caller
    already knows to be symmetric and loop-free.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[Sequence[int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {(u, v)} out of range for n={n}")
            if u == v:
                raise Multigraph(f"loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)

    @classmethod
    def from_rows(cls, rows: Iterable[int]) -> Graph:
        """The graph whose vertex v has adjacency bitset rows[v], unchecked."""
        g = cls.__new__(cls)
        g.adj = tuple(rows)
        g.n = len(g.adj)
        return g

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Edges as (u, v) pairs with u < v."""
        return frozenset(self.edge_list())

    # Graphs compare by labeled structure, not isomorphism.
    def __eq__(self, other):
        return isinstance(other, Graph) and self.adj == other.adj

    def __hash__(self):
        return hash(self.adj)

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, m={self.m})"

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.adj) >> 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bits(self.adj[v]))

    def edge_list(self) -> list[tuple[int, int]]:
        """Edges as (u, v) pairs with u < v, in increasing order."""
        return [(u, w) for u, row in enumerate(self.adj) for w in bits(row >> (u + 1) << (u + 1))]

    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def mask(self, vertices: Iterable[int]) -> int:
        """The bitset of vertices, each of which must be a vertex of the graph."""
        m = 0
        for v in vertices:
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} out of range")
            m |= 1 << v
        return m


def common_neighborhood_mask(adj: Sequence[int], s: Iterable[int]) -> int:
    """Vertices adjacent to every member of s (members of s never qualify), as
    a bitset against adjacency rows; the empty set's is every vertex."""
    mask = (1 << len(adj)) - 1
    got = 0
    for v in s:
        mask &= adj[v]
        got |= 1 << v
    return mask & ~got


def relabel(adj: Sequence[int], order: Sequence[int]) -> tuple[int, ...]:
    """The rows of the subgraph induced on order, renumbered so that vertex
    order[i] becomes i."""
    new = [0] * len(adj)
    for i, v in enumerate(order):
        new[v] = 1 << i
    out = []
    for v in order:
        row, rest = 0, adj[v]
        while rest:
            low = rest & -rest
            row |= new[low.bit_length() - 1]
            rest ^= low
        out.append(row)
    return tuple(out)


def first_clique(rows: Sequence[int], k: int) -> Optional[list[int]]:
    """The lexicographically least k-clique of the graph with adjacency rows
    rows (no self bits), or None.  Branches on the lowest candidate, keeps the
    higher candidates adjacent to it, and prunes a branch with fewer
    candidates than places left; candidates are tried in increasing order, so
    the first clique found is the one a `combinations` scan meets first.
    The extraction's two searches run here."""
    if k < 0:
        raise ValueError("a clique has k >= 0 vertices")
    chosen: list[int] = []
    frames = [(1 << len(rows)) - 1]  # frames[d]: the candidates for chosen[d]
    while frames:
        d = len(frames) - 1
        del chosen[d:]
        if d == k:
            return chosen
        cand = frames[d]
        if cand.bit_count() < k - d:
            frames.pop()
            continue
        low = cand & -cand
        frames[d] = cand ^ low
        i = low.bit_length() - 1
        chosen.append(i)
        frames.append(frames[d] & rows[i])
    return None


def placement_steps(adj: Sequence[int], order: Sequence[int]) -> list[list[tuple[int, int]]]:
    """For each position i of order, the pair (j, is-edge between order[i]
    and order[j]) of every later position j, read off the pattern rows adj."""
    return [[(j, adj[p] >> order[j] & 1) for j in range(i + 1, len(order))]
            for i, p in enumerate(order)]


def placements(order: Sequence[int], steps: Sequence[Sequence[tuple[int, int]]],
               cands: Sequence[int], yes: Sequence[int], no: Sequence[int]
               ) -> Iterator[VertexMap]:
    """Every map that sends position i of order (pattern vertex order[i])
    into the host mask cands[i] and, for each earlier position k with image
    w, into yes[w] if steps[k] marks i as a neighbour and into no[w] if not;
    indexed by pattern id, in increasing lexicographic order of the images
    listed in placement order.  Neither row of w may hold w, so every map is
    injective; each is read only at a placed w.  The one backtracking
    matcher: `oracles._embed`, the greedy tree embedding and the key lemma's
    copy all search here.  The last position restricts nothing, so each of
    its candidates is yielded at once."""
    n = len(order)
    if n == 0:
        yield ()
        return
    # An explicit stack, not a recursive closure: a closure that calls itself
    # is a reference cycle, which keeps each call's lists alive until the
    # cyclic collector runs and so raises peak memory.
    assignment = [0] * n
    level = [cands] * n  # level[i]: the masks once positions < i are placed
    left = [0] * n       # left[i]: the untried host candidates at position i
    left[0] = cands[0]
    last = n - 1
    i = 0
    while i >= 0:
        m = left[i]
        if not m:
            i -= 1
            continue
        low = m & -m
        left[i] = m ^ low
        w = low.bit_length() - 1
        assignment[order[i]] = w
        if i == last:
            yield tuple(assignment)
            continue
        row, off = yes[w], no[w]
        nxt = level[i][:]
        for j, edge in steps[i]:
            c = nxt[j] & (row if edge else off)
            if not c:
                break
            nxt[j] = c
        else:
            i += 1
            level[i] = nxt
            left[i] = nxt[i]


def first_rich_subset(adj: Sequence[int], candidates: Sequence[int], k: int,
                      least: int) -> Optional[tuple[int, ...]]:
    """The first k-subset of candidates, in `combinations` order, whose common
    neighbourhood against the rows adj has at least least members, or None.
    The K_{s,s} search, the rich s-set lemma and the heavy-star filter all
    ask this question."""
    for sub in combinations(candidates, k):
        if common_neighborhood_mask(adj, sub).bit_count() >= least:
            return sub
    return None


def contains_kss(g: Graph, s: int) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """A K_{s,s} subgraph as (side1, side2), or None.  Sides are disjoint;
    the copy need not be induced.  First witness in lexicographic side1 order."""
    if s < 1:
        raise ValueError("s must be positive")
    if 2 * s > g.n:
        return None
    side1 = first_rich_subset(g.adj, [v for v in range(g.n) if g.degree(v) >= s], s, s)
    if side1 is None:
        return None
    return side1, tuple(bits(common_neighborhood_mask(g.adj, side1)))[:s]


def induced_subgraph(g: Graph, s: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced on s. Returns (graph, index map new id -> old id)."""
    keep = tuple(bits(g.mask(s)))
    return Graph.from_rows(relabel(g.adj, keep)), keep


def edge_subgraph(g: Graph, edges: Iterable[Sequence[int]]) -> Graph:
    """The spanning subgraph of g on the given edges, each of which must be an
    edge of g (in either orientation)."""
    es = [(u, v) if u < v else (v, u) for u, v in edges]
    for u, v in es:
        if not (0 <= u and v < g.n and g.adj[u] >> v & 1):
            raise ValueError(f"edge {(u, v)} is not an edge of the ambient graph")
    return Graph(g.n, es)


def verify_induced_map(g: Graph, h: Graph, vm: VertexMap) -> bool:
    """Row check that vm is an induced embedding of h into g: vm is injective
    and in range, and for every pattern vertex p the host row of vm[p], cut to
    the image, is the image of h's row p, built from h.adj (the pairwise
    definition, row-wise)."""
    if not (len(vm) == h.n == len(set(vm)) and all(0 <= w < g.n for w in vm)):
        return False
    image = mask_of(vm)
    return all(g.adj[w] & image == mask_of(vm[q] for q in bits(row)) for w, row in zip(vm, h.adj))


def verify_bip_induced_map(g: Graph, x: Sequence[int], y: Sequence[int],
                           h: BipartiteTemplate, vm: VertexMap) -> bool:
    """Definitional check for a bip-induced copy: induced in g, with the A side
    in one of x, y and the B side in the other."""
    if not verify_induced_map(g, h.graph, vm):
        return False
    xs, ys = set(x), set(y)
    a_in_x = all(vm[p] in xs for p in h.a_side) and all(vm[p] in ys for p in h.b_side)
    a_in_y = all(vm[p] in ys for p in h.a_side) and all(vm[p] in xs for p in h.b_side)
    return a_in_x or a_in_y


def bipartition(g: Graph) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """A 2-coloring (side containing the least vertex of each component first),
    or None if some component is odd-cyclic, in breadth-first layers of vertex
    masks: an edge inside a layer closes an odd cycle, else layers alternate."""
    sides, left = [0, 0], g.vertex_mask()
    while left:
        layer = reach = left & -left  # the least uncoloured vertex starts a component
        side = 0
        while layer:
            sides[side] |= layer
            near = 0
            for v in bits(layer):
                near |= g.adj[v]
            if near & layer:
                return None
            layer = near & ~reach
            reach |= layer
            side ^= 1
        left &= ~reach
    return tuple(bits(sides[0])), tuple(bits(sides[1]))


def check_partition(n: int, sides, error: type[Exception] = InvalidPartition
                    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two sides of a partition of 0..n-1, each sorted; raises `error`
    unless there are two disjoint, duplicate-free sides covering every vertex."""
    if len(sides) != 2:
        raise error("a partition needs exactly two sides")
    x, y = sides
    xs, ys = set(x), set(y)
    if xs & ys or len(xs) != len(x) or len(ys) != len(y):
        raise error("partition sides must be disjoint and duplicate-free")
    if xs | ys != set(range(n)):
        raise error("partition must cover all vertices")
    return tuple(sorted(xs)), tuple(sorted(ys))


class Host:
    """A host graph, an optional (X, Y) vertex partition, and the K_{s,s} size s.
    The partition is stored as `check_partition` returns it."""

    __slots__ = ("graph", "s", "partition")

    def __init__(self, graph: Graph, s: int,
                 partition: Optional[tuple[Sequence[int], Sequence[int]]] = None):
        if s < 1:
            raise ValueError("s must be positive")
        self.graph = graph
        self.s = s
        self.partition = None if partition is None else check_partition(graph.n, partition)


def cross_subgraph(host: Host) -> Graph:
    """The spanning subgraph of the host graph on its partition's cross edges."""
    if host.partition is None:
        raise NoPartition("host carries no (X, Y) partition")
    xm, ym = (mask_of(side) for side in host.partition)
    return Graph.from_rows(row & (ym if xm >> v & 1 else xm)
                           for v, row in enumerate(host.graph.adj))


# --- external formats -------------------------------------------------------
#
# JSON schema: {"n": int, "edges": [[u, v], ...]} with optional "roots": [...]
# and "partition": {"X": [...], "Y": [...]}.  Lists are sorted so output is
# byte-stable for a given graph.


def int_field(value) -> int:
    """An integer field of outside input.  A bare int() would read true as 1
    and truncate 2.9 to 2; both raise ValueError here.  Integral strings such
    as "2" still pass."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def graph_to_json_dict(g: Graph, roots: Iterable[int] | None = None,
                       partition: tuple[Iterable[int], Iterable[int]] | None = None) -> dict:
    d: dict = {"n": g.n, "edges": [list(e) for e in g.edge_list()]}
    if roots is not None:
        d["roots"] = sorted(roots)
    if partition is not None:
        d["partition"] = {"X": sorted(partition[0]), "Y": sorted(partition[1])}
    return d


def graph_from_json_dict(d: dict) -> tuple[Graph, Optional[tuple[int, ...]],
                                           Optional[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """(graph, sorted roots or None, sorted partition sides or None) of a
    graph object.  "n", the edge endpoints, the roots and the partition sides
    are integer fields (`int_field`), all read before the graph is built; a
    partition that is not an object raises TypeError."""
    n = int_field(d["n"])
    edges = [(int_field(u), int_field(v)) for u, v in map(tuple, d.get("edges", []))]
    roots = tuple(sorted(map(int_field, d["roots"]))) if "roots" in d else None
    part = None
    if "partition" in d:
        sides = d["partition"]
        if not isinstance(sides, dict):
            raise TypeError("partition must be a JSON object")
        part = (tuple(sorted(map(int_field, sides["X"]))),
                tuple(sorted(map(int_field, sides["Y"]))))
    return Graph(n, edges), roots, part


def to_dot(g: Graph, roots: Iterable[int] | None = None,
           partition: tuple[Iterable[int], Iterable[int]] | None = None) -> str:
    """GraphViz text; roots drawn as double circles, partition as two ranks."""
    rootset = set(roots) if roots else set()
    lines = ["graph g {"]
    if partition is None:
        groups = [(range(g.n), "")]
    else:
        lines.append("  // partition X then Y")
        groups = [(sorted(partition[0]), ", color=blue"), (sorted(partition[1]), ", color=red")]
    for vertices, color in groups:
        for v in vertices:
            shape = "doublecircle" if v in rootset else "circle"
            lines.append(f"  {v} [shape={shape}{color}];")
    for u, v in g.edge_list():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
