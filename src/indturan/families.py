"""Rooted graph families, gluing powers, and the K_{t,t} reduction.

A rooted graph is a graph with a distinguished proper subset of vertices, the
roots.  The families built here are the bases of the realizability chains:

* height_two_tree(r, t): center, r middle vertices, t leaves under each middle
  vertex; rooted at the leaves.
* tree_r11(r): center with r paths of length 2 and one pendant edge; rooted at
  the far endpoints and the pendant vertex.
* rooted_path(length): a path rooted at its two endpoints.
* leaf_rooted_star(r): a star rooted at its leaves (its powers are complete
  bipartite graphs).

rooted_power glues l copies along the shared roots (copy 0's rows come from
`graph.relabel`, the others shift them); its documented vertex numbering is
the only record of where each copy lands.  A template's B vertex b keeps its
A-side neighbourhood as the row `graph.adj[b]`.  attach_ktt_rooted adds a
crossed K_{t,t} with the new vertices as roots, written from f's rows and one
`_sides` colouring (the orientation `as_template` shares): t "reductions" at
once, raising the density by exactly t.  `_edge_inside` finds the edge that a
template's part or a power's root set must not hold.
Descriptors like "Trt:r=3,t=1" name all of these for the CLI.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .errors import DegenerateRoot, Multigraph, NotBipartite, RootEdgeCollision
from .graph import Graph, bipartition, check_partition, mask_of, relabel

Parts = tuple[tuple[int, ...], tuple[int, ...]]


def _edge_inside(adj: Sequence[int], vertices: Sequence[int]) -> Optional[tuple[int, int]]:
    """The least edge (u, w) with both ends in the sorted vertex list, or None."""
    inside = mask_of(vertices)
    for u in vertices:
        clash = adj[u] & inside
        if clash:  # u is the least vertex of an inside edge, so w is above it
            return u, (clash & -clash).bit_length() - 1
    return None


class RootedGraph:
    """A graph together with a proper subset of root vertices."""

    __slots__ = ("graph", "roots")

    def __init__(self, graph: Graph, roots: Iterable[int]):
        roots = frozenset(roots)
        if graph.n == 0:
            raise DegenerateRoot("rooted graph needs at least one vertex")
        if not all(0 <= v < graph.n for v in roots):
            raise ValueError("root outside vertex range")
        if len(roots) >= graph.n:
            raise DegenerateRoot("roots must form a proper subset of the vertices")
        self.graph = graph
        self.roots = roots

    def __eq__(self, other):
        return (isinstance(other, RootedGraph)
                and (self.graph, self.roots) == (other.graph, other.roots))

    def __hash__(self):
        return hash((self.graph, self.roots))

    def non_roots(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.graph.n) if v not in self.roots)


class BipartiteTemplate:
    """A bipartite graph with an ordered bipartition (A, B); all edges cross.
    The parts are stored as `check_partition` returns them."""

    __slots__ = ("graph", "parts")

    def __init__(self, graph: Graph, parts: Parts):
        parts = check_partition(graph.n, parts, NotBipartite)
        for side in parts:
            edge = _edge_inside(graph.adj, side)
            if edge:
                raise NotBipartite(f"edge {edge} lies inside one part")
        self.graph = graph
        self.parts = parts

    @property
    def a_side(self) -> tuple[int, ...]:
        return self.parts[0]

    @property
    def b_side(self) -> tuple[int, ...]:
        return self.parts[1]


# --- constructors ------------------------------------------------------------


def height_two_tree(r: int, t: int) -> RootedGraph:
    """Center 0, middles 1..r, leaf j of middle i is r + (i-1)t + j; roots = leaves."""
    if r < 1 or t < 1:
        raise DegenerateRoot("height_two_tree needs r >= 1 and t >= 1")
    edges = [(0, i) for i in range(1, r + 1)]
    leaves = []
    for i in range(1, r + 1):
        for j in range(1, t + 1):
            z = r + (i - 1) * t + j
            edges.append((i, z))
            leaves.append(z)
    return RootedGraph(Graph(1 + r + r * t, edges), frozenset(leaves))


def tree_r11(r: int) -> RootedGraph:
    """Center 0, paths 0-i-(r+i) for i in 1..r, pendant edge 0-(2r+1);
    roots are the path ends r+1..2r and the pendant vertex."""
    if r < 1:
        raise DegenerateRoot("tree_r11 needs r >= 1")
    edges = [(0, i) for i in range(1, r + 1)]
    edges += [(i, r + i) for i in range(1, r + 1)]
    edges.append((0, 2 * r + 1))
    roots = set(range(r + 1, 2 * r + 1)) | {2 * r + 1}
    return RootedGraph(Graph(2 * r + 2, edges), frozenset(roots))


def rooted_path(length: int) -> RootedGraph:
    """Path 0-1-...-length rooted at the two endpoints."""
    if length < 2:
        raise DegenerateRoot("rooted_path needs length >= 2 (shorter paths have no interior)")
    edges = [(i, i + 1) for i in range(length)]
    return RootedGraph(Graph(length + 1, edges), frozenset({0, length}))


def leaf_rooted_star(r: int) -> RootedGraph:
    """Star with center 0 and leaves 1..r, rooted at the leaves."""
    if r < 1:
        raise DegenerateRoot("leaf_rooted_star needs r >= 1")
    return RootedGraph(Graph(r + 1, [(0, i) for i in range(1, r + 1)]), frozenset(range(1, r + 1)))


def rooted_power(f: RootedGraph, l: int) -> RootedGraph:
    """l copies of f glued along the roots, disjoint elsewhere.

    Vertex numbering, the contract that `embeddings.extract_induced_power`
    reads its map from: f's sorted roots become 0..r-1, and copy c's sorted
    non-roots become r + c*q .. r + c*q + q - 1 in order (q non-roots).

    An edge inside the root set would be contributed by every copy; for
    l >= 2 that collision is always a RootEdgeCollision, never silently
    deduplicated.
    """
    if l < 1:
        raise ValueError("power needs l >= 1")
    adj = f.graph.adj
    roots = sorted(f.roots)
    if l >= 2:
        edge = _edge_inside(adj, roots)
        if edge:
            raise RootEdgeCollision(f"edge {edge} lies inside the root set")
    order = roots + list(f.non_roots())  # copy 0's numbering
    r, q = len(roots), f.graph.n - len(roots)
    # A row in copy 0's numbering splits into its root bits, which every copy
    # shares, and its non-root bits, which copy c shifts up by c * q; a root's
    # row holds every copy's shift at once, one product with `spread`.
    low = (1 << r) - 1
    spread = sum(1 << c * q for c in range(l))
    rows = [0] * (r + l * q)
    for i, new in enumerate(relabel(adj, order)):
        inner, outer = new & low, new & ~low
        if i < r:
            rows[i] = inner | outer * spread
        else:
            for c in range(l):
                rows[i + c * q] = inner | outer << c * q
    return RootedGraph(Graph.from_rows(rows), frozenset(range(r)))


def theta(length: int, t: int) -> Graph:
    """t internally disjoint paths of the given length between two shared ends."""
    if t < 1:
        raise ValueError("theta needs t >= 1")
    if length < 1:
        raise ValueError("theta needs length >= 1")
    if length == 1:
        if t >= 2:
            raise Multigraph("length-1 theta with t >= 2 would duplicate the edge")
        return Graph(2, [(0, 1)])
    return rooted_power(rooted_path(length), t).graph


def attach_ktt_rooted(f: RootedGraph, t: int) -> RootedGraph:
    """Add root parts C = n..n+t-1 (joined to B) and D = n+t..n+2t-1 (joined
    to A), crossed completely, for n = f.graph.n and (A, B) = `_sides(f.graph)`:
    t reductions at once, raising the density by exactly t.  Raises
    NotBipartite for an odd cycle, then ValueError if t < 0; t = 0 gives f."""
    a_mask, b_mask = map(mask_of, _sides(f.graph))
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return f
    n = f.graph.n
    c_mask = ((1 << t) - 1) << n
    d_mask = c_mask << t
    rows = [row | (d_mask if a_mask >> v & 1 else c_mask) for v, row in enumerate(f.graph.adj)]
    rows += [b_mask | d_mask] * t + [a_mask | c_mask] * t
    return RootedGraph(Graph.from_rows(rows), f.roots | set(range(n, n + 2 * t)))


def complete_bipartite_template(s: int, t: int) -> BipartiteTemplate:
    if s < 1 or t < 1:
        raise ValueError("complete bipartite template needs both sides nonempty")
    a = tuple(range(s))
    b = tuple(range(s, s + t))
    return BipartiteTemplate(Graph(s + t, [(u, v) for u in a for v in b]), (a, b))


def as_graph(obj) -> Graph:
    """The underlying graph of a Graph, RootedGraph or BipartiteTemplate."""
    if isinstance(obj, Graph):
        return obj
    if isinstance(obj, (RootedGraph, BipartiteTemplate)):
        return obj.graph
    raise TypeError(f"no graph view for {type(obj).__name__}")


def _sides(g: Graph) -> Parts:
    """`bipartition`'s sides of g (vertex 0's first), or NotBipartite."""
    parts = bipartition(g)
    if parts is None:
        raise NotBipartite("graph has an odd cycle")
    return parts


def as_template(obj) -> BipartiteTemplate:
    """View as a bipartite template; A is `_sides`' first side, which holds vertex 0."""
    if isinstance(obj, BipartiteTemplate):
        return obj
    g = as_graph(obj)
    return BipartiteTemplate(g, _sides(g))


# --- descriptor mini-language -------------------------------------------------
#
# kind[:key=value,...]; values are integers or parenthesized descriptors.
#   Trt:r=3,t=1   Tr11:r=3   path:len=3   star:r=4   theta:len=4,t=3
#   Kst:s=2,t=3   power:base=(path:len=2),l=2   f1:base=(Trt:r=2,t=1)


# The kinds with integer arguments only: kind -> (constructor, argument names).
_PLAIN_KINDS = {"Trt": (height_two_tree, ("r", "t")), "Tr11": (tree_r11, ("r",)),
                "path": (rooted_path, ("len",)), "star": (leaf_rooted_star, ("r",)),
                "theta": (theta, ("len", "t")), "Kst": (complete_bipartite_template, ("s", "t"))}
# The argument names of every kind.
_KIND_KEYS = {kind: names for kind, (_, names) in _PLAIN_KINDS.items()} | {
    "power": ("base", "l"), "f1": ("base",)}


def _split_args(text: str) -> list[str]:
    out, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced ')' in {text!r}")
        if ch == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced '(' in {text!r}")
    if cur:
        out.append("".join(cur))
    return out


def parse_descriptor(desc: str):
    """Build the object a descriptor names (RootedGraph, Graph, or template)."""
    desc = desc.strip()
    kind, _, argtext = desc.partition(":")
    kind = kind.strip()
    if kind not in _KIND_KEYS:
        raise ValueError(f"unknown descriptor kind {kind!r}")
    args: dict[str, str] = {}
    if argtext:
        for item in _split_args(argtext):
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq:
                raise ValueError(f"malformed descriptor argument {item!r}")
            if key in args:
                raise ValueError(f"descriptor {kind!r} has a repeated {key}=")
            if key not in _KIND_KEYS[kind]:
                raise ValueError(f"descriptor {kind!r} takes no {key}=")
            args[key] = value.strip()
    for name in _KIND_KEYS[kind]:
        if name not in args:
            raise ValueError(f"descriptor {kind!r} needs {name}=")

    def rooted_base() -> RootedGraph:
        value = args["base"]
        if value.startswith("(") and value.endswith(")"):
            value = value[1:-1]
        try:
            base = parse_descriptor(value)
        except RecursionError:  # raised at the innermost level, named here
            raise ValueError("descriptor nested too deeply") from None
        if not isinstance(base, RootedGraph):
            raise ValueError(f"{kind} base must be a rooted descriptor")
        return base

    if kind in _PLAIN_KINDS:
        make, names = _PLAIN_KINDS[kind]
        return make(*(int(args[name]) for name in names))
    if kind == "power":
        return rooted_power(rooted_base(), int(args["l"]))
    return attach_ktt_rooted(rooted_base(), 1)  # f1
