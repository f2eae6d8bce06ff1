"""Exact rooted density and balancedness.

For a rooted graph F with roots R and a nonempty S of vertices, e_S counts the
edges with at least one endpoint in S and rho_F(S) = e_S / |S|.  The density
rho(F) is rho_F(V \\ R), and F is balanced when no nonempty subset of the
non-roots beats it from below.  Everything is computed with Fraction, never
floats.  Balancedness is decided exactly in polynomial time: the minimum of
e_S - lam*|S| is a minimum cut (a maximum-closure problem: Picard 1976,
Picard-Queyranne 1982), Dinkelbach iteration (1967) finds the minimum ratio,
and the lexicographically least minimizing subset is read off the residual
network of the last cut.  The network has a node per non-root and per edge
between two non-roots; the edges from a non-root to the roots, which meet S
exactly when it lies in S, fold into one arc from it to the sink.  e_S
itself is counted from the bitset rows.  All capacities are ints, and a
hard budget on the number of non-roots still bounds the work.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .errors import EmptyQuery, TooLarge
from .families import RootedGraph, as_graph
from .graph import bits, mask_of

BALANCE_BUDGET = 400


def check_balance_budget(q: int) -> None:
    """TooLarge when q non-roots exceed BALANCE_BUDGET."""
    if q > BALANCE_BUDGET:
        raise TooLarge(f"{q} non-roots exceed the balance budget of {BALANCE_BUDGET}")


def edges_incident(f, s: Iterable[int]) -> int:
    """Number of edges with at least one endpoint in s: the degrees over s
    minus the edges inside s, which that sum counts twice."""
    sv = set(s)
    if not sv:
        raise EmptyQuery("edges_incident needs a nonempty set")
    g = as_graph(f)
    inside = g.mask(sv)
    degrees = twice_inside = 0
    for v in sv:
        degrees += g.adj[v].bit_count()
        twice_inside += (g.adj[v] & inside).bit_count()
    return degrees - (twice_inside >> 1)


def rho_subset(f, s: Iterable[int]) -> Fraction:
    sv = list(s)
    return Fraction(edges_incident(f, sv), len(set(sv)))


def rho(f: RootedGraph) -> Fraction:
    """rho(F) = e_S / |S| for S the full non-root set."""
    return rho_subset(f, f.non_roots())


class DensityReport(NamedTuple):
    rho: Fraction
    balanced: bool
    witness: Optional[tuple[int, ...]]  # least minimizing subset when unbalanced
    exponent: Optional[Fraction]        # 2 - 1/rho, None when rho = 0

    def as_json_dict(self) -> dict:
        return {
            "rho": str(self.rho),
            "balanced": self.balanced,
            "witness": list(self.witness) if self.witness is not None else None,
            "exponent": str(self.exponent) if self.exponent is not None else None,
        }


class _ClosureNetwork:
    """The min-cut network of min_S (e_S - lam*|S|) over S ⊆ non-roots, solved.

    Node v < q is non-root v and node q + j the j-th inner edge, `inner[j]`,
    whose two ends are non-roots; then come the source and the sink.  For
    lam = p/r the arcs are source -> vertex (capacity p), vertex -> sink
    (r*forced[v], for the forced[v] edges from v to the roots), vertex ->
    incident inner edge (uncuttable) and inner edge -> sink (r), so a cut
    whose source side holds S and the inner edges meeting S costs
    p*(q - |S|) + r*e_S.  A node for an edge with one non-root end v would be
    entered only from v and left only to the sink, so it is contracted into
    v's sink arc: every cut keeps its value, and so do the max-flow and the
    residual reachability between non-roots.  The uncuttable capacity is a
    finite int above the sum of all the others, so no minimum cut takes
    another form, and every capacity is an int.

    After the max-flow, `value` is min_S (r*e_S - p*|S|).  The minimizing S
    are closed under union and intersection: the least is what the source
    reaches in the residual network, the greatest is every non-root that
    cannot reach the sink.
    """

    def __init__(self, forced: list, inner: list, lam: Fraction):
        p, r = lam.numerator, lam.denominator
        q = self.q = len(forced)
        uncut = p * q + r * (sum(forced) + len(inner)) + 1
        self.source, self.sink = q + len(inner), q + len(inner) + 1
        self.adj: list[list[int]] = [[] for _ in range(self.sink + 1)]
        self.head: list[int] = []  # arc a runs to head[a]; a ^ 1 is its reverse
        self.cap: list[int] = []   # residual capacities once solved
        for v, k in enumerate(forced):
            self._arc(self.source, v, p)
            if k:
                self._arc(v, self.sink, r * k)
        for j, (u, w) in enumerate(inner, q):
            self._arc(u, j, uncut)
            self._arc(w, j, uncut)
            self._arc(j, self.sink, r)
        self.value = self._max_flow() - p * q

    def _arc(self, u: int, v: int, c: int) -> None:
        for x, y, cy in ((u, v, c), (v, u, 0)):
            self.adj[x].append(len(self.head))
            self.head.append(y)
            self.cap.append(cy)

    def _max_flow(self) -> int:
        """Dinic's algorithm with an explicit path stack."""
        adj, head, cap, s, t = self.adj, self.head, self.cap, self.source, self.sink
        flow = 0
        while True:
            level = [-1] * len(adj)
            level[s] = 0
            queue = [s]
            for u in queue:
                for a in adj[u]:
                    if cap[a] and level[head[a]] < 0:
                        level[head[a]] = level[u] + 1
                        queue.append(head[a])
            if level[t] < 0:
                return flow
            nxt = [0] * len(adj)
            path: list[int] = []
            u = s
            while True:
                if u == t:
                    push = min(cap[a] for a in path)
                    for a in path:
                        cap[a] -= push
                        cap[a ^ 1] += push
                    flow += push
                    path.clear()
                    u = s
                    continue
                arcs, i = adj[u], nxt[u]
                while i < len(arcs) and not (cap[arcs[i]] and level[head[arcs[i]]] == level[u] + 1):
                    i += 1
                nxt[u] = i
                if i < len(arcs):
                    path.append(arcs[i])
                    u = head[arcs[i]]
                elif u == s:
                    break
                else:
                    level[u] = -1  # a dead end for the rest of this phase
                    u = head[path.pop() ^ 1]
                    nxt[u] += 1

    def spread(self, seen: list, start: int, backward: bool = False) -> int:
        """Mark every node that `start` reaches (or, backward, that reaches
        `start`) in the residual network; return how many non-roots were
        newly marked."""
        if seen[start]:
            return 0
        seen[start] = True
        stack, fresh = [start], 0
        while stack:
            u = stack.pop()
            fresh += u < self.q
            for a in self.adj[u]:
                if self.cap[a ^ backward] and not seen[self.head[a]]:
                    seen[self.head[a]] = True
                    stack.append(self.head[a])
        return fresh

    def greatest(self) -> list[int]:
        """The sorted non-roots that cannot reach the sink in the residual network."""
        reaches = [False] * len(self.adj)
        self.spread(reaches, self.sink, backward=True)
        return [v for v in range(self.q) if not reaches[v]]


def is_balanced(f: RootedGraph) -> DensityReport:
    """Exact check of rho_F(S) >= rho(F) over nonempty S of non-roots.

    F is balanced iff min_S (e_S - rho(F)|S|) is 0, which one min-cut settles.
    When unbalanced, Dinkelbach steps (lam <- e_S/|S| of a minimizing S) reach
    the minimum ratio lam*, and the witness is the minimum-ratio subset with
    ties broken by the lexicographically least sorted vertex tuple, so tests
    are deterministic.

    At lam* the minimizers form a lattice whose greatest element U holds every
    minimum-ratio subset.  Forcing vertices of U into the source side keeps
    the flow maximum, so the least minimizer containing a chosen set is its
    closure in the residual network.  The lexicographically least minimizer
    is then the shortest nonempty prefix of sorted(U) that is closed.

    The network is read off the adjacency rows with one root mask: a
    non-root's edges to the roots are only counted (`forced`), and the edges
    between two non-roots are listed (`inner`), so e_S is the forced count
    over S plus the inner edges that meet S.
    """
    non = f.non_roots()
    q = len(non)
    check_balance_budget(q)
    adj, rootm = f.graph.adj, mask_of(f.roots)
    index = {v: i for i, v in enumerate(non)}
    forced = [(adj[v] & rootm).bit_count() for v in non]
    inner = [(i, index[w]) for i, v in enumerate(non)
             for w in bits(adj[v] >> (v + 1) << (v + 1) & ~rootm)]
    lam = target = Fraction(sum(forced) + len(inner), q)  # rho(F): e_S for S = every non-root
    cut = _ClosureNetwork(forced, inner, lam)
    while cut.value < 0:
        seen = [False] * len(cut.adj)
        size = cut.spread(seen, cut.source)
        lam = Fraction(sum(k for k, got in zip(forced, seen) if got)
                       + sum(1 for u, w in inner if seen[u] or seen[w]), size)
        cut = _ClosureNetwork(forced, inner, lam)
    exponent = 2 - 1 / target if target > 0 else None
    if lam == target:
        return DensityReport(target, True, None, exponent)
    order = cut.greatest()
    seen = [False] * len(cut.adj)
    reached, k = cut.spread(seen, cut.source), 0
    # order[:k] is marked, so reached >= k; equality means the prefix is closed
    while k == 0 or reached > k:
        reached += cut.spread(seen, order[k])
        k += 1
    return DensityReport(target, False, tuple(non[i] for i in order[:k]), exponent)
