"""Exact rooted density and balancedness.

For a rooted graph F with roots R and a nonempty S of vertices, e_S counts the
edges with at least one endpoint in S and rho_F(S) = e_S / |S|.  The density
rho(F) is rho_F(V \\ R), and F is balanced when no nonempty subset of the
non-roots beats it from below.  Everything is computed with Fraction, never
floats.  Balancedness is decided exactly in polynomial time: the minimum of
e_S - lam*|S| is a minimum cut with one node per non-root (Goldberg's density
cut, 1984), Dinkelbach iteration (1967) finds the minimum ratio, and the
lexicographically least minimizing subset is read off the residual network
of the last cut.  The cut's weights come from the bitset rows: a non-root's
edges to the roots are counted, the edges between two non-roots are listed;
every e_S is counted from the rows by `edges_incident`.  All capacities are
ints, and a hard budget on the number of non-roots still bounds the work.
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


class _CutNetwork:
    """The min-cut network of min_S (r*e_S - p*|S|) over S ⊆ non-roots, for
    lam = p/r, solved: Goldberg's density cut (1984), one node per non-root.

    Node v < q is non-root v; then come the source and the sink.  An inner
    edge meets S when one of its ends is in S, so twice e_S is the sum over v
    in S of 2*forced[v] + deg[v] (deg[v] counting v's inner edges) plus the
    inner edges with exactly one end in S.  With w[v] = r*(2*forced[v] +
    deg[v]) - 2p, a positive w[v] is an arc v -> sink, a negative one an arc
    source -> v of capacity -w[v], and each inner edge is an arc of capacity
    r each way.  A cut whose source side holds S then costs
    2*(r*e_S - p*|S|) plus the sum of the negative weights' magnitudes, so
    `value`, the max-flow less that sum, halved, is min_S (r*e_S - p*|S|).

    The minimizing S are closed under union and intersection: the least is
    what the source reaches in the residual network, the greatest is every
    non-root that cannot reach the sink.
    """

    def __init__(self, forced: list, inner: list, lam: Fraction):
        p, r = lam.numerator, lam.denominator
        q = self.q = len(forced)
        self.source, self.sink = q, q + 1
        self.adj: list[list[int]] = [[] for _ in range(q + 2)]
        self.head: list[int] = []  # arc a runs to head[a]; a ^ 1 is its reverse
        self.cap: list[int] = []   # residual capacities once solved
        weight = [2 * (r * k - p) for k in forced]
        for u, w in inner:
            weight[u] += r
            weight[w] += r
            self._arc(u, w, r, r)
        shift = 0
        for v, c in enumerate(weight):
            if c > 0:
                self._arc(v, self.sink, c)
            elif c < 0:
                self._arc(self.source, v, -c)
                shift -= c
        self.value = (self._max_flow() - shift) // 2

    def _arc(self, u: int, v: int, c: int, back: int = 0) -> None:
        for x, y, cy in ((u, v, c), (v, u, back)):
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
    """
    non = f.non_roots()
    q = len(non)
    check_balance_budget(q)
    adj, rootm = f.graph.adj, mask_of(f.roots)
    index = {v: i for i, v in enumerate(non)}
    forced = [(adj[v] & rootm).bit_count() for v in non]
    inner = [(i, index[w]) for i, v in enumerate(non)
             for w in bits(adj[v] >> (v + 1) << (v + 1) & ~rootm)]
    lam = target = rho(f)
    cut = _CutNetwork(forced, inner, lam)
    while cut.value < 0:
        seen = [False] * len(cut.adj)
        cut.spread(seen, cut.source)
        lam = rho_subset(f, [v for v, got in zip(non, seen) if got])
        cut = _CutNetwork(forced, inner, lam)
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
