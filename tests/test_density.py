import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indturan.density import (
    BALANCE_BUDGET,
    DensityReport,
    _CutNetwork,
    edges_incident,
    is_balanced,
    rho,
    rho_subset,
)
from indturan.errors import EmptyQuery, TooLarge
from indturan.families import (
    RootedGraph,
    attach_ktt_rooted,
    height_two_tree,
    leaf_rooted_star,
    parse_descriptor,
    rooted_path,
    rooted_power,
    tree_r11,
)
from indturan.graph import Graph


def naive_min_density(f):
    """Reference: scan every nonempty subset of non-roots with set arithmetic."""
    non = f.non_roots()
    best = None
    best_set = None
    for k in range(1, len(non) + 1):
        for sub in combinations(non, k):
            sset = set(sub)
            e = sum(1 for (u, v) in f.graph.edges if u in sset or v in sset)
            val = Fraction(e, k)
            if best is None or val < best or (val == best and sub < best_set):
                best, best_set = val, sub
    return best, best_set


def enumerate_balance(f):
    """Reference: the definitional 2^q scan of nonempty non-root subsets, with
    edge sets as bitmasks; ties go to the lexicographically least subset."""
    non = f.non_roots()
    q = len(non)
    edge_list = sorted(f.graph.edges)
    inc = []
    for v in non:
        m = 0
        for i, (a, b) in enumerate(edge_list):
            if a == v or b == v:
                m |= 1 << i
        inc.append(m)
    target = rho(f)
    best = None
    best_set = None
    for mask in range(1, 1 << q):
        em = 0
        size = 0
        mm = mask
        while mm:
            low = mm & -mm
            em |= inc[low.bit_length() - 1]
            size += 1
            mm ^= low
        value = Fraction(em.bit_count(), size)
        subset = tuple(non[i] for i in range(q) if mask >> i & 1)
        if best is None or value < best or (value == best and subset < best_set):
            best, best_set = value, subset
    balanced = best >= target
    return DensityReport(target, balanced, None if balanced else best_set,
                         2 - 1 / target if target > 0 else None)


@st.composite
def rooted_pieces(draw):
    """A small piece: k non-roots 0..k-1 and one root k, with random edges."""
    k = draw(st.integers(1, 3))
    pairs = [(u, v) for u in range(k + 1) for v in range(u + 1, k + 1)]
    return k, draw(st.lists(st.sampled_from(pairs), unique=True))


@st.composite
def rooted_graphs(draw, max_q=16):
    """Rooted graphs with 1..max_q non-roots: random, edgeless (every subset
    ties at 0), tie-heavy (relabelled disjoint copies of one or two small
    rooted pieces, so many subsets share the minimum ratio), or attached (a
    random bipartite graph, edgeless or not, with `attach_ktt_rooted`: every
    non-root gains t root edges, which alone can meet its share of rho).
    Roots may be empty, except in the attached style."""
    style = draw(st.sampled_from(["random", "edgeless", "ties", "attached"]))
    if style == "attached":
        n = draw(st.integers(1, max_q))
        side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if side[u] != side[v]]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) \
            if pairs and draw(st.booleans()) else []
        roots = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
        return attach_ktt_rooted(RootedGraph(Graph(n, edges), frozenset(roots)),
                                 draw(st.integers(1, 3)))
    if style == "ties":
        n, edges, roots = 0, [], set()
        for k, piece in draw(st.lists(rooted_pieces(), min_size=1, max_size=2)):
            for _ in range(draw(st.integers(1, 4))):
                edges += [(n + u, n + v) for u, v in piece]
                roots.add(n + k)
                n += k + 1
        if draw(st.booleans()):  # rootless: the roots become non-roots
            n = min(n, max_q)
            edges = [(u, v) for u, v in edges if v < n]
            roots = set()
        while n - len(roots) > max_q:  # drop trailing vertices
            n -= 1
            edges = [(u, v) for u, v in edges if v < n]
            roots.discard(n)
        perm = draw(st.permutations(range(n)))
        edges = [tuple(sorted((perm[u], perm[v]))) for u, v in edges]
        roots = {perm[v] for v in roots}
    else:
        n = draw(st.integers(1, max_q + 4))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [] if style == "edgeless" or not pairs else \
            draw(st.lists(st.sampled_from(pairs), unique=True))
        roots = draw(st.sets(st.integers(0, n - 1), min_size=max(0, n - max_q),
                             max_size=n - 1))
    return RootedGraph(Graph(n, edges), frozenset(roots))


@st.composite
def rooted_graphs_with_cycles(draw, max_q=10):
    """Rooted graphs with 1..max_q non-roots: random edges plus one planted
    cycle through 3..n shuffled vertices, so the inner graph need not be a
    forest."""
    n = draw(st.integers(3, max_q + 3))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = set(draw(st.lists(st.sampled_from(pairs), unique=True)))
    cycle = draw(st.permutations(range(n)))[:draw(st.integers(3, n))]
    edges |= {tuple(sorted(e)) for e in zip(cycle, cycle[1:] + cycle[:1])}
    roots = draw(st.sets(st.integers(0, n - 1), min_size=max(0, n - max_q), max_size=n - 1))
    return RootedGraph(Graph(n, sorted(edges)), frozenset(roots))


class TestCutNetwork:
    @settings(max_examples=150, deadline=None)
    @given(rooted_graphs_with_cycles(), st.fractions(0, 8, max_denominator=7))
    def test_value_and_minimizers_match_enumeration(self, f, lam):
        # at lam = p/r: `value` is min_S (r*e_S - p*|S|) over every S, the
        # empty one included, the source reaches the least minimizer, and
        # `greatest()` is the greatest; the edges are read from the edge
        # list here, not from the rows
        non = f.non_roots()
        index = {v: i for i, v in enumerate(non)}
        forced = [0] * len(non)
        inner = []
        for u, v in sorted(f.graph.edges):
            if u in index and v in index:
                inner.append((index[u], index[v]))
            elif u in index or v in index:
                forced[index[u] if u in index else index[v]] += 1
        cut = _CutNetwork(forced, inner, lam)
        p, r = lam.numerator, lam.denominator
        values = {}
        for mask in range(1 << len(non)):
            e = sum(1 for u, v in inner if mask >> u & 1 or mask >> v & 1)
            e += sum(k for i, k in enumerate(forced) if mask >> i & 1)
            values[mask] = r * e - p * mask.bit_count()
        best = min(values.values())
        least, greatest = (1 << len(non)) - 1, 0
        for mask, value in values.items():
            if value == best:
                least &= mask
                greatest |= mask
        seen = [False] * len(cut.adj)
        cut.spread(seen, cut.source)
        assert cut.value == best
        assert [i for i in range(len(non)) if seen[i]] == [i for i in range(len(non))
                                                          if least >> i & 1]
        assert cut.greatest() == [i for i in range(len(non)) if greatest >> i & 1]


class TestEdgesIncident:
    def test_tree_examples(self):
        f = height_two_tree(3, 1)
        assert edges_incident(f, f.non_roots()) == 6
        assert edges_incident(f, [0]) == 3
        assert edges_incident(f, [1]) == 2

    def test_empty_query(self):
        with pytest.raises(EmptyQuery):
            edges_incident(height_two_tree(1, 1), [])

    def test_plain_graph_accepted(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert edges_incident(g, [1]) == 2


class TestRhoClosedForms:
    def test_height_two_grid(self):
        for r in range(1, 6):
            for t in range(1, 5):
                assert rho(height_two_tree(r, t)) == Fraction(r * t + r, r + 1)

    def test_tr11_family(self):
        for r in range(1, 6):
            assert rho(tree_r11(r)) == Fraction(2 * r + 1, r + 1)

    def test_rooted_paths(self):
        for length in range(2, 7):
            assert rho(rooted_path(length)) == Fraction(length, length - 1)

    def test_leaf_rooted_star(self):
        # single non-root center incident to all t edges
        for t in (1, 2, 5):
            assert rho(leaf_rooted_star(t)) == t

    def test_power_preserves_rho(self):
        for f in (rooted_path(3), height_two_tree(2, 2), tree_r11(2)):
            for l in (2, 3):
                assert rho(rooted_power(f, l)) == rho(f)


class TestBalanced:
    def test_known_balanced(self):
        for f in (height_two_tree(3, 1), tree_r11(2), rooted_path(4)):
            rep = is_balanced(f)
            assert rep.balanced and rep.witness is None

    def test_unbalanced_with_witness(self):
        # an edge plus an isolated vertex, nothing rooted: the isolated vertex
        # undercuts the average
        f = RootedGraph(Graph(3, [(0, 1)]), frozenset())
        rep = is_balanced(f)
        assert not rep.balanced
        assert rep.witness == (2,)
        assert rho_subset(f, rep.witness) < rep.rho

    def test_two_disjoint_edges_one_rooted(self):
        # roots = both endpoints of one edge; the far edge alone has density
        # 2/2 = 1, while a single far endpoint already gives 1/1 -- the true
        # minimum is 1/2 on both far endpoints, so the family is balanced at
        # rho = 1/2 (the subset {one endpoint} has 1 >= 1/2)
        f = RootedGraph(Graph(4, [(0, 1), (2, 3)]), frozenset({0, 1}))
        rep = is_balanced(f)
        assert rep.rho == Fraction(1, 2)
        assert rep.balanced

    def test_witness_is_lexicographically_least_minimum(self):
        # two isolated non-roots: both alone have rho 0; ties break to the
        # lexicographically least subset
        f = RootedGraph(Graph(4, [(0, 1)]), frozenset({0}))
        rep = is_balanced(f)
        assert not rep.balanced
        assert rep.witness == (2,)

    def test_exponent_field(self):
        rep = is_balanced(rooted_path(3))
        assert rep.rho == Fraction(3, 2)
        assert rep.exponent == 2 - Fraction(2, 3)

    def test_exponent_none_when_rho_zero(self):
        f = RootedGraph(Graph(2, []), frozenset({0}))
        rep = is_balanced(f)
        assert rep.rho == 0 and rep.exponent is None

    def test_budget(self):
        f = RootedGraph(Graph(BALANCE_BUDGET + 2, []), frozenset({0}))
        with pytest.raises(TooLarge):
            is_balanced(f)

    def test_against_naive_reference(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randrange(2, 9)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.45]
            g = Graph(n, edges)
            roots = frozenset(rng.sample(range(n), rng.randrange(0, n)))
            f = RootedGraph(g, roots)
            rep = is_balanced(f)
            best, best_set = naive_min_density(f)
            full = rho(f)
            assert rep.rho == full
            assert rep.balanced == (best >= full)
            if not rep.balanced:
                assert rep.witness == best_set
                assert rho_subset(f, rep.witness) == best


    @settings(max_examples=100, deadline=None)
    @given(rooted_graphs())
    def test_matches_enumerator(self, f):
        rep = is_balanced(f)
        ref = enumerate_balance(f)
        assert (rep.rho, rep.balanced, rep.witness, rep.exponent) == \
            (ref.rho, ref.balanced, ref.witness, ref.exponent)
        if len(f.non_roots()) <= 10:
            best, best_set = naive_min_density(f)
            assert rep.balanced == (best >= rep.rho)
            if not rep.balanced:
                assert rep.witness == best_set

    def test_witness_extends_past_forced_vertices(self):
        # vertex 0 needs z = k+1 (together they reach ratio 1) and each of
        # 1..k joins at ratio 1 by its own choice; the lexicographically least
        # minimizer takes every one of them, and h = k+3 lifts rho above 1
        k = 5
        z, r, h = k + 1, k + 2, k + 3
        edges = [(0, z), (0, r)] + [(i, r) for i in range(1, k + 1)] + \
            [(h, r), (h, k + 4), (h, k + 5)]
        f = RootedGraph(Graph(k + 6, edges), frozenset({r, k + 4, k + 5}))
        rep = is_balanced(f)
        assert rep == enumerate_balance(f)
        assert rep.witness == tuple(range(k + 2))

    def test_large_balanced_power(self):
        f = parse_descriptor("power:base=(path:len=4),l=60")
        assert len(f.non_roots()) == 180
        rep = is_balanced(f)
        assert rep.balanced and rep.witness is None and rep.rho == Fraction(4, 3)

    def test_large_unbalanced_power(self):
        f = parse_descriptor("power:base=(Trt:r=2,t=3),l=30")
        assert len(f.non_roots()) == 90
        rep = is_balanced(f)
        assert not rep.balanced and rep.witness == (6,)
        assert rho_subset(f, rep.witness) < rep.rho


class TestReduction:
    def test_rho_plus_one_examples(self):
        for f in (height_two_tree(3, 1), rooted_path(3), tree_r11(2)):
            reduced = attach_ktt_rooted(f, 1)
            assert rho(reduced) == rho(f) + 1
            assert is_balanced(reduced).balanced == is_balanced(f).balanced

    def test_attach_changes_path_rho(self):
        f = rooted_path(2)
        out = attach_ktt_rooted(f, 1)
        assert rho(f) == 2 and rho(out) == 3
