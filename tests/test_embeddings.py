import ast
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, islice, permutations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indturan import embeddings
from indturan.embeddings import (
    Thresholds,
    _grow_order,
    _rechecked,
    admissible_tree_copies,
    asymmetric_embed,
    bad_set,
    extract_induced_power,
    extraction_aux,
    greedy_tree_embed,
    hall_disjoint_sets,
    key_lemma_embed,
    rich_s_set,
    tree_bad_sets,
)
from indturan.errors import (
    BadBlowup,
    DisprovesLemma,
    EmptyQuery,
    HypothesisUnmet,
    IndturanError,
    InvalidPartition,
    NoPartition,
    NotSemiInduced,
    TooLarge,
)
from indturan.families import BipartiteTemplate, as_template, rooted_path, theta
from indturan.graph import (
    Graph,
    Host,
    bits,
    common_neighborhood_mask,
    cross_subgraph,
    edge_subgraph,
    first_clique,
)
from indturan.oracles import verify_induced_map
from indturan.regularity import (
    POWER_BUDGET,
    RegularizeReport,
    almost_regular_exponent,
    almost_regular_factor,
    product_pow_le,
    regularize,
)

from helpers import (
    bad_set_reference,
    extraction_aux_reference,
    first_independent_reference,
    first_mono_clique_reference,
    graphs,
    is_k_almost_regular,
    key_lemma_b_choice_reference,
    key_lemma_candidates_reference,
    product_pow_le_reference,
    random_kss_free,
    random_kss_free_bipartite,
    rich_s_set_reference,
    tree_bad_sets_reference,
    verify_induced_map_reference,
)

ROOT = Path(__file__).resolve().parents[1]
REGULARIZE_DIGESTS = json.loads((Path(__file__).parent / "regularize_digests.json")
                                .read_text(encoding="utf-8"))


def k45_host():
    g = Graph(9, [(i, j) for i in range(4) for j in range(4, 9)])
    return Host(g, 2, (tuple(range(4)), tuple(range(4, 9))))


def p3_template():
    return as_template(Graph(3, [(0, 1), (1, 2)]))


class TestSubgraph:
    def test_edge_subset_validated(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            edge_subgraph(g, [(1, 2)])

    def test_cross_subgraph(self):
        host = k45_host()
        l = cross_subgraph(host)
        assert l.m == 20
        g2 = Graph(4, [(0, 1), (0, 2), (2, 3), (1, 3), (0, 3)])
        host2 = Host(g2, 2, ((0, 3), (1, 2)))
        l2 = cross_subgraph(host2)
        assert (0, 3) not in l2.edges and l2.m == 4

    def test_cross_needs_partition(self):
        with pytest.raises(NoPartition):
            cross_subgraph(Host(theta(2, 2), 2))


class TestThresholds:
    def test_validation(self):
        with pytest.raises(ValueError):
            Thresholds(gamma=Fraction(1))
        with pytest.raises(ValueError):
            Thresholds(m_blow=0)
        with pytest.raises(ValueError):
            Thresholds(c3=0)
        assert Thresholds().gamma == Fraction(1, 2)

    def test_every_field_is_read(self):
        # A setting that no procedure reads does nothing, and neither does a
        # report field.  Reads inside the class itself (its own validation)
        # do not count.
        trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
                 for path in sorted((ROOT / "src" / "indturan").glob("*.py"))]
        for cls in (Thresholds, RegularizeReport):
            read = set()
            for tree in trees:
                own = {id(node) for c in ast.walk(tree)
                       if isinstance(c, ast.ClassDef) and c.name == cls.__name__
                       for node in ast.walk(c)}
                read |= {node.attr for node in ast.walk(tree)
                         if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                         and id(node) not in own}
            names = getattr(cls, "_fields", None) or cls.__slots__  # NamedTuple or slots
            unread = [name for name in names if name not in read]
            assert not unread, (cls.__name__, unread)

    def test_source_formulas(self):
        assert almost_regular_exponent(Fraction(1, 2)) == 10
        assert almost_regular_factor(Fraction(1, 2)) == 1024
        assert almost_regular_factor(Fraction(2, 3)) == 2 ** 8
        # fractional exponent rounds up to the next power of two
        assert almost_regular_factor(Fraction(3, 5)) == 2 ** math.ceil(Fraction(26, 3))

    def test_product_pow_le_exact(self):
        # 2^(1/2) <= 7/5 is false (2 > 49/25); 2^(1/2) <= 3/2 is true (2 <= 9/4)
        assert not product_pow_le([(2, Fraction(1, 2))], [(Fraction(7, 5), 1)])
        assert product_pow_le([(2, Fraction(1, 2))], [(Fraction(3, 2), 1)])
        with pytest.raises(ValueError):
            product_pow_le([(-1, 1)], [(2, 1)])

    def test_product_pow_le_zero_base(self):
        # 0^e = 0 under a positive exponent; 0^0 and 0^-1 are refused
        assert product_pow_le([(0, Fraction(1, 2)), (5, 3)], [(Fraction(1, 7), 1)])
        assert not product_pow_le([(Fraction(1, 7), 1)], [(3, 1), (0, Fraction(2, 3))])
        assert product_pow_le([(0, 1)], [(0, Fraction(5, 2))])
        for exponent in (0, -1, Fraction(-1, 2)):
            with pytest.raises(ValueError):
                product_pow_le([(1, 1)], [(0, exponent)])

    def test_product_pow_le_matches_reference(self):
        # the integer cross-product comparison against Fraction products on
        # random bases (zero included) and exponents of either sign; a side
        # against itself is the equality case
        rng = random.Random(43)

        def rational(lo, hi, max_den):
            den = rng.randint(1, max_den)
            return Fraction(rng.randint(lo * den, hi * den), den)

        for _ in range(2000):
            lhs, rhs = ([(rational(0, 20, 9), rational(-3, 3, 6))
                         for _ in range(rng.randint(0, 3))] for _ in range(2))
            try:
                want = product_pow_le_reference(lhs, rhs)
            except ValueError:
                with pytest.raises(ValueError):
                    product_pow_le(lhs, rhs)
                continue
            assert product_pow_le(lhs, rhs) == want
            assert product_pow_le(lhs, lhs) and product_pow_le(rhs, rhs)


class TestBadSet:
    def test_star_center(self):
        g = Graph(6, [(0, i) for i in range(1, 6)])
        assert bad_set(g, [1, 2, 3], Fraction(2, 3)) == {0}

    def test_threshold_is_inclusive(self):
        g = Graph(4, [(0, 1), (0, 2)])
        # vertex 0 has exactly 2 = (2/3)*3 rounded? c*|W| = 2 exactly
        assert bad_set(g, [1, 2, 3], Fraction(2, 3)) == {0}
        assert bad_set(g, [1, 2, 3], Fraction(5, 6)) == set()

    def test_empty_w(self):
        with pytest.raises(EmptyQuery):
            bad_set(Graph(2, []), [], Fraction(1, 2))

    def test_lemma_bound_fuzz(self):
        rng = random.Random(97)
        checked = 0
        for _ in range(60):
            s = rng.choice((2, 3))
            c = Fraction(4, 5) if s == 2 else Fraction(9, 10)
            floor = s * (2 / c) ** s
            n = rng.randrange(int(floor) + 6, int(floor) + 20)
            g = random_kss_free(n, s, rng, keep=0.8)
            w = rng.sample(range(n), int(floor) + 1)
            b = bad_set(g, w, c, s=s)  # raises DisprovesLemma on violation
            assert Fraction(len(b)) < 2 * s / c
            checked += 1
        assert checked == 60

    def test_lemma_check_searches_only_past_the_bound(self, monkeypatch):
        # The K_{s,s} search decides only once |B(W)| >= 2s/c.  Faked to answer
        # "free", it makes that case raise, and below the bound it is not asked.
        calls = []
        monkeypatch.setattr(embeddings, "contains_kss", lambda g, s: calls.append(s))
        k22 = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        with pytest.raises(DisprovesLemma):
            bad_set(k22, [0, 1], 1, s=1)
        assert calls == [1]
        assert bad_set(Graph(4, [(0, 2), (1, 2)]), [0, 1], 1, s=1) == {2}
        assert calls == [1]


class TestRichSet:
    def test_planted(self):
        k44 = Graph(8, [(i, j) for i in range(4) for j in range(4, 8)])
        got = rich_s_set(k44, [0, 1, 2, 3], [4, 5, 6, 7], Fraction(1), 2)
        assert got == (0, 1)

    def test_hypotheses_checked(self):
        g = Graph(4, [(0, 2), (1, 3)])
        with pytest.raises(HypothesisUnmet):
            rich_s_set(g, [0, 1], [2, 3], Fraction(1), 2)  # c|X| < 2s
        with pytest.raises(HypothesisUnmet):
            rich_s_set(g, [0, 1], [2, 3], Fraction(1, 100), 1)  # density fine, but e check
        with pytest.raises(InvalidPartition):
            rich_s_set(g, [0, 1], [1, 3], Fraction(1), 1)

    def test_returned_set_is_rich(self):
        rng = random.Random(55)
        found = 0
        for _ in range(40):
            s = 2
            nx, ny = 20, rng.randrange(4, 8)
            host = random_kss_free_bipartite(nx, ny, s, rng, keep=1.0)
            x, y = host.partition
            c = Fraction(2 * s, nx)
            e = sum(1 for _ in host.graph.edges)
            if Fraction(e) < c * nx * ny:
                continue
            got = rich_s_set(host.graph, x, y, c, s)
            common = [v for v in y
                      if all(host.graph.has_edge(v, u) for u in got)]
            assert Fraction(len(common)) >= (c / 2) ** s * ny
            found += 1
        assert found >= 20  # the hypotheses actually fire on most instances


class TestRegularize:
    def test_regular_graph_returned_whole(self):
        g = Graph(8, [(i, (i + 1) % 8) for i in range(8)]
                  + [(i, (i + 2) % 8) for i in range(8)])
        sub, idx, k, report = regularize(g, Fraction(1, 2), Fraction(1, 4))
        assert sub.n == 8 and report.edge_guarantee and report.size_guarantee
        assert k == 1024

    def test_post_almost_regular(self):
        rng = random.Random(21)
        for _ in range(15):
            n = rng.randrange(6, 14)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < 0.5])
            if g.m == 0:
                continue
            alpha = Fraction(1, 2)
            c = Fraction(1, 10)
            try:
                sub, idx, k, report = regularize(g, alpha, c)
            except HypothesisUnmet:
                continue
            assert is_k_almost_regular(sub, k)
            assert report.m == sub.n and report.e == sub.m

    def test_min_degree_cleaning(self):
        # star plus a dense clique: the star leaves must fall away
        clique = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        pendant = [(0, i) for i in range(5, 9)]
        g = Graph(9, clique + pendant)
        sub, idx, k, report = regularize(g, Fraction(1, 2), Fraction(1, 4))
        assert is_k_almost_regular(sub, k)
        assert report.edge_guarantee

    def test_hypothesis_gate(self):
        with pytest.raises(HypothesisUnmet):
            regularize(Graph(9, [(0, 1)]), Fraction(1, 2), Fraction(1))

    def test_power_budget(self):
        # the bits are counted before any power is built: 1^k costs nothing,
        # so the boundary is cheap to test exactly (2 bits per unit of k)
        assert product_pow_le([(1, POWER_BUDGET // 2)], [])
        with pytest.raises(TooLarge):
            product_pow_le([(1, POWER_BUDGET // 2 + 1)], [])
        # on the 8-cycle with C = 1/4, alpha = 501/1000 is admitted and
        # 3999/8000 (about 5.9e9 bits; seconds and near a gigabyte without
        # the budget) is refused
        cycle = Graph(8, [(i, (i + 1) % 8) for i in range(8)])
        assert regularize(cycle, Fraction(501, 1000), Fraction(1, 4))[3].size_guarantee
        with pytest.raises(TooLarge):
            regularize(cycle, Fraction(3999, 8000), Fraction(1, 4))

    @pytest.mark.parametrize("name", sorted(REGULARIZE_DIGESTS))
    def test_pinned_outputs(self, name):
        # recorded before candidates became vertex masks; the cases take the
        # drop, both bisection halves and the fall-back at one vertex
        case = REGULARIZE_DIGESTS[name]
        assert regularize_digest(case["seed"], case["cases"]) == case["sha256"]


def _hub_graph(rng) -> Graph:
    """Vertex 0 joined to all of 80-120 vertices, plus a random part on a
    prefix and sparse edges out of it: too irregular to keep whole, so
    `regularize` bisects."""
    n = rng.randrange(80, 121)
    core = rng.randrange(2, n // 2)
    p_in, p_cross = rng.random(), rng.random() / 8
    return Graph(n, [(0, v) for v in range(1, n)]
                 + [(u, v) for u in range(1, n) for v in range(u + 1, n)
                    if rng.random() < (p_in if v < core else p_cross if u < core else 0)])


def _sparse_top_half(rng, d_t: int, b: int, k: int) -> Graph:
    """A graph on 2k vertices whose top half by degree, T = 0..k-1, induces a
    sparse d_t-regular graph, so `regularize` takes T and then bisects T.

    Vertex 0 is joined to all of B = k..2k-1; every other vertex of T has
    b - 1 neighbours in B (distinct shifts mod k), so B has degrees b - 1
    and b and T comes first.  For d_t = 1, T is a perfect matching across
    its two id halves, whose halves are then edgeless down to one vertex.
    For d_t = 2 (k odd), T is a cycle through the middle vertex j whose two
    neighbours both lie above j, so T's bottom half has one edge more."""
    edges = [(0, v) for v in range(k, 2 * k)]
    for shift in rng.sample(range(k), b - 1):
        edges += [(i, k + (i + shift) % k) for i in range(1, k)]
    if d_t == 1:
        low, high = list(range(k // 2)), list(range(k // 2, k))
        rng.shuffle(high)
        edges += list(zip(low, high))
    else:
        j = k // 2
        cycle = [v for v in range(k) if v != j]
        rng.shuffle(cycle)
        at = next(i for i in range(len(cycle)) if min(cycle[i - 1], cycle[i]) > j)
        cycle.insert(at, j)
        edges += [(cycle[i - 1], cycle[i]) for i in range(k)]
    return Graph(2 * k, edges)


def regularize_cases(seed: int, count: int):
    """Seeded (graph, alpha, C) cases for `regularize`: small random graphs
    with a denser part (minimum-degree drops, the hypothesis gate, the empty
    graph), hub graphs (bisection to the top half), and, at two places in
    every 150, a graph with a sparse regular top half (bisection to the
    bottom half, and the fall-back at one vertex)."""
    rng = random.Random(seed)
    alpha = Fraction(19, 20)
    for i in range(count):
        if i % 150 in (7, 82):
            d_t = 1 if i % 150 == 7 else 2
            b = rng.choice((8, 9) if d_t == 1 else (16, 17))
            # vertex 0, of degree k + d_t, exceeds K = 2^(4/alpha + 2) times b - 1
            k = math.ceil(2 ** (4 / alpha + 2) * (b - 1)) + rng.randrange(20)
            k += (k + d_t + 1) % 2  # even for the matching, odd for the cycle
            g = _sparse_top_half(rng, d_t, b, k)
            # C between the sparse-half bound and the hypothesis bound
            c = (2 * d_t * k ** -alpha + g.m / (2 * k) ** (1 + alpha)) / 2
            yield g, alpha, Fraction(c).limit_denominator(10 ** 6)
        elif i % 3 == 0:
            yield _hub_graph(rng), rng.choice((Fraction(9, 10), alpha)), \
                rng.choice((Fraction(1, 200), Fraction(1, 100), Fraction(1, 50), Fraction(1, 20)))
        else:
            n = rng.randrange(17)
            core = rng.randrange(n + 1)
            p_in, p_out = rng.random(), rng.random() ** 2
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < (p_in if v < core else p_out)])
            yield g, rng.choice((Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
                                 Fraction(9, 10))), \
                rng.choice((Fraction(1, 100), Fraction(1, 10), Fraction(1, 4), Fraction(1), Fraction(3)))


def regularize_digest(seed: int, count: int) -> str:
    """sha256 over one JSON line per case: the subgraph's edges, the ids, K
    and the report, or the exception's type and message."""
    digest = hashlib.sha256()
    for g, alpha, c in regularize_cases(seed, count):
        try:
            sub, idx, k, report = regularize(g, alpha, c)
            out = [sub.n, sub.edge_list(), list(idx), str(k), report.m, report.e,
                   str(report.k_log2), report.edge_guarantee, report.size_guarantee]
        except (IndturanError, ValueError) as exc:
            out = [type(exc).__name__, str(exc)]
        digest.update(json.dumps(out).encode("utf-8") + b"\n")
    return digest.hexdigest()


def naive_good_copies(g, l, t, d):
    """Reference enumeration straight from the definition."""
    tn = t.n
    thresh = Fraction(d, 4 * tn)
    lverts = range(l.n)
    bad = {}
    for x in lverts:
        nl = set(l.neighbors(x))
        bad[x] = {y for y in lverts
                  if Fraction(sum(1 for w in nl if g.has_edge(y, w))) >= thresh}
    out = set()
    for perm in permutations(lverts, tn):
        ok = True
        for u in range(tn):
            for v in range(u + 1, tn):
                if t.has_edge(u, v):
                    if not ((perm[u], perm[v]) in l.edges
                            or (perm[v], perm[u]) in l.edges):
                        ok = False
                elif g.has_edge(perm[u], perm[v]):
                    ok = False
                if ok and t.has_edge(u, v) and not g.has_edge(perm[u], perm[v]):
                    ok = False
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            continue
        if any(perm[j] in bad[perm[i]] for i in range(tn) for j in range(tn) if i != j):
            continue
        out.add(perm)
    return out


# the search's first copy has its second image repeated, so it is not
# injective; the re-check of the stream must catch it
OPTIMIZED_RECHECK = """
import indturan.embeddings as emb
from indturan.errors import DisprovesLemma
from indturan.families import theta
from indturan.graph import Graph, Host

search = emb._tree_copies
emb._tree_copies = lambda *args: ((vm[0], vm[1], vm[1]) for vm in search(*args))
g = theta(3, 2)
try:
    next(emb.greedy_tree_embed(Host(g, 2), g, Graph(3, [(0, 1), (1, 2)]), 24))
except DisprovesLemma:
    print("raised")
"""

OPTIMIZED_POWER_RECHECK = """
import indturan.embeddings as emb
from indturan.errors import DisprovesLemma
from indturan.families import rooted_path, theta

f = rooted_path(3)
copies = [(0, 2 + 2 * i, 3 + 2 * i, 1) for i in range(5)]
check = emb.verify_induced_map
# each copy still passes; only the assembled power fails its re-check
emb.verify_induced_map = lambda g, h, vm: h is f.graph and check(g, h, vm)
try:
    emb.extract_induced_power(theta(3, 5), copies, f, 3, 2)
except DisprovesLemma:
    print("raised")
"""

# The extracted map follows `rooted_power`'s numbering; a power numbered
# otherwise (here vertices 0 and 2 swapped: a root and copy 0's first
# non-root) must fail the re-check, which therefore guards the numbering.
RELABELLED_POWER = """
import indturan.embeddings as emb
from indturan.errors import DisprovesLemma
from indturan.families import RootedGraph, rooted_path, theta
from indturan.graph import Graph

power = emb.rooted_power


def swapped(f, l):
    p = power(f, l)
    name = list(range(p.graph.n))
    name[0], name[2] = 2, 0
    return RootedGraph(Graph(p.graph.n, [(name[u], name[v]) for u, v in p.graph.edges]),
                       {name[v] for v in p.roots})


emb.rooted_power = swapped
copies = [(0, 2 + 2 * i, 3 + 2 * i, 1) for i in range(5)]
try:
    emb.extract_induced_power(theta(3, 5), copies, rooted_path(3), 3, 2)
except DisprovesLemma:
    print("raised")
"""


# l holds 0-1 and 0-2 and the host only HOST_EDGE, past greedy_tree_embed's
# check that l lies in the host; the re-check is fed the batch that the search
# lists for the prefix 0 (the leaf at 1, then at 2), and the copy off the host
# is its first or its second copy, re-checked from position 0 or at the leaf.
LEAF_RECHECK = """
from indturan.embeddings import _rechecked
from indturan.errors import DisprovesLemma
from indturan.graph import Graph

copies = _rechecked(Graph(3, [HOST_EDGE]), Graph(3, [(0, 1), (0, 2)]), Graph(2, [(0, 1)]), [0, 1],
                    [(0, 1), (0, 2)])
emitted = []
try:
    for vm in copies:
        emitted.append(vm)
except DisprovesLemma:
    print("raised" if emitted == EMITTED else emitted)
"""


def raises_under_optimize(script: str) -> None:
    # `python -O` strips asserts; the re-check of every emitted object must
    # still run there and raise DisprovesLemma.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-O", "-c", script],
                         capture_output=True, text=True, env=env, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"


@st.composite
def tree_embed_cases(draw):
    """A K_{s,s}-free host on 1 to 8 vertices, L a random part of its edges, a
    tree on 1 to 5 vertices (each vertex hung from an earlier one, then the
    ids shuffled) and d, small enough that some bad sets are not empty."""
    s = draw(st.integers(2, 3))
    g = random_kss_free(draw(st.integers(1, 8)), s, draw(st.randoms(use_true_random=False)),
                        keep=draw(st.sampled_from([0.5, 0.8, 1.0])))
    edges = sorted(g.edges)
    kept = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    l = edge_subgraph(g, [e for e, k in zip(edges, kept) if k])
    k = draw(st.integers(1, 5))
    label = draw(st.permutations(range(k)))
    t = Graph(k, [(label[v], label[draw(st.integers(0, v - 1))]) for v in range(1, k)])
    return Host(g, s), l, t, draw(st.integers(0, 40))


@st.composite
def planted_tree_cases(draw):
    """A host on 1 to 8 vertices with a good copy of a tree on 1 to 5 vertices
    planted in it: among the copy's images the host has the tree's edges and
    no other pair, L holds those edges and a random part of the rest, and d
    exceeds 4|V(t)| times every count that could put one image in another's
    bad set."""
    k = draw(st.integers(1, 5))
    label = draw(st.permutations(range(k)))
    t = Graph(k, [(label[v], label[draw(st.integers(0, v - 1))]) for v in range(1, k)])
    n = draw(st.integers(k, 8))
    img = draw(st.permutations(range(n)))[:k]
    planted = {tuple(sorted((img[u], img[v]))) for u, v in t.edge_list()}
    pairs = [(u, v) for u, v in combinations(range(n), 2) if u not in img or v not in img]
    kept = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(n, [e for e, keep in zip(pairs, kept) if keep] + sorted(planted))
    edges = g.edge_list()
    in_l = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    l = edge_subgraph(g, [e for e, keep in zip(edges, in_l) if keep or e in planted])
    most = max(((g.adj[y] & l.adj[x]).bit_count() for x in img for y in img if x != y),
               default=0)
    return Host(g, 2), l, t, 4 * k * most + 1 + draw(st.integers(0, 40))


class TestGreedyTreeEmbed:
    def test_failed_recheck_raises_under_optimize(self):
        raises_under_optimize(OPTIMIZED_RECHECK)

    @settings(max_examples=150, deadline=None)
    @given(tree_embed_cases())
    def test_matches_reference_in_order(self, case):
        # every good copy, each once, in increasing order of its images
        # listed in grow order
        host, l, t, d = case
        copies = list(greedy_tree_embed(host, l, t, d))
        assert set(copies) == naive_good_copies(host.graph, l, t, d)
        order = _grow_order(t)
        keys = [tuple(vm[v] for v in order) for vm in copies]
        assert keys == sorted(set(keys))

    def test_c6_p3_matches_reference(self):
        g = theta(3, 2)
        host = Host(g, 2)
        l = g
        p3 = Graph(3, [(0, 1), (1, 2)])
        for d in (2, 24):
            got = set(greedy_tree_embed(host, l, p3, d))
            assert got == naive_good_copies(g, l, p3, d)
        assert len(set(greedy_tree_embed(host, l, p3, 2))) == 0
        assert len(set(greedy_tree_embed(host, l, p3, 24))) == 12

    def test_planted_k23_fixture(self):
        g = theta(2, 3)  # K_{2,3}
        host = Host(g, 2)
        l = g
        p3 = Graph(3, [(0, 1), (1, 2)])
        for d in (6, 48):
            got = set(greedy_tree_embed(host, l, p3, d))
            assert got == naive_good_copies(g, l, p3, d)

    def test_planted_partial_l_fixture(self):
        # circulant host, L restricted to the outer cycle: copies must use
        # L-edges but inducedness is judged in the full host
        g = Graph(8, [(i, (i + 1) % 8) for i in range(8)]
                  + [(i, (i + 2) % 8) for i in range(8)])
        host = Host(g, 2)
        l = edge_subgraph(g, [(i, (i + 1) % 8) for i in range(8)])
        p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
        for d in (16, 64):
            got = set(greedy_tree_embed(host, l, p4, d))
            assert got == naive_good_copies(g, l, p4, d)

    def test_single_vertex_tree(self):
        g = theta(2, 2)
        got = set(greedy_tree_embed(Host(g, 2), g, Graph(1, []), 4))
        assert got == {(v,) for v in range(4)}

    def test_rejects_non_tree(self):
        g = theta(2, 2)
        with pytest.raises(ValueError):
            list(greedy_tree_embed(Host(g, 2), g, theta(2, 2), 4))

    @pytest.mark.parametrize("host_edge, emitted", [((0, 2), []), ((0, 1), [(0, 1)])])
    def test_corrupt_leaf_raises(self, capsys, host_edge, emitted):
        # the bad copy first in its batch fails the full re-check, a later
        # one its leaf row; both here and under python -O
        script = LEAF_RECHECK.replace("HOST_EDGE", repr(host_edge)).replace("EMITTED", repr(emitted))
        exec(script, {})
        assert capsys.readouterr().out.strip() == "raised"
        raises_under_optimize(script)

    def test_one_vertex_leaf_row_in_range(self):
        # a one-vertex tree is one batch: l's vertex 2 is past the host's end
        copies = _rechecked(Graph(2, []), Graph(3, []), Graph(1, []), [0], [(0,), (1,), (2,)])
        assert list(islice(copies, 2)) == [(0,), (1,)]
        with pytest.raises(DisprovesLemma):
            next(copies)

    def test_emitted_maps_reverify(self):
        g = theta(3, 3)
        host = Host(g, 2)
        l = g
        p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
        for vm in greedy_tree_embed(host, l, p4, 30):
            assert verify_induced_map_reference(g, p4, vm)

    @settings(max_examples=300, deadline=None)
    @given(planted_tree_cases(), st.data())
    def test_recheck_matches_pairwise_reference(self, case, data):
        # one image of one copy changed, the copy first or later in its batch:
        # the copies before it come out, and it raises exactly when the
        # pairwise definition (induced in the host, tree edges in l) fails
        host, l, t, d = case
        g, order = host.graph, _grow_order(t)
        copies = list(greedy_tree_embed(host, l, t, d))
        j = data.draw(st.integers(0, len(copies) - 1))
        v = data.draw(st.integers(0, t.n - 1))
        copy = copies[j]
        # mostly a near miss: another image, or a host neighbour of the image
        # of one of v's tree neighbours; else any id from -1 to g.n
        near = sorted(({w for p in bits(t.adj[v]) for w in bits(g.adj[copy[p]])}
                       | set(copy)) - {copy[v]})
        other = st.sampled_from([w for w in range(-1, g.n + 1) if w != copy[v]])
        x = data.draw(st.one_of(st.sampled_from(near), other) if near else other)
        bad = copy[:v] + (x,) + copy[v + 1:]
        good = verify_induced_map_reference(g, t, bad) and all(
            l.has_edge(bad[a], bad[b]) for a, b in t.edge_list())
        emitted = []
        try:
            for vm in _rechecked(g, l, t, order, copies[:j] + [bad]):
                emitted.append(vm)
        except DisprovesLemma:
            assert not good
            assert emitted == copies[:j]
        else:
            assert good
            assert emitted == copies[:j] + [bad]

    def test_admissible_filter(self):
        g = theta(2, 3)  # K_{2,3}: vertices 0,1 on one side
        host = Host(g, 2)
        l = g
        p3 = Graph(3, [(0, 1), (1, 2)])
        all_copies = list(greedy_tree_embed(host, l, p3, 1000))
        # a 2-star's leaves share the far side of K_{2,3}: {2,3,4} for the
        # leaves 0, 1 and {0,1} for two leaves on the 3-side
        def heavy(vm, threshold):
            return any(common_neighborhood_mask(l.adj, pair).bit_count() >= threshold
                       for v in range(3)
                       for pair in combinations(sorted(vm[w] for w in p3.neighbors(v)), 2))

        kept = {}
        for threshold in (1, 3, 4):
            kept[threshold] = list(admissible_tree_copies(l, p3, iter(all_copies), 2, threshold))
            # the filter keeps exactly the copies without a heavy 2-star, in order
            assert kept[threshold] == [vm for vm in all_copies if not heavy(vm, threshold)]
        assert kept[1] == [] and kept[4] == all_copies
        assert all(vm[1] in (0, 1) for vm in kept[3]) and len(kept[3]) == 12

    def test_admissible_filter_each_star_size(self):
        # claws on K_{3,4} (sides 0..2 and 3..6), with L missing two edges so
        # that common L-neighbourhoods differ in size; 0 leaves make every
        # copy heavy exactly when l.n reaches the threshold
        g = Graph(7, [(u, w) for u in range(3) for w in range(3, 7)])
        l = edge_subgraph(g, [e for e in g.edge_list() if e not in ((0, 3), (1, 6))])
        t = Graph(4, [(0, 1), (0, 2), (0, 3)])
        all_copies = list(greedy_tree_embed(Host(g, 2), l, t, 1000))
        assert len(all_copies) == 48

        def heavy(vm, k, threshold):
            return any(common_neighborhood_mask(l.adj, leaves).bit_count() >= threshold
                       for v in range(t.n)
                       for leaves in combinations(sorted(vm[w] for w in t.neighbors(v)), k))

        for k in (0, 1, 2, 3):
            sizes = set()
            for threshold in range(0, 9):
                kept = list(admissible_tree_copies(l, t, iter(all_copies), k, threshold))
                assert kept == [vm for vm in all_copies if not heavy(vm, k, threshold)]
                sizes.add(len(kept))
            assert len(sizes) > 1  # the threshold matters at every star size

    @pytest.mark.parametrize("copy", [(0, 1, 2), (0, 1, -1), (0, 1), (0, 1, 0, 1)])
    def test_admissible_rejects_a_copy_outside_l(self, copy):
        # a vertex id outside 0..l.n-1, or a length other than t.n, is bad
        # input, not an IndexError or a wrong lookup from the end of a row
        p3 = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            list(admissible_tree_copies(Graph(2, []), p3, [copy], 2, 1))


# L or M must be a spanning subgraph of the host graph: on more vertices, on
# fewer, or with an edge the host lacks, each procedure raises ValueError.
P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
NOT_SPANNING_P4 = [Graph(6, [(0, 1)]), Graph(3, [(0, 1)]), Graph(4, [(0, 2)])]
# the host K_{4,5} minus the cross pair 0-4; M has no edge inside a side
K45_LESS_04 = Host(Graph(9, [(i, j) for i in range(4) for j in range(4, 9) if (i, j) != (0, 4)]),
                   2, (tuple(range(4)), tuple(range(4, 9))))
NOT_SPANNING_K45 = [Graph(12, [(0, 4)]), Graph(7, [(0, 4)]), Graph(9, [(0, 4), (1, 4)])]


class TestSpanningSubgraph:
    @pytest.mark.parametrize("l", NOT_SPANNING_P4)
    def test_tree(self, l):
        with pytest.raises(ValueError, match="host graph"):
            greedy_tree_embed(Host(P4, 2), l, Graph(2, [(0, 1)]), 100)

    @pytest.mark.parametrize("l", NOT_SPANNING_K45)
    def test_key_lemma(self, l):
        with pytest.raises(ValueError, match="host graph"):
            key_lemma_embed(K45_LESS_04, l, p3_template(), {0: (1,), 2: (2,)},
                            lambda ss: True, Thresholds())

    @pytest.mark.parametrize("m", NOT_SPANNING_K45)
    def test_asym(self, m):
        with pytest.raises(ValueError, match="host graph"):
            asymmetric_embed(K45_LESS_04, m, p3_template(), Thresholds())

    def test_asym_counts_vertices_before_crossing(self):
        # 9-10 joins two vertices the host lacks: the vertex count is named,
        # as for 0-10, not the partition
        for m in (Graph(12, [(9, 10)]), Graph(12, [(0, 10)])):
            with pytest.raises(ValueError, match="M has 12 vertices, the host graph 9"):
                asymmetric_embed(K45_LESS_04, m, p3_template(), Thresholds())

    def test_asym_names_least_edge_inside_a_side(self):
        m = Graph(9, [(5, 6), (2, 3), (1, 3), (0, 5)])
        with pytest.raises(InvalidPartition, match=r"M edge \(1, 3\) does not cross"):
            asymmetric_embed(K45_LESS_04, m, p3_template(), Thresholds())

    def test_key_lemma_names_least_l_edge_inside_a_side(self):
        # an L edge inside X would let Gamma(e) reach into X; it is named as
        # an M edge is, before any copy is placed
        host = Host(Graph(4, [(0, 1), (0, 3)]), 2, ((0, 1, 2), (3,)))
        k2 = BipartiteTemplate(Graph(2, [(0, 1)]), ((0,), (1,)))
        with pytest.raises(InvalidPartition, match=r"l edge \(0, 1\) does not cross"):
            key_lemma_embed(host, host.graph, k2, {0: (0,)}, lambda ss: True,
                            Thresholds(c_hs=1, m_blow=1))

    def test_spanning_subgraphs_pass(self):
        # the same hosts with a spanning L or M run as before
        host = K45_LESS_04
        m = cross_subgraph(host)
        assert list(greedy_tree_embed(Host(P4, 2), edge_subgraph(P4, [(1, 2)]),
                                      Graph(2, [(0, 1)]), 100)) == [(1, 2), (2, 1)]
        assert key_lemma_embed(host, m, p3_template(), {0: (1,), 2: (2,)},
                               lambda ss: True, Thresholds()).found
        asymmetric_embed(host, m, p3_template(), Thresholds())


def naive_hall(sets, t):
    """Reference via exhaustive assignment on small ground sets."""
    ground = sorted(set().union(*[set(s) for s in sets]))
    slots = [i for i, s in enumerate(sets) for _ in range(t)]

    def rec(i, used):
        if i == len(slots):
            return True
        for w in sets[slots[i]]:
            if w not in used:
                if rec(i + 1, used | {w}):
                    return True
        return False

    return rec(0, frozenset())


class TestHall:
    def test_planted(self):
        assert hall_disjoint_sets([[0, 1, 2], [1, 2, 3], [2, 3, 4]], 1) is not None
        got = hall_disjoint_sets([[0, 1, 2, 3], [2, 3, 4, 5]], 2)
        assert got is not None
        assert not set(got[0]) & set(got[1])
        assert set(got[0]) <= {0, 1, 2, 3} and set(got[1]) <= {2, 3, 4, 5}

    def test_impossible(self):
        assert hall_disjoint_sets([[0], [0]], 1) is None
        assert hall_disjoint_sets([[0, 1], [0, 1], [0, 1]], 1) is None

    def test_against_reference(self):
        rng = random.Random(19)
        for _ in range(80):
            q = rng.randrange(1, 4)
            t = rng.randrange(1, 3)
            sets = [rng.sample(range(6), rng.randrange(1, 5)) for _ in range(q)]
            got = hall_disjoint_sets(sets, t)
            assert (got is not None) == naive_hall(sets, t)
            if got is not None:
                seen = set()
                for i, u in enumerate(got):
                    assert len(u) == t and set(u) <= set(sets[i])
                    assert not set(u) & seen
                    seen |= set(u)

    def test_long_augmenting_chain(self):
        # Each new slot's augmenting path walks back along the whole chain;
        # 1,000 sets is deeper than the default recursion limit.
        sets = [[0]] + [[i - 1, i] for i in range(1, 1000)]
        got = hall_disjoint_sets(sets, 1)
        assert got is not None
        seen = set()
        for i, u in enumerate(got):
            assert len(u) == 1 and set(u) <= set(sets[i])
            assert not set(u) & seen
            seen |= set(u)


class TestKeyLemma:
    def test_planted_success(self):
        host = k45_host()
        l = cross_subgraph(host)
        th = Thresholds(c_hs=3, m_blow=2)
        out = key_lemma_embed(host, l, p3_template(), {0: (0, 1), 2: (2, 3)},
                              lambda ss: len(ss) == 2, th, seed=0)
        assert out.found
        vm = out.mapping
        assert vm[0] in {0, 1} and vm[2] in {2, 3} and vm[1] >= 4

    def test_missing_blowup_edge(self):
        host = k45_host()
        l = cross_subgraph(host)
        th = Thresholds(c_hs=3, m_blow=2)
        rich = {frozenset(p) for p in ((0, 2), (0, 3), (1, 2))}.__contains__  # (1,3) missing
        with pytest.raises(BadBlowup):
            key_lemma_embed(host, l, p3_template(), {0: (0, 1), 2: (2, 3)},
                            rich, th)

    def test_bad_parts(self):
        host = k45_host()
        l = cross_subgraph(host)
        th = Thresholds(c_hs=3, m_blow=2)
        with pytest.raises(BadBlowup):
            key_lemma_embed(host, l, p3_template(), {0: (0, 1), 2: (1, 2)},
                            lambda ss: True, th)  # overlapping parts
        with pytest.raises(BadBlowup):
            key_lemma_embed(host, l, p3_template(), {0: (0, 1), 2: (2, 8)},
                            lambda ss: True, th)  # part leaves X

    def test_independence_failure_reported(self):
        # X-side vertices adjacent inside X: no independent phi exists
        edges = [(i, j) for i in range(4) for j in range(4, 9)]
        edges += [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        g = Graph(9, edges)
        host = Host(g, 2, (tuple(range(4)), tuple(range(4, 9))))
        l = cross_subgraph(host)
        th = Thresholds(c_hs=3, m_blow=2)
        out = key_lemma_embed(host, l, p3_template(), {0: (0, 1), 2: (2, 3)},
                              lambda ss: True, th, seed=1)
        assert not out.found
        assert all(e["stage"] == "independence" for e in out.trace)

    def test_determinism(self):
        host = k45_host()
        l = cross_subgraph(host)
        th = Thresholds(c_hs=3, m_blow=2)
        args = (host, l, p3_template(), {0: (0, 1), 2: (2, 3)},
                lambda ss: len(ss) == 2, th)
        a = key_lemma_embed(*args, seed=5)
        b = key_lemma_embed(*args, seed=5)
        assert a.mapping == b.mapping and a.trace == b.trace

    def test_empty_b_side(self):
        # no B vertex, so no Hall sets: the A placement alone is the copy
        host = k45_host()
        template = as_template(Graph(2, []))
        assert template.b_side == ()
        out = key_lemma_embed(host, cross_subgraph(host), template, {0: (0, 1), 1: (2, 3)},
                              lambda ss: True, Thresholds(c_hs=3, m_blow=2), seed=0)
        assert out.found and out.trace[-1]["stage"] == "success"
        assert out.mapping == tuple(out.trace[-1]["phi"])

    def test_b_side_is_first_compatible_choice(self):
        # C4 template, A = {0, 1} on X = {0, 1}; both B vertices have the Hall
        # sets' common pool Y, and c_hs = 16 gives sets of 2.  Y's edges rule
        # out the first product-order pair, so B takes the next one.
        g = Graph(6, [(x, y) for x in range(2) for y in range(2, 6)] + [(2, 4), (2, 5)])
        host = Host(g, 2, ((0, 1), (2, 3, 4, 5)))
        out = key_lemma_embed(host, cross_subgraph(host), as_template(theta(2, 2)),
                              {0: (0,), 1: (1,)}, lambda ss: True,
                              Thresholds(c_hs=16, m_blow=1), seed=0)
        assert out.found and out.mapping == (0, 1, 4, 3)

    def test_placement_stage(self):
        # C4 on K_{2,2} with X = (0, 1), Y = (2, 3): the Hall sets are (3,)
        # for B vertex 1 and (2,) for 3, so the Y edge 2-3 leaves no copy
        c4 = BipartiteTemplate(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), ((0, 2), (1, 3)))
        cross = [(x, y) for x in (0, 1) for y in (2, 3)]
        for inner, stage, mapping in (([(2, 3)], "placement", None),
                                      ([], "success", (0, 3, 1, 2))):
            host = Host(Graph(4, cross + inner), 2, ((0, 1), (2, 3)))
            out = key_lemma_embed(host, cross_subgraph(host), c4, {0: (0,), 2: (1,)},
                                  lambda ss: True, Thresholds(c_hs=1))
            assert out.trace == [{"phi": [0, 1], "stage": stage}]
            assert out.mapping == mapping

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_b_side_matches_the_clique_reference(self, data):
        # Each placement that gets Hall sets of t = 1 to 3 vertices ends at
        # "placement" exactly when the compatibility-clique reference finds
        # no B choice, and a found copy takes the reference's B images.
        k, m, t = (data.draw(st.integers(1, 3)) for _ in range(3))
        a_side, b_side = tuple(range(k)), tuple(range(k, k + data.draw(st.integers(1, 3))))
        template = BipartiteTemplate(Graph(k + len(b_side), [
            (a, b) for b in b_side for a in data.draw(st.one_of(
                st.just(a_side), st.sets(st.sampled_from(a_side), min_size=1)))]),
            (a_side, b_side))
        nx, ny = k * m + data.draw(st.integers(0, 2)), data.draw(st.integers(2, 10))
        xs, ys = range(nx), range(nx, nx + ny)

        def some(pairs, weights):  # each pair kept with the share of True in weights
            keep = data.draw(st.lists(st.sampled_from(weights), min_size=len(pairs),
                                      max_size=len(pairs)))
            return [e for e, kept in zip(pairs, keep) if kept]

        host = Host(Graph(nx + ny, some(list(combinations(xs, 2)), [True] + [False] * 4)
                          + some([(x, y) for x in xs for y in ys], [True, True, False])
                          + some(list(combinations(ys, 2)), [True, False])),
                    2, (tuple(xs), tuple(ys)))
        xs = data.draw(st.permutations(xs))
        parts = {a: tuple(xs[a * m:(a + 1) * m]) for a in a_side}
        hall, found = embeddings.hall_disjoint_sets, []

        def spy(sets, size):
            found.append(hall(sets, size))
            return found[-1]

        with mock.patch.object(embeddings, "hall_disjoint_sets", spy):
            out = key_lemma_embed(host, cross_subgraph(host), template, parts, lambda ss: True,
                                  Thresholds(c_hs=2 * template.graph.n * t, m_blow=m),
                                  seed=data.draw(st.integers(0, 9)))
        reached = [e for e in out.trace if e["stage"] in ("placement", "success")]
        u_sets = [u for u in found if u is not None]
        assert len(reached) == len(u_sets)
        for entry, u in zip(reached, u_sets):
            want = key_lemma_b_choice_reference(host.graph, u)
            if entry["stage"] == "placement":
                assert want is None
            else:
                assert out.mapping == tuple(entry["phi"]) + tuple(want)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_placement_with_edges_inside_y(self, data):
        # Hall sets of 2 or 3 inside a Y with its own edges, and X joined to
        # Y but for a few pairs: a found copy takes one B image per set,
        # pairwise non-adjacent (a wrong placement raises DisprovesLemma)
        nx, ny = data.draw(st.integers(4, 6)), data.draw(st.integers(4, 10))
        cross = [(x, y) for x in range(nx) for y in range(nx, nx + ny)]
        missing = data.draw(st.sets(st.sampled_from(cross), max_size=6))
        inner = list(combinations(range(nx, nx + ny), 2))
        keep = data.draw(st.lists(st.booleans(), min_size=len(inner), max_size=len(inner)))
        g = Graph(nx + ny, [e for e in cross if e not in missing]
                  + [e for e, k in zip(inner, keep) if k])
        host = Host(g, 2, (tuple(range(nx)), tuple(range(nx, nx + ny))))
        template = as_template(data.draw(st.sampled_from([theta(2, 2), theta(3, 1)])))
        phi = data.draw(st.permutations(range(nx)))
        parts = {a: (phi[i],) for i, a in enumerate(template.a_side)}
        th = Thresholds(c_hs=data.draw(st.sampled_from([16, 24])), m_blow=1)
        out = key_lemma_embed(host, cross_subgraph(host), template, parts,
                              lambda ss: True, th)
        if out.found:
            assert verify_induced_map_reference(g, template.graph, out.mapping)
            assert all(out.mapping[b] >= nx for b in template.b_side)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_candidates_follow_the_reference_order(self, data):
        # Placements reach the trace in their definitional order (every random
        # draw, then the product, each at its first sight), up to the one that
        # succeeds; a search that finds nothing has tried them all.
        k, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        a_side, b_side = tuple(range(k)), tuple(range(k, k + data.draw(st.integers(1, 2))))
        template = BipartiteTemplate(Graph(k + len(b_side), [
            (a, b) for b in b_side
            for a in data.draw(st.sets(st.sampled_from(a_side), min_size=1))]), (a_side, b_side))
        nx, ny = k * m + data.draw(st.integers(0, 2)), data.draw(st.integers(2, 6))
        pairs = list(combinations(range(nx + ny), 2))
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        host = Host(Graph(nx + ny, [e for e, kept in zip(pairs, keep) if kept]), 2,
                    (tuple(range(nx)), tuple(range(nx, nx + ny))))
        xs = data.draw(st.permutations(range(nx)))
        parts = {a: tuple(xs[a * m:(a + 1) * m]) for a in a_side}
        seed = data.draw(st.integers(0, 9))
        th = Thresholds(c_hs=data.draw(st.integers(1, 4)), m_blow=m)
        out = key_lemma_embed(host, cross_subgraph(host), template, parts, lambda ss: True,
                              th, seed=seed)
        tried = [tuple(entry["phi"]) for entry in out.trace]
        want = key_lemma_candidates_reference(parts, a_side, m, seed)
        assert tried == want[:len(tried)]
        assert out.found or len(tried) == len(want)

    def test_parts_are_integer_fields(self):
        # int() would read the key 0.7 as vertex 0 and find the copy (0, 2)
        g = Graph(4, [(0, 2), (1, 3), (0, 3)])
        host = Host(g, 2, ((0, 1), (2, 3)))
        tpl = BipartiteTemplate(Graph(2, [(0, 1)]), ((0,), (1,)))
        with pytest.raises(ValueError):
            key_lemma_embed(host, g, tpl, {0.7: (0,)}, lambda s: True, Thresholds(c_hs=1))
        for parts in ({True: (0,)}, {0: (False,)}, {0: (0.5,)}):
            with pytest.raises(ValueError):
                key_lemma_embed(host, g, tpl, parts, lambda s: True, Thresholds(c_hs=1))


class TestAsymmetric:
    def test_planted_success(self):
        host = k45_host()
        l = cross_subgraph(host)
        th = Thresholds(c_hs=3, m_blow=2)
        out = asymmetric_embed(host, l, p3_template(), th, seed=0)
        assert out.found
        head = out.trace[0]
        assert head["p"] == 2 and head["c3_guarantee"]

    def test_checks_m_and_the_blowup_once(self, monkeypatch):
        # asymmetric_embed checks M's rows itself and _find_blowup tests every
        # blowup edge, so its delegated key-lemma calls check neither again
        spans, delegated = [], []
        check_spanning, key_lemma = embeddings._check_spanning, embeddings.key_lemma_embed

        def spy(*args, **kwargs):
            delegated.append(kwargs.get("checked"))
            return key_lemma(*args, **kwargs)

        monkeypatch.setattr(embeddings, "_check_spanning",
                            lambda g, sub, name: spans.append(name) or check_spanning(g, sub, name))
        monkeypatch.setattr(embeddings, "key_lemma_embed", spy)
        host = k45_host()
        out = asymmetric_embed(host, cross_subgraph(host), p3_template(),
                               Thresholds(c_hs=3, m_blow=2))
        assert out.found and delegated and set(delegated) == {True} and spans == ["M"]

    def test_delta_gate(self):
        host = k45_host()
        l = cross_subgraph(host)
        th = Thresholds(c_hs=3, m_blow=2)
        with pytest.raises(HypothesisUnmet):
            asymmetric_embed(host, l, p3_template(), th, delta_y=5)

    def test_density_gate_reported(self):
        # sparse M: every y fails the gamma-density test
        g = Graph(9, [(0, 4), (1, 5), (2, 6), (3, 7)])
        host = Host(g, 2, (tuple(range(4)), tuple(range(4, 9))))
        l = cross_subgraph(host)
        th = Thresholds(c_hs=3, m_blow=2)
        out = asymmetric_embed(host, l, p3_template(), th)
        assert not out.found
        stages = {e.get("stage") for e in out.trace[1:]}
        assert stages <= {"degree", "density"}

    def test_density_gate_is_inclusive(self):
        # at y = 4 the rich pairs of N_M(4) = {0, 1, 2, 3} are {0, 1} and
        # {2, 3}: 2 of 6, exactly gamma = 1/3 of them, which is not dense
        g = Graph(9, [(x, 4) for x in range(4)] + [(0, 5), (1, 5), (0, 6), (1, 6), (2, 7), (3, 7)])
        host = Host(g, 2, (tuple(range(4)), tuple(range(4, 9))))
        stages = {}
        for gamma in (Fraction(1, 3), Fraction(1, 4)):
            out = asymmetric_embed(host, g, p3_template(), Thresholds(c_hs=2, gamma=gamma))
            entry = next(e for e in out.trace if e.get("y") == 4)
            assert (entry["rich"], entry["total"]) == (2, 6)
            stages[gamma] = entry["stage"]
        assert stages[Fraction(1, 3)] == "density" != stages[Fraction(1, 4)]

    def test_non_cross_m_rejected(self):
        host = k45_host()
        bad_l = Graph(9, [(0, 1)])
        with pytest.raises(InvalidPartition):
            asymmetric_embed(host, bad_l, p3_template(), Thresholds())

    def test_isolated_b_vertex_rejected_on_every_host(self):
        # B-side vertex 3 has no neighbour: on the complete cross host the
        # search reaches the key lemma, on the one-edge host every y stops at
        # the degree stage, and both reject the template
        tpl = BipartiteTemplate(Graph(4, [(0, 2), (1, 2)]), ((0, 1), (2, 3)))
        for g in (k45_host().graph, Graph(9, [(0, 4)])):
            host = Host(g, 2, (tuple(range(4)), tuple(range(4, 9))))
            with pytest.raises(ValueError, match="isolated B-side vertex"):
                asymmetric_embed(host, g, tpl, Thresholds(c_hs=1, m_blow=1))


class TestExtraction:
    def _theta_fixture(self):
        tg = theta(3, 5)
        extra = [(2, 4), (4, 6), (2, 6)]
        g = Graph(tg.n, list(tg.edge_list()) + extra)
        copies = [(0, 2 + 2 * i, 3 + 2 * i, 1) for i in range(5)]
        return g, copies, rooted_path(3)

    def test_aux_graph(self):
        g, copies, f = self._theta_fixture()
        aux = extraction_aux(g, copies, f)
        assert aux == {(0, 1): (0, 0), (0, 2): (0, 0), (1, 2): (0, 0)}

    def test_success_is_induced_power(self):
        g, copies, f = self._theta_fixture()
        out = extract_induced_power(g, copies, f, 3, 2)
        assert out.found
        from indturan.families import rooted_power

        power = rooted_power(f, 3)
        assert verify_induced_map_reference(g, power.graph, out.mapping)

    def test_kss_branch(self):
        # all five middle vertices mutually adjacent: no independent pair,
        # and a monochromatic 4-clique yields a K_{2,2} witness
        edges = [(0, w) for w in range(2, 7)] + [(1, w) for w in range(2, 7)]
        edges += [(u, v) for u in range(2, 7) for v in range(u + 1, 7)]
        g = Graph(7, edges)
        copies = [(0, w, 1) for w in range(2, 7)]
        out = extract_induced_power(g, copies, rooted_path(2), 2, 2)
        assert not out.found and out.kss_witness is not None
        a, b = out.kss_witness
        assert len(a) == len(b) == 2
        for u in a:
            for v in b:
                assert g.has_edge(u, v)

    def test_exhausted_without_witness(self):
        g, copies, f = self._theta_fixture()
        # l = 4 needs four pairwise non-adjacent middles; only 3 exist outside
        # the triangle, and any two triangle members collide
        out = extract_induced_power(g, copies, f, 4, 3)
        assert not out.found and out.kss_witness is None

    def test_failed_recheck_raises_under_optimize(self):
        raises_under_optimize(OPTIMIZED_POWER_RECHECK)

    def test_relabelled_power_raises(self, capsys, monkeypatch):
        # the script rebinds embeddings.rooted_power; setting it to itself
        # first makes monkeypatch restore it afterwards
        monkeypatch.setattr(embeddings, "rooted_power", embeddings.rooted_power)
        exec(RELABELLED_POWER, {})
        assert capsys.readouterr().out.strip() == "raised"
        raises_under_optimize(RELABELLED_POWER)

    def test_semi_induced_validation(self):
        g, copies, f = self._theta_fixture()
        with pytest.raises(NotSemiInduced):
            extract_induced_power(g, [], f, 1, 2)
        # copies must agree on roots
        bad = [copies[0], (1, 4, 5, 0)]
        with pytest.raises(NotSemiInduced):
            extract_induced_power(g, bad, f, 1, 2)
        # non-root images must not overlap
        with pytest.raises(NotSemiInduced):
            extract_induced_power(g, [copies[0], copies[0]], f, 1, 2)
        # each copy must be induced
        g2 = Graph(g.n, list(g.edge_list()) + [(0, 1)])
        with pytest.raises(NotSemiInduced):
            extract_induced_power(g2, copies, f, 2, 2)


class TestTreeBadSets:
    def test_definition(self):
        g = theta(3, 2)
        l = g
        bad = tree_bad_sets(g, l, 3, 24)  # threshold 2
        for x in range(6):
            for y in range(6):
                nl = set(l.neighbors(x))
                expect = sum(1 for w in nl if g.has_edge(y, w)) >= 2
                assert bool(bad[x] >> y & 1) == expect


# --- the integer and bitset helpers against their definitional versions -----------

fractions_in_unit = st.builds(lambda q, p: Fraction(p % q + 1, q),
                              st.integers(1, 12), st.integers(0, 11))


def outcome(fn, *args):
    """fn's result, or the type of the package or value error it raised."""
    try:
        return fn(*args)
    except (DisprovesLemma, HypothesisUnmet, InvalidPartition, ValueError) as exc:
        return type(exc)


@st.composite
def maps_into(draw, g: Graph, h_n: int):
    """A map of h_n pattern vertices into g: injective, or repeating a vertex,
    or reaching one past either end of g's range, or one vertex short."""
    kind = draw(st.sampled_from(["injective", "any", "short"]))
    if kind == "injective" and h_n <= g.n:
        return tuple(draw(st.permutations(range(g.n)))[:h_n])
    size = h_n - 1 if kind == "short" and h_n else h_n
    return tuple(draw(st.lists(st.integers(-1, g.n), min_size=size, max_size=size)))


@st.composite
def semi_induced_cases(draw):
    """lam copies of the rooted path 0-1-...-k (its ends the roots) sharing
    the roots and disjoint elsewhere, with random host edges between the
    non-root images of different copies; then l and s."""
    k = draw(st.integers(2, 3))
    lam = draw(st.integers(1, 8))
    f = rooted_path(k)
    width = k - 1
    copies = [(0, *(2 + width * i + a for a in range(width)), 1) for i in range(lam)]
    edges = [e for vm in copies for e in zip(vm, vm[1:])]
    cross = [(copies[i][1 + a], copies[j][1 + b])
             for i, j in combinations(range(lam), 2)
             for a in range(width) for b in range(width)]
    keep = draw(st.lists(st.booleans(), min_size=len(cross), max_size=len(cross)))
    g = Graph(2 + width * lam, edges + [e for e, kept in zip(cross, keep) if kept])
    return g, copies, f, draw(st.integers(1, 4)), draw(st.integers(1, 3))


class TestAgainstDefinitional:
    @settings(max_examples=200, deadline=None)
    @given(graphs(10, min_n=1), st.data(), fractions_in_unit, st.sampled_from([None, 1, 2]))
    def test_bad_set(self, g, data, c, s):
        # W inside the graph, or with ids past either end of it
        w = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1)
                      | st.sets(st.integers(-1, g.n + 1), min_size=1))
        assert outcome(bad_set, g, w, c, s) == outcome(bad_set_reference, g, w, c, s)

    @settings(max_examples=150, deadline=None)
    @given(graphs(10, min_n=2), st.data(), fractions_in_unit, st.integers(1, 3))
    def test_rich_s_set(self, g, data, c, s):
        x = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
        y = [v for v in range(g.n) if v not in x]
        assert outcome(rich_s_set, g, x, y, c, s) == \
            outcome(rich_s_set_reference, g, x, y, c, s)

    @settings(max_examples=100, deadline=None)
    @given(graphs(9), st.integers(1, 6), st.integers(-2, 40))
    def test_tree_bad_sets(self, g, t_count, d):
        assert tree_bad_sets(g, g, t_count, d) == tree_bad_sets_reference(g, g, t_count, d)

    @settings(max_examples=300, deadline=None)
    @given(graphs(8), graphs(5), st.data())
    def test_row_recheck(self, g, h, data):
        vm = data.draw(maps_into(g, h.n))
        assert verify_induced_map(g, h, vm) == verify_induced_map_reference(g, h, vm)

    @settings(max_examples=200, deadline=None)
    @given(graphs(7), st.data())
    def test_row_recheck_on_induced_copies(self, g, data):
        # the maps of random graphs are seldom induced copies; here the
        # pattern is what g induces on vm, with one image changed or not
        k = data.draw(st.integers(0, g.n))
        vm = list(data.draw(st.permutations(range(g.n)))[:k])
        h = Graph(k, [(p, q) for p, q in combinations(range(k), 2) if g.has_edge(vm[p], vm[q])])
        if k and data.draw(st.booleans()):
            vm[data.draw(st.integers(0, k - 1))] = data.draw(st.integers(0, g.n - 1))
        vm = tuple(vm)
        assert verify_induced_map(g, h, vm) == verify_induced_map_reference(g, h, vm)

    @settings(max_examples=200, deadline=None)
    @given(graphs(10, min_n=1), st.integers(2, 4), st.data())
    def test_extraction_aux(self, g, k, data):
        # copies here need not be semi-induced: they may overlap and repeat
        f = rooted_path(k)
        lam = data.draw(st.integers(0, 6))
        copies = [tuple(data.draw(st.lists(st.integers(0, g.n - 1), min_size=k + 1,
                                           max_size=k + 1))) for _ in range(lam)]
        assert extraction_aux(g, copies, f) == extraction_aux_reference(g, copies, f)

    @settings(max_examples=300, deadline=None)
    @given(graphs(9), st.integers(0, 6))
    def test_first_clique(self, g, k):
        first = next((c for c in combinations(range(g.n), k)
                      if all(g.has_edge(u, v) for u, v in combinations(c, 2))), None)
        got = first_clique(g.adj, k)
        assert (tuple(got) if got is not None else None) == first

    def test_first_clique_size_zero_and_negative(self):
        assert first_clique([], 0) == [] and first_clique([0b10, 0b01], 0) == []
        with pytest.raises(ValueError):
            first_clique([0b10, 0b01], -1)

    @settings(max_examples=300, deadline=None)
    @given(semi_induced_cases())
    def test_extraction_outcome(self, case):
        # success on the first independent l-set, else kss on the first
        # monochromatic 2s-clique, else exhausted: as the combinations scans find
        g, copies, f, l, s = case
        out = extract_induced_power(g, copies, f, l, s)
        aux = extraction_aux_reference(g, copies, f)
        sel = first_independent_reference(aux, len(copies), l)
        mono = first_mono_clique_reference(aux, s)
        if sel is not None:
            assert out.found and out.trace[-1]["selected"] == list(sel)
        elif mono is not None:
            color, clique = mono
            assert out.trace[-1] == {"stage": "kss", "color": list(color), "clique": list(clique)}
        else:
            assert out.trace[-1] == {"stage": "exhausted"}
