import ast
import dataclasses
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import pytest

from indturan.embeddings import (
    RegularizeReport,
    Thresholds,
    admissible_tree_copies,
    almost_regular_exponent,
    almost_regular_factor,
    asymmetric_embed,
    bad_set,
    extract_induced_power,
    extraction_aux,
    greedy_tree_embed,
    hall_disjoint_sets,
    key_lemma_embed,
    product_pow_le,
    regularize,
    rich_s_set,
    tree_bad_sets,
)
from indturan.errors import (
    BadBlowup,
    EmptyQuery,
    HypothesisUnmet,
    InvalidPartition,
    NoPartition,
    NotSemiInduced,
)
from indturan.families import as_template, rooted_path, theta
from indturan.graph import Graph, Host, common_neighborhood_mask, cross_subgraph, edge_subgraph
from indturan.oracles import verify_induced_map

from helpers import is_k_almost_regular, random_kss_free, random_kss_free_bipartite

ROOT = Path(__file__).resolve().parents[1]


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
            unread = [f.name for f in dataclasses.fields(cls) if f.name not in read]
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


OPTIMIZED_RECHECK = """
import indturan.embeddings as emb
from indturan.errors import DisprovesLemma
from indturan.families import theta
from indturan.graph import Graph, Host

emb.verify_induced_map = lambda *args: False
g = theta(3, 2)
try:
    next(emb.greedy_tree_embed(Host(g, 2), g, Graph(3, [(0, 1), (1, 2)]), 24))
except DisprovesLemma:
    print("raised")
"""


class TestGreedyTreeEmbed:
    def test_failed_recheck_raises_under_optimize(self):
        # `python -O` strips asserts; the re-check of every emitted copy must
        # still run there and raise DisprovesLemma.
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_RECHECK],
                             capture_output=True, text=True, env=env, cwd=ROOT)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "raised"

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

    def test_emitted_maps_reverify(self):
        g = theta(3, 3)
        host = Host(g, 2)
        l = g
        p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
        for vm in greedy_tree_embed(host, l, p4, 30):
            assert verify_induced_map(g, p4, vm)

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


class TestAsymmetric:
    def test_planted_success(self):
        host = k45_host()
        l = cross_subgraph(host)
        th = Thresholds(c_hs=3, m_blow=2)
        out = asymmetric_embed(host, l, p3_template(), th, seed=0)
        assert out.found
        head = out.trace[0]
        assert head["p"] == 2 and head["c3_guarantee"]

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

    def test_non_cross_m_rejected(self):
        host = k45_host()
        bad_l = Graph(9, [(0, 1)])
        with pytest.raises(InvalidPartition):
            asymmetric_embed(host, bad_l, p3_template(), Thresholds())


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
        assert verify_induced_map(g, power.graph, out.mapping)

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
