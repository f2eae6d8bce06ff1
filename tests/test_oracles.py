import hashlib
import json
import random
from collections import Counter
from itertools import combinations, permutations
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indturan import cli, oracles
from indturan.errors import (
    DisprovesLemma,
    InvalidPartition,
    NoPartition,
    NotBipartite,
    NotKssFree,
    TooLarge,
)
from indturan.canonical import canonical
from indturan.families import as_template, theta
from indturan.graph import Graph, Host, placements
from indturan.oracles import (
    _least_in_orbit,
    contains_bip_induced,
    contains_induced,
    contains_kss,
    contains_subgraph,
    extremal_bip_star,
    extremal_classical,
    extremal_star,
    is_isomorphic,
    kst_check,
    verify_bip_induced_map,
)

from helpers import (
    canonical_form_reference,
    classical_classes_reference,
    extremal_bip_star_reference,
    extremal_classical_reference,
    extremal_star_reference,
    generate_classes,
    graphs,
    random_kss_free,
    random_kss_free_bipartite,
    star_classes_reference,
    verify_induced_map_reference,
    verify_subgraph_map,
)


def c4():
    return theta(2, 2)


def c6():
    return theta(3, 2)


def p4():
    return Graph(4, [(0, 1), (1, 2), (2, 3)])


def naive_maps(g, h, induced, initial=None):
    """Reference: every injective map, no pruning, with pattern vertex p
    confined to the host mask initial[p] when initial is given."""
    for perm in permutations(range(g.n), h.n):
        if initial is not None and not all(initial[p] >> w & 1 for p, w in enumerate(perm)):
            continue
        pairs = [(g.has_edge(perm[u], perm[v]), h.has_edge(u, v))
                 for u, v in combinations(range(h.n), 2)]
        if all(has == want if induced else has or not want for has, want in pairs):
            yield perm


def naive_contains(g, h, induced, initial=None):
    return next(naive_maps(g, h, induced, initial), None) is not None


def naive_kss(g, s):
    """The first s-set, in combinations order, with s common neighbours,
    paired with the least s of them; or None."""
    for a_set in combinations(range(g.n), s):
        common = [v for v in range(g.n)
                  if v not in a_set and all(g.has_edge(v, u) for u in a_set)]
        if len(common) >= s:
            return a_set, tuple(common[:s])
    return None


def random_graph(rng, n, p=0.4):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


class TestContainment:
    def test_against_naive_reference(self):
        rng = random.Random(13)
        patterns = [c4(), p4(), Graph(3, [(0, 1), (1, 2), (0, 2)]),
                    Graph(3, [(0, 1)]), Graph(4, [(0, 1), (2, 3)])]
        for _ in range(60):
            g = random_graph(rng, rng.randrange(3, 8))
            h = patterns[rng.randrange(len(patterns))]
            if h.n > g.n:
                continue
            got = contains_induced(g, h)
            assert (got is not None) == naive_contains(g, h, induced=True)
            if got is not None:
                assert verify_induced_map_reference(g, h, got)
            got_sub = contains_subgraph(g, h)
            assert (got_sub is not None) == naive_contains(g, h, induced=False)
            if got_sub is not None:
                assert verify_subgraph_map(g, h, got_sub)

    def test_induced_vs_subgraph_difference(self):
        # K4 contains C4 as a subgraph but not induced
        k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert contains_subgraph(k4, c4()) is not None
        assert contains_induced(k4, c4()) is None


@st.composite
def matcher_cases(draw):
    """A host on at most 7 vertices, a pattern on at most 5, the induced flag,
    and either no masks or one random host mask per pattern vertex."""
    g, h = draw(graphs(7)), draw(graphs(5))
    initial = draw(st.none() | st.lists(st.integers(0, g.vertex_mask()),
                                        min_size=h.n, max_size=h.n))
    return g, h, draw(st.booleans()), initial


class TestMatcherDefinition:
    @settings(max_examples=300, deadline=None)
    @given(matcher_cases())
    def test_embed_matches_brute_force(self, case):
        g, h, induced, initial = case
        got = oracles._embed(g, h, induced, initial)
        assert (got is not None) == naive_contains(g, h, induced, initial)
        if got is not None:
            assert (verify_induced_map_reference if induced else verify_subgraph_map)(g, h, got)
            assert initial is None or all(initial[p] >> w & 1 for p, w in enumerate(got))
        used = {w for vm in naive_maps(g, h, induced) for w in vm}
        for v in range(g.n):
            assert oracles._contains_using(g, h, v, induced) == (v in used)

    @settings(max_examples=300, deadline=None)
    @given(matcher_cases())
    def test_placements_list_every_map_in_order(self, case):
        # the oracles' rows: a pattern neighbour goes into the host row, a
        # non-neighbour outside it (induced) or anywhere else (not induced);
        # the maps come out by their images listed in placement order
        g, h, induced, initial = case
        full = g.vertex_mask()
        no = [~(row | 1 << w) if induced else ~(1 << w) for w, row in enumerate(g.adj)]
        for pat, pins in ((oracles.Pattern(h), initial), (oracles.Pattern(Graph(0, [])), None)):
            cands = [full if pins is None else pins[p] for p in pat.order]
            got = list(placements(pat.order, pat.steps, cands, g.adj, no))
            want = sorted(naive_maps(g, pat, induced, pins),
                          key=lambda vm: [vm[p] for p in pat.order])
            assert got == want


def brute_orbits(h):
    """The automorphism orbits of h, from a scan of every permutation."""
    autos = [perm for perm in permutations(range(h.n))
             if all(h.has_edge(perm[u], perm[v]) == h.has_edge(u, v)
                    for u, v in combinations(range(h.n), 2))]
    return {frozenset(a[p] for a in autos) for p in range(h.n)}


class TestCompiledPattern:
    @settings(max_examples=200, deadline=None)
    @given(graphs(6))
    def test_orbit_reps_cover_each_orbit_once(self, h):
        pat = oracles.Pattern(h)
        assert pat == h
        assert list(pat.orbit_reps) == sorted(min(orbit) for orbit in brute_orbits(h))

    def test_known_orbits(self):
        assert oracles.Pattern(c6()).orbit_reps == (0,)
        assert oracles.Pattern(p4()).orbit_reps == (0, 1)


# ExtremalResult.as_json_dict() of each oracle on C4, C6 and P4 for n <= 6 and
# s in {2, 3}.  The values, witnesses and partitions are those of the full
# scans that `helpers` keeps as references.  Every witness is a property of
# its class, in its canonical labelling: for star and classical the densest
# class with the least canonical edge list, for bip the least key (-cross,
# canonical edge list, X).  The `explored` counts are those of the edge-count
# descent and of the bounded bip scan, which test fewer extensions and
# partitions.
PINNED = json.loads((Path(__file__).parent / "extremal_grid.json").read_text(encoding="utf-8"))


def grid_runs(mode, name, star, classical, bip):
    """{pinned key: result} of one mode and pattern over the pinned grid."""
    h = {"C4": c4, "C6": c6, "P4": p4}[name]()
    runs = {}
    for n in range(1, 7):
        if mode == "classical":
            runs[f"{mode} {name} {n}"] = classical(n, h)
        for s in (2, 3):
            if mode == "star":
                runs[f"{mode} {name} {n} {s}"] = star(n, h, s)
            elif mode == "bip":
                runs[f"{mode} {name} {n} {s}"] = bip(n, as_template(h), s)
    return runs


def without_explored(res):
    return {k: v for k, v in res.as_json_dict().items() if k != "explored"}


class TestPinnedExtremal:
    @pytest.mark.parametrize("mode", ["star", "classical", "bip"])
    @pytest.mark.parametrize("name", ["C4", "C6", "P4"])
    def test_as_json_dict_unchanged(self, mode, name):
        runs = grid_runs(mode, name, extremal_star, extremal_classical, extremal_bip_star)
        for key, res in runs.items():
            assert res.as_json_dict() == PINNED[key], key

    @pytest.mark.parametrize("mode", ["star", "classical", "bip"])
    @pytest.mark.parametrize("name", ["C4", "C6", "P4"])
    def test_full_scan_reproduces_pins(self, mode, name):
        runs = grid_runs(mode, name, extremal_star_reference, extremal_classical_reference,
                         extremal_bip_star_reference)
        for key, res in runs.items():
            pinned = {k: v for k, v in PINNED[key].items() if k != "explored"}
            assert without_explored(res) == pinned, key
            assert PINNED[key]["explored"] <= res.explored, key


def oracle_outcome(fn, *args):
    """fn's result, or the type of the value error it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


class TestBoundedLastStep:
    @settings(max_examples=150, deadline=None)
    @given(graphs(5), st.integers(0, 6), st.integers(1, 3))
    def test_matches_full_scan(self, h, n, s):
        runs = [(extremal_star, extremal_star_reference, (n, h, s)),
                (extremal_classical, extremal_classical_reference, (n, h))]
        try:
            runs.append((extremal_bip_star, extremal_bip_star_reference, (n, as_template(h), s)))
        except NotBipartite:
            pass
        for fast, reference, args in runs:
            got, want = oracle_outcome(fast, *args), oracle_outcome(reference, *args)
            if isinstance(want, type):
                assert got is want, fast.__name__
            else:
                assert without_explored(got) == without_explored(want), fast.__name__
                assert got.explored <= want.explored, fast.__name__

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_no_graph_avoids_k1(self, n):
        k1 = Graph(1, [])
        for call in (lambda: extremal_star(n, k1, 2), lambda: extremal_classical(n, k1),
                     lambda: extremal_bip_star(n, as_template(k1), 2)):
            with pytest.raises(ValueError, match="avoids the pattern"):
                call()

    @pytest.mark.parametrize("n", [0, 1])
    def test_smallest_orders(self, n):
        for h in (c4(), p4(), Graph(1, [])):
            for fast, reference, args in (
                    (extremal_star, extremal_star_reference, (n, h, 2)),
                    (extremal_classical, extremal_classical_reference, (n, h)),
                    (extremal_bip_star, extremal_bip_star_reference, (n, as_template(h), 2))):
                assert oracle_outcome(fast, *args) == oracle_outcome(reference, *args)


def relabelled(g, perm):
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def to_nx(g):
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges)
    return out


def form(g):
    return canonical(g.adj)[0]


def petersen():
    return Graph(10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def pentagonal_prism():
    return Graph(10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 1) % 5) for i in range(5)])


def cayley_z4z4(steps):
    """The Cayley graph of Z4 x Z4 with the connection set steps and their
    negatives; vertex (i, j) is 4i + j."""
    conn = {(a % 4, b % 4) for a, b in steps} | {(-a % 4, -b % 4) for a, b in steps}
    return Graph(16, [(4 * i + j, 4 * ((i + a) % 4) + (j + b) % 4)
                      for i in range(4) for j in range(4) for a, b in conn
                      if 4 * i + j < 4 * ((i + a) % 4) + (j + b) % 4])


def disjoint_union(*gs):
    """The graphs side by side, each shifted past the ones before it."""
    edges, offset = [], 0
    for g in gs:
        edges += [(u + offset, v + offset) for u, v in g.edges]
        offset += g.n
    return Graph(offset, edges)


def cycle(k):
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def matching(k):
    return disjoint_union(*[Graph(2, [(0, 1)])] * k)


def complete_bipartite(a, b):
    return Graph(a + b, [(u, v) for u in range(a) for v in range(a, a + b)])


def hypercube(d):
    return Graph(1 << d, [(v, v | 1 << i) for v in range(1 << d) for i in range(d)
                          if not v >> i & 1])


def k44_minus_matching():
    return Graph(8, [(i, 4 + j) for i in range(4) for j in range(4) if i != j])


# Vertex-transitive and other large-group graphs, where automorphism pruning
# acts, with their automorphism group orders.
SYMMETRIC = {
    "petersen": (petersen, 120),
    "pentagonal prism": (pentagonal_prism, 20),
    "Q3": (lambda: hypercube(3), 48),
    "Q4": (lambda: hypercube(4), 384),
    "shrikhande": (lambda: cayley_z4z4([(0, 1), (1, 0), (1, 1)]), 192),
    "K4 x K4": (lambda: cayley_z4z4([(0, 1), (0, 2), (1, 0), (2, 0)]), 1152),
    "3 C5": (lambda: disjoint_union(*[cycle(5)] * 3), 6000),
    "2 C6": (lambda: disjoint_union(*[cycle(6)] * 2), 288),
    "K44 minus a matching": (k44_minus_matching, 48),
}


def symmetric_corpus():
    """The SYMMETRIC graphs, cycles and their disjoint unions, matchings and
    complete bipartite graphs, on at most 16 vertices."""
    gs = [make() for make, _ in SYMMETRIC.values()]
    gs += [disjoint_union(*[cycle(k)] * r) for k in range(3, 17) for r in range(1, 16 // k + 1)]
    gs += [disjoint_union(cycle(a), cycle(b)) for a in range(3, 14) for b in range(a + 1, 17 - a)]
    gs += [matching(k) for k in range(1, 9)]
    gs += [complete_bipartite(a, b) for a in range(1, 9) for b in range(a, 17 - a)]
    return gs


def canonical_digest(seed, cases):
    """sha256 over one JSON line per graph of a seeded corpus: the form, the
    least vertex of each orbit of the returned group and, up to 9 vertices,
    the number of orbits on vertex subsets.  The corpus is cases random
    graphs on at most 12 vertices, then each symmetric_corpus graph in three
    random labellings."""
    rng = random.Random(seed)
    gs = [random_graph(rng, rng.randrange(13), rng.random()) for _ in range(cases)]
    for g in symmetric_corpus():
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            gs.append(relabelled(g, perm))
    digest = hashlib.sha256()
    for g in gs:
        rows, autos = canonical(g.adj)
        reps = [m.bit_length() - 1 for m in _least_in_orbit([1 << v for v in range(g.n)], autos)]
        subsets = len(_least_in_orbit(range(1 << g.n), autos)) if g.n <= 9 else None
        digest.update(json.dumps([list(rows), reps, subsets]).encode("utf-8") + b"\n")
    return digest.hexdigest()


CANONICAL_DIGESTS = json.loads((Path(__file__).parent / "canonical_digests.json")
                               .read_text(encoding="utf-8"))


def brute_automorphism_count(g):
    return sum(1 for p in permutations(range(g.n))
               if all(g.adj[p[u]] >> p[v] & 1 for u, v in g.edges))


def generated_group_order(gens, n):
    seen = {tuple(range(n))}
    todo = list(seen)
    while todo:
        x = todo.pop()
        for g in gens:
            y = tuple(g[v] for v in x)
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return len(seen)


class TestCanonicalForm:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_invariant_under_relabelling(self, data):
        g = data.draw(graphs(9))
        perm = data.draw(st.permutations(range(g.n)))
        assert form(relabelled(g, perm)) == form(g)

    def test_equal_forms_exactly_when_networkx_isomorphic(self):
        rng = random.Random(43)
        agree = Counter()
        for _ in range(600):
            n = rng.randrange(1, 10)
            g = random_graph(rng, n, rng.random())
            if rng.random() < 0.3:
                perm = list(range(n))
                rng.shuffle(perm)
                h = relabelled(g, perm)
            else:  # the same order and size, so only the structure tells them apart
                pairs = list(combinations(range(n), 2))
                h = Graph(n, rng.sample(pairs, g.m))
            same = nx.is_isomorphic(to_nx(g), to_nx(h))
            assert (form(g) == form(h)) == same
            assert nx.is_isomorphic(to_nx(Graph.from_rows(form(g))), to_nx(g))
            agree[same] += 1
        assert agree[True] > 100 and agree[False] > 100

    def test_regular_hard_cases(self):
        rng = random.Random(5)
        shrikhande = cayley_z4z4([(0, 1), (1, 0), (1, 1)])
        rook = cayley_z4z4([(0, 1), (0, 2), (1, 0), (2, 0)])  # K4 x K4
        for g in (petersen(), pentagonal_prism(), shrikhande, rook):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert is_isomorphic(g, relabelled(g, perm))
        # both srg(16, 6, 2, 2), and both cubic on 10 vertices
        assert sorted(map(int.bit_count, shrikhande.adj)) == sorted(map(int.bit_count, rook.adj))
        assert not is_isomorphic(shrikhande, rook)
        assert not is_isomorphic(petersen(), pentagonal_prism())

    def test_automorphisms_generate_the_group(self):
        rng = random.Random(11)
        for _ in range(150):
            g = random_graph(rng, rng.randrange(1, 7), rng.random())
            _, autos = canonical(g.adj)
            for a in autos:
                assert sorted(a) == list(range(g.n))
                assert all(g.adj[a[u]] >> a[v] & 1 for u, v in g.edges)
            assert generated_group_order(autos, g.n) == brute_automorphism_count(g)

    @pytest.mark.parametrize("name", sorted(SYMMETRIC))
    def test_automorphisms_generate_the_group_of_symmetric_graphs(self, name):
        make, order = SYMMETRIC[name]
        g = make()
        _, autos = canonical(g.adj)
        matcher = nx.algorithms.isomorphism.GraphMatcher(to_nx(g), to_nx(g))
        assert generated_group_order(autos, g.n) == order
        assert sum(1 for _ in matcher.isomorphisms_iter()) == order

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_form_is_least_leaf_of_unpruned_tree(self, data):
        structured = [hypercube(3), complete_bipartite(3, 3), complete_bipartite(2, 5),
                      k44_minus_matching(), matching(3), disjoint_union(cycle(3), cycle(3)),
                      disjoint_union(cycle(3), cycle(4)), disjoint_union(matching(2), cycle(3)),
                      cycle(7), Graph(7, [])]
        g = data.draw(st.one_of(graphs(7), st.sampled_from(structured)))
        g = relabelled(g, data.draw(st.permutations(range(g.n))))
        assert canonical(g.adj)[0] == canonical_form_reference(g.adj)

    @pytest.mark.parametrize("name", sorted(CANONICAL_DIGESTS))
    def test_pinned_forms_and_orbits(self, name):
        # recorded before the search dropped its backjump: a change of
        # pruning must leave every form and orbit as it is
        case = CANONICAL_DIGESTS[name]
        assert canonical_digest(case["seed"], case["cases"]) == case["sha256"]

    @pytest.mark.parametrize("n, count", enumerate([1, 2, 4, 11, 34, 156, 1044, 12346], start=1))
    def test_counts_all_graphs(self, n, count):
        # OEIS A000088: graphs on n unlabelled vertices
        reps, _ = generate_classes(n, lambda g, k: True)
        assert len(reps) == count


# ex(n, C4) for n = 1..11 (Clapham, Flockhart and Sheehan; OEIS A006855)
EX_C4 = (0, 1, 3, 4, 6, 7, 9, 11, 13, 16, 18)


class TestBranchAndBound:
    def test_classical_c4(self):
        assert tuple(extremal_classical(n, c4()).value for n in range(1, 12)) == EX_C4

    def test_classical_triangle_is_turan(self):
        k3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
        for n in range(1, 11):
            assert extremal_classical(n, k3).value == n * n // 4

    @pytest.mark.parametrize("mode", ["star", "classical"])
    @pytest.mark.parametrize("name", ["C4", "C6", "P4"])
    def test_pinned_witness_is_canonical_densest_class(self, mode, name):
        h = {"C4": c4, "C6": c6, "P4": p4}[name]()
        for key, pinned in PINNED.items():
            got_mode, got_name, n, *s = key.split()
            if (got_mode, got_name) != (mode, name):
                continue
            w = Graph(pinned["witness"]["n"], pinned["witness"]["edges"])
            assert w.n == int(n) and w.m == pinned["value"], key
            if s:
                assert not naive_kss(w, int(s[0])) and not naive_contains(w, h, True), key
                reps, _ = star_classes_reference(int(n), h, int(s[0]))
            else:
                assert not naive_contains(w, h, False), key
                reps, _ = classical_classes_reference(int(n), h)
            densest = [g for g in reps if g.m == pinned["value"]]
            assert max(g.m for g in reps) == pinned["value"], key
            assert sum(nx.is_isomorphic(to_nx(w), to_nx(g)) for g in densest) == 1, key
            assert form(w) == w.adj, key
            assert w.edge_list() == min(Graph.from_rows(form(g)).edge_list() for g in densest), key

    @pytest.mark.parametrize("name", ["C4", "C6", "P4"])
    def test_pinned_bip_witness_is_canonical(self, name):
        h = {"C4": c4, "C6": c6, "P4": p4}[name]()
        a_side = as_template(h).a_side
        for key, pinned in PINNED.items():
            got_mode, got_name, n, *s = key.split()
            if (got_mode, got_name) != ("bip", name):
                continue
            w = Graph(pinned["witness"]["n"], pinned["witness"]["edges"])
            x, y = pinned["witness"]["partition"]["X"], pinned["witness"]["partition"]["Y"]
            assert w.n == int(n) and sorted(x + y) == list(range(w.n)) and 0 in x, key
            assert form(w) == w.adj, key
            assert sum(w.has_edge(u, v) for u in x for v in y) == pinned["value"], key
            assert not naive_kss(w, int(s[0])), key
            xm, ym = sum(1 << v for v in x), sum(1 << v for v in y)
            for am, bm in ((xm, ym), (ym, xm)):
                sides = [am if p in a_side else bm for p in range(h.n)]
                assert not naive_contains(w, h, True, sides), key


class TestKss:
    def test_against_naive(self):
        rng = random.Random(29)
        for _ in range(60):
            g = random_graph(rng, rng.randrange(4, 9), p=0.5)
            for s in (2, 3):
                got = contains_kss(g, s)
                assert got == naive_kss(g, s)
                if got is not None:
                    a, b = got
                    assert len(a) == len(b) == s and not set(a) & set(b)
                    for u in a:
                        for v in b:
                            assert g.has_edge(u, v)

    def test_through_vertex_against_definition(self):
        # _kss_through_vertex(adj, v, s) holds exactly when some K_{s,s}
        # subgraph (two disjoint s-sets, every cross pair an edge) contains v
        rng = random.Random(37)
        for _ in range(80):
            g = random_graph(rng, rng.randrange(1, 9), p=rng.choice((0.3, 0.5, 0.7)))
            for s in (1, 2, 3):
                covered = set()
                for a_set in combinations(range(g.n), s):
                    rest = [v for v in range(g.n) if v not in a_set]
                    for b_set in combinations(rest, s):
                        if all(g.has_edge(u, w) for u in a_set for w in b_set):
                            covered.update(a_set + b_set)
                for v in range(g.n):
                    assert oracles._kss_through_vertex(g.adj, v, s) == (v in covered)

    def test_known_cases(self):
        assert contains_kss(theta(2, 3), 2) is not None  # K_{2,3}
        assert contains_kss(c6(), 2) is None
        k33 = Graph(6, [(i, j) for i in range(3) for j in range(3, 6)])
        assert contains_kss(k33, 3) is not None
        assert contains_kss(k33, 2) is not None


class TestIsomorphism:
    def test_positive(self):
        relabeled = Graph(4, [(3, 2), (2, 0), (0, 1), (1, 3)])
        assert is_isomorphic(c4(), relabeled)

    def test_negative_same_degrees(self):
        # C6 vs two triangles: both 2-regular on 6 vertices
        two_k3 = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert not is_isomorphic(c6(), two_k3)


class TestBipContainment:
    def test_complete_bipartite_has_no_induced_path(self):
        # every cross pair is adjacent, so the path's non-edges cannot appear
        g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        host = Host(g, 2, ((0, 1), (2, 3)))
        assert contains_bip_induced(host, as_template(p4())) is None

    def test_path_in_sparser_host(self):
        g = Graph(4, [(0, 2), (2, 1), (1, 3)])
        host = Host(g, 2, ((0, 1), (2, 3)))
        t = as_template(p4())
        vm = contains_bip_induced(host, t)
        assert vm is not None
        x, y = host.partition
        assert verify_bip_induced_map(g, x, y, t, vm)

    def test_requires_partition(self):
        with pytest.raises(NoPartition):
            contains_bip_induced(Host(c4(), 2), as_template(p4()))

    @pytest.mark.parametrize("center_side", [0, 1])
    def test_either_side_takes_the_a_side(self, center_side):
        # P3's A side is its two ends, so the copy with the center in X (or
        # in Y) exists only with A mapped into the other side
        t = as_template(Graph(3, [(0, 1), (1, 2)]))
        sides = [(0,), (1, 2)] if center_side == 0 else [(1, 2), (0,)]
        host = Host(Graph(3, [(0, 1), (0, 2)]), 2, tuple(sides))
        vm = contains_bip_induced(host, t)
        assert vm is not None and vm[1] == 0
        assert verify_bip_induced_map(host.graph, *host.partition, t, vm)


class TestExtremalStar:
    def test_frozen_c4_values(self):
        assert extremal_star(4, c4(), 2).value == 4
        assert extremal_star(5, c4(), 2).value == 6
        assert extremal_star(6, c4(), 2).value == 7

    def test_classical_equals_star_for_c4_s2(self):
        # K_{2,2} = C4, so forbidding the subgraph makes induced-freeness moot
        for n in range(4, 7):
            assert extremal_star(n, c4(), 2).value == extremal_classical(n, c4()).value

    def test_classical_turan_triangle(self):
        k3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
        for n, expect in ((3, 2), (4, 4), (5, 6), (6, 9)):
            assert extremal_classical(n, k3).value == expect

    def test_witness_is_free(self):
        res = extremal_star(5, c4(), 2)
        assert res.witness.m == res.value
        assert contains_kss(res.witness, 2) is None
        assert contains_induced(res.witness, c4()) is None

    def test_budget(self):
        with pytest.raises(TooLarge):
            extremal_star(oracles.STAR_BUDGET + 1, c4(), 2)

    def test_monotone_in_n_and_s(self):
        for h in (c4(), p4()):
            prev = None
            for n in range(4, 7):
                v2 = extremal_star(n, h, 2).value
                v3 = extremal_star(n, h, 3).value
                assert v2 <= v3
                if prev is not None:
                    assert prev <= v2
                prev = v2


class TestNegativeOrder:
    ORACLES = {
        "star": lambda n: extremal_star(n, p4(), 2),
        "classical": lambda n: extremal_classical(n, p4()),
        "bip": lambda n: extremal_bip_star(n, as_template(p4()), 3),
    }

    @pytest.mark.parametrize("mode", sorted(ORACLES))
    @pytest.mark.parametrize("n", (-1, -2))
    def test_library_call(self, mode, n):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            self.ORACLES[mode](n)

    @pytest.mark.parametrize("mode", sorted(ORACLES))
    def test_cli_exits_1(self, capsys, mode):
        code = cli.main(["extremal", "--n", "-2", "--pattern", "path:len=2", "--mode", mode])
        assert code == 1
        assert json.loads(capsys.readouterr().out) == {"error": "ValueError",
                                                       "message": "n must be nonnegative"}


class TestExtremalBip:
    def test_small_values(self):
        t = as_template(p4())
        res = extremal_bip_star(4, t, 2)
        assert res.partition is not None
        x, y = res.partition
        assert sorted(x + y) == list(range(4))

    def test_bip_vs_star_inequality(self):
        # max cross edges is at least half the extremal edge count
        for h in (c4(), p4()):
            t = as_template(h)
            for n in range(4, 6):
                star = extremal_star(n, h, 2).value
                bip = extremal_bip_star(n, t, 2).value
                assert 2 * bip >= star

    def test_budget(self):
        with pytest.raises(TooLarge):
            extremal_bip_star(oracles.BIP_BUDGET + 1, as_template(p4()), 2)

    def test_witness_recheck_raises(self, monkeypatch):
        monkeypatch.setattr(oracles, "contains_kss", lambda g, s: ((0,), (1,)))
        with pytest.raises(DisprovesLemma):
            extremal_bip_star(4, as_template(p4()), 2)


class TestKst:
    def test_requires_partition_and_equal_sides(self):
        with pytest.raises(NoPartition):
            kst_check(Host(c4(), 2))
        with pytest.raises(InvalidPartition):
            kst_check(Host(Graph(3, []), 2, ((0,), (1, 2))))

    def test_kss_host_rejected(self):
        g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        with pytest.raises(NotKssFree):
            kst_check(Host(g, 2, ((0, 1), (2, 3))))

    def test_holds_on_generated_instances(self):
        rng = random.Random(41)
        for _ in range(25):
            m = rng.randrange(3, 10)
            host = random_kss_free_bipartite(m, m, 2, rng, keep=1.0)
            assert kst_check(host)

    def test_exact_boundary(self):
        # e = (s-1)m exactly: lhs <= 0 branch
        g = Graph(4, [(0, 2), (1, 3)])
        host = Host(g, 2, ((0, 1), (2, 3)))
        assert kst_check(host)


class TestGenerators:
    def test_random_kss_free_is_free(self):
        rng = random.Random(3)
        for s in (2, 3):
            for _ in range(10):
                g = random_kss_free(rng.randrange(6, 16), s, rng, keep=0.9)
                assert contains_kss(g, s) is None

    def test_random_bipartite_is_free_and_partitioned(self):
        rng = random.Random(4)
        host = random_kss_free_bipartite(6, 5, 2, rng, keep=1.0)
        x, y = host.partition
        assert len(x) == 6 and len(y) == 5
        assert contains_kss(host.graph, 2) is None
        for u, v in host.graph.edges:
            assert (u in set(x)) != (v in set(x))
