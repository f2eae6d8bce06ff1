import pytest

from indturan.errors import (
    DegenerateRoot,
    Multigraph,
    NotBipartite,
    RootEdgeCollision,
)
from indturan.families import (
    RootedGraph,
    as_graph,
    as_template,
    attach_ktt_rooted,
    complete_bipartite_template,
    height_two_tree,
    leaf_rooted_star,
    parse_descriptor,
    rooted_path,
    rooted_power,
    theta,
    tree_r11,
)
from indturan.graph import Graph, bipartition
from indturan.oracles import is_isomorphic


class TestRootedGraph:
    def test_roots_must_be_proper_subset(self):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(DegenerateRoot):
            RootedGraph(g, frozenset({0, 1, 2}))

    def test_roots_must_exist(self):
        with pytest.raises(ValueError):
            RootedGraph(Graph(2, [(0, 1)]), frozenset({5}))

    def test_non_roots_sorted(self):
        f = RootedGraph(Graph(4, [(0, 1), (2, 3)]), frozenset({1, 3}))
        assert f.non_roots() == (0, 2)

    def test_equality_on_graph_and_roots(self):
        p = rooted_power(rooted_path(3), 2)
        same = RootedGraph(Graph(p.graph.n, p.graph.edge_list()), set(p.roots))
        assert p == same and hash(p) == hash(same)
        assert p != RootedGraph(p.graph, p.roots - {0})
        assert p != RootedGraph(Graph(p.graph.n, list(p.graph.edge_list())[1:]), p.roots)
        assert p != p.graph


class TestHeightTwoTree:
    def test_counts_3_1(self):
        f = height_two_tree(3, 1)
        assert f.graph.n == 7 and f.graph.m == 6 and len(f.roots) == 3

    def test_counts_2_2(self):
        f = height_two_tree(2, 2)
        assert f.graph.n == 7 and f.graph.m == 6 and len(f.roots) == 4

    def test_1_1_is_rooted_cherry(self):
        f = height_two_tree(1, 1)
        assert f.graph.n == 3 and f.graph.m == 2 and len(f.roots) == 1

    def test_structure(self):
        f = height_two_tree(2, 3)
        # center 0 adjacent to middles only; every root is a leaf
        assert f.graph.degree(0) == 2
        for r in f.roots:
            assert f.graph.degree(r) == 1

    def test_bad_parameters(self):
        with pytest.raises(DegenerateRoot):
            height_two_tree(0, 1)
        with pytest.raises(DegenerateRoot):
            height_two_tree(1, 0)


class TestTreeR11:
    def test_counts(self):
        for r, n, m, roots in ((3, 8, 7, 4), (1, 4, 3, 2), (2, 6, 5, 3)):
            f = tree_r11(r)
            assert (f.graph.n, f.graph.m, len(f.roots)) == (n, m, roots)

    def test_structure_r2(self):
        f = tree_r11(2)
        # center 0: two middles plus the extra leaf
        assert f.graph.degree(0) == 3
        assert 5 in f.roots and f.graph.has_edge(0, 5)


class TestRootedPath:
    def test_lengths(self):
        for length in (2, 3, 6):
            f = rooted_path(length)
            assert f.graph.n == length + 1 and f.graph.m == length
            assert f.roots == frozenset({0, length})

    def test_len_1_rejected(self):
        with pytest.raises(DegenerateRoot):
            rooted_path(1)


class TestRootedPower:
    def test_cherry_squared_is_c4(self):
        f = rooted_power(rooted_path(2), 2)
        assert is_isomorphic(f.graph, theta(2, 2))
        assert len(f.roots) == 2

    def test_cherry_cubed_is_k23(self):
        f = rooted_power(rooted_path(2), 3)
        k23 = Graph(5, [(i, j) for i in range(2) for j in range(2, 5)])
        assert is_isomorphic(f.graph, k23)

    def test_leaf_rooted_star_power_is_ktl(self):
        for t, l in ((2, 3), (3, 2), (3, 4)):
            f = rooted_power(leaf_rooted_star(t), l)
            ktl = Graph(t + l, [(i, j) for i in range(t) for j in range(t, t + l)])
            assert is_isomorphic(f.graph, ktl)

    def test_counts(self):
        f = height_two_tree(2, 1)
        p = rooted_power(f, 3)
        q = f.graph.n - len(f.roots)
        assert p.graph.n == len(f.roots) + 3 * q
        assert p.graph.m == 3 * f.graph.m

    @pytest.mark.parametrize("f, l", [(tree_r11(2), 2), (height_two_tree(2, 1), 3),
                                      (RootedGraph(Graph(5, [(0, 3), (3, 1), (1, 4), (4, 2)]),
                                                   {4, 0}), 3)],
                             ids=["Tr11-l2", "Trt-l3", "path-l3"])
    def test_numbering(self, f, l):
        # the contract extraction reads its map from: sorted roots first, then
        # copy c's sorted non-roots at r + c*q + i; each copy's map embeds f
        # and every edge of the power comes from one copy
        p = rooted_power(f, l)
        roots, non = sorted(f.roots), f.non_roots()
        r, q = len(roots), len(non)
        assert p.roots == frozenset(range(r)) and p.graph.n == r + l * q
        power_edges = set(p.graph.edges)
        seen = set()
        for c in range(l):
            cm = dict(zip(roots, range(r))) | dict(zip(non, range(r + c * q, r + c * q + q)))
            images = set()
            for u, v in f.graph.edges:
                assert p.graph.has_edge(cm[u], cm[v])
                images.add((min(cm[u], cm[v]), max(cm[u], cm[v])))
            seen |= images
            assert len(images) == f.graph.m
        assert seen == power_edges

    def test_root_edge_collision(self):
        f = RootedGraph(Graph(3, [(0, 1), (1, 2)]), frozenset({0, 1}))
        with pytest.raises(RootEdgeCollision):
            rooted_power(f, 2)
        assert rooted_power(f, 1).graph.m == 2  # l=1 is always fine


class TestTheta:
    def test_small_cases(self):
        assert is_isomorphic(theta(2, 2), Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
        assert is_isomorphic(theta(3, 2), Graph(6, [(i, (i + 1) % 6) for i in range(6)]))
        k23 = Graph(5, [(i, j) for i in range(2) for j in range(2, 5)])
        assert is_isomorphic(theta(2, 3), k23)

    def test_counts(self):
        g = theta(4, 3)
        assert g.n == 2 + 3 * 3 and g.m == 3 * 4

    def test_multigraph_guard(self):
        with pytest.raises(Multigraph):
            theta(1, 2)
        assert theta(1, 1).m == 1


class TestAttachKtt:
    # The crossed K_{t,t} is attached to rooted graphs only; its C part joins
    # f's A side (the one holding vertex 0) and its D part f's B side.
    P3 = RootedGraph(Graph(3, [(0, 1), (1, 2)]), frozenset({0}))

    def test_p3_counts(self):
        out = attach_ktt_rooted(self.P3, 1)
        assert out.graph.n == 5 and out.graph.m == 6

    def test_edge_becomes_c4(self):
        e = RootedGraph(Graph(2, [(0, 1)]), frozenset({0}))
        out = attach_ktt_rooted(e, 1)
        assert is_isomorphic(out.graph, theta(2, 2))

    def test_growth_formula(self):
        for f in (self.P3, rooted_path(4)):
            a, b = bipartition(f.graph)
            for t in (1, 2, 3):
                out = attach_ktt_rooted(f, t)
                assert out.graph.m == f.graph.m + t * t + t * len(a) + t * len(b)

    def test_result_bipartite_with_stated_parts(self):
        out = attach_ktt_rooted(self.P3, 2)
        a, b = (0, 2, 3, 4), (1, 5, 6)  # A + C and B + D
        assert bipartition(out.graph) == (a, b)
        for u in a:
            for v in a:
                assert not out.graph.has_edge(u, v)
        for u in b:
            for v in b:
                assert not out.graph.has_edge(u, v)


class TestAttachKttRooted:
    def test_roots_grow(self):
        f = height_two_tree(3, 1)
        out = attach_ktt_rooted(f, 1)
        assert len(out.roots) == len(f.roots) + 2

    def test_t0_is_identity(self):
        f = rooted_path(2)
        assert attach_ktt_rooted(f, 0) is f

    def test_invalid_parts(self):
        # an odd-cycle rooted graph has no parts to attach along
        f = RootedGraph(Graph(3, [(0, 1), (1, 2), (0, 2)]), frozenset({0}))
        with pytest.raises(NotBipartite):
            attach_ktt_rooted(f, 1)

    def test_odd_cycle_checked_before_t(self):
        triangle = RootedGraph(Graph(3, [(0, 1), (1, 2), (0, 2)]), frozenset({0}))
        with pytest.raises(NotBipartite, match="odd cycle"):
            attach_ktt_rooted(triangle, -1)
        with pytest.raises(ValueError, match="nonnegative"):
            attach_ktt_rooted(rooted_path(2), -1)


class TestDescriptors:
    def test_named_families(self):
        assert is_isomorphic(as_graph(parse_descriptor("Trt:r=3,t=1")),
                             height_two_tree(3, 1).graph)
        assert is_isomorphic(as_graph(parse_descriptor("Tr11:r=2")), tree_r11(2).graph)
        assert is_isomorphic(as_graph(parse_descriptor("path:len=3")), rooted_path(3).graph)
        assert is_isomorphic(as_graph(parse_descriptor("theta:len=3,t=2")), theta(3, 2))
        assert is_isomorphic(as_graph(parse_descriptor("Kst:s=2,t=3")),
                             complete_bipartite_template(2, 3).graph)

    def test_nested_power(self):
        obj = parse_descriptor("power:base=(path:len=2),l=3")
        assert is_isomorphic(as_graph(obj), theta(2, 3))

    def test_reduction_descriptor(self):
        obj = parse_descriptor("f1:base=(path:len=2)")
        assert obj.graph.n == 5 and len(obj.roots) == 4

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            parse_descriptor("mystery:x=1")

    @pytest.mark.parametrize("desc, key", [
        ("path:len=2,len=3", "len"),
        ("Trt:r=1,t=1,r=2", "r"),
        ("power:base=(path:len=2),l=2,l=2", "l"),
        ("f1:base=(path:len=2),base=(path:len=3)", "base"),
    ])
    def test_repeated_key(self, desc, key):
        with pytest.raises(ValueError, match=f"repeated.* {key}="):
            parse_descriptor(desc)

    @pytest.mark.parametrize("desc, key", [
        ("path:len=2,extra=3", "extra"),
        ("star:r=2,t=1", "t"),
        ("Kst:s=2,t=3,r=1", "r"),
        ("power:base=(path:len=2),l=2,q=(x)", "q"),
        ("f1:base=(path:len=2),l=2", "l"),
        ("power:base=(path:len=2,extra=1),l=2", "extra"),
    ])
    def test_key_the_kind_does_not_read(self, desc, key):
        with pytest.raises(ValueError, match=f"takes no {key}="):
            parse_descriptor(desc)

    def test_as_template_odd_cycle(self):
        with pytest.raises(NotBipartite):
            as_template(Graph(3, [(0, 1), (1, 2), (0, 2)]))
