import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from indturan.errors import (
    InvalidPartition,
    Multigraph,
    NotBipartite,
)
from indturan.families import BipartiteTemplate, as_template
from indturan.graph import (
    Graph,
    Host,
    bipartition,
    bits,
    common_neighborhood_mask,
    cross_subgraph,
    edge_subgraph,
    first_rich_subset,
    graph_from_json_dict,
    graph_to_json_dict,
    induced_subgraph,
    mask_of,
    relabel,
    to_dot,
)
from indturan.oracles import Pattern

from helpers import bipartition_reference, induced_subgraph_reference, is_k_almost_regular


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def bipartite_graphs(draw, max_n=9):
    """A graph whose edges all join two random sides, so it is bipartite."""
    n = draw(st.integers(0, max_n))
    side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if side[u] != side[v]]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def disjoint_unions(draw):
    """A disjoint union of up to four bipartite or random graphs, its
    vertices shuffled so that the components interleave."""
    edges, n = [], 0
    for h in draw(st.lists(bipartite_graphs(5) | graphs(5), max_size=4)):
        edges += [(u + n, v + n) for u, v in h.edge_list()]
        n += h.n
    perm = draw(st.permutations(range(n)))
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


@st.composite
def edge_subsets(draw):
    """(g, edges): a list of g's edges, with repeats, each in either orientation."""
    g = draw(graphs())
    chosen = draw(st.lists(st.sampled_from(g.edge_list()))) if g.m else []
    return g, [(v, u) if draw(st.booleans()) else (u, v) for u, v in chosen]


@st.composite
def partitioned_hosts(draw):
    """A Host whose (X, Y) partition puts each vertex on a random side."""
    g = draw(graphs())
    in_x = draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
    x = tuple(v for v in range(g.n) if in_x[v])
    return Host(g, 2, (x, tuple(v for v in range(g.n) if not in_x[v])))


class TestGraphBasics:
    def test_edges_normalized_and_counted(self):
        g = Graph(4, [(2, 0), (0, 2), (1, 3)])
        assert g.m == 2
        assert g.has_edge(0, 2) and g.has_edge(2, 0)
        assert g.edge_list() == [(0, 2), (1, 3)]

    def test_degrees_and_neighbors(self):
        g = path(4)
        assert [g.degree(v) for v in range(4)] == [1, 2, 2, 1]
        assert g.neighbors(1) == (0, 2)

    def test_loop_rejected(self):
        with pytest.raises(Multigraph):
            Graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    def test_equality_and_hash(self):
        assert Graph(3, [(0, 1)]) == Graph(3, [(1, 0)])
        assert len({Graph(3, [(0, 1)]), Graph(3, [(0, 1)])}) == 1

    def test_mask_helpers(self):
        assert mask_of([0, 2]) == 0b101
        assert list(bits(0b1011)) == [0, 1, 3]


class TestNeighborhoods:
    def test_common_neighborhood_excludes_query(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        assert common_neighborhood_mask(g.adj, [0, 1]) == mask_of([2])

    def test_common_neighborhood_empty_query(self):
        # no constraint at all: every vertex qualifies
        assert common_neighborhood_mask(Graph(3, [(0, 1)]).adj, []) == 0b111

    def test_common_neighborhood_of_twins(self):
        g = Graph(5, [(0, 2), (1, 2), (0, 3), (1, 3), (0, 4)])
        assert common_neighborhood_mask(g.adj, [0, 1]) == mask_of([2, 3])

    @given(st.data(), graphs(), st.integers(0, 4))
    def test_first_rich_subset_matches_brute_force(self, data, g, k):
        # the first k-subset of candidates, in their order, with at least
        # least vertices outside it adjacent to all of its members
        candidates = data.draw(st.lists(st.integers(0, max(g.n - 1, 0)), unique=True)
                               if g.n else st.just([]))
        least = data.draw(st.integers(0, g.n + 1))
        want = None
        for sub in combinations(candidates, k):
            if sum(all(g.has_edge(w, v) for v in sub) for w in range(g.n)
                   if w not in sub) >= least:
                want = sub
                break
        assert first_rich_subset(g.adj, candidates, k, least) == want

    def test_first_rich_subset_known_cases(self):
        k23 = Graph(5, [(u, w) for u in (0, 1) for w in (2, 3, 4)])
        assert first_rich_subset(k23.adj, range(5), 2, 3) == (0, 1)
        assert first_rich_subset(k23.adj, [4, 3, 2], 2, 2) == (4, 3)
        assert first_rich_subset(k23.adj, range(5), 2, 4) is None
        assert first_rich_subset(k23.adj, range(5), 0, 5) == ()  # every vertex
        assert first_rich_subset(k23.adj, range(5), 6, 0) is None  # too few candidates


class TestInducedSubgraph:
    def test_keeps_internal_edges_only(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        sub, idx = induced_subgraph(g, [1, 2, 4])
        assert sub.n == 3 and idx == (1, 2, 4)
        assert sub.edge_list() == [(0, 1)]

    def test_random_degree_consistency(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randrange(2, 9)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.4]
            g = Graph(n, edges)
            keep = sorted(rng.sample(range(n), rng.randrange(1, n + 1)))
            sub, idx = induced_subgraph(g, keep)
            for i, u in enumerate(idx):
                expect = sum(1 for v in idx if v != u and g.has_edge(u, v))
                assert sub.degree(i) == expect


class TestRelabel:
    @settings(max_examples=200, deadline=None)
    @given(graphs(10), st.data())
    def test_matches_edge_definition(self, g, data):
        # order: a random subset of the vertices in a random order
        perm = data.draw(st.permutations(range(g.n)))
        order = perm[:data.draw(st.integers(0, g.n))]
        pos = {v: i for i, v in enumerate(order)}
        expect = Graph(len(order), [(pos[u], pos[w]) for u, w in g.edges
                                    if u in pos and w in pos])
        assert relabel(g.adj, order) == expect.adj

    @settings(max_examples=200, deadline=None)
    @given(graphs(10), st.data())
    def test_induced_subgraph_matches_reference(self, g, data):
        # ids inside the graph in any order, or with ids past either end of it
        s = data.draw(st.permutations(range(g.n)) | st.lists(st.integers(-1, g.n)))
        try:
            expect = induced_subgraph_reference(g, s)
        except ValueError:
            with pytest.raises(ValueError):
                induced_subgraph(g, s)
        else:
            assert induced_subgraph(g, s) == expect


class TestAlmostRegularReference:
    def test_almost_regular(self):
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert is_k_almost_regular(star, Fraction(3))
        assert not is_k_almost_regular(star, Fraction(2))
        assert is_k_almost_regular(Graph(3, []), Fraction(1))


class TestBipartition:
    def test_even_cycle(self):
        g = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        parts = bipartition(g)
        assert parts is not None
        a, b = parts
        assert sorted(a + b) == list(range(6))
        assert all(not g.has_edge(u, v) for side in (a, b)
                   for u in side for v in side if u < v)

    def test_odd_cycle(self):
        assert bipartition(Graph(5, [(i, (i + 1) % 5) for i in range(5)])) is None

    def test_disconnected(self):
        parts = bipartition(Graph(4, [(0, 1), (2, 3)]))
        assert parts is not None

    @settings(max_examples=300, deadline=None)
    @given(disjoint_unions())
    @example(Graph(0, []))
    @example(Graph(3, []))
    @example(Graph(6, [(0, 1), (2, 3), (3, 4), (2, 4)]))  # an odd cycle in a later component
    @example(Graph(7, [(0, 5), (5, 2), (3, 6), (6, 1), (4, 1)]))
    def test_matches_reference(self, g):
        # the layered colouring gives the neighbour-by-neighbour answer,
        # sides and odd cycles alike
        assert bipartition(g) == bipartition_reference(g)

    @given(bipartite_graphs() | graphs())
    def test_least_vertex_of_each_component_first(self, g):
        # `families._sides` relies on this to put vertex 0 on side A
        parts = bipartition(g)
        assume(parts is not None)
        seen = 0
        for v in range(g.n):
            if seen >> v & 1:
                continue
            assert v in parts[0]  # v is the least vertex of its component
            reach, frontier = 1 << v, 1 << v
            while frontier:
                nxt = 0
                for u in bits(frontier):
                    nxt |= g.adj[u]
                frontier = nxt & ~reach
                reach |= frontier
            seen |= reach
        if g.n:
            assert 0 in as_template(g).a_side


class TestHost:
    def test_partition_validated(self):
        g = path(4)
        h = Host(g, 2, ((0, 2), (1, 3)))
        assert h.partition == ((0, 2), (1, 3))
        with pytest.raises(InvalidPartition):
            Host(g, 2, ((0, 1), (1, 3)))
        with pytest.raises(InvalidPartition):
            Host(g, 2, ((0, 1), (2,)))

    def test_s_validated(self):
        with pytest.raises(ValueError):
            Host(path(2), 0)


class TestPartitionRule:
    # Partitions of an edgeless graph on 0..3, so a template can only fail on
    # its parts.
    MALFORMED = {
        "overlapping": ((0, 1), (1, 2, 3)),
        "duplicated": ((0, 0, 1), (2, 3)),
        "missing a vertex": ((0, 1), (2,)),
        "out of range": ((0, 1), (2, 3, 4)),
        "negative": ((-1, 0, 1), (2, 3)),
        "three sides": ((0,), (1, 2), (3,)),
    }

    @pytest.mark.parametrize("parts", MALFORMED.values(), ids=MALFORMED)
    def test_host_and_template_reject_alike(self, parts):
        g = Graph(4, [])
        with pytest.raises(InvalidPartition) as host_error:
            Host(g, 2, parts)
        with pytest.raises(NotBipartite) as template_error:
            BipartiteTemplate(g, parts)
        assert str(host_error.value) == str(template_error.value)

    def test_sides_sorted_alike(self):
        g = path(4)
        parts = ((2, 0), (3, 1))
        assert Host(g, 2, parts).partition == BipartiteTemplate(g, parts).parts == ((0, 2), (1, 3))


class TestJson:
    @given(partitioned_hosts(), st.data())
    def test_round_trip_with_roots_and_partition(self, host, data):
        g = host.graph
        keep = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
        roots = data.draw(st.none() | st.permutations([v for v in range(g.n) if keep[v]]))
        partition = data.draw(st.sampled_from([None, host.partition]))
        text = json.dumps(graph_to_json_dict(g, roots=roots, partition=partition),
                          sort_keys=True, indent=2)
        g2, roots2, part2 = graph_from_json_dict(json.loads(text))
        assert g2 == g
        assert roots2 == (None if roots is None else tuple(sorted(roots)))
        assert part2 == partition

    def test_sorted_keys(self):
        d = graph_to_json_dict(path(3))
        assert json.dumps(d, sort_keys=True) == json.dumps(
            graph_from_json_dict(d) and d, sort_keys=True)


class TestJsonReader:
    @pytest.mark.parametrize("doc", [
        {"n": True, "edges": []},
        {"n": 2.5, "edges": []},
        {"n": 3, "edges": [[0, 1.5]]},
        {"n": 3, "edges": [[False, 1]]},
        {"n": 3, "roots": [True]},
        {"n": 3, "partition": {"X": [0, 1.0], "Y": [2.5]}},
        {"n": 3, "partition": {"X": [0], "Y": [True, 2]}},
    ])
    def test_non_integer_fields_raise(self, doc):
        with pytest.raises(ValueError):
            graph_from_json_dict(doc)

    @pytest.mark.parametrize("part", [[[0], [1]], "XY", 3])
    def test_non_object_partition_raises(self, part):
        with pytest.raises(TypeError):
            graph_from_json_dict({"n": 2, "partition": part})

    def test_integral_values_pass(self):
        g, roots, part = graph_from_json_dict(
            {"n": "2", "edges": [["0", 1.0]], "roots": ["1"],
             "partition": {"X": [1.0], "Y": ["0"]}})
        assert g == Graph(2, [(0, 1)]) and g.n == 2 and type(g.n) is int
        assert roots == (1,) and part == ((1,), (0,))


class TestDot:
    def test_roots_doublecircled(self):
        text = to_dot(path(3), roots=[0])
        assert "doublecircle" in text and text.startswith("graph")


class TestAdjacencyCore:
    @given(graphs())
    def test_from_rows_round_trip(self, g):
        h = Graph.from_rows(g.adj)
        assert h == g and hash(h) == hash(g)
        assert h.n == g.n and h.edges == g.edges

    @given(graphs())
    def test_edges_agree_with_rows(self, g):
        assert g.m == len(g.edges)
        assert all(u < v for u, v in g.edges)
        for u in range(g.n):
            for v in range(g.n):
                assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in g.edges)

    @given(edge_subsets())
    def test_edge_subgraph_matches_graph(self, args):
        g, edges = args
        sub, want = edge_subgraph(g, edges), Graph(g.n, edges)
        assert sub == want and hash(sub) == hash(want)

    @given(edge_subsets(), st.integers(-1, 9), st.integers(-1, 9))
    def test_edge_subgraph_rejects_non_edges(self, args, u, v):
        g, edges = args
        assume((min(u, v), max(u, v)) not in g.edges)
        with pytest.raises(ValueError):
            edge_subgraph(g, edges + [(u, v)])

    @pytest.mark.parametrize("edge", [(-1, 0), (0, -1), (0, 4), (4, 1), (0, 2)])
    def test_edge_subgraph_rejects_out_of_range(self, edge):
        # on C4, adj[-1] is vertex 3's row, which holds 0: a bare row lookup
        # would take (-1, 0) for an edge
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(ValueError, match="is not an edge of the ambient graph"):
            edge_subgraph(g, [(0, 1), edge])

    def test_rows_are_the_only_state(self):
        assert Graph.__slots__ == ("n", "adj")

    @given(graphs())
    def test_edge_list_read_off_rows(self, g):
        # built from edges, from rows and as a compiled pattern, the edges
        # are the pairwise has_edge scan, in increasing order
        for h in (g, Graph.from_rows(g.adj), Pattern(g)):
            pairs = [(u, v) for u, v in combinations(range(h.n), 2) if h.has_edge(u, v)]
            assert h.edge_list() == sorted(h.edge_list()) == pairs
            assert h.edges == frozenset(h.edge_list())

    @given(partitioned_hosts())
    def test_cross_subgraph_matches_edge_set_build(self, host):
        x = set(host.partition[0])
        want = Graph(host.graph.n, {(u, v) for u, v in host.graph.edges
                                    if (u in x) != (v in x)})
        got = cross_subgraph(host)
        assert got == want and hash(got) == hash(want)
