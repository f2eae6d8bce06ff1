import math
import typing
from fractions import Fraction

import pytest

from indturan import realizability
from indturan.density import is_balanced, rho
from indturan.errors import NotQualified, TooLarge
from indturan.families import RootedGraph, as_template, rooted_power, theta
from indturan.graph import Graph, bipartition
from indturan.oracles import is_isomorphic
from indturan.realizability import (
    BaseFamily,
    RealizabilityCertificate,
    VerificationResult,
    build_witness,
    derive,
    enumerate_realizable,
    qualifies,
    verify_certificate,
)


class TestQualifies:
    def test_frozen_examples(self):
        assert qualifies(2, 3)
        assert not qualifies(5, 9)
        assert qualifies(4, 6)  # reduces to (2, 3)

    def test_boundary(self):
        assert qualifies(4, 9)  # 9 = (4-1)^2 exactly
        assert qualifies(4, 8)  # reduces to (1, 2), which qualifies
        assert not qualifies(5, 12)  # coprime, 12 < 16
        assert qualifies(1, 2)

    def test_reduction_first(self):
        # (6, 8) -> (3, 4): 4 >= max(3, 4) qualifies
        assert qualifies(6, 8)
        # (6, 9) -> (2, 3) qualifies
        assert qualifies(6, 9)

    def test_integer_or_below_one_rejected(self):
        assert not qualifies(3, 3)
        assert not qualifies(4, 2)

    def test_independent_arithmetic_filter(self):
        for a in range(1, 7):
            for b in range(1, 30):
                g = math.gcd(a, b)
                a0, b0 = a // g, b // g
                expect = b0 > a0 and b0 >= max(a0, (a0 - 1) ** 2)
                assert qualifies(a, b) == expect


class TestDerive:
    def test_residue_one(self):
        cert = derive(5, 16)
        assert cert.base.kind == "theta" and cert.base.length == 6
        assert cert.reductions == 2
        assert bool(verify_certificate(cert))

    def test_residue_minus_one(self):
        cert = derive(4, 11)
        assert cert.base.kind == "tr11" and cert.base.r == 3
        assert cert.reductions == 1
        assert bool(verify_certificate(cert))

    def test_reduces_before_casework(self):
        cert = derive(4, 10)
        assert cert.target == Fraction(2, 5)
        assert cert.base.kind == "theta" and cert.base.length == 3
        assert cert.reductions == 1

    def test_integer_exponent_family(self):
        cert = derive(1, 3)
        assert cert.base.kind == "ktl" and cert.base.t == 3
        assert cert.reductions == 0

    def test_generic_residue(self):
        cert = derive(5, 17)  # 17 mod 5 = 2, generic: height-two base
        assert cert.base.kind == "height_two"
        assert cert.base.r == 4 and cert.base.t == 2
        assert bool(verify_certificate(cert))

    def test_not_qualified(self):
        with pytest.raises(NotQualified):
            derive(5, 9)

    def test_chain_property(self):
        # same residue class: one extra reduction per +a step
        for a, b in ((3, 7), (4, 13), (5, 16)):
            c1, c2 = derive(a, b), derive(a, b + a)
            assert c2.base == c1.base
            assert c2.reductions == c1.reductions + 1

    def test_exponent_field(self):
        cert = derive(2, 5)
        assert cert.exponent == 2 - Fraction(2, 5)

    def test_balance_budget_before_the_witness(self, monkeypatch):
        # 1000 copies of the theta's two non-roots exceed the budget, which
        # is named before the power is built
        def unbuilt(base, l):
            raise AssertionError("the power was built")

        monkeypatch.setattr(realizability, "rooted_power", unbuilt)
        with pytest.raises(TooLarge, match="2000 non-roots exceed the balance budget of 400"):
            derive(2, 5, l=1000)


def stepwise_witness(cert: RealizabilityCertificate, l: int) -> RootedGraph:
    """The witness built one crossed K_{1,1} at a time: reduction i adds
    c = n + 2i, joined to side B, and d = n + 2i + 1, joined to side A and to c;
    then c joins side A, d joins side B, and both become roots."""
    f = rooted_power(cert.base.rooted_graph(), l)
    a, b = as_template(f).parts
    n, edges, roots = f.graph.n, set(f.graph.edges), set(f.roots)
    for _ in range(cert.reductions):
        c, d = n, n + 1
        edges |= {(c, d)} | {(x, d) for x in a} | {(y, c) for y in b}
        a, b, roots, n = a + (c,), b + (d,), roots | {c, d}, n + 2
    return RootedGraph(Graph(n, edges), frozenset(roots))


class TestBuildWitness:
    def test_k34(self):
        cert = derive(1, 3, l=4)
        w = build_witness(cert, cert.base.rooted_graph())
        k34 = Graph(7, [(i, j) for i in range(3) for j in range(3, 7)])
        assert is_isomorphic(w.graph, k34)

    def test_c6(self):
        cert = derive(2, 3, l=2)
        w = build_witness(cert, cert.base.rooted_graph())
        assert is_isomorphic(w.graph, theta(3, 2))

    def test_s0_is_vertex_count(self):
        cert = derive(5, 16)
        w = build_witness(cert, cert.base.rooted_graph())
        assert cert.s0 == w.graph.n

    def test_reduced_witness_properties(self):
        cert = derive(2, 5)
        w = build_witness(cert, cert.base.rooted_graph())
        assert rho(w) == Fraction(5, 2)
        assert is_balanced(w).balanced
        assert bipartition(w.graph) is not None

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_matches_stepwise_construction(self, l):
        # one K_{r,r} attachment is r single K_{1,1} steps under the
        # relabelling c_i -> n + i, d_i -> n + r + i
        for _, _, cert in enumerate_realizable(7, 50, l):
            old = stepwise_witness(cert, l)
            r, n = cert.reductions, old.graph.n - 2 * cert.reductions
            label = list(range(n)) + [n + (i // 2) + (i % 2) * r for i in range(2 * r)]
            w = build_witness(cert, cert.base.rooted_graph())
            assert w.graph.edges == {tuple(sorted((label[u], label[v])))
                                     for u, v in old.graph.edges}
            assert w.roots == {label[v] for v in old.roots}


class TestVerify:
    def test_corrupted_reductions(self):
        cert = derive(5, 16)
        bad = RealizabilityCertificate(
            target=cert.target, base=cert.base, reductions=cert.reductions + 1,
            l=cert.l, s0=cert.s0, exponent=cert.exponent)
        res = verify_certificate(bad)
        assert not res and res.reason == "RhoMismatch"

    def test_corrupted_exponent(self):
        cert = derive(2, 5)
        bad = RealizabilityCertificate(
            target=cert.target, base=cert.base, reductions=cert.reductions,
            l=cert.l, s0=cert.s0, exponent=cert.exponent + 1)
        assert not verify_certificate(bad)

    @pytest.mark.parametrize("change, reason", [
        ({"target": Fraction(5, 9)}, "BadParameters"),  # 9 < (5 - 1)^2
        ({"target": Fraction(16, 5)}, "BadParameters"),  # a > b
        ({"reductions": -1}, "BadParameters"),
        ({"l": 0}, "BadParameters"),
        ({"base": BaseFamily("wheel", r=3)}, "BadParameters"),  # unknown kind
        ({"base": BaseFamily("theta", length=1)}, "BadParameters"),  # DegenerateRoot
        ({"base": BaseFamily("theta")}, "BadParameters"),  # None argument
        ({"base": BaseFamily("theta", length="6")}, "BadParameters"),
        ({"base": BaseFamily("theta", length=6.0)}, "BadParameters"),
        ({"s0": 1}, "BadParameters"),
        ({"reductions": 1}, "RhoMismatch"),
        ({"base": BaseFamily("theta", length=4)}, "RhoMismatch"),
        ({"exponent": Fraction(8, 5)}, "ExponentMismatch"),
        # the witness has rho 3, but its non-root 3 alone has ratio 2
        ({"target": Fraction(1, 3), "base": BaseFamily("height_two", r=1, t=3),
          "reductions": 1, "exponent": Fraction(5, 3), "s0": 9}, "Unbalanced"),
    ])
    def test_each_reason(self, change, reason):
        # derive(5, 16): a theta of length 6, two reductions, l = 2, s0 = 16
        cert = derive(5, 16)._replace(**change)
        assert verify_certificate(cert) == (False, reason)

    def test_constructor_fault_propagates(self, monkeypatch):
        # only what bad parameters raise becomes BadParameters; a fault
        # inside a constructor is not a verdict
        cert = derive(5, 16)

        def broken(length):
            raise IndexError("constructor bug")

        monkeypatch.setitem(realizability._BASE_KINDS, "theta", (broken, (("length", "len"),)))
        with pytest.raises(IndexError):
            verify_certificate(cert)

    def test_odd_cycle_base_is_not_bipartite(self, monkeypatch):
        # every base kind is a tree; a 5-cycle with a pendant root has the
        # theta's rho 6/5, so the replay reaches the witness and its colouring
        cert = derive(5, 16)

        def odd(length):
            return RootedGraph(Graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(0, 5)]), {5})

        monkeypatch.setitem(realizability._BASE_KINDS, "theta", (odd, (("length", "len"),)))
        assert verify_certificate(cert) == VerificationResult(False, "NotBipartite")


class TestSweep:
    def test_3_10_exact_pairs(self):
        rows = enumerate_realizable(3, 10)
        pairs = [(a, b) for a, b, _ in rows]
        expect = [(1, b) for b in range(2, 11)] + \
                 [(2, b) for b in (3, 5, 7, 9)] + \
                 [(3, b) for b in (4, 5, 7, 8, 10)]
        assert pairs == sorted(expect)
        assert len(pairs) == 18

    def test_all_verified(self):
        for _, _, cert in enumerate_realizable(3, 10):
            assert bool(verify_certificate(cert))

    def test_budget(self):
        with pytest.raises(TooLarge):
            enumerate_realizable(3, realizability.ENUMERATION_BUDGET + 1)

    def test_two_base_builds_per_certificate(self, monkeypatch):
        # derive builds the base once for s0, and verify_certificate once for
        # rho(base) and the witness.
        calls = []
        built = BaseFamily.rooted_graph
        monkeypatch.setattr(BaseFamily, "rooted_graph",
                            lambda self: calls.append(self) or built(self))
        rows = enumerate_realizable(7, 50)
        assert len(rows) == 176 and len(calls) == 2 * len(rows)

    def test_matches_arithmetic_filter(self):
        rows = enumerate_realizable(4, 20)
        got = {(a, b) for a, b, _ in rows}
        expect = {(a, b) for a in range(1, 5) for b in range(a + 1, 21)
                  if math.gcd(a, b) == 1 and b >= max(a, (a - 1) ** 2)}
        assert got == expect


def test_witness_type_hints_resolve():
    assert typing.get_type_hints(realizability.build_witness)["return"] is RootedGraph
