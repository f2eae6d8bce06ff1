import json
import math
import typing
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indturan import realizability
from indturan.density import is_balanced, rho
from indturan.errors import NotQualified, TooLarge
from indturan.families import RootedGraph, as_template, rooted_power, theta
from indturan.graph import Graph, bipartition
from indturan.oracles import is_isomorphic
from indturan.realizability import (
    BaseFamily,
    RealizabilityCertificate,
    ReducedRational,
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
        assert (cert.target.a, cert.target.b) == (2, 5)
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


@cache
def sweep_7_50(l):
    return enumerate_realizable(7, 50, l)


class TestVerify:
    def test_corrupted_reductions(self):
        cert = derive(5, 16)
        bad = RealizabilityCertificate(
            target=cert.target, base=cert.base, reductions=cert.reductions + 1,
            l=cert.l, s0=cert.s0, exponent=cert.exponent, s0_rule=cert.s0_rule)
        res = verify_certificate(bad)
        assert not res and res.reason == "RhoMismatch"

    def test_corrupted_exponent(self):
        cert = derive(2, 5)
        bad = RealizabilityCertificate(
            target=cert.target, base=cert.base, reductions=cert.reductions,
            l=cert.l, s0=cert.s0, exponent=cert.exponent + 1, s0_rule=cert.s0_rule)
        assert not verify_certificate(bad)

    @settings(deadline=None)
    @given(st.sampled_from([1, 2, 3]), st.booleans())
    def test_json_round_trip(self, l, with_verified):
        # the CLI prints as_json_dict() plus a "verified" key
        for _, _, cert in sweep_7_50(l):
            extra = {"verified": True} if with_verified else {}
            data = json.loads(json.dumps({**cert.as_json_dict(), **extra},
                                         sort_keys=True, indent=2))
            assert RealizabilityCertificate.from_json_dict(data) == cert


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


class TestReducedRational:
    def test_validation(self):
        r = ReducedRational(2, 5)
        assert r.density == Fraction(5, 2)
        assert r.exponent == 2 - Fraction(2, 5)
        with pytest.raises(ValueError):
            ReducedRational(2, 4)
        with pytest.raises(ValueError):
            ReducedRational(3, 2)

    def test_base_family_round_trip(self):
        for base in (BaseFamily("theta", length=4), BaseFamily("tr11", r=3),
                     BaseFamily("height_two", r=4, t=2), BaseFamily("ktl", t=5)):
            assert BaseFamily.from_json_dict(base.as_json_dict()) == base
            assert base.rooted_graph().graph.n > 0


def test_witness_type_hints_resolve():
    assert typing.get_type_hints(realizability.build_witness)["return"] is RootedGraph
