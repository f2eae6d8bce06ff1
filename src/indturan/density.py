"""Exact rooted density and balancedness.

For a rooted graph F with roots R and a nonempty S of vertices, e_S counts the
edges with at least one endpoint in S and rho_F(S) = e_S / |S|.  The density
rho(F) is rho_F(V \\ R), and F is balanced when no nonempty subset of the
non-roots beats it from below.  Everything is computed with Fraction, never
floats, and balancedness is settled by exhaustive subset enumeration under a
hard budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import EmptyQuery, TooLarge
from .families import Parts, RootedGraph, as_graph, attach_ktt_rooted

BALANCE_BUDGET = 30


def edges_incident(f, s: Iterable[int]) -> int:
    """Number of edges with at least one endpoint in s."""
    sv = set(s)
    if not sv:
        raise EmptyQuery("edges_incident needs a nonempty set")
    g = as_graph(f)
    for v in sv:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    return sum(1 for u, v in g.edges if u in sv or v in sv)


def rho_subset(f, s: Iterable[int]) -> Fraction:
    sv = list(s)
    return Fraction(edges_incident(f, sv), len(set(sv)))


def rho(f: RootedGraph) -> Fraction:
    """rho(F) = e_S / |S| for S the full non-root set."""
    return rho_subset(f, f.non_roots())


@dataclass(frozen=True)
class DensityReport:
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


def is_balanced(f: RootedGraph, budget: int = BALANCE_BUDGET) -> DensityReport:
    """Exhaustive check of rho_F(S) >= rho(F) over nonempty S of non-roots.

    When unbalanced, the witness is the minimum-rho subset, ties broken by the
    lexicographically least sorted vertex tuple, so tests are deterministic.
    """
    non = f.non_roots()
    q = len(non)
    if q > budget:
        raise TooLarge(f"{q} non-roots exceed the balance budget of {budget}")
    g = f.graph
    edge_list = sorted(g.edges)
    # incidence bitmask over edge indices, per non-root vertex
    inc = []
    for v in non:
        m = 0
        for i, (a, b) in enumerate(edge_list):
            if a == v or b == v:
                m |= 1 << i
        inc.append(m)
    target = rho(f)
    best: Optional[Fraction] = None
    best_set: Optional[tuple[int, ...]] = None
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
    assert best is not None
    balanced = best >= target
    witness = None if balanced else best_set
    exponent = 2 - Fraction(1, 1) / target if target > 0 else None
    return DensityReport(target, balanced, witness, exponent)


def verify_reduction_rho(f: RootedGraph, parts: Parts, budget: int = BALANCE_BUDGET) -> bool:
    """True iff one K_{1,1} reduction raises rho by exactly 1 and keeps a
    balanced input balanced."""
    reduced = attach_ktt_rooted(f, parts, 1)
    if rho(reduced) != rho(f) + 1:
        return False
    if is_balanced(f, budget).balanced and not is_balanced(reduced, budget).balanced:
        return False
    return True
