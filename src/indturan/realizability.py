"""Certificates that a rational exponent 2 - a/b is realized by a rooted family.

For reduced a/b with b >= max(a, (a-1)^2) the residue of b mod a picks a base
family whose density is congruent to b/a, and r reductions walk it up to b/a.
The r reductions are one K_{r,r} attachment to the glued graph, which raises
the density by exactly r (r crossed K_{1,1}s, attached one after another with
their parts tracked, give the same graph up to relabelling):

  a = 1          -> leaf-rooted star with b leaves (powers are K_{b,l})
  b mod a = 1    -> rooted path of length a+1
  b mod a = a-1  -> tree_r11(a-1)               (a >= 3)
  else residue d -> height_two_tree(a-1, a-1-d) (a >= 4)

A certificate is plain values: the target a/b as a reduced `Fraction`, the
base, the reduction count r, the gluing multiplicity l, the sufficient
host-side value s0 = |V(H)| for H the witness graph, and the exponent 2 - a/b.
verify_certificate replays the arithmetic and re-derives the density and
balancedness of the rebuilt witness from scratch; a base that its constructor
rejects (an unknown kind, a degenerate or mistyped argument) is BadParameters,
and any other error propagates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .density import check_balance_budget, is_balanced, rho
from .errors import CertificateInvalid, IndturanError, NotBipartite, NotQualified, TooLarge
from .families import (
    RootedGraph,
    attach_ktt_rooted,
    height_two_tree,
    leaf_rooted_star,
    rooted_path,
    rooted_power,
    tree_r11,
)

S0_RULE = "s0 = |V(H)|"

ENUMERATION_BUDGET = 400


# kind -> (constructor, its arguments as (field, JSON key) pairs)
_BASE_KINDS = {
    "ktl": (leaf_rooted_star, (("t", "t"),)),
    "theta": (rooted_path, (("length", "len"),)),
    "tr11": (tree_r11, (("r", "r"),)),
    "height_two": (height_two_tree, (("r", "r"), ("t", "t"))),
}


def _base_kind(kind: str):
    if kind not in _BASE_KINDS:
        raise ValueError(f"unknown base kind {kind!r}")
    return _BASE_KINDS[kind]


class BaseFamily(NamedTuple):
    kind: str  # "ktl" | "theta" | "tr11" | "height_two"
    r: Optional[int] = None
    t: Optional[int] = None
    length: Optional[int] = None

    def rooted_graph(self) -> RootedGraph:
        build, args = _base_kind(self.kind)
        return build(*(getattr(self, name) for name, _ in args))

    def as_json_dict(self) -> dict:
        _, args = _base_kind(self.kind)
        return {"kind": self.kind, **{key: getattr(self, name) for name, key in args}}


class RealizabilityCertificate(NamedTuple):
    target: Fraction  # a/b of 2 - a/b, reduced, with 0 < a < b
    base: BaseFamily
    reductions: int
    l: int
    s0: int
    exponent: Fraction

    def as_json_dict(self) -> dict:
        return {
            "a": self.target.numerator,
            "b": self.target.denominator,
            "base": self.base.as_json_dict(),
            "reductions": self.reductions,
            "l": self.l,
            "s0": self.s0,
            "s0_rule": S0_RULE,
            "exponent": str(self.exponent),
        }


def qualifies(a: int, b: int) -> bool:
    """True iff the reduced form (a0, b0) satisfies b0 > a0 and
    b0 >= max(a0, (a0 - 1)^2)."""
    if a < 1 or b < 1:
        return False
    g = math.gcd(a, b)
    a0, b0 = a // g, b // g
    return b0 > a0 and b0 >= max(a0, (a0 - 1) ** 2)


def build_witness(cert: RealizabilityCertificate, base: RootedGraph) -> RootedGraph:
    """The rooted witness of a certificate: l copies of base, the rooted graph
    of cert.base, glued along their roots, then one K_{r,r} attached for the
    r = cert.reductions reductions (its 2r vertices are roots).  Its graph is
    H, and s0 = H.n.

    Attaching first and gluing second would name the same graph H (the added
    vertices are roots, shared by every copy), but gluing an attached graph
    would put an edge inside the root set, which the power constructor
    rejects; this order keeps every operand legal and yields H directly.
    H's non-roots, l per base non-root, are held to the balance budget first.
    """
    check_balance_budget(cert.l * len(base.non_roots()))
    f = rooted_power(base, cert.l)
    return attach_ktt_rooted(f, cert.reductions)


class VerificationResult(NamedTuple):
    ok: bool
    reason: Optional[str] = None  # RhoMismatch | Unbalanced | NotBipartite |
                                  # ExponentMismatch | BadParameters

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(cert: RealizabilityCertificate) -> VerificationResult:
    """Replay a certificate from scratch; no trust in how it was produced."""
    t = cert.target
    if not qualifies(t.numerator, t.denominator):
        return VerificationResult(False, "BadParameters")
    if cert.reductions < 0 or cert.l < 1:
        return VerificationResult(False, "BadParameters")
    try:
        base_graph = cert.base.rooted_graph()
    except (IndturanError, ValueError, TypeError):  # what a bad kind or argument raises
        return VerificationResult(False, "BadParameters")
    target_rho = 1 / t
    if rho(base_graph) + cert.reductions != target_rho:
        return VerificationResult(False, "RhoMismatch")
    try:
        witness = build_witness(cert, base_graph)
    except NotBipartite:
        return VerificationResult(False, "NotBipartite")
    report = is_balanced(witness)
    if report.rho != target_rho:
        return VerificationResult(False, "RhoMismatch")
    if not report.balanced:
        return VerificationResult(False, "Unbalanced")
    if cert.exponent != 2 - t:
        return VerificationResult(False, "ExponentMismatch")
    if cert.s0 != witness.graph.n:
        return VerificationResult(False, "BadParameters")
    return VerificationResult(True)


def derive(a: int, b: int, l: int = 2) -> RealizabilityCertificate:
    """Certificate for 2 - a/b via the residue of b mod a (after reduction).

    Every certificate returned has passed verify_certificate here, so callers
    need not verify it again; a failure raises CertificateInvalid, an
    internal fault (a DisprovesLemma), never a domain error.
    """
    if a < 1 or b < 1:
        raise NotQualified(f"({a}, {b}) must be positive")
    if not qualifies(a, b):
        raise NotQualified(f"({a}, {b}) fails b > a and b >= max(a, (a-1)^2) after reduction")
    g = math.gcd(a, b)
    a0, b0 = a // g, b // g
    if a0 == 1:
        base = BaseFamily("ktl", t=b0)
        red = 0
    else:
        res = b0 % a0
        if res == 1:
            base = BaseFamily("theta", length=a0 + 1)
            red = (b0 - 1) // a0 - 1
        elif res == a0 - 1:
            base = BaseFamily("tr11", r=a0 - 1)
            red = (b0 + 1) // a0 - 2
        else:
            base = BaseFamily("height_two", r=a0 - 1, t=a0 - 1 - res)
            red = (b0 - res) // a0 - (a0 - 1 - res)
    if red < 0:
        raise CertificateInvalid(f"negative reduction count for ({a0}, {b0})")
    if l < 1:
        raise ValueError("power needs l >= 1")
    target = Fraction(a0, b0)
    # |V(H)|: the shared roots, l copies of the non-roots, two vertices per reduction.
    f = base.rooted_graph()
    s0 = len(f.roots) + l * len(f.non_roots()) + 2 * red
    cert = RealizabilityCertificate(target, base, red, l, s0=s0, exponent=2 - target)
    check = verify_certificate(cert)
    if not check:
        raise CertificateInvalid(f"derived certificate failed verification: {check.reason}")
    return cert


def enumerate_realizable(a_max: int, b_max: int, l: int = 2):
    """All reduced qualifying (a, b) with a <= a_max, a < b <= b_max, verified."""
    if a_max > ENUMERATION_BUDGET or b_max > ENUMERATION_BUDGET:
        raise TooLarge(f"enumeration bounds exceed {ENUMERATION_BUDGET}")
    out = []
    for a in range(1, a_max + 1):
        for b in range(a + 1, b_max + 1):
            if math.gcd(a, b) != 1 or not qualifies(a, b):
                continue
            out.append((a, b, derive(a, b, l)))
    return out
