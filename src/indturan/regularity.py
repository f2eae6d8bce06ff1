"""The almost-regular subgraph lemma, with exact exponent arithmetic.

`regularize` finds an induced K-almost-regular subgraph, K = 2^(4/alpha + 2),
of a graph with at least C n^(1+alpha) edges, and reports which of the
source's edge and size guarantees the result meets.  Its candidates are
vertex masks of the input graph, whose degrees it reads off the adjacency
rows; the subgraph is built once, for the answer.  Every comparison with a
rational exponent goes through one helper, `product_pow_le`, which raises
both sides to a common integer power and compares them as integer cross
products.  That power grows with alpha's denominator, so the helper counts
the bits it would build first and raises TooLarge above `POWER_BUDGET`
(2^28 bits: alpha = 501/1000 needs about 9.2e7, 999/2000 about 3.7e8).
None of the embedding procedures calls it; `indturan check regularize` does.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import DisprovesLemma, EmptyGraph, HypothesisUnmet, TooLarge
from .graph import Graph, bits, induced_subgraph, mask_of

POWER_BUDGET = 1 << 28  # bits of the powers in one product_pow_le comparison


def almost_regular_exponent(alpha: Fraction) -> Fraction:
    """log2 of the almost-regularity factor: 4/alpha + 2."""
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    return 4 / alpha + 2


def almost_regular_factor(alpha: Fraction) -> Fraction:
    """2^(4/alpha + 2), rounded up to the next power of two when fractional."""
    e = almost_regular_exponent(alpha)
    return Fraction(2) ** math.ceil(e)


def product_pow_le(lhs: Sequence[tuple], rhs: Sequence[tuple]) -> bool:
    """Exact test prod(b^e for lhs) <= prod(b^e for rhs) with rational bases
    and exponents, each base positive or zero under a positive exponent
    (0^e = 0): raise both sides to the exponents' lcm, multiply each side's
    numerators and denominators as integers, and compare the cross products,
    so no product pays a gcd.  The lcm grows with the exponents'
    denominators, so the bits of the powers are counted before any is built:
    above POWER_BUDGET, TooLarge."""
    lhs = [(Fraction(b), Fraction(e)) for b, e in lhs]
    rhs = [(Fraction(b), Fraction(e)) for b, e in rhs]
    if any(b < 0 or b == 0 and e <= 0 for b, e in lhs + rhs):
        raise ValueError("bases must be positive, or zero under a positive exponent")
    scale = math.lcm(*(e.denominator for _, e in lhs + rhs))
    lhs, rhs = ([(b, e.numerator * (scale // e.denominator)) for b, e in side] for side in (lhs, rhs))
    size = sum(abs(k) * (b.numerator.bit_length() + b.denominator.bit_length()) for b, k in lhs + rhs)
    if size > POWER_BUDGET:
        raise TooLarge(f"an exact power comparison needs about {size} bits, above {POWER_BUDGET}")

    def value(side) -> tuple[int, int]:
        powers = [b ** k for b, k in side]
        return math.prod(p.numerator for p in powers), math.prod(p.denominator for p in powers)

    (ltop, lbottom), (rtop, rbottom) = value(lhs), value(rhs)
    return ltop * rbottom <= rtop * lbottom


class RegularizeReport(NamedTuple):
    m: int
    e: int
    k_log2: Fraction             # exact exponent 4/alpha + 2
    edge_guarantee: bool         # e(H) >= (C/4) m^(1+alpha)
    size_guarantee: bool         # m >= C^((a+1)/(2a+4)) n^(a/(2a+4)) / 2^k_log2


def regularize(g: Graph, alpha: Fraction, c_big: Fraction) -> tuple[Graph, tuple[int, ...],
                                                                    Fraction, RegularizeReport]:
    """Find an induced K-almost-regular subgraph, K = 2^(4/alpha+2).

    Constructive bisection: delete a minimum-degree vertex while it falls below
    a quarter of the average, otherwise keep the denser half of a degree split.
    The first candidate that is K-almost-regular with e >= (C/4) m^(1+alpha) is
    returned; if none appears before the graph bottoms out, the best
    K-almost-regular candidate seen is returned with honest guarantee flags.
    """
    alpha = Fraction(alpha)
    c_big = Fraction(c_big)
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if c_big <= 0:
        raise ValueError("C must be positive")
    if g.n == 0:
        raise EmptyGraph("cannot regularize the empty graph")
    power = 1 + alpha
    if not product_pow_le([(c_big, 1), (g.n, power)], [(g.m, 1)]):
        raise HypothesisUnmet(f"e(G) = {g.m} below C n^(1+alpha)")
    exponent = almost_regular_exponent(alpha)
    k_exact = almost_regular_factor(alpha)

    def degrees(mask: int) -> dict[int, int]:
        """Each vertex of mask, by increasing id, with its degree inside mask."""
        return {v: (g.adj[v] & mask).bit_count() for v in bits(mask)}

    def dense(n: int, m: int) -> bool:
        """m edges on n vertices are at least (C/4) n^(1+alpha)."""
        return product_pow_le([(c_big / 4, 1), (n, power)], [(m, 1)])

    mask = g.vertex_mask()
    fallback = None  # (edges, mask) of the K-almost-regular candidate with the most edges
    while True:
        deg = degrees(mask)
        n, m = len(deg), sum(deg.values()) // 2
        dmin, dmax = min(deg.values()), max(deg.values())
        regular = product_pow_le([(dmax, 1)], [(2, exponent), (dmin, 1)])
        edge_ok = dense(n, m)
        if regular and (fallback is None or m > fallback[0]):
            fallback = (m, mask)
        if regular and edge_ok:
            break
        if n <= 1:
            if fallback is None:
                raise DisprovesLemma("no almost-regular subgraph, though a single vertex is one")
            m, mask = fallback
            edge_ok = dense(mask.bit_count(), m)
            break
        if 2 * dmin * n < m:  # dmin < avg/4
            mask ^= 1 << next(v for v, d in deg.items() if d == dmin)
            continue
        order = sorted(deg, key=lambda v: (-deg[v], v))
        half = (n + 1) // 2
        top, bottom = mask_of(order[:half]), mask_of(order[-half:])
        # both halves have `half` vertices, so e / v^(1+alpha) orders them as e does
        mask = top if sum(degrees(top).values()) >= sum(degrees(bottom).values()) else bottom

    sub, idx = induced_subgraph(g, bits(mask))
    size_ok = product_pow_le(
        [(c_big, Fraction(alpha + 1, 2 * alpha + 4)),
         (2, -exponent),
         (g.n, Fraction(alpha, 2 * alpha + 4))],
        [(sub.n, 1)],
    )
    report = RegularizeReport(m=sub.n, e=sub.m, k_log2=exponent,
                              edge_guarantee=edge_ok, size_guarantee=size_ok)
    return sub, idx, k_exact, report
