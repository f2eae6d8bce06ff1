"""The almost-regular subgraph lemma, with exact exponent arithmetic.

`regularize` finds an induced K-almost-regular subgraph, K = 2^(4/alpha + 2),
of a graph with at least C n^(1+alpha) edges, and reports which of the
source's edge and size guarantees the result meets.  Every comparison with a
rational exponent is made exactly, by raising both sides to a common integer
power.  None of the embedding procedures calls it; `indturan check
regularize` does.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import DisprovesLemma, EmptyGraph, HypothesisUnmet
from .graph import Graph, degree_stats, induced_subgraph


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
    """Exact test prod(b^e for lhs) <= prod(b^e for rhs) with positive rational
    bases and rational exponents: raise both sides to the exponents' lcm."""
    terms = [(Fraction(b), Fraction(e)) for b, e in lhs] + \
            [(Fraction(b), Fraction(e)) for b, e in rhs]
    if any(b <= 0 for b, _ in terms):
        raise ValueError("bases must be positive")
    scale = math.lcm(*(e.denominator for _, e in terms)) if terms else 1

    def value(side):
        out = Fraction(1)
        for b, e in side:
            out *= Fraction(b) ** int(Fraction(e) * scale)
        return out

    return value(lhs) <= value(rhs)


class RegularizeReport(NamedTuple):
    m: int
    e: int
    k_log2: Fraction             # exact exponent 4/alpha + 2
    edge_guarantee: bool         # e(H) >= (C/4) m^(1+alpha)
    size_guarantee: bool         # m >= C^((a+1)/(2a+4)) n^(a/(2a+4)) / 2^k_log2


def _ge_coeff_pow(e: int, coeff: Fraction, base: int, expo: Fraction) -> bool:
    """Exact e >= coeff * base^expo with rational expo and positive base."""
    if base == 0:
        return True
    q = expo.denominator
    return Fraction(e) ** q >= coeff ** q * Fraction(base) ** expo.numerator


def _ratio_le_pow2(num: int, den: int, e: Fraction) -> bool:
    """Exact num/den <= 2^e for nonnegative num, positive den, rational e."""
    return num ** e.denominator <= 2 ** e.numerator * den ** e.denominator


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
    if not _ge_coeff_pow(g.m, c_big, g.n, 1 + alpha):
        raise HypothesisUnmet(f"e(G) = {g.m} below C n^(1+alpha)")
    exponent = almost_regular_exponent(alpha)
    k_exact = almost_regular_factor(alpha)

    def is_almost_regular(sub: Graph) -> bool:
        dmin, dmax = degree_stats(sub)
        if dmin == 0:
            return dmax == 0
        return _ratio_le_pow2(dmax, dmin, exponent)

    current = tuple(range(g.n))
    fallback = None  # (edges, sub, idxmap)
    while True:
        sub, idx = induced_subgraph(g, current)
        regular = is_almost_regular(sub)
        dense = _ge_coeff_pow(sub.m, c_big / 4, sub.n, 1 + alpha)
        if regular and (fallback is None or sub.m > fallback[0]):
            fallback = (sub.m, sub, idx)
        if regular and dense:
            break
        if sub.n <= 1:
            if fallback is None:
                raise DisprovesLemma("no almost-regular subgraph, though a single vertex is one")
            _, sub, idx = fallback
            dense = _ge_coeff_pow(sub.m, c_big / 4, sub.n, 1 + alpha)
            break
        dmin, dmax = degree_stats(sub)
        if 2 * dmin * sub.n < sub.m:  # dmin < avg/4
            drop = min(v for v in range(sub.n) if sub.degree(v) == dmin)
            current = tuple(v for v in idx if v != idx[drop])
            continue
        order = sorted(range(sub.n), key=lambda v: (-sub.degree(v), v))
        half = (sub.n + 1) // 2
        top = sorted(idx[v] for v in order[:half])
        bottom = sorted(idx[v] for v in order[-half:])
        top_sub, _ = induced_subgraph(g, top)
        bot_sub, _ = induced_subgraph(g, bottom)
        # denser half under e / v^(1+alpha), exact comparison
        q = (1 + alpha).denominator
        p = (1 + alpha).numerator
        lhs = Fraction(top_sub.m) ** q * Fraction(bot_sub.n) ** p
        rhs = Fraction(bot_sub.m) ** q * Fraction(top_sub.n) ** p
        pick = top if lhs >= rhs else bottom
        current = tuple(pick)

    size_ok = product_pow_le(
        [(Fraction(c_big), Fraction(alpha + 1, 2 * alpha + 4)),
         (Fraction(2), -exponent),
         (Fraction(g.n), Fraction(alpha, 2 * alpha + 4))],
        [(Fraction(sub.n), Fraction(1))],
    ) if sub.n > 0 else False
    report = RegularizeReport(m=sub.n, e=sub.m, k_log2=exponent,
                              edge_guarantee=dense, size_guarantee=size_ok)
    return sub, idx, k_exact, report
