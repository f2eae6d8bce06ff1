"""Output checks that trust nothing the package computes.

Each check takes the parsed stdout of one CLI job, raises CheckFailed when the
output is wrong, and returns the work counts it read from the output.  Graphs
are rebuilt and re-tested here by brute force with the bench's own code.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations


class CheckFailed(Exception):
    pass


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        require(0 <= u < n and 0 <= v < n and u != v, f"bad edge {(u, v)}")
        require(v not in adj[u], f"repeated edge {(u, v)}")
        adj[u].add(v)
        adj[v].add(u)
    return adj


def has_kss(adj: list[set[int]], s: int) -> bool:
    """Some s vertices with s common neighbours (a K_{s,s} subgraph)."""
    for side in combinations(range(len(adj)), s):
        if len(set.intersection(*(adj[v] for v in side))) >= s:
            return True
    return False


def edge_set(edges) -> set[frozenset]:
    return {frozenset(e) for e in edges}


def is_copy(adj, pe: set[frozenset], k: int, vm, induced: bool) -> bool:
    """Is vm an injective map of the k-vertex pattern with edge set pe into
    the host?"""
    if len(vm) != k or len(set(vm)) != k:
        return False
    for p, q in combinations(range(k), 2):
        host_edge = vm[q] in adj[vm[p]]
        if frozenset((p, q)) in pe:
            if not host_edge:
                return False
        elif induced and host_edge:
            return False
    return True


def has_copy(adj, pattern_edges, k: int, induced: bool, side_ok=None) -> bool:
    pe = edge_set(pattern_edges)
    return any(is_copy(adj, pe, k, vm, induced) and (side_ok is None or side_ok(vm))
               for vm in permutations(range(len(adj)), k))


# --- extremal ------------------------------------------------------------------

C6_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
# C4 as a bipartite template, sides A = {0, 1} and B = {2, 3}
C4_EDGES = [(0, 2), (0, 3), (1, 2), (1, 3)]


def check_extremal(out: dict, mode: str, n: int, s: int | None, value: int) -> dict:
    """Frozen value; witness re-tested: n vertices, `value` (cross) edges,
    K_{s,s}-free (unless s is None, as in the classical mode) and pattern-free.  Witness bytes and `explored` are not
    compared, so any witness and any search order stay legal."""
    require(out.get("value") == value, f"value {out.get('value')} != {value}")
    w = out["witness"]
    require(w["n"] == n, f"witness has {w['n']} vertices, want {n}")
    adj = adjacency(n, w["edges"])
    require(s is None or not has_kss(adj, s), f"witness contains K_{s},{s}")
    if mode == "bip":
        x, y = w["partition"]["X"], w["partition"]["Y"]
        require(sorted(x + y) == list(range(n)), "partition does not split the vertices")
        xs = set(x)
        require(sum(1 for u in x for v in adj[u] if v not in xs) == value,
                "cross edge count differs from value")

        def opposite_sides(vm):
            a, b = {vm[0] in xs, vm[1] in xs}, {vm[2] in xs, vm[3] in xs}
            return len(a) == len(b) == 1 and a != b

        require(not has_copy(adj, C4_EDGES, 4, True, opposite_sides),
                "cross graph holds a C4 induced in the witness")
    else:
        require(sum(len(a) for a in adj) // 2 == value, "edge count differs from value")
        require(not has_copy(adj, C6_EDGES, 6, mode == "star"),
                f"witness holds {'an induced' if mode == 'star' else 'a'} C6")
    return {"oracles.explored": out["explored"]}


# --- certificates ----------------------------------------------------------------


def base_family(d: dict):
    """(n, edges, roots) of a certificate base, built from its definition."""
    kind = d["kind"]
    if kind == "ktl":
        t = d["t"]
        return t + 1, [(0, i) for i in range(1, t + 1)], set(range(1, t + 1))
    if kind == "theta":
        k = d["len"]
        return k + 1, [(i, i + 1) for i in range(k)], {0, k}
    if kind == "tr11":
        r = d["r"]
        edges = [(0, i) for i in range(1, r + 1)] + [(i, r + i) for i in range(1, r + 1)]
        edges.append((0, 2 * r + 1))
        return 2 * r + 2, edges, set(range(r + 1, 2 * r + 2))
    if kind == "height_two":
        r, t = d["r"], d["t"]
        edges = [(0, i) for i in range(1, r + 1)]
        leaves = set()
        for i in range(1, r + 1):
            for j in range(1, t + 1):
                z = r + (i - 1) * t + j
                edges.append((i, z))
                leaves.add(z)
        return 1 + r + r * t, edges, leaves
    raise CheckFailed(f"unknown base kind {kind!r}")


def glue(n: int, edges, roots: set[int], l: int):
    """l copies glued along the roots: roots first, then each copy's non-roots."""
    rs = sorted(roots)
    non = [v for v in range(n) if v not in roots]
    out = []
    for c in range(l):
        name = {v: i for i, v in enumerate(rs)}
        name.update((v, len(rs) + c * len(non) + i) for i, v in enumerate(non))
        out += [(name[u], name[v]) for u, v in edges]
    return len(rs) + l * len(non), out, set(range(len(rs)))


def two_coloring(n: int, edges) -> list[int]:
    adj = adjacency(n, edges)
    color = [-1] * n
    for start in range(n):
        if color[start] == -1:
            color[start] = 0
            stack = [start]
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if color[w] == -1:
                        color[w] = 1 - color[u]
                        stack.append(w)
                    require(color[w] != color[u], "rebuilt witness is not bipartite")
    return color


def rho(edges, non_roots: set[int]) -> Fraction:
    return Fraction(sum(1 for u, v in edges if u in non_roots or v in non_roots), len(non_roots))


def rebuild(cert: dict):
    """Witness of a certificate: glued base plus K_{1,1} reductions."""
    n, edges, roots = glue(*base_family(cert["base"]), cert["l"])
    non = set(range(n)) - roots
    color = two_coloring(n, edges)
    for _ in range(cert["reductions"]):
        c, d = n, n + 1
        edges = edges + [(c, d)] + [(c, v) for v in range(n) if color[v] == 1] \
            + [(d, v) for v in range(n) if color[v] == 0]
        color += [0, 1]
        n += 2
    return n, edges, non


def check_certificate(cert: dict, l: int) -> None:
    a, b = cert["a"], cert["b"]
    require(cert.get("verified") is True, f"({a}, {b}) not verified")
    require(cert["l"] == l, f"({a}, {b}) uses l = {cert['l']}")
    require(Fraction(cert["exponent"]) == 2 - Fraction(a, b), f"({a}, {b}) exponent")
    n, edges, non = rebuild(cert)
    require(rho(edges, non) == Fraction(b, a), f"({a}, {b}) rebuilt rho differs from b/a")
    require(cert["s0"] == n, f"({a}, {b}) s0 != |V(H)|")


def qualifying_pairs(a_max: int, b_max: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(1, a_max + 1) for b in range(a + 1, b_max + 1)
            if math.gcd(a, b) == 1 and b >= max(a, (a - 1) ** 2)]


def check_sweep(out: dict, a_max: int, b_max: int, l: int) -> dict:
    certs = out["certificates"]
    want = qualifying_pairs(a_max, b_max)
    require(out["count"] == len(certs) == len(want), f"{out['count']} certificates, want {len(want)}")
    require([(c["a"], c["b"]) for c in certs] == want, "certificate pairs differ")
    for cert in certs:
        check_certificate(cert, l)
    return {"certificates": len(certs)}


def check_realize(out: dict, a: int, b: int, l: int) -> dict:
    require((out["a"], out["b"]) == (a, b), "certificate names another pair")
    check_certificate(out, l)
    return {"certificates": 1}


# --- balancedness --------------------------------------------------------------------


def check_family(out: dict, density: dict, n: int) -> dict:
    """Frozen density report, and rho recomputed from the emitted graph."""
    require(out["density"] == density, f"density report {out['density']} != {density}")
    g = out["graph"]
    require(g["n"] == n, f"graph has {g['n']} vertices, want {n}")
    adjacency(n, g["edges"])  # rejects out-of-range and repeated edges
    non = set(range(n)) - set(g["roots"])
    require(rho(g["edges"], non) == Fraction(density["rho"]), "rho of emitted graph")
    return {}


def check_balanced(out: dict, base: dict, l: int, witness: list[int]) -> dict:
    """Frozen verdict; the witness must beat rho on the bench's own rebuild."""
    require(out == {"balanced": False, "witness": witness}, f"verdict {out}")
    n, edges, roots = glue(*base_family(base), l)
    non = set(range(n)) - roots
    require(rho(edges, set(witness)) < rho(edges, non), "witness does not beat rho")
    return {}


# --- embeddings ----------------------------------------------------------------------


def check_tree(out: dict, spec: dict, expected: dict) -> dict:
    """Closed-form count; every copy distinct and an induced P5 in the host."""
    host = spec["host"]
    adj = adjacency(host["n"], host["edges"])
    copies = out["copies"]
    require(out["count"] == len(copies) == expected["count"],
            f"{out['count']} copies, want {expected['count']}")
    require(len({tuple(c) for c in copies}) == len(copies), "repeated copy")
    tree = edge_set(spec["tree"]["edges"])
    for c in copies:
        require(is_copy(adj, tree, 5, c, True), f"copy {c} is not an induced P5")
    return {"embeddings.tree_copies": len(copies)}


def check_asym(out: dict, spec: dict, expected: dict) -> dict:
    """The planted success: found at y*, with phi* on the A side and an
    induced C6 whose A side lies in X and B side in Y."""
    require(out["found"] is True, "planted C6 not found")
    host, tpl = spec["host"], spec["template"]
    adj = adjacency(host["n"], host["edges"])
    vm = out["mapping"]
    require(is_copy(adj, edge_set(tpl["edges"]), 6, vm, True), f"mapping {vm} is not an induced C6")
    xs, ys = set(host["partition"]["X"]), set(host["partition"]["Y"])
    require(all(vm[a] in xs for a in tpl["A"]) and all(vm[b] in ys for b in tpl["B"]),
            "mapping does not respect the partition")
    require(sorted(vm[a] for a in tpl["A"]) == expected["phi"], "A side is not the planted triple")
    ys_tried = [e["y"] for e in out["trace"] if "y" in e]
    require(ys_tried and ys_tried[-1] == expected["y"], "success came from another y")
    return {}


def check_extract(out: dict, spec: dict, expected: dict) -> dict:
    """The planted l-set is selected, and the map is an induced l-th power."""
    require(out["found"] is True, "planted independent set not found")
    sel = expected["selected"]
    require(out["trace"][0] == {"copies": len(spec["copies"]), "aux_edges": expected["aux_edges"]},
            f"trace head {out['trace'][0]}")
    require(out["trace"][-1] == {"selected": sel, "stage": "success"}, "another selection")
    copies = spec["copies"]
    # l-th power of the rooted path: roots 0, 1; copy c is 2 + 2c, 3 + 2c
    l = spec["l"]
    edges = []
    for c in range(l):
        edges += [(0, 2 + 2 * c), (2 + 2 * c, 3 + 2 * c), (3 + 2 * c, 1)]
    want = [copies[sel[0]][0], copies[sel[0]][3]]
    for i in sel:
        want += [copies[i][1], copies[i][2]]
    require(out["mapping"] == want, "mapping is not the planted selection")
    adj = adjacency(spec["host"]["n"], spec["host"]["edges"])
    require(is_copy(adj, edge_set(edges), 2 + 2 * l, want, True), "selection is not induced")
    return {}
