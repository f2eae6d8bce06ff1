"""Seed-driven `embed` instances whose answers are known by construction.

Every generator here is plain stdlib code and uses none of the package's own
helpers (in particular not its random K_{s,s}-free hosts), so a change to the
package cannot change the inputs.  Each generator returns (spec, expected):
`spec` is the JSON instance handed to the CLI and `expected` is what the bench
checks the output against.
"""

from __future__ import annotations

import random
from itertools import combinations


def _relabel(n: int, edges, rng: random.Random):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)


# --- embed tree: P5 copies in the incidence graph of PG(2, q) ---------------


def _projective_points(q: int) -> list[tuple[int, int, int]]:
    """Normalized nonzero vectors of F_q^3 (first nonzero coordinate 1)."""
    pts = [(1, a, b) for a in range(q) for b in range(q)]
    pts += [(0, 1, a) for a in range(q)]
    pts.append((0, 0, 1))
    return pts


def tree_instance(q: int, rng: random.Random) -> tuple[dict, dict]:
    """Point-line incidence graph of PG(2, q), q prime, with the tree P5.

    The graph is (q+1)-regular with girth 6 on 2(q^2+q+1) vertices, so every
    walk on 5 vertices without backtracking is an induced path, and a d far
    above every common-neighbour count leaves all bad sets empty.  The number
    of labeled copies is therefore exactly 2(q^2+q+1) (q+1) q^3.
    """
    pts = _projective_points(q)
    n_pts = len(pts)
    edges = [(i, n_pts + j) for i, p in enumerate(pts) for j, l in enumerate(pts)
             if (p[0] * l[0] + p[1] * l[1] + p[2] * l[2]) % q == 0]
    n = 2 * n_pts
    perm, edges = _relabel(n, edges, rng)
    spec = {
        "host": {"n": n, "edges": [list(e) for e in edges], "s": 2,
                 "partition": {"X": sorted(perm[:n_pts]), "Y": sorted(perm[n_pts:])}},
        "tree": {"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]},
        "d": 1000,
    }
    expected = {"count": n * (q + 1) * q ** 3}
    return spec, expected


# --- embed asym: C6 template, one planted success late in Y order -------------

# A C6 template: A = {0, 2, 4}, B = {1, 3, 5}; its neighbourhood hypergraph is
# the triangle on A, one pair per B-vertex.
C6_TEMPLATE = {"n": 6, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]],
               "A": [0, 2, 4], "B": [1, 3, 5]}

# A pair of X-vertices needs at least this many common neighbours before the
# third image, which sees one of them (the delegating y), escapes the bad set
# at threshold 1/(2h) = 1/12 of the common neighbourhood.
_WIDE = 13


def _kss_through(adj: dict[int, int], u: int, v: int, s: int) -> bool:
    """Does the edge uv (u in X, v in Y) lie in a K_{s,s}?"""
    others = [w for w in _bits(adj[v]) if w != u]
    for extra in combinations(others, s - 1):
        common = adj[u]
        for w in extra:
            common &= adj[w]
        if common.bit_count() >= s:
            return True
    return False


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def asym_instance(nx: int, ny: int, bg_degree: int, rng: random.Random) -> tuple[dict, dict]:
    """K_{3,3}-free bipartite host with exactly one y where the search succeeds.

    The gadget: y* has exactly six neighbours t0 < ... < t5, which the
    blowup search splits into parts (t0,t1), (t2,t3), (t4,t5).  One vertex per
    part forms phi*; each pair of phi* gets _WIDE private common neighbours of
    degree 2, so only phi* passes the bad-set stage, and only at y*.  The
    background graph keeps every X-pair below _WIDE common neighbours, so no
    other y can succeed.  y* sits late in sorted Y order, making the search
    walk past most of Y first.
    """
    n_bg_x = nx - 6
    n_bg_y = ny - 1 - 3 * _WIDE
    if n_bg_x < 1 or n_bg_y < 1:
        raise ValueError("host too small for the planted gadget")
    # abstract ids: X = 0..nx-1 (t = 0..5), Y = nx..nx+ny-1 (y* = nx, Z next)
    t = list(range(6))
    y_star = nx
    z_sets = [list(range(nx + 1 + i * _WIDE, nx + 1 + (i + 1) * _WIDE)) for i in range(3)]
    bg_x = list(range(6, nx))
    bg_y = list(range(nx + 1 + 3 * _WIDE, nx + ny))
    edges = [(x, y_star) for x in t]
    pick = [2 * i + rng.randrange(2) for i in range(3)]  # phi*, abstract ids
    for zs, (a, b) in zip(z_sets, combinations(pick, 2)):
        for z in zs:
            edges += [(a, z), (b, z)]
    adj = {v: 0 for v in bg_x + bg_y}
    pairs = [(x, y) for x in bg_x for y in bg_y]
    rng.shuffle(pairs)
    keep = bg_degree / n_bg_x
    for x, y in pairs:
        if rng.random() >= keep:
            continue
        adj[x] |= 1 << y
        adj[y] |= 1 << x
        if _kss_through(adj, x, y, 3):
            adj[x] &= ~(1 << y)
            adj[y] &= ~(1 << x)
        else:
            edges.append((x, y))
    for a, b in combinations(bg_x, 2):
        if (adj[a] & adj[b]).bit_count() >= _WIDE:
            raise ValueError("background pair reached the planted co-degree")

    # Labels: Y takes a random half of 0..n-1; y* gets a late rank in sorted
    # Y order, the others random ranks.  t keeps its order so the parts hold.
    n = nx + ny
    labels = list(range(n))
    rng.shuffle(labels)
    x_labels, y_labels = labels[:nx], sorted(labels[nx:])
    star_rank = ny - 1 - rng.randrange(max(1, ny // 10))
    star_label = y_labels.pop(star_rank)
    rng.shuffle(y_labels)
    name = {y_star: star_label}
    name.update(zip([v for v in range(nx, n) if v != y_star], y_labels))
    t_labels = sorted(x_labels[:6])
    name.update(zip(t, t_labels))
    name.update(zip(bg_x, x_labels[6:]))
    host_edges = sorted(tuple(sorted((name[u], name[v]))) for u, v in edges)
    spec = {
        "host": {"n": n, "edges": [list(e) for e in host_edges], "s": 3,
                 "partition": {"X": sorted(x_labels), "Y": sorted(name[v] for v in range(nx, n))}},
        "template": C6_TEMPLATE,
        "thresholds": {"c_hs": 1, "m_blow": 2},
    }
    expected = {"y": star_label, "phi": sorted(name[v] for v in pick)}
    return spec, expected


# --- embed extract: one independent l-set among semi-induced copies -----------


def extract_instance(copies: int, l: int, s: int, rng: random.Random) -> tuple[dict, dict]:
    """Semi-induced copies of the rooted path 0-1-2-3 (roots 0 and 3).

    Host edges between copies make the auxiliary graph on copy indices a
    clique on every copy outside a planted l-set S, with each outsider joined
    to two members of S.  An independent l-set then holds at most one
    outsider, and no outsider can replace a member of S, so S is the only
    independent l-set.  S is drawn from the last indices, so the
    lexicographic scan meets it late.
    """
    late = list(range(copies - min(copies, 2 * l), copies))
    chosen = sorted(rng.sample(late, l))
    outsiders = [i for i in range(copies) if i not in chosen]
    # abstract ids: roots 0 and 1, copy i uses 2 + 2i and 3 + 2i
    n = 2 + 2 * copies
    edges = []
    for i in range(copies):
        a, b = 2 + 2 * i, 3 + 2 * i
        edges += [(0, a), (a, b), (b, 1)]
    aux = [(i, j) for i, j in combinations(outsiders, 2)]
    for o in outsiders:
        aux += [tuple(sorted((o, m))) for m in rng.sample(chosen, 2)]
    for i, j in aux:
        edges.append((2 + 2 * i + rng.randrange(2), 2 + 2 * j + rng.randrange(2)))
    perm, host_edges = _relabel(n, edges, rng)
    maps = [[perm[0], perm[2 + 2 * i], perm[3 + 2 * i], perm[1]] for i in range(copies)]
    spec = {
        "host": {"n": n, "edges": [list(e) for e in host_edges]},
        "pattern": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]], "roots": [0, 3]},
        "copies": maps,
        "l": l,
        "s": s,
    }
    expected = {"selected": chosen, "aux_edges": len(set(aux))}
    return spec, expected
