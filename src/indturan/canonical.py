"""A canonical form for graphs on bitset rows, for deduplicating classes.

One canonical labelling after McKay and Piperno ("Practical graph
isomorphism, II", J. Symbolic Comput. 60, 2014), in pure Python and without
nauty.  Refine the degree partition to an equitable one, individualise each
vertex of the first smallest non-singleton cell in turn, refine again, and so
on down to discrete partitions (the leaves).  Each leaf orders the vertices,
and the form is the least of the leaves' rows as `graph.relabel` renumbers
them.  Every step is label-invariant, so isomorphic graphs get equal forms; a
form is the graph itself relabelled, so equal forms mean isomorphic graphs.

Two leaves with equal rows give an automorphism, which prunes the tree: the
children of a node in one orbit of the automorphisms that fix the node's
individualised vertices (its path) have equal sets of leaf rows, so a node
visits one child per orbit of the automorphisms found so far that fix its
path.  Twins (vertices with equal open or equal closed neighbourhoods) give
automorphisms for free: their swaps seed the pruning, so a cell of twins is
searched through one child.  The automorphisms found generate the whole
group; `oracles` uses them to test only one neighbour mask per orbit.  There
is no backjump to the depth that a new automorphism fixes: on the oracles'
inputs it saved 0.7% of the search calls and no measurable time.
"""

from __future__ import annotations

from typing import Sequence

from .graph import bits, relabel


def _equitable(adj: Sequence[int], cells: list[int], fresh: list[int]) -> list[int]:
    """The coarsest equitable refinement of the ordered partition cells (vertex
    masks), splitting by the cells in fresh first: the caller passes every
    cell, or only {w} right after splitting w off a cell of an equitable
    partition (the counts in the rest of that cell then follow).

    A splitter f splits each cell by its vertices' neighbour counts in f, the
    pieces in increasing count; the counts are kept as bit planes, one mask
    per binary digit.  The pieces of a split cell are queued as splitters,
    except its largest piece when the cell itself is not queued: the counts
    in that piece follow from those in the cell and in the other pieces."""
    queue = fresh[:]
    while queue:
        f = queue.pop()
        if f & (f - 1):
            planes: list[int] = []
            while f:
                low = f & -f
                f ^= low
                x = adj[low.bit_length() - 1]
                for i, plane in enumerate(planes):
                    planes[i] = plane ^ x
                    x &= plane
                    if not x:
                        break
                else:
                    if x:
                        planes.append(x)
            planes.reverse()
        else:
            planes = [adj[f.bit_length() - 1]]
        out = []
        for c in cells:
            for plane in planes:
                hit = c & plane
                if hit and hit != c:
                    break
            else:  # no plane splits c
                out.append(c)
                continue
            pieces = [c]
            for plane in planes:
                pieces = [q for piece in pieces for q in (piece & ~plane, piece & plane) if q]
            if c in queue:
                queue.remove(c)
                queue.extend(pieces)
            else:
                big = max(pieces, key=int.bit_count)
                queue.extend(q for q in pieces if q != big)
            out.extend(pieces)
        cells = out
    return cells


def _orbit(mask: int, autos: Sequence[Sequence[int]], fixed: Sequence[int]) -> int:
    """The union of the orbits of mask's vertices under the automorphisms in
    autos that fix every vertex in fixed."""
    gens = [g for g in autos if all(g[u] == u for u in fixed)]
    todo = mask
    while todo:
        low = todo & -todo
        todo ^= low
        for g in gens:
            image = 1 << g[low.bit_length() - 1]
            if not mask & image:
                mask |= image
                todo |= image
    return mask


def _search(adj: Sequence[int], cells: list[int], leaves: dict, autos: list,
            path: list[int]) -> None:
    """Visit the leaves below the equitable partition cells, reached by
    individualising the vertices in path, one per depth.  Each new leaf goes
    into leaves (rows -> order), each automorphism found into autos."""
    n = len(adj)
    if len(cells) == n:
        order = [c.bit_length() - 1 for c in cells]
        old = leaves.setdefault(relabel(adj, order), order)
        if old is not order:
            gamma = [0] * n  # this leaf's order onto the old one's: an automorphism
            for v, w in zip(order, old):
                gamma[v] = w
            autos.append(gamma)
        return
    target = min((c for c in cells if c & (c - 1)), key=int.bit_count)
    t = cells.index(target)
    done = 0  # the children visited, and their orbits under autos fixing path
    for w in bits(target):
        if done >> w & 1:
            continue
        path.append(w)
        _search(adj, _equitable(adj, cells[:t] + [1 << w, target ^ 1 << w] + cells[t + 1:],
                                [1 << w]), leaves, autos, path)
        path.pop()
        done = _orbit(done | 1 << w, autos, path)


def canonical(adj: Sequence[int]) -> tuple[tuple[int, ...], list[list[int]]]:
    """(form, autos) of the graph with adjacency rows adj: its canonical form,
    the rows of an isomorphic graph that depends only on the isomorphism
    class, and automorphisms that generate its automorphism group."""
    n = len(adj)
    full = (1 << n) - 1
    cells = _equitable(adj, [full], [full]) if n else []
    if len(cells) == n:
        return relabel(adj, [c.bit_length() - 1 for c in cells]), []
    # Twins, vertices with equal open or equal closed neighbourhoods, swap by
    # an automorphism: the swaps of consecutive twins seed the pruning.
    twins: dict[int, int] = {}
    for v, row in enumerate(adj):
        for key in (row, row | 1 << v):
            twins[key] = twins.get(key, 0) | 1 << v
    autos = []
    for group in twins.values():
        if not group & (group - 1):
            continue
        members = list(bits(group))
        for u, v in zip(members, members[1:]):
            swap = list(range(n))
            swap[u], swap[v] = v, u
            autos.append(swap)
    leaves: dict = {}
    _search(adj, cells, leaves, autos, [])
    return min(leaves), autos
