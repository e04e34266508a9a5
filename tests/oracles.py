"""Independent brute-force oracles used by the tests.

Everything here deliberately avoids the library's own algorithms: totients by
gcd counting, enhanced-power-graph adjacency by sweeping generators, planarity
by minor search, isomorphism and cliques by raw enumeration, surface
embeddings by enumerating every rotation system and counting faces on the
flag graph of the map, girth by deleting one edge at a time, associativity
by scanning every triple.
"""

from __future__ import annotations

import itertools
from math import gcd

from epgc.graphs import SimpleGraph
from epgc.groups import GroupTable, cyclic_subgroup


def totient_by_gcd(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)


def epg_adjacency_by_sweep(g: GroupTable) -> set[tuple[int, int]]:
    """Direct definition: x ~ y iff both lie in the subgroup generated by
    some single element z."""
    edges: set[tuple[int, int]] = set()
    for z in range(g.order):
        members = sorted(cyclic_subgroup(g, z))
        for x, y in itertools.combinations(members, 2):
            edges.add((x, y))
    return edges


def generators_of(g: GroupTable, subgroup) -> frozenset[int]:
    """Elements of ``subgroup`` that generate exactly it."""
    return frozenset(x for x in subgroup if cyclic_subgroup(g, x) == subgroup)


def maximal_generators(g: GroupTable) -> set[int]:
    """Elements whose cyclic subgroup lies in no larger cyclic subgroup."""
    subs = [cyclic_subgroup(g, x) for x in range(g.order)]
    return {x for x, s in enumerate(subs) if not any(s < t for t in subs)}


def graphs_isomorphic_brute(g: SimpleGraph, h: SimpleGraph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if sorted(g.degree(v) for v in range(g.n)) != sorted(h.degree(v) for v in range(h.n)):
        return False
    gedges = g.edges()
    hedges = set(h.edges())
    for perm in itertools.permutations(range(g.n)):
        if all(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) in hedges
            for u, v in gedges
        ):
            return True
    return False


def girth_brute(g: SimpleGraph) -> float:
    """Shortest cycle through each edge (u, v): delete the edge and add one
    to the BFS distance from u to v in what is left.  inf if no edge lies on
    a cycle."""
    best = float("inf")
    for u, v in g.edges():
        dist = {u: 0}
        queue = [u]
        for x in queue:
            for y in g.neighbors(x):
                if y not in dist and (x, y) not in ((u, v), (v, u)):
                    dist[y] = dist[x] + 1
                    queue.append(y)
        if v in dist:
            best = min(best, dist[v] + 1)
            if best == 3:  # no simple graph has a shorter cycle
                break
    return best


def is_associative_brute(table) -> bool:
    """(i*j)*k == i*(j*k) for every triple of a square table."""
    n = len(table)
    return all(
        table[table[i][j]][k] == table[i][table[j][k]]
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )


def clique_number_brute(g: SimpleGraph) -> int:
    if g.n == 0:
        return 0
    best = 1
    for size in range(2, g.n + 1):
        found = False
        for vs in itertools.combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(vs, 2)):
                found = True
                break
        if found:
            best = size
        else:
            break
    return best


def chromatic_number_brute(g: SimpleGraph) -> int:
    if g.n == 0:
        return 0
    edges = g.edges()
    for k in range(1, g.n + 1):
        for coloring in itertools.product(range(k), repeat=g.n):
            if all(coloring[u] != coloring[v] for u, v in edges):
                return k
    return g.n


def _connected_mask(g: SimpleGraph, mask: int) -> bool:
    seed = mask & -mask
    comp = seed
    frontier = seed
    while frontier:
        reach = 0
        m = frontier
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            reach |= g.adjacency_row(v)
        frontier = reach & mask & ~comp
        comp |= frontier
    return comp == mask


def joined_avoiding(g: SimpleGraph, w: int, a: int, b: int) -> bool:
    """True when some path joins a and b in g - w: edges wa and wb then lie
    on a common cycle, hence in one block."""
    allowed = ((1 << g.n) - 1) & ~(1 << w)
    comp = frontier = 1 << a
    while frontier:
        reach = 0
        for v in range(g.n):
            if frontier >> v & 1:
                reach |= g.adjacency_row(v)
        frontier = reach & allowed & ~comp
        comp |= frontier
    return bool(comp >> b & 1)


def _neighborhood(g: SimpleGraph, mask: int) -> int:
    out = 0
    m = mask
    while m:
        low = m & -m
        out |= g.adjacency_row(low.bit_length() - 1)
        m ^= low
    return out & ~mask


def has_complete_minor(g: SimpleGraph, r: int) -> bool:
    """Branch-set search for a K_r minor (intended for n <= 10)."""
    subsets = [m for m in range(1, 1 << g.n) if _connected_mask(g, m)]
    nbr = {m: _neighborhood(g, m) for m in subsets}

    def extend(chosen: list[int], start: int) -> bool:
        if len(chosen) == r:
            return True
        for i in range(start, len(subsets)):
            s = subsets[i]
            if any(s & c for c in chosen):
                continue
            if any(not (nbr[c] & s) for c in chosen):
                continue
            if extend(chosen + [s], i + 1):
                return True
        return False

    return extend([], 0)


def has_k33_minor(g: SimpleGraph) -> bool:
    subsets = [m for m in range(1, 1 << g.n) if _connected_mask(g, m)]
    nbr = {m: _neighborhood(g, m) for m in subsets}
    return _k33_search(g, subsets, nbr)


def _k33_search(g, subsets, nbr):
    n_sub = len(subsets)

    def solve(a_sets, b_sets, next_a, next_b):
        if len(a_sets) == 3 and len(b_sets) == 3:
            return True
        # grow the smaller side first; cross-adjacency to the other side only
        if len(a_sets) <= len(b_sets) and len(a_sets) < 3:
            grow, other, start = a_sets, b_sets, next_a
        else:
            grow, other, start = b_sets, a_sets, next_b
        for i in range(start, n_sub):
            s = subsets[i]
            if any(s & c for c in a_sets + b_sets):
                continue
            if any(not (nbr[c] & s) for c in other):
                continue
            if grow is a_sets:
                if solve(a_sets + [s], b_sets, i + 1, next_b):
                    return True
            else:
                if solve(a_sets, b_sets + [s], next_a, i + 1):
                    return True
        return False

    return solve([], [], 0, 0)


def planar_by_minors(g: SimpleGraph) -> bool:
    """Wagner's criterion: planar iff no K5 minor and no K3,3 minor."""
    if g.n >= 3 and g.edge_count > 3 * g.n - 6:
        return False
    return not has_complete_minor(g, 5) and not has_k33_minor(g)


def connected_graphs(max_n: int) -> list[SimpleGraph]:
    """One connected graph per isomorphism class on 1..max_n vertices."""
    out = []
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        perms = list(itertools.permutations(range(n)))
        seen: set[tuple[tuple[int, int], ...]] = set()
        for mask in range(1 << len(pairs)):
            edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
            g = SimpleGraph(n, edges=edges)
            if not _connected_mask(g, (1 << n) - 1):
                continue
            canon = min(
                tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in edges))
                for p in perms
            )
            if canon not in seen:
                seen.add(canon)
                out.append(g)
    return out


def _flag_moves(g: SimpleGraph, rotations, twisted):
    """Corner and edge involutions on the flags ``(v, w, s)``: the end at v
    of edge vw, on the side that faces the successor (s = 0) or the
    predecessor (s = 1) of w in the rotation at v."""
    moves = []
    for v, rot in enumerate(rotations):
        for i, w in enumerate(rot):
            moves.append(((v, w, 0), (v, rot[(i + 1) % len(rot)], 1)))  # corner
    for u, v in g.edges():
        flip = 0 if (u, v) in twisted else 1
        for s in (0, 1):
            moves.append(((u, v, s), (v, u, s ^ flip)))  # edge
    return moves


def _face_count(moves) -> int:
    """Faces are the orbits of the corner and edge involutions."""
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for a, b in moves:
        parent[find(a)] = find(b)
    return len({find(x) for x in list(parent)})


def _flags_bipartite(moves) -> bool:
    """The surface is orientable iff the flag graph of the corner, edge and
    side involutions is bipartite."""
    adjacent: dict = {}
    sides = [((v, w, 0), (v, w, 1)) for (v, w, s), _ in moves if s == 0]
    for a, b in moves + sides:
        adjacent.setdefault(a, []).append(b)
        adjacent.setdefault(b, []).append(a)
    colour = {}
    for root in adjacent:
        if root in colour:
            continue
        colour[root] = 0
        stack = [root]
        while stack:
            x = stack.pop()
            for y in adjacent[x]:
                if y not in colour:
                    colour[y] = colour[x] ^ 1
                    stack.append(y)
                elif colour[y] == colour[x]:
                    return False
    return True


def map_surface(g: SimpleGraph, rotations, twisted) -> tuple[str, int]:
    """Surface of a rotation system with the edges in ``twisted`` twisted.
    The graph must be connected and have an edge."""
    moves = _flag_moves(g, rotations, twisted)
    chi = g.n - g.edge_count + _face_count(moves)
    if _flags_bipartite(moves):
        return "orientable", (2 - chi) // 2
    return "nonorientable", 2 - chi


def embeds_exactly(g: SimpleGraph, target: int, orientable: bool) -> bool:
    """Whether some rotation system embeds the connected graph in exactly the
    orientable surface of genus ``target``, or the non-orientable surface of
    crosscap ``target``.

    Orientable targets try every rotation system with every edge flat.
    Non-orientable targets also try every signing of the edges outside a
    spanning tree; keeping the tree flat loses nothing, because flipping the
    side convention at a vertex twists or untwists all its edges at once.
    """
    if g.edge_count == 0:
        return orientable and target == 0
    tree: set[tuple[int, int]] = set()
    reached = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in g.neighbors(v):
            if w not in reached:
                reached.add(w)
                tree.add((min(v, w), max(v, w)))
                stack.append(w)
    cotree = [e for e in g.edges() if e not in tree]
    signings = [set()]
    if not orientable:
        signings = [
            {e for e, t in zip(cotree, bits) if t}
            for bits in itertools.product((0, 1), repeat=len(cotree))
        ]
    choices = []
    for v in range(g.n):
        first, *rest = g.neighbors(v)
        choices.append([(first, *p) for p in itertools.permutations(rest)])
    faces = g.edge_count - g.n + 2 - (2 * target if orientable else target)
    for rotations in itertools.product(*choices):
        for twisted in signings:
            moves = _flag_moves(g, rotations, twisted)
            if _face_count(moves) == faces and _flags_bipartite(moves) == orientable:
                return True
    return False
