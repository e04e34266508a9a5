"""Undirected simple graphs on indexed vertices, with the exact small-graph
algorithms used throughout the workbench.

Adjacency rows are Python integers used as bitsets, which keeps the
polynomial algorithms (components, girth, bipartiteness, Euler test) and the
exponential searches in :mod:`epgc.subgraphs` fast enough for graphs of a few
dozen vertices.  :func:`girth`, which runs on every ingested table, works on
whole rows: one AND per edge finds a triangle, and otherwise its BFS walks
distance layers as bitsets and stops at 4, the floor without a triangle.

Edges are checked where they enter, by the :class:`SimpleGraph` constructor.
Graphs the library derives (complete graphs, complements, induced subgraphs
and the enhanced power graph) are built from rows that are right by
construction, through :func:`_from_rows`, which checks nothing; a test runs
every such graph through the row checks instead.
"""

from __future__ import annotations

import math

INFINITY = math.inf


class GraphError(ValueError):
    """Invalid graph construction or out-of-range vertex."""


class SimpleGraph:
    """Immutable undirected simple graph.

    ``adjacency_row(i)`` exposes the neighbor set of vertex i as a bitmask.
    Optional ``tags`` carry display strings (group-element labels).  The
    constructor checks its edges (in range, no loops) and tags; library rows
    come in through :func:`_from_rows` unchecked, and ``TestLibraryGraphs``
    covers them.
    """

    __slots__ = ("n", "_rows", "tags")

    def __init__(self, n, edges=(), tags=None):
        if n < 0:
            raise GraphError(f"vertex count must be >= 0, got {n}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) outside vertex range [0, {n})")
            if u == v:
                raise GraphError(f"loop at vertex {u} not allowed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        if tags is not None:
            tags = tuple(str(t) for t in tags)
            if len(tags) != n:
                raise GraphError(f"expected {n} tags, got {len(tags)}")
        self.n = n
        self._rows = tuple(rows)
        self.tags = tags

    def adjacency_row(self, i):
        return self._rows[i]

    def has_edge(self, u, v):
        return bool(self._rows[u] >> v & 1)

    def degree(self, v):
        return self._rows[v].bit_count()

    def neighbors(self, v):
        return list(_bits(self._rows[v]))

    @property
    def edge_count(self):
        return sum(r.bit_count() for r in self._rows) // 2

    def edges(self):
        out = []
        for u in range(self.n):
            for v in _bits(self._rows[u]):
                if v > u:
                    out.append((u, v))
        return out

    def __eq__(self, other):
        return (
            isinstance(other, SimpleGraph)
            and self.n == other.n
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.n, self._rows))

    def __repr__(self):
        return f"SimpleGraph(n={self.n}, m={self.edge_count})"


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _from_rows(n, rows, tags=None):
    """The graph with these adjacency rows and tags, taken as they are: the
    library's own rows are symmetric, loopless and in range by construction,
    so nothing is checked."""
    g = object.__new__(SimpleGraph)
    g.n, g._rows, g.tags = n, tuple(rows), tags
    return g


def complete_graph(n):
    full = (1 << n) - 1
    return _from_rows(n, rows=[full & ~(1 << i) for i in range(n)])


def complete_bipartite(a, b):
    n = a + b
    amask = (1 << a) - 1
    bmask = ((1 << n) - 1) ^ amask
    rows = [bmask] * a + [amask] * b
    return _from_rows(n, rows=rows)


def cycle_graph(n):
    return SimpleGraph(n, edges=[(i, (i + 1) % n) for i in range(n)])


def complement(g: SimpleGraph) -> SimpleGraph:
    """Complement on the same vertex set (distinct vertices adjacent iff
    they were not adjacent)."""
    full = (1 << g.n) - 1
    rows = [full & ~g.adjacency_row(i) & ~(1 << i) for i in range(g.n)]
    return _from_rows(g.n, rows=rows, tags=g.tags)


def induced_subgraph(g: SimpleGraph, vertices) -> SimpleGraph:
    """Subgraph induced by a vertex set, relabeled to 0..k-1 in ascending
    order of the original indices; tags are carried over."""
    vs = sorted(set(vertices))
    for v in vs:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} out of range [0, {g.n})")
    pos = {v: i for i, v in enumerate(vs)}
    rows = []
    for v in vs:
        r = 0
        for w in _bits(g.adjacency_row(v)):
            if w in pos:
                r |= 1 << pos[w]
        rows.append(r)
    tags = None if g.tags is None else tuple(g.tags[v] for v in vs)
    return _from_rows(len(vs), rows=rows, tags=tags)


def connected_components(g: SimpleGraph) -> list[tuple[int, ...]]:
    """Partition into maximal connected vertex sets, sorted by least vertex."""
    unseen = (1 << g.n) - 1
    comps = []
    while unseen:
        seed = unseen & -unseen
        comp = seed
        frontier = seed
        while frontier:
            reach = 0
            for v in _bits(frontier):
                reach |= g.adjacency_row(v)
            frontier = reach & ~comp
            comp |= frontier
        comps.append(tuple(_bits(comp)))
        unseen &= ~comp
    return comps


def blocks(g: SimpleGraph) -> list[tuple[int, ...]]:
    """Vertex sets of the blocks (maximal subgraphs without a cut vertex),
    sorted; a bridge is a 2-vertex block and an isolated vertex a 1-vertex
    one.

    Iterative Hopcroft-Tarjan: a depth-first search stacks the vertices it
    discovers, and when a child v of u has no back edge from its subtree
    above u (low[v] >= disc[u]), the stack down to v plus u is one block.
    """
    disc = [0] * g.n  # discovery time, 0 = not yet discovered
    low = [0] * g.n
    clock = 0
    out = []
    for root in range(g.n):
        if disc[root]:
            continue
        clock += 1
        disc[root] = low[root] = clock
        if not g.adjacency_row(root):
            out.append((root,))
            continue
        found = [root]
        stack = [(root, -1, _bits(g.adjacency_row(root)))]
        while stack:
            v, parent, rest = stack[-1]
            for w in rest:
                if not disc[w]:
                    clock += 1
                    disc[w] = low[w] = clock
                    found.append(w)
                    stack.append((w, v, _bits(g.adjacency_row(w))))
                    break
                if w != parent and disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if not stack:
                    continue
                u = stack[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    i = found.index(v)
                    out.append(tuple(sorted(found[i:] + [u])))
                    del found[i:]
    return sorted(out)


def girth(g: SimpleGraph):
    """Length of a shortest cycle; INFINITY for acyclic graphs.

    Triangles first: an edge (u, w) lies on one iff ``rows[u] & rows[w]`` is
    nonzero, one AND per edge.  Without one, a BFS from every root walks
    distance layers as bitsets.  A vertex of layer k whose row meets layer
    k - 1 in two bits closes a cycle of length at most 2k; a row that meets
    layer k itself closes one of length at most 2k + 1.  Some root of a
    shortest cycle sees it exactly, so the least of these bounds is the
    girth.  A root stops once 2k reaches the best cycle found, and the
    search ends when that is 4, the least length left without a triangle.
    """
    rows = g._rows
    for u, row in enumerate(rows):
        for w in _bits(row >> u << u):  # the neighbours above u
            if row & rows[w]:
                return 3
    best = INFINITY
    for root in range(g.n):
        seen = prev = 1 << root
        layer = rows[root]
        k = 1
        while layer and 2 * k < best:
            seen |= layer
            reach = 0
            for v in _bits(layer):
                row = rows[v]
                up = row & prev
                if up & (up - 1):
                    best = 2 * k
                elif row & layer and 2 * k + 1 < best:
                    best = 2 * k + 1
                reach |= row
            if best == 4:
                return 4
            prev, layer = layer, reach & ~seen
            k += 1
    return best


def is_bipartite(g: SimpleGraph):
    """Two-colorability with a verifiable witness.

    Returns ``(True, coloring)`` where coloring is a 0/1 list, or
    ``(False, cycle)`` with an odd cycle given as a vertex list.
    """
    color = [-1] * g.n
    parent = [-1] * g.n
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = [root]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            for w in _bits(g.adjacency_row(u)):
                if color[w] == -1:
                    color[w] = color[u] ^ 1
                    parent[w] = u
                    queue.append(w)
                elif color[w] == color[u]:
                    return False, _odd_cycle(parent, u, w)
    return True, color


def _odd_cycle(parent, u, w):
    anc_u = [u]
    while parent[anc_u[-1]] != -1:
        anc_u.append(parent[anc_u[-1]])
    anc_w = [w]
    while parent[anc_w[-1]] != -1:
        anc_w.append(parent[anc_w[-1]])
    in_u = set(anc_u)
    meet = next(x for x in anc_w if x in in_u)
    path_u = anc_u[: anc_u.index(meet) + 1]
    path_w = anc_w[: anc_w.index(meet)]
    return path_u + list(reversed(path_w))


def is_eulerian(g: SimpleGraph) -> bool:
    """Closed-trail-through-every-edge test.

    True iff every degree is even and the positive-degree vertices form one
    component; isolated vertices are ignored.  An edgeless graph is
    vacuously Eulerian.
    """
    if any(g.degree(v) % 2 for v in range(g.n)):
        return False
    if g.edge_count == 0:
        return True
    comps = connected_components(g)
    return sum(len(c) > 1 for c in comps) == 1


def cyclomatic_number(g: SimpleGraph) -> int:
    """Cycle-space dimension m - n + 1 of a connected graph."""
    if g.n == 0:
        raise GraphError("cyclomatic number needs a nonempty connected graph")
    if len(connected_components(g)) != 1:
        raise GraphError("cyclomatic number is defined for connected graphs only")
    return g.edge_count - g.n + 1


def to_dot(g: SimpleGraph, name: str = "G") -> str:
    """Deterministic DOT serialization; tags become vertex labels."""
    lines = [f"graph {name} {{"]
    for v in range(g.n):
        label = g.tags[v] if g.tags is not None else str(v)
        lines.append(f'  {v} [label="{label}"];')
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_adjacency_text(g: SimpleGraph) -> str:
    """Compact adjacency-list text: first line n, then one `v: ...` line per
    vertex listing its neighbors in ascending order."""
    lines = [str(g.n)]
    for v in range(g.n):
        nbrs = " ".join(str(w) for w in g.neighbors(v))
        lines.append(f"{v}: {nbrs}".rstrip())
    return "\n".join(lines) + "\n"
