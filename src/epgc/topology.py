"""Surface embeddings: exact outerplanarity/planarity, genus and crosscap
lower bounds from Euler's formula with faces at least as long as the girth,
summed over the blocks of the graph (genus adds over blocks, Battle, Harary,
Kodama and Youngs 1962; so does Euler genus, Stahl and Beineke 1977), exact
closed forms for complete graphs, and rotation-system certificates for upper
bounds.  The embedding search answers a target below the block bound without
searching.

A rotation system lists the neighbors of each vertex in cyclic order; an
optional edge signing (+1 flat, -1 twisted) turns it into a certificate for an
embedding in a non-orientable surface.  One tracer handles both kinds: it
follows (directed edge, side) states, an unsigned system counting as one with
every edge flat, and the Euler relation V - E + F = 2 - 2*genus (orientable)
or 2 - crosscap (non-orientable) on the traced face count yields the surface.
One backtracking search over the same states finds both kinds of
certificate.  Its state is flat: a (dart, side) state u -> v on side o is the
int ``(u*n + v)*2 + o`` and the used states are a bytearray with a live count;
rotation links are per-vertex lists of neighbour ids, -1 while unset; edge
signs are one list indexed by an edge-id matrix, -1 while unset.

:func:`classify_surface` runs every certificate search (genus 0, genus 1,
crosscap 1) through one step, which keeps the certificate it finds and
records a search that ends without one, a budget-out as inconclusive.  That
step first looks the graph up in ``fixtures/certificates.json``, which holds
each certificate the search finds on the groups of order at most 15 with the
least node budget that finds it: an entry is re-traced on use and stands in
for the search only when it traces to exactly its surface, and a budget below
its node count is the budget-out the search would hit.  So the search runs
only for a graph with no entry or an entry that does not trace, and
:func:`search_embedding` itself stays the raw search.

Two non-orientable facts are pinned as published constants rather than
recomputed: the crosscap of K_{2,2,2,2} is 3 (Jungerman 1979) and the crosscap
of K_{3,3,3} is 3 (Ellingham, Stephens and Zha 2006, Theorem 10).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache
from importlib import resources

from .epg import EpgBundle
from .graphs import (
    GraphError,
    SimpleGraph,
    INFINITY,
    blocks,
    connected_components,
    girth,
    induced_subgraph,
    complement as graph_complement,
)
from .subgraphs import contains_subdivision, _is_clique

DEFAULT_BUDGET = 10**8

SEARCH_MAX_VERTICES = 12

PINNED_CROSSCAP = {
    (2, 2, 2, 2): (3, "pinned: crosscap(K_{2,2,2,2}) = 3 [Jungerman 1979]"),
    (3, 3, 3): (3, "pinned: crosscap(K_{3,3,3}) = 3 [Ellingham-Stephens-Zha 2006, Thm 10]"),
}


class EmbeddingError(ValueError):
    """Malformed rotation system or inconsistent face tracing."""


class SearchBudgetExceeded(RuntimeError):
    """Embedding search ran out of its node budget (inconclusive)."""

    def __init__(self, nodes: int):
        super().__init__(f"embedding search budget exceeded after {nodes} nodes")
        self.nodes = nodes


def _edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class RotationSystem:
    """Per-vertex cyclic neighbor orders, optionally with edge signs."""

    graph: SimpleGraph
    rotations: tuple[tuple[int, ...], ...]
    edge_signs: tuple[tuple[tuple[int, int], int], ...] | None = None

    def __post_init__(self) -> None:
        g = self.graph
        if len(self.rotations) != g.n:
            raise EmbeddingError(
                f"expected {g.n} rotation lists, got {len(self.rotations)}"
            )
        for v, rot in enumerate(self.rotations):
            if sorted(rot) != g.neighbors(v):
                raise EmbeddingError(
                    f"rotation at vertex {v} is not a permutation of its neighbors"
                )
        if self.edge_signs is not None:
            keys = {k for k, _ in self.edge_signs}
            expected = set(g.edges())
            if keys != expected:
                raise EmbeddingError("edge signs do not cover exactly the edge set")
            if any(s not in (-1, 1) for _, s in self.edge_signs):
                raise EmbeddingError("edge signs must be +1 or -1")

    def sign_map(self) -> dict[tuple[int, int], int]:
        """Sign of every edge; an unsigned system has every edge flat (+1)."""
        if self.edge_signs is None:
            return {e: 1 for e in self.graph.edges()}
        return dict(self.edge_signs)


def _position_maps(rotations):
    return [
        {u: i for i, u in enumerate(rot)} for rot in rotations
    ]


def _trace(g: SimpleGraph, rotations, signs) -> list[list[tuple[int, int, int]]]:
    """Orbits of the (dart, side) states of a signed rotation system.

    State ``(u, v, o)`` is the dart u -> v on side o.  Crossing a twisted
    edge flips the side; at v, side 0 turns to the successor of u in the
    rotation and side 1 to its predecessor.  The next-state map is a
    permutation and each face is one orbit per side, so the orbit count is
    exactly twice the face count.
    """
    pos = _position_maps(rotations)
    used: set[tuple[int, int, int]] = set()
    orbits = []
    for a in range(g.n):
        for b in g.neighbors(a):
            for o0 in (0, 1):
                if (a, b, o0) in used:
                    continue
                orbit = []
                u, v, o = a, b, o0
                while (u, v, o) not in used:
                    used.add((u, v, o))
                    orbit.append((u, v, o))
                    if signs[_edge_key(u, v)] < 0:
                        o ^= 1
                    rot = rotations[v]
                    u, v = v, rot[(pos[v][u] + 1 - 2 * o) % len(rot)]
                if (u, v, o) != (a, b, o0):
                    raise EmbeddingError("face tracing did not close at its start state")
                orbits.append(orbit)
    if len(used) != 4 * g.edge_count:
        raise EmbeddingError("face tracing did not cover every edge side")
    if len(orbits) % 2:
        raise EmbeddingError("face tracing produced an odd orbit count")
    return orbits


def _signature_orientable(g: SimpleGraph, signs) -> bool:
    """True when every cycle has positive sign product (vertex-flip check)."""
    orient = [-1] * g.n
    for root in range(g.n):
        if orient[root] != -1:
            continue
        orient[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                t = 1 if signs[_edge_key(u, w)] < 0 else 0
                expect = orient[u] ^ t
                if orient[w] == -1:
                    orient[w] = expect
                    stack.append(w)
                elif orient[w] != expect:
                    return False
    return True


def verify_embedding(cert: RotationSystem) -> tuple[str, int]:
    """Trace the faces of a certificate and return its surface.

    Returns ``("orientable", genus)`` or ``("nonorientable", crosscap)``.
    The graph must be connected.
    """
    g = cert.graph
    if g.n == 0:
        raise EmbeddingError("empty graph has no embedding certificate")
    if len(connected_components(g)) != 1:
        raise EmbeddingError("embedding verification needs a connected graph")
    n, m = g.n, g.edge_count
    if m == 0:
        # a single vertex sits on the sphere with one face
        return "orientable", 0
    signs = cert.sign_map()
    chi = n - m + len(_trace(g, cert.rotations, signs)) // 2
    if _signature_orientable(g, signs):
        if chi > 2 or (2 - chi) % 2:
            raise EmbeddingError(f"impossible Euler characteristic {chi} for an orientable surface")
        return "orientable", (2 - chi) // 2
    if chi > 1:
        raise EmbeddingError(f"impossible Euler characteristic {chi} for a non-orientable surface")
    return "nonorientable", 2 - chi


def face_walks(cert: RotationSystem) -> list[list[tuple[int, int]]]:
    """Face boundary walks of an unsigned certificate (for reports/tests)."""
    if cert.edge_signs is not None:
        raise EmbeddingError("face walks are reported for unsigned certificates only")
    orbits = _trace(cert.graph, cert.rotations, cert.sign_map())
    return [[(u, v) for u, v, _ in orbit] for orbit in orbits if orbit[0][2] == 0]


def _face_min_length(g: SimpleGraph) -> int:
    """Least face length over all embeddings of a connected graph.

    A face of length 2 turns back at both ends of its edge, so only K2 has
    one.  A face walk without a cycle runs along a tree T on both sides of
    each of its edges, so the rotation at every vertex of T stays in T and
    the graph is T; every face of a graph with a cycle therefore contains one
    and is at least as long as the girth.
    """
    m = g.edge_count
    if m <= 1:
        return m + 1
    gi = girth(g)
    return 3 if gi == INFINITY else int(gi)


def search_embedding(
    g: SimpleGraph,
    target_genus: int,
    orientable: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> RotationSystem | None:
    """Exhaustive rotation-system search for an embedding at an exact target.

    Orientable searches look for a system with exactly the face count of
    genus ``target_genus``; non-orientable searches additionally branch on
    edge signs (spanning-tree edges normalized to +1) and require a twisted
    signature.  Returns a verified certificate, or None when the target is
    below :func:`euler_lower_bounds` (no search runs) or the search space is
    exhausted; raises :class:`SearchBudgetExceeded` when the node budget runs
    out first.  None is treated as inconclusive by callers, not as a
    lower bound.
    """
    if g.n > SEARCH_MAX_VERTICES:
        raise GraphError(
            f"embedding search capped at {SEARCH_MAX_VERTICES} vertices, got {g.n}"
        )
    if target_genus < 0 or target_genus > 1:
        raise GraphError(f"embedding search supports target genus 0 or 1, got {target_genus}")
    if g.n == 0:
        raise GraphError("embedding search needs a nonempty graph")
    if len(connected_components(g)) != 1:
        raise GraphError("embedding search needs a connected graph")
    if budget < 1:
        raise GraphError(f"embedding search budget must be at least 1, got {budget}")
    genus_lb, crosscap_lb, _ = euler_lower_bounds(g)
    if target_genus < (genus_lb if orientable else crosscap_lb):
        return None
    m = g.edge_count
    if m == 0:
        if target_genus == 0 and orientable:
            return RotationSystem(g, ((),))
        return None
    if orientable:
        faces_target = m - g.n + 2 - 2 * target_genus
    elif target_genus == 1:
        faces_target = m - g.n + 2 - 1
    else:
        return None
    if faces_target < 1:
        return None
    found = _search(g, faces_target, _face_min_length(g), budget, signed=not orientable)
    if found is None:
        return None
    cert = RotationSystem(g, *found)
    kind, value = verify_embedding(cert)
    if (kind == "orientable") != orientable or value != target_genus:
        raise EmbeddingError("search produced a certificate at the wrong surface")
    return cert


def _search(g: SimpleGraph, faces_target: int, face_min: int, budget: int, signed: bool):
    """Backtracking search over the (dart, side) states that :func:`_trace`
    follows, fixing a rotation link or an edge sign the first time a face
    walk needs it.

    An unsigned search keeps every edge flat and walks side 0 only, so each
    orbit is a face.  A signed search keeps the spanning-tree edges flat,
    branches on the sign of each co-tree edge (flat first), walks both sides,
    so each face is two orbits, and needs a twisted edge at the end.  Returns
    ``(rotations, edge_signs)``, with ``edge_signs`` None when unsigned, or
    None when the search space is exhausted.

    The state is flat.  State ``(u, v, o)`` has id ``(u*n + v)*2 + o``, and
    ``used`` is a bytearray over the ids with ``used_count`` its live sum.
    ``succ[v][x]`` and ``pred[v][x]`` are the rotation links at v, -1 while
    unset.  ``eid[u][v]`` numbers the edges and ``tw[e]`` is 1 for a twisted
    edge, 0 for a flat one and -1 while unset.  The links set at v form
    disjoint paths; ``ends[v][x]`` is the other end of the path with end x,
    so a link that closes the rotation at v is seen in O(1), and it is
    allowed only when it is the ``deg[v]``-th link (``nlinks[v]``).
    Branches are tried in a fixed order: start states in ``_trace`` order,
    flat before twisted, neighbours in ``g.neighbors`` order.  Each sign or
    link fixed counts one node against ``budget``, also when the walk it
    extends cannot fit and so is not entered.
    """
    n = g.n
    nbrs = [g.neighbors(v) for v in range(n)]
    deg = [len(x) for x in nbrs]
    # single[x] is (x,), built once so that no step allocates a tuple
    single = [(x,) for x in range(n)]
    eid = [[-1] * n for _ in range(n)]
    for e, (u, v) in enumerate(g.edges()):
        eid[u][v] = eid[v][u] = e
    succ = [[-1] * n for _ in range(n)]
    pred = [[-1] * n for _ in range(n)]
    # links[v][f]: the links side f follows at v, and their inverse
    links = [((succ[v], pred[v]), (pred[v], succ[v])) for v in range(n)]
    ends = [list(range(n)) for _ in range(n)]
    nlinks = [0] * n
    if signed:
        tw = [-1] * g.edge_count
        seen = [False] * n
        seen[0] = True
        stack = [0]
        while stack:
            u = stack.pop()
            for w in nbrs[u]:
                if not seen[w]:
                    seen[w] = True
                    tw[eid[u][w]] = 0
                    stack.append(w)
        walks_target = 2 * faces_target
    else:
        tw = [0] * g.edge_count
        walks_target = faces_target
    sides = (0, 1) if signed else (0,)
    all_states = [(u * n + v) * 2 + o for u in range(n) for v in nbrs[u] for o in sides]
    # order[s]: position of state s in all_states
    order = [0] * (2 * n * n)
    for i, s in enumerate(all_states):
        order[s] = i
    total_states = len(all_states)
    used = bytearray(2 * n * n)
    used_count = 0
    nodes = 0

    def fits(used_now, walk_len, faces_closed):
        # whether an open walk of walk_len states, with used_now states
        # used, can still end among walks_target walks of >= face_min states
        d_rem = total_states - used_now
        need = face_min - walk_len
        if need < 0:
            need = 0
        return d_rem >= need and faces_closed + 1 + (d_rem - need) // face_min >= walks_target

    def start_face(faces_closed, i):
        # every state before all_states[i] is used, so the scan starts there
        nonlocal used_count
        if used_count == total_states:
            # a signed certificate must have a non-orientable signature
            return faces_closed == walks_target and (not signed or 1 in tw)
        if faces_closed >= walks_target:
            return False
        while used[all_states[i]]:
            i += 1
        if not fits(used_count + 1, 1, faces_closed):
            return False
        s0 = all_states[i]
        used[s0] = 1
        used_count += 1
        u, v = divmod(s0 >> 1, n)
        if advance(s0, u, v, s0 & 1, 1, faces_closed):
            return True
        used[s0] = 0
        used_count -= 1
        return False

    def advance(start, u, v, o, walk_len, faces_closed):
        # the walk has just entered state (u, v, o), and fits() holds
        nonlocal nodes, used_count
        # every branch leads to a walk one state longer; when that walk
        # cannot fit, branches are still counted as nodes but not entered
        deeper = fits(used_count + 1, walk_len + 1, faces_closed)
        e = eid[v][u]
        known = tw[e]
        links_v = links[v]
        ends_v = ends[v]
        base = v * n
        for t in (0, 1) if known < 0 else single[known]:
            if known < 0:
                nodes += 1
                if nodes > budget:
                    raise SearchBudgetExceeded(nodes)
                tw[e] = t
            f = o ^ t
            fwd, back = links_v[f]
            w_known = fwd[u]
            for w in nbrs[v] if w_known < 0 else single[w_known]:
                if w_known < 0:
                    if back[w] >= 0:
                        continue
                    # u ends one path and w starts one; linking them closes
                    # the rotation, allowed only once it holds every neighbour
                    a = ends_v[u]
                    b = ends_v[w]
                    if a == w and nlinks[v] != deg[v] - 1:
                        continue
                    nodes += 1
                    if nodes > budget:
                        raise SearchBudgetExceeded(nodes)
                nxt = (base + w) * 2 + f
                if nxt == start:
                    if walk_len < face_min:
                        continue
                elif not deeper or used[nxt]:
                    continue
                if w_known < 0:
                    fwd[u] = w
                    back[w] = u
                    nlinks[v] += 1
                    ends_v[a] = b
                    ends_v[b] = a
                if nxt == start:
                    if start_face(faces_closed + 1, order[start]):
                        return True
                else:
                    used[nxt] = 1
                    used_count += 1
                    if advance(start, v, w, f, walk_len + 1, faces_closed):
                        return True
                    used[nxt] = 0
                    used_count -= 1
                if w_known < 0:
                    fwd[u] = back[w] = -1
                    nlinks[v] -= 1
                    ends_v[a] = u
                    ends_v[u] = a
                    ends_v[b] = w
                    ends_v[w] = b
        if known < 0:
            tw[e] = -1
        return False

    if not start_face(0, 0):
        return None
    rotations = tuple(_rotation_from_links(nbrs[v], succ[v], v) for v in range(n))
    if not signed:
        return rotations, None
    return rotations, tuple(((u, v), -1 if tw[eid[u][v]] else 1) for u, v in g.edges())


def _rotation_from_links(neighbors, links, v):
    """The rotation at v read from ``links[x]``, the successor of neighbour x
    (-1 when unset), starting at the first neighbour."""
    if not neighbors:
        return ()
    start = neighbors[0]
    out = [start]
    cur = links[start]
    while cur != start and cur >= 0 and len(out) < len(neighbors):
        out.append(cur)
        cur = links[cur]
    if cur != start or len(out) != len(neighbors):
        raise EmbeddingError(f"rotation at vertex {v} did not close into one cycle")
    return tuple(out)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def genus_complete(n: int) -> int:
    """Genus of the complete graph on n vertices (n >= 3)."""
    if n < 3:
        raise GraphError(f"complete-graph genus formula needs n >= 3, got {n}")
    return _ceil_div((n - 3) * (n - 4), 12)


def crosscap_complete(n: int) -> int:
    """Crosscap of the complete graph on n vertices (n >= 3); K7 is the
    exceptional case with crosscap 3."""
    if n < 3:
        raise GraphError(f"complete-graph crosscap formula needs n >= 3, got {n}")
    if n == 7:
        return 3
    return _ceil_div((n - 3) * (n - 4), 6)


def euler_lower_bounds(g: SimpleGraph) -> tuple[int, int, str]:
    """Genus and crosscap lower bounds of a connected graph from Euler's
    formula, summed over its blocks, with the evidence line that states them.

    Every face of a block B has length at least k = ``_face_min_length(B)``,
    its girth, or 2 for a bridge.  Hence F <= floor(2m/k) and chi_B = n - m +
    F <= n - m + floor(2m/k), and a minimum-genus or minimum-crosscap
    embedding is cellular, so genus(B) >= ceil((2 - chi_B)/2) and the Euler
    genus of B is at least 2 - chi_B (Mohar-Thomassen 2001).  Genus adds
    over blocks (Battle-Harary-Kodama-Youngs 1962) and so does Euler genus
    (Stahl-Beineke 1977), which never exceeds the crosscap; so the sums of
    the per-block bounds bound the graph.
    """
    if g.edge_count == 0:
        return 0, 0, "Euler: no edges: genus >= 0, crosscap >= 0"
    genus_lb = crosscap_lb = 0
    parts = [induced_subgraph(g, b) for b in blocks(g) if len(b) > 1]
    for b in parts:
        k = _face_min_length(b)
        chi = b.n - b.edge_count + 2 * b.edge_count // k
        genus_lb += max(0, _ceil_div(2 - chi, 2))
        crosscap_lb += max(0, 2 - chi)
    if len(parts) == 1:
        line = f"Euler: faces of length >= {k} give chi <= {chi}"
    else:
        line = f"Euler over {len(parts)} blocks"
    return genus_lb, crosscap_lb, f"{line}: genus >= {genus_lb}, crosscap >= {crosscap_lb}"


def _first_subdivision(g: SimpleGraph, targets: tuple[str, str], names: str):
    for target in targets:
        found, witness = contains_subdivision(g, target)
        if found:
            return False, {"target": target, **witness}
    return True, f"no {names} subdivision (exhaustive search)"


def is_outerplanar(g: SimpleGraph):
    """True iff the graph has no K4 and no K_{2,3} subdivision; a graph that
    is not outerplanar gets the first of the two it contains as witness."""
    return _first_subdivision(g, ("K4", "K23"), "K4 or K2,3")


def is_planar(g: SimpleGraph):
    """True iff the graph has no K5 and no K_{3,3} subdivision (Kuratowski);
    a non-planar graph gets the first of the two it contains as witness."""
    return _first_subdivision(g, ("K5", "K33"), "K5 or K3,3")


def complete_multipartite_parts(g: SimpleGraph) -> tuple[int, ...] | None:
    """Part sizes (ascending) when the graph is complete multipartite, else
    None.  Detected via the complement being a disjoint union of cliques."""
    if g.n == 0:
        return None
    comp = graph_complement(g)
    parts = []
    for component in connected_components(comp):
        if not _is_clique(comp, component):
            return None
        parts.append(len(component))
    return tuple(sorted(parts))


@dataclass
class SurfaceVerdict:
    """Interval-style surface classification with its supporting evidence."""

    group_name: str
    outerplanar: bool
    planar: bool
    genus_lower: int
    genus_upper: int | None
    crosscap_lower: int
    crosscap_upper: int | None
    evidence: list[str] = field(default_factory=list)
    certificates: dict[str, RotationSystem] = field(default_factory=dict)
    vacuous: bool = False
    pinned: bool = False
    budget_limited: bool = False

    def __post_init__(self) -> None:
        if self.genus_upper is not None and self.genus_lower > self.genus_upper:
            raise EmbeddingError("genus lower bound exceeds upper bound")
        if self.crosscap_upper is not None and self.crosscap_lower > self.crosscap_upper:
            raise EmbeddingError("crosscap lower bound exceeds upper bound")
        if self.planar and (self.genus_lower != 0 or self.crosscap_lower != 0):
            raise EmbeddingError("planar verdict must have zero lower bounds")

    @property
    def toroidal(self) -> bool:
        return self.genus_lower == 1 and self.genus_upper == 1

    @property
    def projective(self) -> bool:
        return self.crosscap_lower == 1 and self.crosscap_upper == 1


def rotation_to_text(cert: RotationSystem) -> str:
    lines = []
    for v, rot in enumerate(cert.rotations):
        lines.append(f"{v}: " + " ".join(str(w) for w in rot) if rot else f"{v}:")
    if cert.edge_signs is not None:
        negative = [k for k, s in cert.edge_signs if s < 0]
        lines.append("signs: " + " ".join(f"{u}-{v}" for u, v in negative))
    return "\n".join(lines) + "\n"


def rotation_from_text(text: str, graph: SimpleGraph) -> RotationSystem:
    """Read back what :func:`rotation_to_text` writes, for ``graph``.

    One ``v: w1 w2 ...`` line per vertex (a vertex with no line gets an
    empty rotation) and at most one ``signs: u-v ...`` line listing the
    twisted edges.  An :class:`EmbeddingError` names the line of a token
    that is not an integer, a vertex outside the graph, a second line for a
    vertex, a second signs line or a signed pair that is not an edge; the
    rotations themselves are checked by :class:`RotationSystem`.
    """
    rotations: dict[int, tuple[int, ...]] = {}
    signed = None
    for no, ln in enumerate((s.strip() for s in text.splitlines()), 1):
        if not ln:
            continue
        head, _, rest = ln.partition(":")
        try:
            if head == "signs":
                twisted = [_edge_key(*map(int, tok.partition("-")[::2])) for tok in rest.split()]
            else:
                v, rot = int(head), tuple(int(t) for t in rest.split())
        except ValueError:
            raise EmbeddingError(
                f"line {no}: expected 'v: w ...' or 'signs: u-v ...' with integers, got {ln!r}"
            ) from None
        if head != "signs":
            if not 0 <= v < graph.n:
                raise EmbeddingError(f"line {no}: vertex {v} is not in the graph ({graph.n} vertices)")
            if v in rotations:
                raise EmbeddingError(f"line {no}: second rotation line for vertex {v}")
            rotations[v] = rot
            continue
        if signed is not None:
            raise EmbeddingError(f"line {no}: second signs line")
        for u, w in twisted:
            if not (0 <= u < w < graph.n and graph.has_edge(u, w)):
                raise EmbeddingError(f"line {no}: signed pair {u}-{w} is not an edge")
        signed = tuple((e, -1 if e in twisted else 1) for e in sorted(graph.edges()))
    rot = tuple(rotations.get(v, ()) for v in range(graph.n))
    return RotationSystem(graph, rot, signed)


@cache
def _shipped_certificates() -> dict:
    """``fixtures/certificates.json`` keyed by (surface, n, edges), read once
    per process, on first use."""
    path = resources.files("epgc") / "fixtures" / "certificates.json"
    entries = json.loads(path.read_text(encoding="utf-8"))
    return {(e["surface"], e["n"], tuple(map(tuple, e["edges"]))): e for e in entries}


def _shipped_certificate(
    g: SimpleGraph, target: int, orientable: bool, budget: int
) -> RotationSystem | None:
    """What :func:`search_embedding` would return or raise, read from the
    shipped certificate for g at this target, or None when there is no entry
    or it does not trace to exactly that surface.

    An entry's ``nodes`` is the least budget at which the search finds its
    certificate, so a smaller budget raises the budget-out the search would.
    """
    surface = f"{'genus' if orientable else 'crosscap'}{target}"
    entry = _shipped_certificates().get((surface, g.n, tuple(g.edges())))
    if entry is None or budget < 1:
        # argument errors are the search's to raise
        return None
    if budget < entry["nodes"]:
        raise SearchBudgetExceeded(budget + 1)
    try:
        cert = rotation_from_text(entry["rotation"], g)
        traced = verify_embedding(cert)
    except EmbeddingError:
        return None
    kind = "orientable" if orientable else "nonorientable"
    return cert if traced == (kind, target) else None


def _subdivision_line(prop: str, holds: bool, witness) -> str:
    """The evidence line for what :func:`is_outerplanar` or
    :func:`is_planar` returned."""
    if holds:
        return f"{prop}: {witness}"
    target = "K3,3" if witness["target"] == "K33" else witness["target"]
    return f"not {prop}: {target} subdivision on branch vertices {list(witness['branch_vertices'])}"


def classify_surface(
    bundle: EpgBundle,
    budget: int = DEFAULT_BUDGET,
) -> SurfaceVerdict:
    """Full surface classification of the reduced complement of a group.

    Combines the exact forbidden-subdivision tests of :func:`is_outerplanar`
    and :func:`is_planar` (a failed test names the first subdivision it
    found), the Euler lower bounds
    (raised to 1 for a non-planar graph, and replaced by the exact values
    when the graph is complete), embedding certificates, and
    the two pinned literature constants.  For cyclic groups the reduced graph
    is empty and the verdict is vacuous.

    A certificate shipped for the reduced graph is traced instead of searched
    for (see :func:`_shipped_certificate`); it is the one the search would
    find at ``budget``, so the verdict is the one the search would give.
    """
    name = bundle.group.name
    reduced = bundle.reduced
    if reduced.n == 0:
        return SurfaceVerdict(
            group_name=name,
            outerplanar=True,
            planar=True,
            genus_lower=0,
            genus_upper=0,
            crosscap_lower=0,
            crosscap_upper=0,
            evidence=["vacuous: reduced graph is empty (cyclic group)"],
            vacuous=True,
        )
    evidence: list[str] = []
    certificates: dict[str, RotationSystem] = {}
    pinned = False
    budget_limited = False

    def certify(target: int, orientable: bool) -> RotationSystem | None:
        """The one certificate step: search one target, keep what it finds
        and record a search that ends without one."""
        nonlocal budget_limited
        surface = "genus" if orientable else "crosscap"
        try:
            cert = _shipped_certificate(reduced, target, orientable, budget)
            if cert is None:
                cert = search_embedding(reduced, target, orientable=orientable, budget=budget)
        except SearchBudgetExceeded:
            budget_limited = True
            evidence.append(f"{surface}-{target} certificate search: budget exhausted (inconclusive)")
            return None
        if cert is None:
            evidence.append(f"{surface}-{target} certificate search exhausted without a certificate")
        else:
            certificates[f"{surface}{target}"] = cert
        return cert

    outer, witness = is_outerplanar(reduced)
    evidence.append(_subdivision_line("outerplanar", outer, witness))
    planar, witness = is_planar(reduced)
    evidence.append(_subdivision_line("planar", planar, witness))
    if planar:
        cert0 = certify(0, orientable=True)
        if cert0 is not None:
            evidence.append(
                f"genus-0 rotation certificate verified ({len(face_walks(cert0))} faces)"
            )
        elif not budget_limited:
            raise EmbeddingError(
                f"{name}: planar by subdivision search but no genus-0 certificate found"
            )
        genus_lower = crosscap_lower = 0
        genus_upper = crosscap_upper = None if cert0 is None else 0
    else:
        euler_genus, euler_crosscap, euler_line = euler_lower_bounds(reduced)
        genus_lower, crosscap_lower = max(1, euler_genus), max(1, euler_crosscap)
        evidence.append(euler_line)
        genus_upper = crosscap_upper = None

        parts = complete_multipartite_parts(reduced)
        if parts is not None:
            if all(p == 1 for p in parts):
                r = len(parts)
                genus_lower = genus_upper = genus_complete(r)
                crosscap_lower = crosscap_upper = crosscap_complete(r)
                evidence.append(
                    f"reduced graph is K{r}: genus = {genus_lower}, crosscap = {crosscap_lower}"
                    " by the complete-graph formulas"
                    + (" (K7 exceptional value)" if r == 7 else "")
                )
            elif parts in PINNED_CROSSCAP:
                value, citation = PINNED_CROSSCAP[parts]
                crosscap_lower = crosscap_upper = value
                sig = ",".join(str(p) for p in parts)
                evidence.append(f"reduced graph is K_{{{sig}}}: {citation}")
                pinned = True

        searchable = reduced.n <= SEARCH_MAX_VERTICES
        if searchable and genus_lower == 1 and genus_upper in (None, 1) and certify(1, True):
            genus_upper = 1
            evidence.append("toroidal: genus-1 rotation certificate verified")
        if searchable and crosscap_lower == 1 and crosscap_upper is None and certify(1, False):
            crosscap_upper = 1
            evidence.append("projective-planar: crosscap-1 signed rotation certificate verified")

    return SurfaceVerdict(
        group_name=name,
        outerplanar=outer,
        planar=planar,
        genus_lower=genus_lower,
        genus_upper=genus_upper,
        crosscap_lower=crosscap_lower,
        crosscap_upper=crosscap_upper,
        evidence=evidence,
        certificates=certificates,
        pinned=pinned,
        budget_limited=budget_limited,
    )


def verdict_to_dict(v: SurfaceVerdict) -> dict:
    return {
        "group": v.group_name,
        "outerplanar": v.outerplanar,
        "planar": v.planar,
        "genus_lower": v.genus_lower,
        "genus_upper": v.genus_upper,
        "crosscap_lower": v.crosscap_lower,
        "crosscap_upper": v.crosscap_upper,
        "toroidal": v.toroidal,
        "projective": v.projective,
        "vacuous": v.vacuous,
        "pinned": v.pinned,
        "budget_limited": v.budget_limited,
        "evidence": list(v.evidence),
        "certificates": {k: rotation_to_text(c) for k, c in sorted(v.certificates.items())},
    }
