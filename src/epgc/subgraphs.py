"""Exact NP-hard subroutines for desk-scale graphs (hard cap n <= 64).

Everything here returns a witness alongside the boolean/number, and every
witness is re-validated before it is handed back.
"""

from __future__ import annotations

import itertools

from .graphs import GraphError, SimpleGraph, _bits

SIZE_CAP = 64


def _check_cap(g: SimpleGraph) -> None:
    if g.n > SIZE_CAP:
        raise GraphError(f"graph has {g.n} vertices, exact search capped at {SIZE_CAP}")


def _is_clique(g: SimpleGraph, vs) -> bool:
    return all(g.has_edge(u, v) for u, v in itertools.combinations(vs, 2))


def clique_number(g: SimpleGraph) -> tuple[int, tuple[int, ...]]:
    """Exact maximum clique via branch and bound with a greedy-coloring bound.

    Conventions: 0 with empty witness for the graph on zero vertices, 1 for a
    nonempty edgeless graph.
    """
    _check_cap(g)
    if g.n == 0:
        return 0, ()
    rows = [g.adjacency_row(v) for v in range(g.n)]
    order = sorted(range(g.n), key=lambda v: -rows[v].bit_count())
    best_size = 1
    best = (order[0],)

    def color_bound(pmask):
        # greedy coloring of the candidate set; vertices listed with the
        # number of their color class, ascending
        out = []
        rest = pmask
        color = 0
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                out.append((v, color))
                rest &= ~(1 << v)
                avail &= rest & ~rows[v]
        return out

    def expand(rstack, pmask):
        nonlocal best_size, best
        colored = color_bound(pmask)
        for v, c in reversed(colored):
            if len(rstack) + c <= best_size:
                return
            rstack.append(v)
            newp = pmask & rows[v]
            if newp:
                expand(rstack, newp)
            elif len(rstack) > best_size:
                best_size = len(rstack)
                best = tuple(rstack)
            rstack.pop()
            pmask &= ~(1 << v)

    expand([], (1 << g.n) - 1)
    witness = tuple(sorted(best))
    if not _is_clique(g, witness):
        raise GraphError("clique search produced an invalid witness")
    return best_size, witness


def _is_proper(g: SimpleGraph, coloring) -> bool:
    if len(coloring) != g.n:
        return False
    return all(coloring[u] != coloring[v] for u, v in g.edges())


def _greedy_coloring(g: SimpleGraph) -> list[int]:
    order = sorted(range(g.n), key=lambda v: -g.degree(v))
    coloring = [-1] * g.n
    for v in order:
        used = {coloring[w] for w in g.neighbors(v) if coloring[w] != -1}
        c = 0
        while c in used:
            c += 1
        coloring[v] = c
    return coloring


def chromatic_number(g: SimpleGraph, hint=None) -> tuple[int, list[int]]:
    """Exact chromatic number with a verified proper coloring.

    A proper ``hint`` coloring seeds the upper bound; the exact answer comes
    from iterative deepening between the clique lower bound and that upper
    bound, with the clique pre-colored for symmetry breaking.

    Conventions: 0 colors for the empty-vertex graph, 1 for nonempty edgeless.
    """
    _check_cap(g)
    if g.n == 0:
        return 0, []
    omega, clique = clique_number(g)
    if hint is not None and _is_proper(g, list(hint)):
        upper_coloring = _normalize_colors(list(hint))
    else:
        upper_coloring = _normalize_colors(_greedy_coloring(g))
    ub = max(upper_coloring) + 1
    for k in range(omega, ub):
        attempt = _k_coloring(g, k, clique)
        if attempt is not None:
            if not _is_proper(g, attempt):
                raise GraphError("coloring search produced an invalid witness")
            return k, attempt
    if not _is_proper(g, upper_coloring):
        raise GraphError("coloring search produced an invalid witness")
    return ub, upper_coloring


def _normalize_colors(coloring: list[int]) -> list[int]:
    remap: dict[int, int] = {}
    out = []
    for c in coloring:
        if c not in remap:
            remap[c] = len(remap)
        out.append(remap[c])
    return out


def _k_coloring(g: SimpleGraph, k: int, clique) -> list[int] | None:
    """Backtracking k-colorability (DSATUR branching, clique pre-colored)."""
    if k <= 0:
        return [] if g.n == 0 else None
    if len(clique) > k:
        return None
    coloring = [-1] * g.n
    for c, v in enumerate(clique):
        coloring[v] = c
    rows = [g.adjacency_row(v) for v in range(g.n)]

    def pick():
        bestv, bestkey = -1, (-1, -1)
        for v in range(g.n):
            if coloring[v] != -1:
                continue
            sat = len({coloring[w] for w in _bits(rows[v]) if coloring[w] != -1})
            key = (sat, rows[v].bit_count())
            if key > bestkey:
                bestkey, bestv = key, v
        return bestv

    def solve(colored_count, max_used):
        if colored_count == g.n:
            return True
        v = pick()
        banned = {coloring[w] for w in _bits(rows[v]) if coloring[w] != -1}
        cap = min(k, max_used + 2)  # at most one brand-new color
        for c in range(cap):
            if c in banned:
                continue
            coloring[v] = c
            if solve(colored_count + 1, max(max_used, c)):
                return True
            coloring[v] = -1
        return False

    if solve(len(clique), len(clique) - 1):
        return coloring
    return None


# target name -> (branch vertex count, required branch degrees, edges, parts)
_SUBDIVISION_TARGETS = {
    "K4": (4, [3, 3, 3, 3], list(itertools.combinations(range(4), 2)), None),
    "K5": (5, [4, 4, 4, 4, 4], list(itertools.combinations(range(5), 2)), None),
    "K23": (
        5,
        [3, 3, 2, 2, 2],
        [(i, j) for i in range(2) for j in range(2, 5)],
        ((0, 1), (2, 3, 4)),
    ),
    "K33": (
        6,
        [3, 3, 3, 3, 3, 3],
        [(i, j) for i in range(3) for j in range(3, 6)],
        ((0, 1, 2), (3, 4, 5)),
    ),
}


def contains_subdivision(g: SimpleGraph, target: str):
    """Exact subdivision containment for K4, K23, K5 or K33.

    Branch vertices are chosen first, then the target edges are realized as
    internally disjoint paths by backtracking.  Returns ``(bool, witness)``
    where the witness maps branch vertices and lists the connecting paths.
    """
    _check_cap(g)
    if target not in _SUBDIVISION_TARGETS:
        raise GraphError(f"unknown subdivision target {target!r}")
    k, degs, tedges, parts = _SUBDIVISION_TARGETS[target]
    if g.n < k:
        return False, None
    rows = [g.adjacency_row(v) for v in range(g.n)]

    for branch in _branch_choices(g, k, degs, parts):
        paths = _pack_paths(g, rows, branch, tedges)
        if paths is not None:
            witness = {"branch_vertices": branch, "paths": paths}
            _validate_subdivision_witness(g, target, witness)
            return True, witness
    return False, None


def _branch_choices(g, k, degs, parts):
    by_degree = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    if parts is None:
        need = degs[0]
        pool = [v for v in by_degree if g.degree(v) >= need]
        yield from itertools.combinations(pool, k)
    else:
        pa, pb = parts
        need_a = degs[pa[0]]
        need_b = degs[pb[0]]
        pool_a = [v for v in by_degree if g.degree(v) >= need_a]
        pool_b = [v for v in by_degree if g.degree(v) >= need_b]
        symmetric = len(pa) == len(pb) and need_a == need_b
        for avs in itertools.combinations(pool_a, len(pa)):
            aset = set(avs)
            rest = [v for v in pool_b if v not in aset]
            for bvs in itertools.combinations(rest, len(pb)):
                if symmetric and min(bvs) < min(avs):
                    continue
                yield avs + bvs


def _pack_paths(g, rows, branch, tedges):
    n = g.n
    branch_mask = 0
    for v in branch:
        branch_mask |= 1 << v
    # every target edge between non-adjacent branch vertices consumes at
    # least one internal vertex, and the internal sets are disjoint
    direct = [g.has_edge(branch[a], branch[b]) for a, b in tedges]
    if sum(1 for d in direct if not d) > n - len(branch):
        return None
    need_suffix = [0] * (len(tedges) + 1)
    for idx in range(len(tedges) - 1, -1, -1):
        need_suffix[idx] = need_suffix[idx + 1] + (0 if direct[idx] else 1)
    paths: list[list[int]] = []

    def connect(idx, used_internal, free_left):
        if idx == len(tedges):
            return True
        if need_suffix[idx] > free_left:
            return False
        ta, tb = tedges[idx]
        x, y = branch[ta], branch[tb]
        blocked = used_internal | (branch_mask & ~(1 << x) & ~(1 << y))
        for path in _simple_paths(rows, x, y, blocked, free_left):
            internal = 0
            for v in path[1:-1]:
                internal |= 1 << v
            paths.append(path)
            if connect(idx + 1, used_internal | internal, free_left - (len(path) - 2)):
                return True
            paths.pop()
        return False

    if connect(0, 0, n - len(branch)):
        return [list(p) for p in paths]
    return None


def _simple_paths(rows, x, y, blocked, max_internal):
    """Simple x-y paths avoiding ``blocked`` internally, shortest first.

    Iterative deepening on the number of internal vertices keeps the packing
    search from drowning in long paths before short ones are tried.
    """
    for depth in range(max_internal + 1):
        yield from _paths_exact_depth(rows, x, y, blocked, depth)


def _paths_exact_depth(rows, x, y, blocked, depth):
    path = [x]
    onpath = 1 << x

    def walk(u, remaining):
        nonlocal onpath
        if remaining == 0:
            if rows[u] >> y & 1:
                yield path + [y]
            return
        for w in _bits(rows[u]):
            if w == y or onpath >> w & 1 or blocked >> w & 1:
                continue
            path.append(w)
            onpath |= 1 << w
            yield from walk(w, remaining - 1)
            path.pop()
            onpath &= ~(1 << w)

    yield from walk(x, depth)


def _validate_subdivision_witness(g, target, witness):
    k, degs, tedges, _ = _SUBDIVISION_TARGETS[target]
    branch = witness["branch_vertices"]
    paths = witness["paths"]
    if len(set(branch)) != k or len(paths) != len(tedges):
        raise GraphError("subdivision witness malformed")
    seen_internal: set[int] = set()
    for (ta, tb), path in zip(tedges, paths):
        if path[0] != branch[ta] or path[-1] != branch[tb]:
            raise GraphError("subdivision witness path endpoints wrong")
        for u, v in zip(path, path[1:]):
            if not g.has_edge(u, v):
                raise GraphError(f"subdivision witness uses missing edge ({u}, {v})")
        internal = path[1:-1]
        for v in internal:
            if v in seen_internal or v in branch:
                raise GraphError("subdivision witness paths are not internally disjoint")
            seen_internal.add(v)
        if len(set(path)) != len(path):
            raise GraphError("subdivision witness path repeats a vertex")
