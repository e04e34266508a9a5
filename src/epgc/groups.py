"""Finite groups as Cayley tables, plus their cyclic-subgroup structure.

Groups are plain multiplication tables over 0-based element indices with the
identity pinned at index 0.  Constructors cover the families needed for the
small-group catalog (cyclic, dihedral, dicyclic, symmetric, alternating and
direct products) and build groups by construction, so they check nothing at
run time; a test runs every table they build through :func:`validate_table`.
Everything else is ingested through :func:`validate_table`, the one check of
the group axioms on outside tables.

The catalog is built once per process: ``catalog(15)`` builds the 28 small
groups, ``catalog(32)`` adds the extension to those same objects, and every
other catalog is an order filter of one of the two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import itemgetter


class GroupError(ValueError):
    """A multiplication table fails one of the group axioms."""


@dataclass(frozen=True)
class GroupTable:
    """A finite group given by its full multiplication table.

    ``table[i][j]`` is the index of the product of elements ``i`` and ``j``;
    index 0 is always the identity.  Instances are immutable.  Construction
    checks only that the table and labels match the order; the group axioms
    are checked once, by :func:`validate_table`, on tables from outside.
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    name: str

    def __post_init__(self) -> None:
        if not len(self.table) == len(self.labels) == self.order:
            raise GroupError(
                f"order {self.order} needs {self.order} rows and labels,"
                f" got {len(self.table)} rows and {len(self.labels)} labels"
            )

    def __repr__(self) -> str:
        return f"GroupTable({self.name}, order={self.order})"


@dataclass(frozen=True)
class MaximalCyclicFamily:
    """The maximal cyclic subgroups of a group.

    ``subgroups[i]`` is the element set of the i-th maximal cyclic subgroup
    and ``sizes[i]`` its order.  Subgroups are sorted by (size desc, member
    list) so the family is deterministic for a given table.
    """

    group_order: int
    subgroups: tuple[frozenset[int], ...]
    sizes: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.subgroups)


def make_cyclic(n: int) -> GroupTable:
    """The cyclic group of order ``n`` with addition mod n."""
    if n < 1:
        raise GroupError(f"cyclic group needs order >= 1, got {n}")
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    labels = tuple(str(i) for i in range(n))
    return GroupTable(n, table, labels, f"Z{n}")


def _dihedral_type(m: int, s: int, labels: tuple[str, ...], name: str) -> GroupTable:
    """The group of pairs (r, f), r mod m and f in {0, 1}, at index r + m*f,
    with (r1, f1)(r2, f2) = (r1 + (-1)^f1 * r2 + f1*f2*s, f1 xor f2)."""
    pairs = [(r, f) for f in (0, 1) for r in range(m)]
    table = tuple(
        tuple((r1 + (-r2 if f1 else r2) + f1 * f2 * s) % m + m * (f1 ^ f2) for r2, f2 in pairs)
        for r1, f1 in pairs
    )
    return GroupTable(2 * m, table, labels, name)


def _word_labels(x: str, y: str, m: int) -> tuple[str, ...]:
    """e, x, x2, ..., y, xy, x2y, ... for 2m elements."""
    powers = [x if i == 1 else f"{x}{i}" for i in range(1, m)]
    return ("e", *powers, y, *(p + y for p in powers))


def make_dihedral(n: int) -> GroupTable:
    """The dihedral group of order 2n (symmetries of the regular n-gon).

    Elements are ordered e, x, ..., x^(n-1), y, xy, ..., x^(n-1)y with
    x^n = y^2 = e and xy = yx^(-1).  ``n = 2`` is accepted as an alias for
    the Klein four-group Z2 x Z2.
    """
    if n < 2:
        raise GroupError(f"dihedral group needs n >= 2, got {n}")
    return _dihedral_type(n, 0, _word_labels("x", "y", n), f"D{2 * n}")


_Q8_LABELS = ("1", "i", "-1", "-i", "j", "k", "-j", "-k")


def make_dicyclic(n: int) -> GroupTable:
    """The dicyclic group of order 4n.

    Elements are ordered e, a, ..., a^(2n-1), b, ab, ..., a^(2n-1)b with
    a^(2n) = e, b^2 = a^n and ab = ba^(-1).  For n = 2 this is the quaternion
    group and the labels use the usual 1, i, j, k names.
    """
    if n < 2:
        raise GroupError(f"dicyclic group needs n >= 2, got {n}")
    labels = _Q8_LABELS if n == 2 else _word_labels("a", "b", 2 * n)
    return _dihedral_type(2 * n, n, labels, f"Q{4 * n}")


def _perm_label(p: tuple[int, ...]) -> str:
    seen = [False] * len(p)
    parts = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        cur = p[start]
        while cur != start:
            cyc.append(cur)
            seen[cur] = True
            cur = p[cur]
        parts.append("(" + "".join(str(v) for v in cyc) + ")")
    return "".join(parts) if parts else "e"


def _perm_group(perms: list[tuple[int, ...]], name: str) -> GroupTable:
    index = {p: i for i, p in enumerate(perms)}
    size = len(perms)
    table = []
    for p in perms:
        row = []
        for q in perms:
            prod = tuple(p[q[k]] for k in range(len(p)))
            row.append(index[prod])
        table.append(tuple(row))
    labels = tuple(_perm_label(p) for p in perms)
    return GroupTable(size, tuple(table), labels, name)


def _perm_sign(p: tuple[int, ...]) -> int:
    sign = 1
    seen = [False] * len(p)
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cur = p[cur]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def make_symmetric(n: int) -> GroupTable:
    """The symmetric group on n points, elements in lexicographic order."""
    if not 1 <= n <= 5:
        raise GroupError(f"symmetric group supported for 1 <= n <= 5, got {n}")
    perms = sorted(itertools.permutations(range(n)))
    return _perm_group(perms, f"S{n}")


def make_alternating(n: int) -> GroupTable:
    """The alternating group on n points, even permutations in lex order."""
    if not 1 <= n <= 5:
        raise GroupError(f"alternating group supported for 1 <= n <= 5, got {n}")
    perms = sorted(p for p in itertools.permutations(range(n)) if _perm_sign(p) == 1)
    return _perm_group(perms, f"A{n}")


def direct_product(g: GroupTable, h: GroupTable) -> GroupTable:
    """Componentwise product; pair (a, b) gets index a * |h| + b."""
    size = g.order * h.order
    table = []
    for a1 in range(g.order):
        for b1 in range(h.order):
            row = []
            for a2 in range(g.order):
                ga = g.table[a1][a2]
                for b2 in range(h.order):
                    row.append(ga * h.order + h.table[b1][b2])
            table.append(tuple(row))
    labels = tuple(
        f"({g.labels[a]},{h.labels[b]})"
        for a in range(g.order)
        for b in range(h.order)
    )
    return GroupTable(size, tuple(table), labels, f"{g.name}x{h.name}")


def validate_table(
    raw, labels=None, name: str = "custom"
) -> GroupTable:
    """Build a :class:`GroupTable` from a raw square array.

    This is the one check of the group axioms.  Relocates the identity to
    index 0 by relabeling when necessary.  Raises :class:`GroupError` naming
    the first offending entry for non-square input, entries that are not
    ``int`` (``bool`` included) or out of range, missing identity,
    Latin-square violations and associativity violations, checked in that
    order.  Inverses need no check: a Latin row is a permutation, so it
    holds the identity.

    Associativity is Light's test (Clifford and Preston 1961, section 1.2):
    (x*a)*y = x*(a*y) is checked for every x and y, but only for a in
    :func:`_generating_sequence`, at most log2(n) elements of a group.  The
    elements a for which it holds contain the identity and are closed under
    products; the generating sequence reaches every element from the
    identity by right products, so if it holds for the sequence it holds for
    every element.  That needs only the identity, not associativity, so it
    is sound on any Latin table with an identity.  A failure names a triple
    (i, j, k) of the relocated table, with j a generator: the first
    generator that fails, its first failing row i and that row's first
    failing column k.
    """
    rows = [list(r) for r in raw]
    n = len(rows)
    if n == 0:
        raise GroupError("empty table")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise GroupError(f"table is not square: row {i} has {len(row)} entries, expected {n}")
        for j, v in enumerate(row):
            if type(v) is not int:  # bool is an int subclass, and not an index
                raise GroupError(f"entry at row {i}, column {j} is {v!r}, not an integer")
            if not 0 <= v < n:
                raise GroupError(f"entry at row {i}, column {j} is {v!r}, outside [0, {n})")
    identity = None
    for e in range(n):
        if all(rows[e][j] == j for j in range(n)) and all(rows[i][e] == i for i in range(n)):
            identity = e
            break
    if identity is None:
        raise GroupError("no two-sided identity element found")
    if labels is None:
        labels = [f"g{i}" for i in range(n)]
    else:
        labels = [str(s) for s in labels]
        if len(labels) != n:
            raise GroupError(f"expected {n} labels, got {len(labels)}")
    if identity != 0:
        old_order = [identity] + [x for x in range(n) if x != identity]
        perm = [0] * n
        for new, old in enumerate(old_order):
            perm[old] = new
        rows = [
            [perm[rows[old_i][old_j]] for old_j in old_order]
            for old_i in old_order
        ]
        labels = [labels[old] for old in old_order]
    table = tuple(tuple(r) for r in rows)
    for i, row in enumerate(table):
        seen = [False] * n
        for j, v in enumerate(row):
            if seen[v]:
                raise GroupError(f"row {i} repeats value {v} (second hit at column {j})")
            seen[v] = True
    for j in range(n):
        seen = [False] * n
        for i in range(n):
            v = table[i][j]
            if seen[v]:
                raise GroupError(f"column {j} repeats value {v} (second hit at row {i})")
            seen[v] = True
    for j in _generating_sequence(table):
        through_j = itemgetter(*table[j])  # n >= 2 here, so it returns a tuple
        for i, row_i in enumerate(table):
            ij = row_i[j]
            # row i*j of the table against i*(j*k) for every k
            right = through_j(row_i)
            if table[ij] != right:
                k = next(k for k in range(n) if table[ij][k] != right[k])
                raise GroupError(
                    f"associativity fails at triple ({i}, {j}, {k}): "
                    f"({i}*{j})*{k} = {table[ij][k]} but {i}*({j}*{k}) = {right[k]}"
                )
    return GroupTable(n, table, tuple(labels), name)


def element_order(g: GroupTable, x: int) -> int:
    """The least t >= 1 with x^t = identity."""
    if not 0 <= x < g.order:
        raise GroupError(f"element index {x} out of range for order {g.order}")
    t = 1
    y = x
    while y != 0:
        y = g.table[y][x]
        t += 1
    return t


def cyclic_subgroup(g: GroupTable, x: int) -> frozenset[int]:
    """The subgroup generated by a single element."""
    members = {0}
    y = x
    while y != 0:
        members.add(y)
        y = g.table[y][x]
    return frozenset(members)


@lru_cache(maxsize=512)
def maximal_cyclic_subgroups(g: GroupTable) -> MaximalCyclicFamily:
    """All cyclic subgroups not properly contained in another cyclic subgroup.

    Output is sorted by (size desc, sorted member list) for determinism.
    """
    distinct = {cyclic_subgroup(g, x) for x in range(g.order)}
    maximal = [s for s in distinct if not any(s < t for t in distinct)]
    maximal.sort(key=lambda s: (-len(s), sorted(s)))
    return MaximalCyclicFamily(
        group_order=g.order,
        subgroups=tuple(maximal),
        sizes=tuple(len(s) for s in maximal),
    )


def covering_union(g: GroupTable, x: int, family: MaximalCyclicFamily | None = None) -> frozenset[int]:
    """Union of all maximal cyclic subgroups containing ``x``."""
    if not 0 <= x < g.order:
        raise GroupError(f"element index {x} out of range for order {g.order}")
    if family is None:
        family = maximal_cyclic_subgroups(g)
    out: frozenset[int] = frozenset()
    for s in family.subgroups:
        if x in s:
            out = out | s
    return out


def _generating_sequence(table) -> list[int]:
    """Elements whose right multiples, from the identity at index 0, reach
    every element of the table; each one lies outside the closure of those
    before it, so a group of order n needs at most log2(n) of them."""
    gens: list[int] = []
    closure = {0}
    for x in range(len(table)):
        if x not in closure:
            gens.append(x)
            closure = _closure(table, gens)
            if len(closure) == len(table):
                break
    return gens


def _closure(table, gens: list[int]) -> set[int]:
    seen = {0}
    frontier = [0]
    while frontier:
        new = []
        for a in frontier:
            for s in gens:
                b = table[a][s]
                if b not in seen:
                    seen.add(b)
                    new.append(b)
        frontier = new
    return seen


def _extend_homomorphism(
    g: GroupTable,
    h: GroupTable,
    gens: list[int],
    images: list[int],
) -> list[int | None] | None:
    """Propagate generator images through products; None on conflict.

    The result maps the subgroup generated by ``gens``; entries outside it
    stay None.
    """
    phi: list[int | None] = [None] * g.order
    phi[0] = 0
    frontier = [0]
    while frontier:
        new = []
        for a in frontier:
            fa = phi[a]
            for s, t in zip(gens, images):
                b = g.table[a][s]
                c = h.table[fa][t]
                if phi[b] is None:
                    phi[b] = c
                    new.append(b)
                elif phi[b] != c:
                    return None
        frontier = new
    return phi


def are_isomorphic(g: GroupTable, h: GroupTable) -> bool:
    """Brute-force isomorphism test with order-profile pruning.

    Intended for the desk-scale catalog (order <= 64 or so).
    """
    if g.order != h.order:
        return False
    orders_g = [element_order(g, x) for x in range(g.order)]
    orders_h = [element_order(h, x) for x in range(h.order)]
    if sorted(orders_g) != sorted(orders_h):
        return False
    gens = _generating_sequence(g.table)
    candidates = [
        [y for y in range(h.order) if orders_h[y] == orders_g[s]] for s in gens
    ]

    def search(i: int, images: list[int]) -> bool:
        if i == len(gens):
            # gens generate g, so phi maps every element
            phi = _extend_homomorphism(g, h, gens, images)
            if phi is None or len(set(phi)) != g.order:
                return False
            return all(
                phi[g.table[a][b]] == h.table[phi[a]][phi[b]]
                for a in range(g.order)
                for b in range(g.order)
            )
        for y in candidates[i]:
            if _extend_homomorphism(g, h, gens[: i + 1], images + [y]) is None:
                continue
            if search(i + 1, images + [y]):
                return True
        return False

    return search(0, [])


CATALOG_MAX_ORDER = 32

_TABLE_NAMES = (
    "Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "S3", "Z7", "Z8", "Z2xZ4",
    "Z2xZ2xZ2", "D8", "Q8", "Z9", "Z3xZ3", "Z10", "D10", "Z11", "Z12", "Z2xZ6",
    "A4", "D12", "Q12", "Z13", "Z14", "D14", "Z15",
)


def group_from_name(name: str) -> GroupTable:
    """Build a group from a compact family name such as Z12, D8, Q12, S4, A4
    or a direct product like Z2xZ6 (also accepts Zn:12, D:8, Q:12 forms)."""
    text = name.strip()
    if ":" in text and "x" not in text:
        fam, _, arg = text.partition(":")
        fam = fam.strip()
        try:
            value = int(arg)
        except ValueError:
            raise GroupError(f"bad group selector {name!r}: parameter is not an integer")
        return _family(fam, value)
    parts = text.split("x")
    groups = [_compact_family(p) for p in parts]
    return reduce(direct_product, groups)


def _family(fam: str, value: int) -> GroupTable:
    key = fam.upper()
    if key in ("Z", "ZN"):
        return make_cyclic(value)
    if key == "D":
        if value < 4:
            raise GroupError(f"dihedral order must be at least 4, got {value}")
        if value % 2 != 0:
            raise GroupError(f"dihedral order must be even, got {value}")
        return make_dihedral(value // 2)
    if key == "Q":
        if value < 8:
            raise GroupError(f"dicyclic order must be at least 8, got {value}")
        if value % 4 != 0:
            raise GroupError(f"dicyclic order must be divisible by 4, got {value}")
        return make_dicyclic(value // 4)
    if key == "S":
        return make_symmetric(value)
    if key == "A":
        return make_alternating(value)
    raise GroupError(f"unknown group family {fam!r}")


def _compact_family(token: str) -> GroupTable:
    t = token.strip()
    if not t or not t[0].isalpha():
        raise GroupError(f"bad group selector token {token!r}")
    fam = t[0]
    rest = t[1:].lstrip(":")
    try:
        value = int(rest)
    except ValueError:
        raise GroupError(f"bad group selector token {token!r}")
    return _family(fam, value)


def _invariant_factor_chains(lo: int, hi: int):
    """Yield divisor chains (d1 | d2 | ... | dk) with product in [lo, hi]."""

    def extend(chain: tuple[int, ...], product: int):
        if lo <= product <= hi:
            yield chain
        d = chain[-1]
        nxt = d
        while product * nxt <= hi:
            if nxt % d == 0:
                yield from extend(chain + (nxt,), product * nxt)
            nxt += 1

    for d1 in range(2, hi + 1):
        yield from extend((d1,), d1)


@lru_cache(maxsize=None)
def catalog(max_order: int) -> tuple[GroupTable, ...]:
    """The group catalog up to ``max_order``.

    For ``max_order <= 15`` this is the complete list of the 28 pairwise
    non-isomorphic groups of order at most 15.  Orders 16..32 are covered by a
    curated, non-exhaustive extension (all abelian groups via invariant
    factors, dihedral, dicyclic and S4); reports must flag that range as
    non-exhaustive.

    Each group is built once: ``catalog(15)`` builds the 28 small groups,
    ``catalog(CATALOG_MAX_ORDER)`` appends the extension to those same
    objects, and every other ``catalog(k)`` is the order filter of the
    smallest of the two that covers it.  So a run that needs only the small
    groups never builds the extension.
    """
    if max_order < 1:
        raise GroupError(f"catalog needs max_order >= 1, got {max_order}")
    if max_order > CATALOG_MAX_ORDER:
        raise GroupError(
            f"catalog capped at order {CATALOG_MAX_ORDER}, got {max_order}"
        )
    if max_order == 15:
        return tuple(map(group_from_name, _TABLE_NAMES))
    if max_order < CATALOG_MAX_ORDER:
        covering = catalog(15 if max_order < 15 else CATALOG_MAX_ORDER)
        return tuple(g for g in covering if g.order <= max_order)
    extension = [
        reduce(direct_product, map(make_cyclic, chain))
        for chain in _invariant_factor_chains(16, max_order)
    ]
    extension += [make_dihedral(size // 2) for size in range(16, max_order + 1, 2)]
    extension += [make_dicyclic(size // 4) for size in range(16, max_order + 1, 4)]
    extension.append(make_symmetric(4))
    extension.sort(key=lambda g: (g.order, g.name))
    return catalog(15) + tuple(extension)


def format_cayley_table(g: GroupTable) -> str:
    """Serialize a group in the plain-text ingestion format."""
    lines = [str(g.order)]
    for row in g.table:
        lines.append(" ".join(str(v) for v in row))
    lines.append(" ".join(g.labels))
    return "\n".join(lines) + "\n"


def parse_cayley_table(text: str, name: str = "ingested") -> GroupTable:
    """Parse the plain-text Cayley table format.

    Layout: first line is n, then n lines of n whitespace-separated 0-based
    indices, optionally followed by a line of n labels; blank lines are
    skipped and anything after the labels is rejected.  Rejection messages
    cite the row/column of the first violation.
    """
    numbered = [(no, ln) for no, ln in enumerate((s.strip() for s in text.splitlines()), 1) if ln]
    lines = [ln for _, ln in numbered]
    if not lines:
        raise GroupError("empty input")
    try:
        n = int(lines[0])
    except ValueError:
        raise GroupError(f"first line must be the order, got {lines[0]!r}")
    if n < 1:
        raise GroupError(f"order must be positive, got {n}")
    if len(lines) < 1 + n:
        raise GroupError(f"expected {n} table rows, found {len(lines) - 1}")
    if len(lines) > 2 + n:
        no, ln = numbered[2 + n]
        raise GroupError(f"unexpected line {no} after the label line: {ln!r}")
    rows = []
    for i in range(n):
        parts = lines[1 + i].split()
        row = []
        for j, p in enumerate(parts):
            try:
                row.append(int(p))
            except ValueError:
                raise GroupError(f"entry at row {i}, column {j} is {p!r}, not an integer")
        rows.append(row)
    labels = None
    if len(lines) > 1 + n:
        parts = lines[1 + n].split()
        if len(parts) != n:
            raise GroupError(f"label line has {len(parts)} entries, expected {n}")
        labels = parts
    return validate_table(rows, labels=labels, name=name)
