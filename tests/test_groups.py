import random
import re

import pytest

from epgc.groups import (
    GroupError,
    GroupTable,
    are_isomorphic,
    catalog,
    covering_union,
    cyclic_subgroup,
    direct_product,
    element_order,
    format_cayley_table,
    group_from_name,
    make_alternating,
    make_cyclic,
    make_dicyclic,
    make_dihedral,
    make_symmetric,
    maximal_cyclic_subgroups,
    parse_cayley_table,
    validate_table,
)
from epgc.verify import DICYCLIC_SWEEP, DIHEDRAL_SWEEP
from oracles import generators_of, is_associative_brute, maximal_generators, totient_by_gcd


def label_index(g, label):
    return g.labels.index(label)


class TestConstructors:
    def test_trivial_cyclic(self):
        g = make_cyclic(1)
        assert g.order == 1
        assert maximal_cyclic_subgroups(g).sizes == (1,)

    def test_cyclic_rejects_zero(self):
        with pytest.raises(GroupError):
            make_cyclic(0)

    def test_z6_generator_order(self):
        g = make_cyclic(6)
        assert element_order(g, 1) == 6

    def test_z15_single_maximal_cyclic(self):
        fam = maximal_cyclic_subgroups(make_cyclic(15))
        assert fam.count == 1
        assert fam.sizes == (15,)

    def test_d8_maximal_cyclics(self):
        fam = maximal_cyclic_subgroups(make_dihedral(4))
        assert sorted(fam.sizes, reverse=True) == [4, 2, 2, 2, 2]

    def test_d10_maximal_cyclics(self):
        fam = maximal_cyclic_subgroups(make_dihedral(5))
        assert sorted(fam.sizes, reverse=True) == [5, 2, 2, 2, 2, 2]

    def test_d6_isomorphic_to_s3(self):
        assert are_isomorphic(make_dihedral(3), make_symmetric(3))

    def test_dihedral_rejects_small(self):
        with pytest.raises(GroupError):
            make_dihedral(1)

    def test_dihedral_2_is_klein_four(self):
        alias = make_dihedral(2)
        klein = direct_product(make_cyclic(2), make_cyclic(2))
        assert are_isomorphic(alias, klein)

    def test_q8_maximal_cyclics(self):
        fam = maximal_cyclic_subgroups(make_dicyclic(2))
        assert fam.sizes == (4, 4, 4)

    def test_q12_maximal_cyclics(self):
        fam = maximal_cyclic_subgroups(make_dicyclic(3))
        assert fam.sizes == (6, 4, 4, 4)

    def test_q8_center_in_every_maximal_cyclic(self):
        # brute-force intersection of the three subgroups
        g = make_dicyclic(2)
        fam = maximal_cyclic_subgroups(g)
        center = frozenset.intersection(*fam.subgroups)
        assert center == {label_index(g, "1"), label_index(g, "-1")}

    def test_dicyclic_rejects_small(self):
        with pytest.raises(GroupError):
            make_dicyclic(1)

    def test_s3_maximal_cyclics(self):
        fam = maximal_cyclic_subgroups(make_symmetric(3))
        assert sorted(fam.sizes, reverse=True) == [3, 2, 2, 2]

    def test_a4_maximal_cyclics(self):
        fam = maximal_cyclic_subgroups(make_alternating(4))
        assert sorted(fam.sizes, reverse=True) == [3, 3, 3, 3, 2, 2, 2]

    def test_s1_trivial(self):
        assert make_symmetric(1).order == 1

    def test_symmetric_rejects_out_of_range(self):
        with pytest.raises(GroupError):
            make_symmetric(6)
        with pytest.raises(GroupError):
            make_alternating(0)

    def test_klein_four_maximal_cyclics(self):
        fam = maximal_cyclic_subgroups(direct_product(make_cyclic(2), make_cyclic(2)))
        assert fam.sizes == (2, 2, 2)

    def test_z2xz4_maximal_cyclics(self):
        fam = maximal_cyclic_subgroups(direct_product(make_cyclic(2), make_cyclic(4)))
        assert fam.sizes == (4, 4, 2, 2)

    def test_trivial_product_isomorphic(self):
        s3 = make_symmetric(3)
        assert are_isomorphic(direct_product(make_cyclic(1), s3), s3)


class TestValidateTable:
    def test_trivial_table(self):
        g = validate_table([[0]])
        assert g.order == 1

    def test_identity_relocation(self):
        z3 = make_cyclic(3)
        # relabel so the identity sits at index 2
        perm = [2, 0, 1]  # old -> new
        inv = [1, 2, 0]
        rotated = [
            [perm[z3.table[inv[i]][inv[j]]] for j in range(3)] for i in range(3)
        ]
        g = validate_table(rotated)
        assert g.table[0] == (0, 1, 2)
        assert are_isomorphic(g, z3)

    def test_latin_square_violation(self):
        with pytest.raises(GroupError, match="repeats"):
            validate_table([[0, 1], [1, 1]])

    def test_no_identity(self):
        with pytest.raises(GroupError, match="identity"):
            validate_table([[1, 0], [1, 0]])

    def test_non_square(self):
        with pytest.raises(GroupError, match="not square"):
            validate_table([[0, 1], [1]])

    def test_out_of_range_entry_names_position(self):
        with pytest.raises(GroupError, match="row 1, column 1"):
            validate_table([[0, 1], [1, 7]])

    def test_bool_entry_is_not_an_integer(self):
        with pytest.raises(GroupError, match=r"^entry at row 0, column 0 is False, not an integer$"):
            validate_table([[False, True], [True, False]])

    def test_non_int_entries_rejected_before_range(self):
        with pytest.raises(GroupError, match=r"row 1, column 0 is 1\.0, not an integer"):
            validate_table([[0, 1], [1.0, 0]])
        with pytest.raises(GroupError, match=r"row 0, column 1 is True, not an integer"):
            validate_table([[0, True], [1, 0]])
        with pytest.raises(GroupError, match=r"is -1, outside \[0, 2\)"):
            validate_table([[0, 1], [1, -1]])

    def test_associativity_violation_names_triple(self):
        # identity at 0, rows/columns Latin, but not associative
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(GroupError, match=r"associativity fails at triple"):
            validate_table(table)

    def test_latin_checked_before_associativity(self):
        # row 1 repeats 1, and (1*1)*2 = 0 differs from 1*(1*2) = 1
        with pytest.raises(GroupError, match="repeats") as exc:
            validate_table([[0, 1, 2], [1, 1, 0], [2, 0, 1]])
        assert "associativity" not in str(exc.value)


def library_groups():
    """Every table the library builds: the catalog, the Eulerian family sweeps, S_n and A_n."""
    yield from catalog(32)
    yield from map(make_dihedral, DIHEDRAL_SWEEP)
    yield from map(make_dicyclic, DICYCLIC_SWEEP)
    yield from (make_symmetric(n) for n in range(1, 6))
    yield from (make_alternating(n) for n in range(1, 6))


class TestLibraryTables:
    """The constructors check nothing at run time; this is their proof."""

    def test_every_library_table_is_a_group(self):
        count = 0
        for g in library_groups():
            assert validate_table(g.table, g.labels, g.name).table == g.table, g.name
            count += 1
        assert count == len(catalog(32)) + len(DIHEDRAL_SWEEP) + len(DICYCLIC_SWEEP) + 5 + 5

    def test_construction_checks_the_shape(self):
        table = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
        with pytest.raises(GroupError, match="3 rows and 2 labels"):
            GroupTable(3, table, ("a", "b"), "x")


TRIPLE = re.compile(
    r"associativity fails at triple \((\d+), (\d+), (\d+)\): "
    r"\(\1\*\2\)\*\3 = (\d+) but \1\*\(\2\*\3\) = (\d+)$"
)


def relabelled(table, perm):
    """The table with element x renamed perm[x]."""
    n = len(table)
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    return [[perm[table[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]


def relocated(table):
    """The table with its identity moved to index 0, the others in order."""
    n = len(table)
    e = next(x for x in range(n) if all(table[x][j] == j for j in range(n)))
    order = [e] + [x for x in range(n) if x != e]
    pos = {old: new for new, old in enumerate(order)}
    return [[pos[table[i][j]] for j in order] for i in order]


def intercalate_corrupted(group, rng):
    """A seeded relabelling of the group with one intercalate swapped.

    Rows r, r*u and columns c, u*c, u an involution, hold a 2x2 Latin
    subsquare; swapping it away from the identity row and column keeps a
    Latin square with an identity, so only associativity can fail.
    """
    n = group.order
    perm = list(range(n))
    rng.shuffle(perm)
    table = relabelled(group.table, perm)
    e = perm[0]
    u = rng.choice([x for x in range(n) if x != e and table[x][x] == e])
    r = rng.choice([x for x in range(n) if x not in (e, u)])
    c = rng.choice([x for x in range(n) if x not in (e, u)])
    r2, c2 = table[r][u], table[u][c]
    rows = [list(row) for row in table]
    rows[r][c], rows[r][c2] = table[r][c2], table[r][c]
    rows[r2][c], rows[r2][c2] = table[r2][c2], table[r2][c]
    return rows


def random_loop(n, rng):
    """A seeded random Latin square with a two-sided identity (a loop),
    filled cell by cell with backtracking, then relabelled at random."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(c):
        if c == len(cells):
            return True
        i, j = cells[c]
        used = set(rows[i][:j]) | {rows[k][j] for k in range(i)}
        values = [v for v in range(n) if v not in used]
        rng.shuffle(values)
        for v in values:
            rows[i][j] = v
            if fill(c + 1):
                return True
        rows[i][j] = None
        return False

    assert fill(0)
    perm = list(range(n))
    rng.shuffle(perm)
    return relabelled(rows, perm)


def checked_verdict(table):
    """Whether validate_table accepts the table, after checking that the
    triple scan agrees and that a rejection names a triple that fails in
    the relocated table."""
    try:
        validate_table(table)
    except GroupError as exc:
        assert not is_associative_brute(table), exc
        m = TRIPLE.match(str(exc))
        assert m, exc
        i, j, k, left, right = map(int, m.groups())
        t = relocated(table)
        assert t[t[i][j]][k] == left != right == t[i][t[j][k]], exc
        return False
    assert is_associative_brute(table)
    return True


class TestAssociativityOracle:
    """Light's test (generators only) against the full triple scan."""

    def test_library_tables(self):
        for g in library_groups():
            assert checked_verdict(g.table), g.name

    def test_intercalate_corrupted_tables(self):
        rng = random.Random(20230)
        bases = [g for g in catalog(32) if g.order >= 6 and g.order % 2 == 0]
        verdicts = [
            checked_verdict(intercalate_corrupted(rng.choice(bases), rng))
            for _ in range(300)
        ]
        assert verdicts.count(False) > 250

    def test_random_loops(self):
        rng = random.Random(8)
        verdicts = [
            checked_verdict(random_loop(n, rng))
            for n in range(1, 9)
            for _ in range(25)
        ]
        # every loop of order <= 4 is a group; most larger ones are not
        assert all(verdicts[:100])
        assert verdicts[100:].count(False) > 75


class TestElementStructure:
    def test_identity_order_one(self):
        assert element_order(make_symmetric(4), 0) == 1

    def test_z8_generator_order(self):
        assert element_order(make_cyclic(8), 1) == 8

    def test_q8_b_order(self):
        # repeated multiplication in the constructed table
        q8 = make_dicyclic(2)
        b = label_index(q8, "j")
        assert element_order(q8, b) == 4

    def test_cyclic_group_single_maximal(self):
        for n in (2, 7, 12):
            fam = maximal_cyclic_subgroups(make_cyclic(n))
            assert fam.count == 1
            assert fam.subgroups[0] == frozenset(range(n))

    def test_z2_cubed_seven_subgroups(self):
        g = group_from_name("Z2xZ2xZ2")
        fam = maximal_cyclic_subgroups(g)
        assert fam.sizes == (2,) * 7

    def test_d12_subgroups(self):
        fam = maximal_cyclic_subgroups(make_dihedral(6))
        assert sorted(fam.sizes, reverse=True) == [6, 2, 2, 2, 2, 2, 2]

    def test_generator_set_klein_four(self):
        g = group_from_name("Z2xZ2")
        assert maximal_generators(g) == {1, 2, 3}

    def test_generator_set_s3_all_non_identity(self):
        g = make_symmetric(3)
        assert maximal_generators(g) == set(range(1, 6))

    def test_generator_set_q8_order_four_elements(self):
        q8 = make_dicyclic(2)
        expected = {x for x in range(8) if element_order(q8, x) == 4}
        assert maximal_generators(q8) == expected
        assert len(expected) == 6

    def test_covering_union_identity_is_whole_group(self):
        for name in ("S3", "Q8", "Z2xZ4"):
            g = group_from_name(name)
            assert covering_union(g, 0) == frozenset(range(g.order))

    def test_covering_union_d8_reflection(self):
        d8 = make_dihedral(4)
        y = label_index(d8, "y")
        assert covering_union(d8, y) == {0, y}

    def test_covering_union_q8_i(self):
        q8 = make_dicyclic(2)
        i = label_index(q8, "i")
        expected = {label_index(q8, s) for s in ("1", "i", "-1", "-i")}
        assert covering_union(q8, i) == expected


class TestCatalog:
    def test_counts(self):
        assert len(catalog(1)) == 1
        assert len(catalog(8)) == 14
        assert len(catalog(15)) == 28

    def test_rejects_bad_bounds(self):
        with pytest.raises(GroupError):
            catalog(0)
        with pytest.raises(GroupError):
            catalog(33)

    def test_every_catalog_is_the_order_filter_of_the_full_one(self):
        full = catalog(32)
        for k in range(1, 33):
            expected = [g for g in full if g.order <= k]
            assert len(catalog(k)) == len(expected)
            assert all(a is b for a, b in zip(catalog(k), expected))

    def test_smaller_catalogs_build_no_tables(self, monkeypatch):
        catalog.cache_clear()
        catalog(32)
        built = []
        post_init = GroupTable.__post_init__

        def counting(self):
            built.append(self.name)
            post_init(self)

        monkeypatch.setattr(GroupTable, "__post_init__", counting)
        assert len(catalog(15)) == 28
        assert catalog(8)[-1].name == "Q8"
        assert built == []

    def test_names_unique(self):
        names = [g.name for g in catalog(32)]
        assert len(names) == len(set(names))

    def test_extension_families_present(self):
        names = {g.name for g in catalog(32)}
        assert {"Z16", "D16", "Q16", "S4", "Z2xZ4xZ4", "Z32"} <= names

    def test_union_covers_group(self):
        # every element lies in some maximal cyclic subgroup
        for g in catalog(15):
            fam = maximal_cyclic_subgroups(g)
            assert frozenset.union(*fam.subgroups) == frozenset(range(g.order))

    def test_generators_not_in_other_subgroups(self):
        for g in catalog(15):
            fam = maximal_cyclic_subgroups(g)
            for i, sub in enumerate(fam.subgroups):
                gens = generators_of(g, sub)
                for j, other in enumerate(fam.subgroups):
                    if i != j:
                        assert not (gens & other)

    def test_prime_size_intersections_trivial(self):
        for g in catalog(15):
            fam = maximal_cyclic_subgroups(g)
            for i, sub in enumerate(fam.subgroups):
                if _is_prime(len(sub)):
                    for j, other in enumerate(fam.subgroups):
                        if i != j:
                            assert sub & other == {0}

    def test_never_exactly_two_maximal_cyclics(self):
        for g in catalog(32):
            assert maximal_cyclic_subgroups(g).count != 2

    def test_generator_counts_are_totients(self):
        for g in catalog(15):
            fam = maximal_cyclic_subgroups(g)
            for size, sub in zip(fam.sizes, fam.subgroups):
                assert len(generators_of(g, sub)) == totient_by_gcd(size)

    def test_element_orders_divide_group_order(self):
        for g in catalog(15):
            for x in range(g.order):
                assert g.order % element_order(g, x) == 0

    def test_subgroups_sorted_deterministically(self):
        for g in catalog(15):
            fam = maximal_cyclic_subgroups(g)
            keys = [(-len(s), sorted(s)) for s in fam.subgroups]
            assert keys == sorted(keys)


class TestSelectors:
    @pytest.mark.parametrize(
        "selector,order",
        [("Z12", 12), ("Zn:12", 12), ("D:8", 8), ("D8", 8), ("Q:12", 12),
         ("S:4", 24), ("A4", 12), ("Z2xZ6", 12), ("Z2xZ2xZ2", 8)],
    )
    def test_selector_orders(self, selector, order):
        assert group_from_name(selector).order == order

    def test_bad_selector(self):
        with pytest.raises(GroupError):
            group_from_name("X9")
        with pytest.raises(GroupError):
            group_from_name("D:9")
        with pytest.raises(GroupError):
            group_from_name("Q:10")

    @pytest.mark.parametrize(
        "selector,message",
        [
            ("D2", "dihedral order must be at least 4, got 2"),
            ("D:2", "dihedral order must be at least 4, got 2"),
            ("D:-4", "dihedral order must be at least 4, got -4"),
            ("Q4", "dicyclic order must be at least 8, got 4"),
            ("Q:0", "dicyclic order must be at least 8, got 0"),
            ("Z2xD2", "dihedral order must be at least 4, got 2"),
        ],
    )
    def test_too_small_order_is_named_as_typed(self, selector, message):
        with pytest.raises(GroupError, match=f"^{message}$"):
            group_from_name(selector)


class TestCayleyTableIO:
    def test_round_trip(self):
        g = make_dihedral(4)
        text = format_cayley_table(g)
        h = parse_cayley_table(text)
        assert h.table == g.table
        assert h.labels == g.labels
        assert are_isomorphic(g, h)

    def test_missing_rows(self):
        with pytest.raises(GroupError, match="expected 3 table rows"):
            parse_cayley_table("3\n0 1 2\n1 2 0\n")

    def test_bad_entry_cites_position(self):
        with pytest.raises(GroupError, match="row 1, column 2"):
            parse_cayley_table("3\n0 1 2\n1 2 x\n2 0 1\n")

    def test_row_width_cited(self):
        with pytest.raises(GroupError, match="row 0 has 2 entries"):
            parse_cayley_table("3\n0 1\n1 2 0\n2 0 1\n")

    def test_trailing_line_rejected(self):
        with pytest.raises(GroupError, match=r"line 5 .*'extra'"):
            parse_cayley_table("2\n0 1\n1 0\na b\nextra\n")

    def test_both_layouts_accepted(self):
        assert parse_cayley_table("2\n0 1\n1 0\n").labels == ("g0", "g1")
        assert parse_cayley_table("2\n0 1\n\n1 0\na b\n\n").labels == ("a", "b")


class TestIsomorphism:
    def test_distinguishes_same_order(self):
        assert not are_isomorphic(make_cyclic(8), make_dihedral(4))
        assert not are_isomorphic(make_dihedral(4), make_dicyclic(2))
        assert not are_isomorphic(
            direct_product(make_cyclic(2), make_cyclic(4)), make_cyclic(8)
        )

    def test_product_commutes(self):
        a = direct_product(make_cyclic(2), make_cyclic(6))
        b = direct_product(make_cyclic(6), make_cyclic(2))
        assert are_isomorphic(a, b)

    def test_invariant_factor_vs_coprime_product(self):
        assert are_isomorphic(
            direct_product(make_cyclic(3), make_cyclic(5)), make_cyclic(15)
        )


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_cyclic_subgroup_matches_powers():
    g = make_dicyclic(3)
    for x in range(g.order):
        members = {0}
        y = x
        for _ in range(g.order):
            members.add(y)
            y = g.table[y][x]
        assert cyclic_subgroup(g, x) == members


def test_inverse_is_two_sided():
    g = make_symmetric(4)
    for x in range(g.order):
        inv = g.table[x].index(0)
        assert g.table[x][inv] == 0 == g.table[inv][x]
