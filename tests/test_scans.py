"""The row- and block-at-a-time scans against their quantifier-by-quantifier
oracles.

Each oracle below is the literal loop or generator form of the law, one
element tuple at a time: the five axioms with every violation, the
twelve-law sanity suite with its first witnesses and the pairs at which
either fails, the medial flags, the atom characterizations (b)-(d), the group
axioms of a p-semisimple algebra, the join tables and columns, K(A), the
flags and detachment of a subset, isotone maps, and the congruence of a
deductive system.  The scans in ``pbci.core``, ``pbci.dsystems`` and
``pbci.derivations`` evaluate the same laws a byte block, row, column or
bitmask at a time; both must give the same answer, and the same
witnesses in the same order, on every valid algebra of the pool and on
hand-corrupted tables, which bypass ``validate``, where the oracle
answers False.
"""

import itertools
import random

import pytest

from pbci import (CongruenceError, InternalInconsistencyError, PseudoBciAlgebra,
                  as_deductive_system, bck_part_system, brute_force_ds, core,
                  enumerate_ds, generate_ds, map_properties, phi_map)
from pbci.dsystems import (DeductiveSystem, _detachment_closed, _flags,
                           congruence_classes)

from conftest import flat, make_n90_product, make_products


# --- oracles ----------------------------------------------------------------


def axiom_oracle(A):
    """collect_violations one (x, y, z) at a time, as printed lines."""
    names, unit, arrow, squig = A.names, A.unit, A.arrow, A.squig
    n = A.size
    out = []
    for x in range(n):
        if arrow[unit][x] != x:
            out.append(core.Violation(
                "psBCI3", (names[x],),
                f"1 -> {names[x]} = {names[arrow[unit][x]]}, expected {names[x]}"))
        if squig[unit][x] != x:
            out.append(core.Violation(
                "psBCI4", (names[x],),
                f"1 ~> {names[x]} = {names[squig[unit][x]]}, expected {names[x]}"))
    for x in range(n):
        for y in range(x + 1, n):
            if arrow[x][y] == unit and arrow[y][x] == unit:
                out.append(core.Violation(
                    "psBCI5", (names[x], names[y]),
                    "both implications equal 1 for distinct elements"))
    for x in range(n):
        for y in range(n):
            for z in range(n):
                v = squig[arrow[x][y]][squig[arrow[y][z]][arrow[x][z]]]
                if v != unit:
                    out.append(core.Violation(
                        "psBCI1", (names[x], names[y], names[z]),
                        f"(x->y) ~> [(y->z) ~> (x->z)] = {names[v]}"))
                w = arrow[squig[x][y]][arrow[squig[y][z]][squig[x][z]]]
                if w != unit:
                    out.append(core.Violation(
                        "psBCI2", (names[x], names[y], names[z]),
                        f"(x~>y) -> [(y~>z) -> (x~>z)] = {names[w]}"))
    return [str(v) for v in out]


# the law names in the order the suite states them
SANITY_LAWS = list(core.SANITY_LAWS.values())


def order_oracle(A):
    """The order from its definition: [x][y] is x -> y = 1.  Built from the
    arrow table, so it is independent of the byte views it checks."""
    return [[v == A.unit for v in row] for row in A.arrow]


def sanity_oracle(A):
    """The twelve-law sanity suite one (x, y, z) at a time: the first
    witness of each failing law, in the order first seen."""
    n = A.size
    u = A.unit
    arrow, squig, leq = A.arrow, A.squig, order_oracle(A)
    fails = {}

    def report(law, *xs):
        if law not in fails:
            fails[law] = f"{law} at ({', '.join(A.names[i] for i in xs)})"

    for x in range(n):
        if arrow[x][x] != u or squig[x][x] != u:
            report("x->x=1", x)
        if leq[u][x] and x != u:
            report("1<=x implies x=1", x)
        if arrow[x][u] != squig[x][u]:
            report("x->1=x~>1", x)
    for x in range(n):
        for y in range(n):
            if not leq[x][A.cup1(x, y)] or not leq[x][A.cup2(x, y)]:
                report("x<=(x->y)~>y", x, y)
            if (arrow[x][y] == u) != (squig[x][y] == u):
                report("x->y=1 iff x~>y=1", x, y)
            if arrow[arrow[x][y]][u] != squig[arrow[x][u]][arrow[y][u]]:
                report("(x->y)->1=(x->1)~>(y->1)", x, y)
            if squig[squig[x][y]][u] != arrow[squig[x][u]][squig[y][u]]:
                report("(x~>y)~>1=(x~>1)->(y~>1)", x, y)
            for z in range(n):
                if leq[x][arrow[y][z]] != leq[y][squig[x][z]]:
                    report("x<=y->z iff y<=x~>z", x, y, z)
                if leq[x][y]:
                    if not leq[arrow[y][z]][arrow[x][z]] or \
                            not leq[squig[y][z]][squig[x][z]]:
                        report("x<=y implies y->z<=x->z", x, y, z)
                    if not leq[arrow[z][x]][arrow[z][y]] or \
                            not leq[squig[z][x]][squig[z][y]]:
                        report("x<=y implies z->x<=z->y", x, y, z)
                    if leq[y][z] and not leq[x][z]:
                        report("transitivity", x, y, z)
                if not leq[arrow[x][y]][arrow[arrow[z][x]][arrow[z][y]]] or \
                        not leq[squig[x][y]][squig[squig[z][x]][squig[z][y]]]:
                    report("x->y<=(z->x)->(z->y)", x, y, z)
                if arrow[x][squig[y][z]] != squig[y][arrow[x][z]]:
                    report("x->(y~>z)=y~>(x->z)", x, y, z)
    return list(fails.values())


def axiom_pair_oracle(A):
    """The pairs (x, y) at which psBCI1 or psBCI2 fails for some z."""
    unit, arrow, squig = A.unit, A.arrow, A.squig
    rng = range(A.size)
    return [(x, y) for x in rng for y in rng if any(
        squig[arrow[x][y]][squig[arrow[y][z]][arrow[x][z]]] != unit
        or arrow[squig[x][y]][arrow[squig[y][z]][squig[x][z]]] != unit
        for z in rng)]


def sanity_pair_oracle(A):
    """The pairs (x, y) at which a sanity law over pairs, or one over
    triples for some z, fails."""
    u, arrow, squig, leq = A.unit, A.arrow, A.squig, order_oracle(A)
    rng = range(A.size)

    def fails(x, y, z):
        return (leq[x][arrow[y][z]] != leq[y][squig[x][z]]
                or leq[x][y] and (not leq[arrow[y][z]][arrow[x][z]]
                                  or not leq[squig[y][z]][squig[x][z]]
                                  or not leq[arrow[z][x]][arrow[z][y]]
                                  or not leq[squig[z][x]][squig[z][y]]
                                  or leq[y][z] and not leq[x][z])
                or not leq[arrow[x][y]][arrow[arrow[z][x]][arrow[z][y]]]
                or not leq[squig[x][y]][squig[squig[z][x]][squig[z][y]]]
                or arrow[x][squig[y][z]] != squig[y][arrow[x][z]])

    return [(x, y) for x in rng for y in rng
            if not leq[x][A.cup1(x, y)] or not leq[x][A.cup2(x, y)]
            or (arrow[x][y] == u) != (squig[x][y] == u)
            or arrow[arrow[x][y]][u] != squig[arrow[x][u]][arrow[y][u]]
            or squig[squig[x][y]][u] != arrow[squig[x][u]][squig[y][u]]
            or any(fails(x, y, z) for z in rng)]


def medial_arrow_oracle(A):
    arrow, squig = A.arrow, A.squig
    rng = range(A.size)
    return all(
        arrow[squig[p][q]][squig[x][y]] == arrow[squig[p][x]][squig[q][y]]
        for p in rng for q in rng for x in rng for y in rng)


def medial_squig_oracle(A):
    arrow, squig = A.arrow, A.squig
    rng = range(A.size)
    return all(
        squig[arrow[p][q]][arrow[x][y]] == squig[arrow[p][x]][arrow[q][y]]
        for p in rng for q in rng for x in rng for y in rng)


def atom_oracle(A, a):
    n = A.size
    u = A.unit
    arrow, squig = A.arrow, A.squig

    def all_x(pred):
        return all(pred(x) for x in range(n))

    return [
        ("b", all_x(lambda x: A.cup1(a, x) == a and A.cup2(a, x) == a)),
        ("c", all_x(lambda x: arrow[x][a] == squig[arrow[a][x]][u])),
        ("d", all_x(lambda x: squig[x][a] == arrow[squig[a][x]][u])),
    ]


def group_oracle(A):
    n = A.size
    u = A.unit
    arrow, squig = A.arrow, A.squig
    inv = [arrow[x][u] for x in range(n)]
    prod = [[squig[inv[x]][y] for y in range(n)] for x in range(n)]
    for x in range(n):
        if prod[x][u] != x or prod[u][x] != x:
            return False
        if prod[x][inv[x]] != u or prod[inv[x]][x] != u:
            return False
        if inv[x] != squig[x][u]:
            return False
        for y in range(n):
            if prod[x][y] != arrow[squig[y][u]][x]:
                return False
            if arrow[x][y] != prod[y][inv[x]] or squig[x][y] != prod[inv[x]][y]:
                return False
            for z in range(n):
                if prod[prod[x][y]][z] != prod[x][prod[y][z]]:
                    return False
    return True


def congruence_oracle(A, D):
    """congruence_classes one (x, y, z) at a time: its classes, or the
    CongruenceError text."""
    n = A.size
    members = D.members
    names = A.names

    def related(x, y):
        return A.arrow[x][y] in members and A.arrow[y][x] in members

    for x in range(n):
        if not related(x, x):
            return f"relation not reflexive at {names[x]}"
        for y in range(n):
            for z in range(n):
                if related(x, y) and related(y, z) and not related(x, z):
                    return f"relation not transitive at ({names[x]}, {names[y]}, {names[z]})"
    rep = list(range(n))
    for x in range(n):
        for y in range(x):
            if related(x, y):
                rep[x] = rep[y]
                break
    blocks = {}
    for x in range(n):
        blocks.setdefault(rep[x], []).append(x)
    classes = [tuple(blocks[r]) for r in sorted(blocks)]
    for bx in classes:
        for by in classes:
            for table in (A.arrow, A.squig):
                if len({rep[table[x][y]] for x in bx for y in by}) != 1:
                    return ("operation not constant on classes "
                            f"[{names[bx[0]]}] op [{names[by[0]]}]")
    return classes


def congruence_outcome(A, D):
    try:
        return congruence_classes(A, D)
    except CongruenceError as exc:
        return str(exc)


def detachment_oracle(A, members, table):
    """x in D and x op y in D imply y in D, one (x, y) at a time."""
    return all(table[x][y] not in members or y in members
               for x in members for y in range(A.size))


def flags_oracle(A, members):
    """The system with its flags by their definitions: compatible when
    x -> y and x ~> y lie in D together, closed when D is a subalgebra."""
    rng = range(A.size)
    compatible = all((A.arrow[x][y] in members) == (A.squig[x][y] in members)
                     for x in rng for y in rng)
    closed = A.unit in members and all(
        A.arrow[x][y] in members and A.squig[x][y] in members
        for x in members for y in members)
    return DeductiveSystem(members, compatible, closed)


def as_system_oracle(A, members):
    """as_deductive_system by the definitions: the system, or the type and
    text of the error it raises."""
    if A.unit not in members:
        return ValueError, "a deductive system must contain the unit"
    if not detachment_oracle(A, members, A.arrow):
        return ValueError, "subset is not closed under detachment"
    return flags_oracle(A, members)


def as_system_outcome(A, members):
    try:
        return as_deductive_system(A, members)
    except (ValueError, InternalInconsistencyError) as exc:
        return type(exc), str(exc)


def assert_brute_force_matches_oracle(A):
    """brute_force_ds raises exactly when the two detachment forms disagree
    on some subset holding the unit, and names one; otherwise it lists the
    systems that enumerate_ds finds.  Returns which of the two happened."""
    rest = [x for x in A.elements() if x != A.unit]
    subsets = [frozenset((A.unit, *c)) for k in range(len(rest) + 1)
               for c in itertools.combinations(rest, k)]
    disagree = {"arrow- and squig-detachment disagree on "
                f"{{{', '.join(A.name_set(s))}}}" for s in subsets
                if detachment_oracle(A, s, A.arrow) != detachment_oracle(A, s, A.squig)}
    try:
        systems = brute_force_ds(A)
    except InternalInconsistencyError as exc:
        assert str(exc) in disagree, (A.names, str(exc))
        return "arrow- and squig-detachment disagree"
    assert not disagree, A.names
    assert systems == enumerate_ds(A), A.names
    return "forms agree"


def bck_part_oracle(A):
    """K(A) = {x | x -> 1 = 1}."""
    return frozenset(x for x in A.elements() if A.arrow[x][A.unit] == A.unit)


def isotone_oracle(A, d):
    leq = order_oracle(A)
    return all(leq[d[x]][d[y]] for x in A.elements() for y in A.elements()
               if leq[x][y])


# --- inputs -----------------------------------------------------------------


def raw(names, unit, arrow, squig=None):
    """An algebra built from index tables without validation."""
    squig = arrow if squig is None else squig
    return PseudoBciAlgebra(names=tuple(names), unit=unit, arrow=arrow, squig=squig)


def corrupted(A, which, x, y, v):
    """A with entry (x, y) of its arrow or squig table set to v; the other
    table is kept even when the two are equal."""
    table = [list(row) for row in getattr(A, which)]
    table[x][y] = v
    table = tuple(map(tuple, table))
    return raw(A.names, A.unit,
               table if which == "arrow" else A.arrow,
               table if which == "squig" else A.squig)


def corruptions(A):
    """Every table of A with one entry changed to each other value."""
    n = A.size
    for which in ("arrow", "squig"):
        for x in range(n):
            for y in range(n):
                for v in range(n):
                    if getattr(A, which)[x][y] != v:
                        yield corrupted(A, which, x, y, v)


def sampled(A, k):
    """k seeded single-entry corruptions of A, for tables too large to
    corrupt every entry of."""
    rng = random.Random(A.size)
    n = A.size
    for _ in range(k):
        which = rng.choice(("arrow", "squig"))
        x, y = rng.randrange(n), rng.randrange(n)
        old = getattr(A, which)[x][y]
        yield corrupted(A, which, x, y, rng.choice([v for v in range(n) if v != old]))


@pytest.fixture(scope="module")
def valid_pool(small_pool, large_products):
    return (small_pool + list(make_products().values())
            + list(large_products.values()) + [flat(5), flat(6)])


@pytest.fixture(scope="module")
def p_semisimple_pool(small_pool):
    return [A for A in small_pool if core.classify(A).is_p_semisimple]


# --- axiom scan and sanity suite ---------------------------------------------


def axiom_lines(A):
    return [str(v) for v in core.collect_violations(A.to_spec())]


def sanity_lines(A):
    return core._sanity_failures(A)


def shared_failing_rows(A):
    """How many (x, z) fail psBCI1 or psBCI2 with a bracket row over y,
    (y->z) ~> (x->z) or its dual, that an earlier z gave for the same x."""
    rng = A.elements()
    shared = 0
    for inner, outer in ((A.arrow, A.squig), (A.squig, A.arrow)):
        for x in rng:
            seen = set()
            for z in rng:
                row = tuple(outer[inner[y][z]][inner[x][z]] for y in rng)
                if row in seen and any(outer[inner[x][y]][row[y]] != A.unit
                                       for y in rng):
                    shared += 1
                seen.add(row)
    return shared


def random_tables(seed, count):
    """count seeded random algebras of n = 1..5, each table row a random
    choice of entries with the unit over-represented."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        unit = rng.randrange(n)
        names = tuple(f"e{i}" if i != unit else "1" for i in range(n))
        dense = rng.choice((0.2, 0.5, 0.8))
        tables = [tuple(tuple(unit if rng.random() < dense else rng.randrange(n)
                              for _ in range(n)) for _ in range(n))
                  for _ in range(2)]
        yield raw(names, unit, *tables)


def test_axiom_scan_and_sanity_suite_match_oracles_on_valid_pool(valid_pool):
    for A in valid_pool:
        assert axiom_lines(A) == axiom_oracle(A) == [], A.names
        assert sanity_lines(A) == sanity_oracle(A) == [], A.names


def test_axiom_scan_matches_oracle_on_corrupted_tables(all_fixtures, large_products):
    sources = [all_fixtures[name] for name in ("proper5", "cyclic3", "bck5")]
    sources += list(large_products.values())
    alone: set[str] = set()
    shared = 0
    for A in sources:
        for B in corruptions(A) if A.size <= 5 else sampled(A, 12):
            expected = axiom_oracle(B)
            assert axiom_lines(B) == expected
            failing = {line.split("[")[0] for line in expected}
            if len(failing) == 1:
                alone |= failing
            shared += shared_failing_rows(B)
    # each axiom but psBCI5 is the only one to fail somewhere, so a scan
    # that skipped it would pass a table
    assert alone == {"psBCI1", "psBCI2", "psBCI3", "psBCI4"}
    # rows that repeat across z, where a scan that checked each distinct
    # row once would still have to report every z
    assert shared > 2000


def test_axiom_scan_sees_antisymmetry_alone():
    # a and b below 1 and each below the other, x -> y = 1 if x <= y else y:
    # only psBCI5 fails
    B = raw(("a", "b", "1"), 2, ((2, 2, 2), (2, 2, 2), (0, 1, 2)))
    assert axiom_oracle(B) == ["psBCI5[a, b]: both implications equal 1 for distinct elements"]
    assert axiom_lines(B) == axiom_oracle(B)


def test_axiom_scan_lists_every_antisymmetric_pair_in_order():
    # x -> y = 1 throughout: every pair of distinct elements fails psBCI5
    one = ((3,) * 4,) * 4
    B = raw(("a", "b", "c", "1"), 3, one)
    lines = axiom_lines(B)
    assert [line for line in lines if line.startswith("psBCI5")] == [
        f"psBCI5[{x}, {y}]: both implications equal 1 for distinct elements"
        for x, y in (("a", "b"), ("a", "c"), ("a", "1"), ("b", "c"),
                     ("b", "1"), ("c", "1"))]
    assert lines == axiom_oracle(B)


def test_axiom_scan_keeps_every_z_of_a_shared_row(large_products):
    # group6^2 with a.a ~> a.b and a.a ~> a.c swapped, as in the golden
    # file: many z give one failing bracket row for the same x, and each
    # of them is a violation of its own
    A = large_products["group6^2"]
    x = A.index_of("a.a")
    B = corrupted(corrupted(A, "squig", x, 1, A.squig[x][2]), "squig", x, 2, A.squig[x][1])
    expected = axiom_oracle(B)
    assert len(expected) == 276
    assert shared_failing_rows(B) > 50
    assert axiom_lines(B) == expected


def test_sanity_suite_matches_oracle_on_corrupted_tables(all_fixtures, large_products):
    laws: set[str] = set()
    reordered = 0
    for A in list(all_fixtures.values()) + [large_products["bck5^2"]]:
        for B in corruptions(A) if A.size <= 6 else sampled(A, 40):
            expected = sanity_oracle(B)
            assert sanity_lines(B) == expected
            found = [line.split(" at ")[0] for line in expected]
            laws.update(found)
            reordered += found != sorted(found, key=SANITY_LAWS.index)
    assert laws == set(SANITY_LAWS)   # every law fails somewhere
    assert reordered > 0              # and not always in statement order


def test_both_scans_match_oracles_on_random_tables():
    for B in random_tables(11, 1500):
        expected = axiom_oracle(B)
        assert axiom_lines(B) == expected
        expected = sanity_oracle(B)
        assert sanity_lines(B) == expected


def assert_pairs_decided(B):
    """The decide step flags exactly the pairs at which the oracles find a
    failing instance: no failure is missed, and no pair that holds is
    listed again.  With the entries of psBCI3-5 and (1), (9), (11), it
    says valid exactly when both oracles report nothing."""
    axiom_pairs, sanity_pairs = map(list, core._failing_pairs(B))
    assert axiom_pairs == axiom_pair_oracle(B)
    assert sanity_pairs == sanity_pair_oracle(B)
    entries_hold = not any(line.startswith(("psBCI3", "psBCI4", "psBCI5"))
                           for line in axiom_oracle(B))
    entries_hold &= not any(line.startswith(("x->x=1", "1<=x", "x->1=x~>1"))
                            for line in sanity_oracle(B))
    decided = not axiom_pairs and not sanity_pairs and entries_hold
    assert decided == (axiom_oracle(B) == [] and sanity_oracle(B) == [])
    return decided


def test_decide_step_matches_oracles_on_valid_pool(valid_pool):
    for A in valid_pool:
        assert assert_pairs_decided(A), A.names


def fails_56_on_the_diagonal(B):
    """Whether (5) or (6) fails at some (x, x, z), by definition, for an x
    with no strict upper bound: the instances that the decide step reads
    off the diagonal v -> v instead of a block."""
    arrow, squig, leq = B.arrow, B.squig, order_oracle(B)
    rng = range(B.size)
    return any(leq[x][x] and leq[x].count(True) == 1 and any(
        not leq[arrow[x][z]][arrow[x][z]] or not leq[squig[x][z]][squig[x][z]]
        or not leq[arrow[z][x]][arrow[z][x]] or not leq[squig[z][x]][squig[z][x]]
        for z in rng) for x in rng)


def test_decide_step_matches_oracles_on_corrupted_tables(all_fixtures,
                                                         large_products):
    flagged = checked = diagonal = 0
    sources = list(all_fixtures.values()) + list(large_products.values())
    for A in sources:
        for B in corruptions(A) if A.size <= 5 else sampled(A, 12):
            flagged += not assert_pairs_decided(B)
            checked += 1
            diagonal += fails_56_on_the_diagonal(B)
    # every single-entry change of these tables breaks some law
    assert flagged == checked > 500
    # and some break (5) or (6) where no block is built, e.g. an entry
    # v -> v other than 1 of cyclic3
    assert diagonal > 0


def test_decide_step_reads_5_and_6_off_the_diagonal(all_fixtures):
    # proper5 with a -> a = a and a ~> d = a: d has no strict upper bound,
    # and (6) fails at (d, d, a) as (a~>d) -> (a~>d) = a -> a = a, while
    # every other law holds at (d, d), so only the diagonal flags the pair
    A = all_fixtures["proper5"]
    a, d = A.index_of("a"), A.index_of("d")
    B = corrupted(corrupted(A, "arrow", a, a, a), "squig", a, d, a)
    assert fails_56_on_the_diagonal(B)
    assert (d, d) in core._failing_pairs(B)[1]
    assert not assert_pairs_decided(B)


def test_decide_step_matches_oracles_on_random_tables():
    decided = [assert_pairs_decided(B) for B in random_tables(11, 1500)]
    # both answers occur, so neither direction is checked vacuously
    assert 0 < decided.count(True) < decided.count(False)


# --- medial -----------------------------------------------------------------


def test_medial_matches_oracle_on_valid_pool(valid_pool):
    medial = 0
    for A in valid_pool:
        arrow_flag = core._is_medial(A.byte_tables, 0)
        squig_flag = core._is_medial(A.byte_tables, 1)
        assert arrow_flag == medial_arrow_oracle(A), A.names
        assert squig_flag == medial_squig_oracle(A), A.names
        medial += arrow_flag
    assert medial > 5  # cyclic3, cyclic3^2, cyclic3^3 and the small groups


def test_medial_matches_oracle_on_corrupted_medial_tables(p_semisimple_pool,
                                                          large_products):
    medial = [A for A in p_semisimple_pool if medial_arrow_oracle(A)]
    medial.append(large_products["cyclic3^3"])
    checked = 0
    for A in medial:
        for B in corruptions(A) if A.size <= 4 else sampled(A, 40):
            arrow_flag = medial_arrow_oracle(B)
            squig_flag = medial_squig_oracle(B)
            assert not (arrow_flag and squig_flag)
            assert core._is_medial(B.byte_tables, 0) == arrow_flag
            assert core._is_medial(B.byte_tables, 1) == squig_flag
            checked += 1
    assert checked > 100


# --- atoms ------------------------------------------------------------------


def atom_lists(A):
    return [core._atom_characterizations(A, a) for a in A.elements()]


def test_atom_characterizations_match_oracle_on_valid_pool(valid_pool):
    for A in valid_pool:
        assert atom_lists(A) == [atom_oracle(A, a) for a in A.elements()], A.names


def test_atom_characterizations_match_oracle_on_corrupted_tables(all_fixtures):
    seen: dict[str, set[bool]] = {}
    for name in ("proper5", "mixed6", "cyclic3"):
        for B in corruptions(all_fixtures[name]):
            expected = [atom_oracle(B, a) for a in B.elements()]
            assert atom_lists(B) == expected
            for row in expected:
                for label, holds in row:
                    seen.setdefault(label, set()).add(holds)
    # every characterization answered False somewhere, and True somewhere
    assert all(values == {False, True} for values in seen.values())


def test_atoms_crosscheck_agrees_with_oracle_on_corruptions(all_fixtures):
    # atoms() raises exactly when some oracle characterization disagrees
    # with the base definition
    raised = 0
    for B in corruptions(all_fixtures["proper5"]):
        base = {a for a in B.elements() if core._is_atom(B, a)}
        disagrees = any(holds != (a in base)
                        for a in B.elements() for _, holds in atom_oracle(B, a))
        try:
            core.atoms(B)
        except InternalInconsistencyError:
            raised += 1
            assert disagrees
        else:
            assert not disagrees
    assert raised > 0


def test_implied_atom_branch_and_commutativity_facts_hold(small_pool, products,
                                                          large_products):
    # what (b)-(d), the sanity laws and lemma L2 of the theorems module
    # imply, so that atoms(), branches() and classify() do not check it
    # (proofs at core._atom_characterizations, core.branches and
    # core.classify): the other seven atom characterizations agree with
    # the atom test, the atoms' order columns partition A, and every
    # p-semisimple algebra is commutative
    pool = small_pool + list(products.values()) + list(large_products.values())
    for A in pool + [make_n90_product()]:
        u, rng = A.unit, A.elements()
        arrow, squig = A.arrow, A.squig
        ats = [a for a in rng if arrow[arrow[a][u]][u] == a]
        for a in rng:
            facts = {
                "e": all(arrow[x][a] == squig[arrow[a][y]][arrow[x][y]]
                         for x in rng for y in rng),
                "f": all(squig[x][a] == arrow[squig[a][y]][squig[x][y]]
                         for x in rng for y in rng),
                "g": all(arrow[x][a] == arrow[squig[arrow[x][a]][y]][y]
                         for x in rng for y in rng),
                "h": all(squig[x][a] == squig[arrow[squig[x][a]][y]][y]
                         for x in rng for y in rng),
                "i": all(arrow[x][a] == squig[arrow[a][u]][arrow[x][u]] for x in rng),
                "j": all(squig[x][a] == arrow[squig[a][u]][squig[x][u]] for x in rng),
                "k": squig[arrow[a][u]][u] == a and arrow[squig[a][u]][u] == a,
            }
            assert facts == dict.fromkeys(facts, a in ats), (A.names, a)
        # each x lies below exactly one atom, and A.branches are those columns
        assert all(sum(arrow[x][a] == u for a in ats) == 1 for x in rng), A.names
        assert A.branches == {a: frozenset(x for x in rng if arrow[x][a] == u)
                              for a in ats}, A.names
        cls = A.classification
        assert cls.is_commutative or not cls.is_p_semisimple, A.names


# --- group axioms -----------------------------------------------------------


def test_group_axioms_match_oracle_on_valid_pool(valid_pool):
    groups = 0
    for A in valid_pool:
        holds = core._group_axioms_hold(A)
        assert holds == group_oracle(A), A.names
        groups += holds
    assert groups > 5


def test_group_axioms_match_oracle_on_corrupted_tables(all_fixtures, large_products):
    checked = 0
    for A in (all_fixtures["cyclic3"], all_fixtures["group6"], large_products["group6^2"]):
        for B in corruptions(A) if A.size <= 6 else sampled(A, 40):
            assert core._group_axioms_hold(B) == group_oracle(B)
            assert not group_oracle(B)
            checked += 1
    assert checked > 100


def test_group_associativity_failure_is_seen():
    # a non-associative loop of order 5 in which every element is its own
    # inverse, turned into tables by x -> y = y.x and x ~> y = x.y: every
    # axiom but associativity holds, so only the row comparison can fail
    prod = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3),
            (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))
    arrow = tuple(zip(*prod))
    A = raw(("1", "a", "b", "c", "d"), 0, arrow, prod)
    assert not group_oracle(A)
    assert not core._group_axioms_hold(A)


# --- derived tables -----------------------------------------------------------


def test_joins_and_columns_match_definitions(valid_pool):
    for A in valid_pool + list(random_tables(12, 300)):
        rng = A.elements()
        assert A.joins == (tuple(tuple(A.cup1(x, y) for y in rng) for x in rng),
                           tuple(tuple(A.cup2(x, y) for y in rng) for x in rng))
        assert A.columns == (tuple(zip(*A.arrow)), tuple(zip(*A.squig)))


# --- K(A), deductive-system flags and detachment ------------------------------


def member_sets(A, rng, count):
    """count seeded subsets of the universe, sparse to dense, most of them
    holding the unit."""
    for _ in range(count):
        dense = rng.choice((0.1, 0.4, 0.8))
        members = {x for x in A.elements() if rng.random() < dense}
        if rng.random() < 0.8:
            members.add(A.unit)
        yield frozenset(members)


def assert_systems_match_oracles(A, sets):
    """_flags, both detachment tests and as_deductive_system against their
    definitions on each set; returns what each set turned out to be."""
    kinds = set()
    for members in sets:
        flags = flags_oracle(A, members)
        assert _flags(A, members) == flags, (A.names, sorted(members))
        for k, table in enumerate((A.arrow, A.squig)):
            assert (_detachment_closed(A, members, k)
                    == detachment_oracle(A, members, table)), (A.names, k)
        outcome = as_system_oracle(A, members)
        assert as_system_outcome(A, members) == outcome
        kinds.add(outcome[1].split(" on ")[0] if isinstance(outcome, tuple)
                  else "system")
        if not flags.compatible:
            kinds.add("incompatible")
        if not flags.closed:
            kinds.add("not closed")
    return kinds


def test_flags_detachment_and_k_match_definitions_on_valid_pool(valid_pool):
    rng = random.Random(5)
    kinds = set()
    for A in valid_pool:
        assert core.bck_part(A) == bck_part_oracle(A), A.names
        sets = [*member_sets(A, rng, 8), A.bck_part, frozenset(A.elements())]
        sets += [generate_ds(A, rng.sample(range(A.size), min(k, A.size))).members
                 for k in (1, 2)]
        kinds |= assert_systems_match_oracles(A, sets)
    # the sets fail detachment, compatibility and closure, each somewhere
    assert kinds == {"system", "a deductive system must contain the unit",
                     "subset is not closed under detachment",
                     "incompatible", "not closed"}


def test_flags_detachment_and_k_match_definitions_on_corrupted_tables(
        all_fixtures, large_products):
    rng = random.Random(6)
    kinds = set()
    oracle_outcomes = set()
    for A in list(all_fixtures.values()) + list(large_products.values()):
        corrupt = list(sampled(A, 6))
        # an implication of two members of K(A) sent outside it, the
        # column of the unit kept
        part, u = sorted(A.bck_part), A.unit
        outside = [v for v in A.elements() if v not in A.bck_part]
        if outside and len(part) > 1:
            x, y = part[0], next(y for y in part if y != u)
            corrupt.append(corrupted(A, "squig", x, y, outside[0]))
        for B in corrupt:
            kinds |= assert_systems_match_oracles(B, member_sets(B, rng, 6))
            if B.size <= 6:
                oracle_outcomes.add(assert_brute_force_matches_oracle(B))
    # the sets fail detachment, compatibility and closure, each somewhere
    assert kinds == {"system", "a deductive system must contain the unit",
                     "subset is not closed under detachment",
                     "incompatible", "not closed"}
    # on corrupted tables the two detachment forms can disagree, which
    # only the oracle enumeration tests
    assert oracle_outcomes == {"forms agree", "arrow- and squig-detachment disagree"}


# --- isotone maps -----------------------------------------------------------


def test_isotone_matches_definition_on_valid_pool(valid_pool):
    rng = random.Random(8)
    seen = set()
    for A in valid_pool:
        n = A.size
        identity = tuple(A.elements())
        moved = list(identity)
        moved[rng.randrange(n)] = rng.randrange(n)
        maps = [identity, (A.unit,) * n, phi_map(A), tuple(moved),
                tuple(rng.randrange(n) for _ in identity)]
        for d in maps:
            expected = isotone_oracle(A, d)
            assert map_properties(A, d).isotone == expected, (A.names, d)
            seen.add(expected)
    assert seen == {True, False}


# --- congruence classes -----------------------------------------------------


def test_congruence_matches_oracle_on_valid_pool(small_pool, products, large_products):
    several = 0
    for A in small_pool + list(products.values()) + list(large_products.values()):
        systems = [D for D in enumerate_ds(A) if D.compatible and D.closed] \
            if A.size <= 15 else [bck_part_system(A)]
        for D in systems:
            classes = congruence_oracle(A, D)
            assert congruence_outcome(A, D) == classes
            several += sum(len(block) > 1 for block in classes) > 1
    # quotients with two classes of several members, so the class-id rows
    # are compared between several members in both arguments
    assert several > 20


def test_congruence_witness_between_classes_of_several_members(products,
                                                               large_products):
    # x ~> y moved to another class for x and y in classes of several
    # members: the relation, read off ->, is unchanged, and ~> is no longer
    # constant on those two classes
    checked = 0
    for A in list(products.values()) + list(large_products.values()):
        K = bck_part_system(A)
        classes = congruence_classes(A, K)
        wide = [block for block in classes if len(block) > 1]
        if len(classes) < 2 or not wide:
            continue
        rng = random.Random(A.size)
        for _ in range(6):
            bx, by = rng.choice(wide), rng.choice(wide)
            x, y = rng.choice(bx), rng.choice(by)
            moved = next(block for block in classes if A.squig[x][y] not in block)
            B = corrupted(A, "squig", x, y, moved[0])
            expected = congruence_oracle(B, K)
            assert expected == ("operation not constant on classes "
                                f"[{A.names[bx[0]]}] op [{A.names[by[0]]}]")
            assert congruence_outcome(B, K) == expected
            checked += 1
    assert checked >= 18


def test_congruence_matches_oracle_on_random_relations():
    # random tables with D = {1} forced compatible and closed: the relation
    # fails reflexivity, transitivity or compatibility, or holds; denser
    # tables fail transitivity with several witnesses z to choose from
    rng = random.Random(7)
    outcomes = set()
    for _ in range(2000):
        n = rng.randint(2, 7)
        unit = n - 1
        names = tuple("abcdef"[:n - 1]) + ("1",)
        dense = rng.choice((0.3, 0.6, 0.8))
        reflexive = rng.random() < 0.8

        def entry(x, y):
            if x == y and reflexive or rng.random() < dense:
                return unit
            return rng.randrange(n)

        tables = [tuple(tuple(entry(x, y) for y in range(n)) for x in range(n))
                  for _ in range(2)]
        A = raw(names, unit, *tables)
        D = DeductiveSystem(members=frozenset({unit}), compatible=True, closed=True)
        expected = congruence_oracle(A, D)
        assert congruence_outcome(A, D) == expected
        outcomes.add(expected.split(" at ")[0].split(" on ")[0]
                     if isinstance(expected, str) else "classes")
    assert outcomes == {"relation not reflexive", "relation not transitive",
                        "operation not constant", "classes"}
