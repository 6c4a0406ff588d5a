"""The row-at-a-time scans against their quantifier-by-quantifier oracles.

Each oracle below is the literal generator form of the law, one element
tuple at a time: the medial flags, the ten atom characterizations, the group
axioms of a p-semisimple algebra, and the congruence of a deductive system.
The scans in ``pbci.core`` and ``pbci.dsystems`` evaluate the same laws a
whole row or bitmask at a time; both must give the same answer, and the
same witness, on every valid algebra of the pool and on hand-corrupted
tables, which bypass ``validate``, where the oracle answers False.
"""

import random

import pytest

from pbci import (CongruenceError, InternalInconsistencyError, PseudoBciAlgebra,
                  bck_part_system, core, enumerate_ds)
from pbci.dsystems import DeductiveSystem, congruence_classes

from conftest import flat, make_products


# --- oracles ----------------------------------------------------------------


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

    def all_xy(pred):
        return all(pred(x, y) for x in range(n) for y in range(n))

    return [
        ("b", all_x(lambda x: A.cup1(a, x) == a and A.cup2(a, x) == a)),
        ("c", all_x(lambda x: arrow[x][a] == squig[arrow[a][x]][u])),
        ("d", all_x(lambda x: squig[x][a] == arrow[squig[a][x]][u])),
        ("e", all_xy(lambda x, y: arrow[x][a] == squig[arrow[a][y]][arrow[x][y]])),
        ("f", all_xy(lambda x, y: squig[x][a] == arrow[squig[a][y]][squig[x][y]])),
        ("g", all_xy(lambda x, y: arrow[x][a] == arrow[squig[arrow[x][a]][y]][y])),
        ("h", all_xy(lambda x, y: squig[x][a] == squig[arrow[squig[x][a]][y]][y])),
        ("i", all_x(lambda x: arrow[x][a] == squig[arrow[a][u]][arrow[x][u]])),
        ("j", all_x(lambda x: squig[x][a] == arrow[squig[a][u]][squig[x][u]])),
        ("k", squig[arrow[a][u]][u] == a and arrow[squig[a][u]][u] == a),
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


# --- inputs -----------------------------------------------------------------


def raw(names, unit, arrow, squig=None):
    """An algebra built from index tables without validation."""
    squig = arrow if squig is None else squig
    n = len(names)
    leq = tuple(tuple(arrow[x][y] == unit for y in range(n)) for x in range(n))
    return PseudoBciAlgebra(names=tuple(names), unit=unit, arrow=arrow,
                            squig=squig, leq=leq)


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


# --- medial -----------------------------------------------------------------


def test_medial_matches_oracle_on_valid_pool(valid_pool):
    medial = 0
    for A in valid_pool:
        arrow_flag = core._is_medial(A.arrow, A.squig)
        squig_flag = core._is_medial(A.squig, A.arrow)
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
            assert core._is_medial(B.arrow, B.squig) == arrow_flag
            assert core._is_medial(B.squig, B.arrow) == squig_flag
            checked += 1
    assert checked > 100


# --- atoms ------------------------------------------------------------------


def atom_lists(A):
    tables = core._atom_tables(A)
    return [core._atom_characterizations(A, a, tables) for a in A.elements()]


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


# --- congruence classes -----------------------------------------------------


def test_congruence_matches_oracle_on_valid_pool(small_pool, large_products):
    for A in small_pool + list(large_products.values()):
        systems = [D for D in enumerate_ds(A) if D.compatible and D.closed] \
            if A.size <= 6 else [bck_part_system(A)]
        for D in systems:
            assert congruence_outcome(A, D) == congruence_oracle(A, D)


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
