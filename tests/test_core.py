import dataclasses
import random
from functools import cached_property

import pytest

from pbci import (
    AlgebraSpec,
    InternalInconsistencyError,
    NotPSemisimpleError,
    StructuralError,
    ValidationError,
    atoms,
    bck_part,
    branches,
    classify,
    collect_violations,
    group_view,
    is_pseudo_bck,
    is_subalgebra,
    parse_algebra,
    validate,
)
from pbci import core
from pbci.core import PseudoBciAlgebra

from conftest import FIXTURE_NAMES, fixture_text, load_algebra


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixtures_validate(name):
    algebra = load_algebra(name)
    assert algebra.size == len(algebra.names)
    assert collect_violations(algebra.to_spec()) == []


def test_one_element_algebra():
    spec = AlgebraSpec(names=("1",), unit="1", arrow=(("1",),), squig=(("1",),))
    algebra = validate(spec)
    assert algebra.size == 1
    assert atoms(algebra) == frozenset({0})
    assert branches(algebra) == {0: frozenset({0})}
    assert classify(algebra).is_p_semisimple


def test_corrupted_unit_row_reports_psbci3_with_witness():
    text = fixture_text("proper5").replace("a b c d 1\nsquig:", "b b c d 1\nsquig:")
    spec = parse_algebra(text)  # 1 -> a overwritten to b
    with pytest.raises(ValidationError) as excinfo:
        validate(spec)
    violations = excinfo.value.violations
    assert any(v.axiom == "psBCI3" and v.witness == ("a",) for v in violations)


def test_validate_reports_every_violation():
    # identity tables: 1->x = x fails for every x != 1 in both tables,
    # and the diagonal x->x = x breaks the first two axioms as well
    names = ("a", "b", "1")
    rows = (("a", "a", "a"), ("b", "b", "b"), ("a", "b", "1"))
    spec = AlgebraSpec(names=names, unit="1", arrow=rows, squig=rows)
    violations = collect_violations(spec)
    axioms = {v.axiom for v in violations}
    assert {"psBCI1", "psBCI2"} <= axioms
    assert len(violations) > 2


def test_structural_errors():
    with pytest.raises(StructuralError):
        validate(AlgebraSpec(("a", "a"), "a", ((("a",),) * 2), ((("a",),) * 2)))
    with pytest.raises(StructuralError):
        validate(AlgebraSpec(("a",), "b", (("a",),), (("a",),)))
    with pytest.raises(StructuralError):
        validate(AlgebraSpec(("a",), "a", (("a", "a"),), (("a",),)))
    with pytest.raises(StructuralError):
        validate(AlgebraSpec(("a",), "a", (("z",),), (("a",),)))
    with pytest.raises(StructuralError, match="empty universe"):
        validate(AlgebraSpec((), "a", (), ()))
    with pytest.raises(StructuralError, match="arrow table has 0 rows, expected 1"):
        validate(AlgebraSpec(("a",), "a", (), (("a",),)))


def test_universe_cap(monkeypatch):
    spec = AlgebraSpec(names=("1",), unit="1", arrow=(("1",),), squig=(("1",),))
    with pytest.raises(StructuralError):
        validate(spec, max_size=0)
    monkeypatch.setenv("PBCI_MAX_SIZE", "0")
    with pytest.raises(ValueError, match="PBCI_MAX_SIZE must be a positive integer"):
        validate(spec)
    assert validate(spec, max_size=1).size == 1  # explicit argument wins


def test_leq_golden(proper5):
    a, b, c, d, one = range(5)
    assert proper5.le(a, b)
    assert not proper5.le(d, one)
    assert all(proper5.le(x, x) for x in proper5.elements())


def test_algebra_fields_are_names_unit_and_tables(all_fixtures, products):
    assert [f.name for f in dataclasses.fields(PseudoBciAlgebra)] == [
        "names", "unit", "arrow", "squig"]
    # the order lives in the byte views alone: row x of order marks the y
    # with x -> y = 1, then zero padding to 256 bytes; column y of
    # order_cols marks the x with x -> y = 1
    for algebra in [*all_fixtures.values(), *products.values()]:
        n, u, arrow = algebra.size, algebra.unit, algebra.arrow
        bt = algebra.byte_tables
        rng = algebra.elements()
        assert len(bt.order) == len(bt.order_cols) == n
        for x in rng:
            assert list(bt.order[x][:n]) == [v == u for v in arrow[x]]
            assert bt.order[x][n:] == bytes(256 - n)
            assert list(bt.order_cols[x]) == [row[x] == u for row in arrow]
            assert [algebra.le(x, y) for y in rng] == [v == u for v in arrow[x]]
            assert all(type(algebra.le(x, y)) is bool for y in rng)


def test_cup_golden(proper5, all_fixtures):
    a, b, c, d, one = range(5)
    assert proper5.cup1(a, b) == b
    for algebra in all_fixtures.values():
        u = algebra.unit
        for x in algebra.elements():
            assert algebra.cup1(x, x) == x
            assert algebra.cup2(x, x) == x
            assert algebra.cup1(u, x) == u
            assert algebra.cup2(u, x) == u


def test_phi_golden(proper5, all_fixtures):
    a, b, c, d, one = range(5)
    assert proper5.phi(a) == one
    assert proper5.phi(d) == d
    for algebra in all_fixtures.values():
        assert algebra.phi(algebra.unit) == algebra.unit


def test_atoms_golden(proper5, group6, mixed6):
    assert proper5.name_set(atoms(proper5)) == ("d", "1")
    assert atoms(group6) == frozenset(group6.elements())
    assert mixed6.name_set(atoms(mixed6)) == ("g", "1")


def test_atoms_crosscheck_detects_corruption():
    # garbage squig table bypassing validate: the characterizations that
    # consult squig disagree with the arrow-only base definition
    arrow = ((1, 1), (0, 1))
    squig = ((0, 0), (0, 0))
    bad = PseudoBciAlgebra(names=("a", "1"), unit=1, arrow=arrow, squig=squig)
    with pytest.raises(InternalInconsistencyError):
        atoms(bad)


def test_bck_part_golden(proper5, group6, bck5):
    assert proper5.name_set(bck_part(proper5)) == ("a", "b", "c", "1")
    assert bck_part(group6) == frozenset({group6.unit})
    assert bck_part(bck5) == frozenset(bck5.elements())


def test_is_pseudo_bck(small_pool):
    for algebra in small_pool:
        assert is_pseudo_bck(algebra) == (bck_part(algebra) == set(algebra.elements()))
    assert [name for name in FIXTURE_NAMES
            if is_pseudo_bck(load_algebra(name))] == ["bck5"]


def test_branches_golden(proper5, group6):
    a, b, c, d, one = range(5)
    assert branches(proper5) == {
        d: frozenset({d}),
        one: frozenset({a, b, c, one}),
    }
    assert all(block == frozenset({atom})
               for atom, block in branches(group6).items())


def test_branch_facts(all_fixtures):
    # comparable elements share a branch; membership is detected by x->y <= 1
    for algebra in all_fixtures.values():
        blocks = branches(algebra)
        of = {x: a for a, block in blocks.items() for x in block}
        unit_branch = blocks[algebra.unit]
        for x in algebra.elements():
            for y in algebra.elements():
                if algebra.le(x, y):
                    assert of[x] == of[y]
                same = of[x] == of[y]
                assert same == (algebra.arrow[x][y] in unit_branch)
                assert same == (algebra.squig[x][y] in unit_branch)


def test_classify_runs_the_atom_test_once_per_element(proper5, monkeypatch):
    # atoms() runs the atom test at each element; the p-semisimplicity
    # characterizations that quantify it read the atom set instead
    algebra = validate(proper5.to_spec())
    calls = []
    original = core._is_atom
    monkeypatch.setattr(core, "_is_atom", lambda A, x: calls.append(x) or original(A, x))
    classify(algebra)
    assert sorted(calls) == list(algebra.elements())


def test_classify_golden(all_fixtures):
    flags = {name: classify(algebra) for name, algebra in all_fixtures.items()}
    assert flags["proper5"].is_proper
    assert not flags["proper5"].is_p_semisimple
    assert not flags["proper5"].is_commutative
    assert flags["group6"].is_p_semisimple
    assert all(ok for _, ok in flags["group6"].p_semisimple_crosscheck)
    assert all(not ok for _, ok in flags["proper5"].p_semisimple_crosscheck)
    assert flags["cyclic3"].is_bci
    assert flags["cyclic3"].is_medial_arrow and flags["cyclic3"].is_medial_squig
    assert flags["bck5"].is_pseudo_bck
    assert not flags["bck5"].is_proper
    assert flags["mixed6"].is_commutative
    assert flags["mixed6"].is_branchwise_commutative
    for report in flags.values():
        assert report.is_proper == (not report.is_bci and not report.is_pseudo_bck)
        assert report.is_commutative == report.is_branchwise_commutative


def test_group_view_cyclic3(cyclic3):
    view = group_view(cyclic3)
    a, b, one = range(3)
    assert view.identity == one
    assert view.inverse == (b, a, one)
    assert view.product[a][a] == b          # a has order 3
    assert view.product[b][a] == one


def test_group_view_group6_inverse_pairs(group6):
    view = group_view(group6)
    pairs = {x for x in group6.elements() if view.inverse[x] != x}
    assert group6.name_set(pairs) == ("c", "d")
    assert any(view.product[x][y] != view.product[y][x]
               for x in group6.elements() for y in group6.elements())


def test_group_view_requires_p_semisimple(proper5):
    with pytest.raises(NotPSemisimpleError):
        group_view(proper5)


def test_group_view_reads_the_classification(group6, monkeypatch):
    # classify checks the group axioms as characterization (i); the view
    # does not check them again
    algebra = validate(group6.to_spec())
    calls = []
    original = core._group_axioms_hold
    monkeypatch.setattr(core, "_group_axioms_hold",
                        lambda A: calls.append(A) or original(A))
    assert algebra.classification.is_p_semisimple
    group_view(algebra)
    assert calls == [algebra]


def test_group_view_reconstruction(group6, cyclic3):
    for algebra in (group6, cyclic3):
        view = group_view(algebra)
        for x in algebra.elements():
            for y in algebra.elements():
                assert algebra.arrow[x][y] == view.product[y][view.inverse[x]]
                assert algebra.squig[x][y] == view.product[view.inverse[x]][y]


def test_is_subalgebra(proper5, all_fixtures):
    a, b, c, d, one = range(5)
    assert is_subalgebra(proper5, {d, one})
    assert is_subalgebra(proper5, {c, one})
    assert not is_subalgebra(proper5, {a, b, one})   # b ~> a = c escapes
    assert not is_subalgebra(proper5, {a, b})        # misses the unit
    for algebra in all_fixtures.values():
        assert is_subalgebra(algebra, {algebra.unit})
        assert is_subalgebra(algebra, set(algebra.elements()))


def test_is_subalgebra_matches_definition(small_pool, products):
    # random subsets, with and without the unit, against the all-pairs
    # definition; both answers must occur, and both without the unit
    rnd = random.Random(27)
    seen = set()
    for algebra in [*small_pool, *products.values()]:
        rng = algebra.elements()
        arrow, squig = algebra.arrow, algebra.squig
        for _ in range(12):
            members = {x for x in rng if rnd.random() < 0.5}
            if rnd.random() < 0.5:
                members.add(algebra.unit)
            expected = algebra.unit in members and all(
                arrow[x][y] in members and squig[x][y] in members
                for x in members for y in members)
            assert is_subalgebra(algebra, members) == expected, (algebra.names, members)
            seen.add((algebra.unit in members, expected))
    assert seen == {(True, True), (True, False), (False, False)}


def comparable(value, n):
    """A cached value with each picker replaced by what it picks from the
    row 0..n-1, so that two builds compare by content."""
    if callable(value):
        return value(tuple(range(n)))
    if isinstance(value, (tuple, list)):
        return tuple(comparable(item, n) for item in value)
    return value


def test_renamed_hands_on_every_cached_property(all_fixtures, large_products):
    cached = [name for name, attr in vars(PseudoBciAlgebra).items()
              if isinstance(attr, cached_property)]
    assert {"columns", "preimages", "atoms", "classification"} <= set(cached)
    for A in [*all_fixtures.values(), large_products["group6^2"]]:
        built = {name: getattr(A, name) for name in cached}
        B = A.renamed(tuple(f"r{name}" for name in A.names))
        fresh = validate(B.to_spec(), max_size=A.size)
        assert B == fresh
        for name in cached:
            assert B.__dict__[name] is built[name], name
            assert (comparable(getattr(B, name), A.size)
                    == comparable(getattr(fresh, name), A.size)), name
