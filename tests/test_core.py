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
        AlgebraSpec(("a", "a"), "a", ((("a",),) * 2), ((("a",),) * 2)).check_structure()
    with pytest.raises(StructuralError):
        AlgebraSpec(("a",), "b", (("a",),), (("a",),)).check_structure()
    with pytest.raises(StructuralError):
        AlgebraSpec(("a",), "a", (("a", "a"),), (("a",),)).check_structure()
    with pytest.raises(StructuralError):
        AlgebraSpec(("a",), "a", (("z",),), (("a",),)).check_structure()


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


def test_cup_golden(proper5, all_fixtures):
    a, b, c, d, one = range(5)
    assert proper5.cup(1, a, b) == b
    for algebra in all_fixtures.values():
        u = algebra.unit
        for x in algebra.elements():
            assert algebra.cup(1, x, x) == x
            assert algebra.cup(2, x, x) == x
            assert algebra.cup(1, u, x) == u
            assert algebra.cup(2, u, x) == u
    with pytest.raises(ValueError):
        proper5.cup(3, a, b)


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
    leq = tuple(tuple(arrow[x][y] == 1 for y in range(2)) for x in range(2))
    bad = PseudoBciAlgebra(names=("a", "1"), unit=1, arrow=arrow, squig=squig, leq=leq)
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


def test_bck_part_closure_check():
    # a in K but a->a lands outside K: impossible for valid tables,
    # so the closure check must flag the hand-built corruption
    arrow = ((1, 1, 2), (0, 2, 1), (0, 1, 2))
    leq = tuple(tuple(arrow[x][y] == 2 for y in range(3)) for x in range(3))
    bad = PseudoBciAlgebra(names=("a", "b", "1"), unit=2, arrow=arrow,
                           squig=arrow, leq=leq)
    with pytest.raises(InternalInconsistencyError):
        bck_part(bad)


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
