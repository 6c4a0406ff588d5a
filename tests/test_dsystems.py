import itertools

import pytest

from pbci import (
    CongruenceError,
    EnumerationCapExceeded,
    InternalInconsistencyError,
    NotCompatibleOrClosedError,
    PseudoBciAlgebra,
    classify,
    group_view,
)
from pbci.derivations import DerivationClass as C, enumerate_derivations, identity_map
from pbci.dsystems import (
    DeductiveSystem,
    as_deductive_system,
    bck_part_system,
    brute_force_ds,
    congruence_classes,
    enumerate_ds,
    generate_ds,
    is_invariant,
    quotient,
)

from conftest import PRODUCT_LABELS, m, permuted, seeded_orders


def member_names(algebra, systems):
    return [algebra.name_set(ds.members) for ds in systems]


def test_enumerate_ds_golden(proper5):
    systems = enumerate_ds(proper5)
    assert member_names(proper5, systems) == [
        ("1",),
        ("c", "1"),
        ("a", "b", "c", "1"),
        ("a", "b", "c", "d", "1"),
    ]
    flags = {proper5.name_set(ds.members): (ds.compatible, ds.closed)
             for ds in systems}
    assert flags[("1",)] == (True, True)
    assert flags[("c", "1")] == (False, True)   # b ~> a = c but b -> a = b
    assert flags[("a", "b", "c", "1")] == (True, True)
    assert flags[("a", "b", "c", "d", "1")] == (True, True)


def test_trivial_systems_everywhere(all_fixtures):
    for algebra in all_fixtures.values():
        systems = enumerate_ds(algebra)
        sets = [ds.members for ds in systems]
        assert frozenset({algebra.unit}) in sets
        assert frozenset(algebra.elements()) in sets
        for ds in systems:
            for x in ds.members:
                for y in algebra.elements():
                    if algebra.arrow[x][y] in ds.members:
                        assert y in ds.members
                    if algebra.squig[x][y] in ds.members:
                        assert y in ds.members


def test_group6_systems_are_subgroups(group6):
    view = group_view(group6)
    subgroups = []
    universe = list(group6.elements())
    for size in range(1, 7):
        for combo in itertools.combinations(universe, size):
            s = frozenset(combo)
            if view.identity not in s:
                continue
            if all(view.product[x][y] in s and view.inverse[x] in s
                   for x in s for y in s):
                subgroups.append(s)
    systems = enumerate_ds(group6)
    assert sorted(ds.members for ds in systems) == sorted(subgroups)
    assert len(systems) == 6
    compatible = [group6.name_set(ds.members) for ds in systems if ds.compatible]
    # exactly the normal subgroups admit quotients
    assert compatible == [("1",), ("c", "d", "1"), ("a", "b", "c", "d", "e", "1")]
    assert all(ds.closed for ds in systems)


def test_enumerate_ds_equals_oracle_on_small_pool(small_pool):
    for algebra in small_pool:
        assert enumerate_ds(algebra) == brute_force_ds(algebra)


@pytest.mark.parametrize("label", PRODUCT_LABELS + ("flat5", "flat6"))
def test_enumerate_ds_equals_oracle_on_products(label, products, request):
    algebra = products.get(label) or request.getfixturevalue(label)
    for order in seeded_orders(algebra.size):
        moved = permuted(algebra, order)
        assert enumerate_ds(moved) == brute_force_ds(moved)


def test_enumerate_ds_crosscheck_detects_corruption():
    # hand-built tables bypassing validate: {1} is closed under
    # arrow-detachment (1 -> a = a) but not under squig-detachment
    # (1 ~> a = 1), so the two detachment forms select different subsets
    arrow = ((1, 1), (0, 1))
    squig = ((1, 1), (1, 1))
    leq = tuple(tuple(arrow[x][y] == 1 for y in range(2)) for x in range(2))
    bad = PseudoBciAlgebra(names=("a", "1"), unit=1, arrow=arrow, squig=squig, leq=leq)
    with pytest.raises(InternalInconsistencyError, match=r"\{1\}"):
        enumerate_ds(bad)
    with pytest.raises(InternalInconsistencyError):
        brute_force_ds(bad)


def test_ds_cap(proper5, monkeypatch):
    monkeypatch.setenv("PBCI_MAX_SIZE", "3")
    with pytest.raises(EnumerationCapExceeded):
        enumerate_ds(proper5)


def test_generate_ds(proper5):
    c, d = 2, 3
    assert proper5.name_set(generate_ds(proper5, {c}).members) == ("c", "1")
    # d -> x = d for every x below the unit, so d generates everything
    assert generate_ds(proper5, {d}).members == frozenset(proper5.elements())
    assert generate_ds(proper5, set()).members == frozenset({proper5.unit})


def test_as_deductive_system_rejects(proper5):
    with pytest.raises(ValueError):
        as_deductive_system(proper5, {0})           # misses the unit
    with pytest.raises(ValueError):
        as_deductive_system(proper5, {1, 4})        # b -> a = b forces a


def test_is_invariant_golden(proper5):
    systems = enumerate_ds(proper5)
    D = systems[1]
    assert proper5.name_set(D.members) == ("c", "1")
    d1 = identity_map(proper5)
    d2 = m(proper5, "d d d 1 d")
    d3 = m(proper5, "1 1 1 d 1")
    assert not is_invariant(proper5, D, d2)
    assert is_invariant(proper5, D, d3)
    assert is_invariant(proper5, D, d1)
    assert all(is_invariant(proper5, ds, d1) for ds in systems)


def test_congruence_classes_golden(proper5):
    K = bck_part_system(proper5)
    assert congruence_classes(proper5, K) == [(0, 1, 2, 4), (3,)]


def _unit_system_of(names, arrow):
    """The tables bypass validate; D = {1} is declared compatible and closed
    so that congruence_classes reaches its own checks."""
    n = len(names)
    unit = n - 1
    leq = tuple(tuple(arrow[x][y] == unit for y in range(n)) for x in range(n))
    algebra = PseudoBciAlgebra(names=names, unit=unit, arrow=arrow,
                               squig=arrow, leq=leq)
    return algebra, DeductiveSystem(members=frozenset({unit}),
                                    compatible=True, closed=True)


@pytest.mark.parametrize("names, arrow, message", [
    # a ~ 1 and 1 ~ b but a -> b = a: the least witness is (a, 1, b)
    (("a", "b", "1"), ((2, 0, 2), (1, 2, 2), (2, 2, 2)),
     "relation not transitive at (a, 1, b)"),
    # b -> b = b lies outside D
    (("a", "b", "1"), ((2, 2, 2), (2, 1, 2), (2, 2, 2)),
     "relation not reflexive at b"),
    # classes {a, b} and {c, 1}; a -> c = c but b -> c = 1
    (("a", "b", "c", "1"), ((3, 3, 2, 1), (3, 3, 1, 2), (0, 1, 3, 3), (1, 0, 3, 3)),
     "operation not constant on classes [a] op [c]"),
])
def test_congruence_error_witness(names, arrow, message):
    algebra, D = _unit_system_of(names, arrow)
    with pytest.raises(CongruenceError) as excinfo:
        congruence_classes(algebra, D)
    assert str(excinfo.value) == message


def test_quotient_by_bck_part(proper5):
    Q = quotient(proper5, bck_part_system(proper5))
    assert Q.size == 2
    assert Q.names == ("[1]", "[d]")
    assert Q.names[Q.unit] == "[1]"
    assert classify(Q).is_p_semisimple
    assert enumerate_derivations(Q, C.IMPLICATIVE_II, regular=True) == [identity_map(Q)]


def test_quotient_by_unit_is_isomorphic(proper5, group6):
    for algebra in (proper5, group6):
        trivial = as_deductive_system(algebra, {algebra.unit})
        Q = quotient(algebra, trivial)
        assert Q.size == algebra.size
        assert Q.arrow == algebra.arrow and Q.squig == algebra.squig
        assert Q.names == tuple(f"[{name}]" for name in algebra.names)
        assert Q.unit == algebra.unit


def test_quotient_by_everything(proper5):
    full = as_deductive_system(proper5, proper5.elements())
    assert quotient(proper5, full).size == 1


def test_quotient_requires_compatible_closed(proper5):
    c_system = enumerate_ds(proper5)[1]
    assert not c_system.compatible
    with pytest.raises(NotCompatibleOrClosedError):
        quotient(proper5, c_system)


def test_quotient_by_normal_subgroup(group6):
    systems = enumerate_ds(group6)
    order3 = next(ds for ds in systems if len(ds.members) == 3)
    Q = quotient(group6, order3)
    assert Q.size == 2
    assert classify(Q).is_p_semisimple


def test_bck_part_system_flags(all_fixtures):
    for algebra in all_fixtures.values():
        ds = bck_part_system(algebra)
        assert ds.compatible and ds.closed
