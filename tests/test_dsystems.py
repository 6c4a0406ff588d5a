import dataclasses
import hashlib
import itertools

import pytest

import pbci.dsystems
from pbci import (
    AlgebraSpec,
    CongruenceError,
    EnumerationCapExceeded,
    InternalInconsistencyError,
    NotCompatibleOrClosedError,
    PseudoBciAlgebra,
    classify,
    group_view,
    is_subalgebra,
    parse_algebra,
    validate,
)
from pbci.core import check_algebra
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

from pbci.search import SearchQuery, search

from conftest import (CHAIN2, FIXTURE_NAMES, N90_LABEL, PRODUCT_LABELS, load_algebra, m,
                      make_n90_product, permuted, product, seeded_orders)


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


def test_enumerate_ds_equals_oracle_on_every_size5_class():
    representatives = search(SearchQuery(size=5, modulo_iso=True))
    assert len(representatives) == 181
    for spec in representatives:
        algebra = validate(spec)
        assert enumerate_ds(algebra) == brute_force_ds(algebra)


def test_flags_match_their_definitions(small_pool):
    # compatible: x -> y and x ~> y lie in D together; closed: both lie in D
    # for all x, y in D
    for algebra in small_pool:
        rng = algebra.elements()
        rest = [x for x in rng if x != algebra.unit]
        for k in range(len(rest) + 1):
            for extra in itertools.combinations(rest, k):
                members = frozenset((algebra.unit,) + extra)
                compatible = all(
                    (algebra.arrow[x][y] in members) == (algebra.squig[x][y] in members)
                    for x in rng for y in rng)
                closed = all(
                    algebra.arrow[x][y] in members and algebra.squig[x][y] in members
                    for x in members for y in members)
                assert pbci.dsystems._flags(algebra, members) == DeductiveSystem(
                    members, compatible, closed)


def system_digest(systems):
    rows = [(sorted(D.members), D.compatible, D.closed) for D in systems]
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


def power(A, k):
    out = A
    for _ in range(k - 1):
        out = product(out, A)
    return out


# (systems, sha256 of the (members, compatible, closed) list), recorded
# with the NextClosure enumeration that Close-by-One replaced
LARGE_SYSTEMS = {
    "cyclic3^4": (212, "052b32ff2bff343ef59197306b27c80739819d5473092c915a6a2a22ea829575"),
    "chain2^6": (64, "4b944fc2581d305538dc8e6e176b49e0e8873d3dbf4536f1a8d9230e8c0aeef1"),
    N90_LABEL: (64, "f347aa2dc973efaa54c789308428c86a7e4628620d6b102816572992a4399f4d"),
}


@pytest.mark.parametrize("label", LARGE_SYSTEMS)
def test_large_systems_pinned(label, monkeypatch):
    build = {"cyclic3^4": lambda: power(load_algebra("cyclic3"), 4),
             "chain2^6": lambda: power(validate(parse_algebra(CHAIN2)), 6),
             N90_LABEL: make_n90_product}[label]
    algebra = build()
    monkeypatch.setenv("PBCI_MAX_SIZE", str(algebra.size))
    systems = enumerate_ds(algebra)
    assert (len(systems), system_digest(systems)) == LARGE_SYSTEMS[label]


@pytest.mark.parametrize("label", PRODUCT_LABELS + ("flat5", "flat6"))
def test_enumerate_ds_equals_oracle_on_products(label, products, request):
    algebra = products.get(label) or request.getfixturevalue(label)
    for order in seeded_orders(algebra.size):
        moved = permuted(algebra, order)
        assert enumerate_ds(moved) == brute_force_ds(moved)


def test_enumerate_ds_crosscheck_detects_corruption():
    # hand-built tables bypassing validate: {1} is closed under
    # arrow-detachment (1 -> a = a) but not under squig-detachment
    # (1 ~> a = 1), so the two detachment forms select different subsets;
    # enumerate_ds decides arrow-detachment alone, the oracle both forms
    arrow = ((1, 1), (0, 1))
    squig = ((1, 1), (1, 1))
    bad = PseudoBciAlgebra(names=("a", "1"), unit=1, arrow=arrow, squig=squig)
    with pytest.raises(InternalInconsistencyError, match=r"\{1\}"):
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


@pytest.mark.parametrize("members", [{-1, 4}, {7, 4}, {7}, {-1}])
def test_out_of_range_members_rejected(proper5, members):
    # -1 must not wrap to the unit's row, nor 7 index past the tables
    bad = min(members) if min(members) < 0 else max(members)
    for build in (as_deductive_system, generate_ds, is_subalgebra):
        with pytest.raises(ValueError, match=rf"element index {bad}\b"):
            build(proper5, members)


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
    unit = len(names) - 1
    algebra = PseudoBciAlgebra(names=names, unit=unit, arrow=arrow, squig=arrow)
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
    # classes {a, b}, {c} and {1}; a -> c = c but b -> c = 1
    (("a", "b", "c", "1"), ((3, 3, 2, 3), (3, 3, 3, 3), (2, 2, 3, 2), (0, 1, 2, 3)),
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


def renamed_spec(A, classes):
    """The quotient's tables by class, with each class named by its least
    member in brackets: the spec the re-validating route builds."""
    rep_of = {x: ci for ci, block in enumerate(classes) for x in block}
    names = tuple("[" + min(A.names[x] for x in block) + "]" for block in classes)

    def table(t):
        return tuple(tuple(names[rep_of[t[bx[0]][by[0]]]] for by in classes)
                     for bx in classes)

    return AlgebraSpec(names=names, unit=names[rep_of[A.unit]],
                       arrow=table(A.arrow), squig=table(A.squig))


def field_values(algebra):
    return {f.name: getattr(algebra, f.name) for f in dataclasses.fields(algebra)}


def assert_quotient_matches_oracle(A, D):
    oracle = validate(renamed_spec(A, congruence_classes(A, D)), max_size=A.size)
    assert field_values(quotient(A, D)) == field_values(oracle)


def test_singleton_class_quotients_match_validated_renaming(
        small_pool, products, large_products):
    for A in small_pool + list(products.values()) + list(large_products.values()):
        assert_quotient_matches_oracle(A, as_deductive_system(A, {A.unit}))
        K = bck_part_system(A)
        if K.members == {A.unit}:
            assert_quotient_matches_oracle(A, K)


def test_every_quotient_matches_validated_spec(small_pool, products):
    for A in small_pool + list(products.values()):
        for D in enumerate_ds(A):
            if D.compatible and D.closed:
                assert_quotient_matches_oracle(A, D)


def count_check_calls(monkeypatch):
    """The algebras dsystems passes to the checking half of validate (the
    axiom scan and the sanity suite), which a quotient enters directly."""
    calls = []

    def counting(A):
        calls.append(A)
        return check_algebra(A)

    monkeypatch.setattr(pbci.dsystems, "check_algebra", counting)
    return calls


@pytest.mark.parametrize("name", ["proper5", "mixed6", "bck5"])
def test_quotient_with_a_larger_class_is_validated_again(name, all_fixtures,
                                                         monkeypatch):
    A = all_fixtures[name]
    K = bck_part_system(A)
    assert len(K.members) > 1
    calls = count_check_calls(monkeypatch)
    Q = quotient(A, K)
    assert len(calls) == 1 and calls[0] is Q


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_singleton_class_quotient_skips_validate(name, all_fixtures, monkeypatch):
    A = all_fixtures[name]
    calls = count_check_calls(monkeypatch)
    quotient(A, as_deductive_system(A, {A.unit}))
    assert calls == []


def test_singleton_class_quotient_keeps_the_tables_built():
    A = load_algebra("group6")
    classify(A)
    enumerate_ds(A)
    K = bck_part_system(A)
    assert K.members == {A.unit}
    Q = quotient(A, K)
    assert Q.names == tuple(f"[{name}]" for name in A.names)
    assert Q.joins is A.joins
    assert Q.byte_tables is A.byte_tables
    assert Q.preimages is A.preimages


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


def test_bck_part_system_flags(small_pool, products):
    # bck_part_system states K(A)'s flags without checking them (lemma L6
    # of the theorems module); here they are checked as facts, and
    # enumerate_ds lists K(A) with them
    for A in small_pool + list(products.values()):
        K = bck_part_system(A)
        assert K == as_deductive_system(A, A.bck_part), A.names
        assert is_subalgebra(A, A.bck_part), A.names
        assert K in enumerate_ds(A), A.names
