import itertools
import random

import pytest

from pbci import TypeRequiresPseudoBckError, EnumerationCapExceeded, enumerate_ds
from pbci.derivations import (
    CLASS_ORDER,
    DerivationClass as C,
    brute_force_derivations,
    compose,
    enumerate_derivations,
    identity_map,
    map_properties,
    monoid_report,
    phi_map,
    pointwise,
    regular_translation_maps,
    satisfies,
)

from conftest import PRODUCT_LABELS, flat, m, permuted, seeded_orders


def maps(algebra, *rows):
    return [m(algebra, row) for row in rows]


def test_identity_is_two_sided_everywhere(all_fixtures):
    for algebra in all_fixtures.values():
        ident = identity_map(algebra)
        assert satisfies(algebra, ident, C.IMPLICATIVE_I)
        assert satisfies(algebra, ident, C.IMPLICATIVE_II)


def test_proper5_implicative_sets(proper5):
    expected = maps(proper5, "a b c d 1", "d d d 1 d", "1 1 1 d 1")
    assert enumerate_derivations(proper5, C.IMPLICATIVE_I) == sorted(expected)
    assert enumerate_derivations(proper5, C.IMPLICATIVE_II) == sorted(expected)


def test_proper5_symmetric_sets(proper5):
    d2 = m(proper5, "d d d 1 d")
    d3 = m(proper5, "1 1 1 d 1")
    assert enumerate_derivations(proper5, C.SYMMETRIC_I) == sorted([d2, d3])
    # The type II symmetric identities force d(1) = dx -> x for every x
    # (instantiate the arrow identity at (x, x)); d3 is regular yet not the
    # identity, so it cannot belong, while d2 passes every pair.  Brute
    # force over all 5^5 maps confirms the computed set below.
    assert satisfies(proper5, d2, C.SYMMETRIC_II)
    assert not satisfies(proper5, d3, C.SYMMETRIC_II)
    assert enumerate_derivations(proper5, C.SYMMETRIC_II) == [d2]
    assert brute_force_derivations(proper5, C.SYMMETRIC_II) == [d2]


def test_proper5_regular_filter(proper5):
    expected = maps(proper5, "a b c d 1", "1 1 1 d 1")
    assert enumerate_derivations(proper5, C.IMPLICATIVE_II, regular=True) == sorted(expected)


def test_mixed6_sets(mixed6):
    d1, d2, d3 = maps(mixed6, "a b x y g 1", "g g 1 1 1 g", "1 1 g g g 1")
    assert enumerate_derivations(mixed6, C.IMPLICATIVE_I) == sorted([d1, d2, d3])
    assert enumerate_derivations(mixed6, C.IMPLICATIVE_II) == sorted([d1, d2, d3])
    assert enumerate_derivations(mixed6, C.SYMMETRIC_I) == sorted([d2, d3])
    assert enumerate_derivations(mixed6, C.SYMMETRIC_II) == []
    assert phi_map(mixed6) == d3


def test_cyclic3_sets(cyclic3):
    d1, d2, d3 = maps(cyclic3, "a b 1", "b 1 a", "1 a b")
    rotations = sorted([d1, d2, d3])
    assert enumerate_derivations(cyclic3, C.IMPLICATIVE_I) == rotations
    assert enumerate_derivations(cyclic3, C.SYMMETRIC_I) == rotations
    assert enumerate_derivations(cyclic3, C.IMPLICATIVE_II) == [d1]
    assert enumerate_derivations(cyclic3, C.SYMMETRIC_II) == [d1]


def test_bck5_sets(bck5):
    d1, d2, d3, d4, d5, d6 = maps(
        bck5, "0 a b c 1", "0 a b 1 1", "0 1 1 c 1",
        "0 1 1 1 1", "1 1 1 c 1", "1 1 1 1 1")
    four = sorted([d1, d2, d5, d6])
    assert enumerate_derivations(bck5, C.IMPLICATIVE_I) == four
    assert enumerate_derivations(bck5, C.IMPLICATIVE_II) == four
    assert enumerate_derivations(bck5, C.IMPLICATIVE_IV) == four
    assert enumerate_derivations(bck5, C.IMPLICATIVE_III) == sorted(
        [d1, d2, d3, d4, d5, d6])


def test_group6_sets(group6):
    ident = identity_map(group6)
    assert enumerate_derivations(group6, C.IMPLICATIVE_II, regular=True) == [ident]
    assert enumerate_derivations(group6, C.IMPLICATIVE_II) == [ident]
    assert enumerate_derivations(group6, C.SYMMETRIC_II) == [ident]


def test_types_three_four_gated(proper5):
    with pytest.raises(TypeRequiresPseudoBckError):
        enumerate_derivations(proper5, C.IMPLICATIVE_III)
    with pytest.raises(TypeRequiresPseudoBckError):
        satisfies(proper5, identity_map(proper5), C.IMPLICATIVE_IV)
    assert satisfies(proper5, identity_map(proper5), C.IMPLICATIVE_III, force=True)


def test_enumeration_cap(proper5, monkeypatch):
    monkeypatch.setenv("PBCI_MAX_SIZE", "4")
    with pytest.raises(EnumerationCapExceeded):
        enumerate_derivations(proper5, C.IMPLICATIVE_I)
    monkeypatch.setenv("PBCI_MAX_SIZE", "5")
    assert enumerate_derivations(proper5, C.IMPLICATIVE_I)


def test_bad_map_rejected(proper5):
    with pytest.raises(ValueError):
        satisfies(proper5, (0, 1), C.IMPLICATIVE_I)
    with pytest.raises(ValueError):
        map_properties(proper5, (0, 1, 2, 3, 9))


@pytest.mark.parametrize("name", ["proper5", "cyclic3", "bck5", "flat5", "flat6"])
def test_oracle_equivalence_all_classes(name, request):
    algebra = request.getfixturevalue(name)
    for cls in CLASS_ORDER:
        for regular in (False, True):
            fast = enumerate_derivations(algebra, cls, regular=regular, force=True)
            slow = brute_force_derivations(algebra, cls, regular=regular, force=True)
            assert fast == slow
            assert fast == sorted(fast)


@pytest.mark.parametrize("n", range(4, 11))
def test_flat_family_counts(n):
    # F_n has 2^(n-1) deductive systems and 2^(n-1) maps in each implicative
    # class: the size caps bound work that doubles with every element
    algebra = flat(n)
    assert len(enumerate_ds(algebra)) == 2 ** (n - 1)
    for cls in CLASS_ORDER[:4]:  # implicative I-IV
        assert len(enumerate_derivations(algebra, cls)) == 2 ** (n - 1)
    assert enumerate_derivations(algebra, C.SYMMETRIC_I) == [(algebra.unit,) * n]
    assert phi_map(algebra) == (algebra.unit,) * n
    assert enumerate_derivations(algebra, C.SYMMETRIC_II) == []


def test_oracle_equivalence_on_small_pool(small_pool):
    for algebra in small_pool:
        for cls in CLASS_ORDER:
            for regular in (False, True):
                assert (enumerate_derivations(algebra, cls, regular=regular, force=True)
                        == brute_force_derivations(algebra, cls, regular=regular,
                                                   force=True))


def _readme_identities(A, cls, d, x, y):
    """Both identities of a class at (x, y), written out from the README table."""
    ar, sq = A.arrow, A.squig

    def j1(u, v):       # u \/1 v = (u -> v) ~> v
        return sq[ar[u][v]][v]

    def j2(u, v):       # u \/2 v = (u ~> v) -> v
        return ar[sq[u][v]][v]

    dx, dy = d[x], d[y]
    arrow_side, squig_side = {
        C.IMPLICATIVE_I: (j2(ar[x][dy], ar[dx][y]), j1(sq[x][dy], sq[dx][y])),
        C.IMPLICATIVE_II: (j2(ar[dx][y], ar[x][dy]), j1(sq[dx][y], sq[x][dy])),
        C.IMPLICATIVE_III: (j1(ar[x][dy], ar[dx][y]), j2(sq[x][dy], sq[dx][y])),
        C.IMPLICATIVE_IV: (j1(ar[dx][y], ar[x][dy]), j2(sq[dx][y], sq[x][dy])),
        C.SYMMETRIC_I: (j2(ar[x][dy], ar[y][dx]), j1(sq[x][dy], sq[y][dx])),
        C.SYMMETRIC_II: (j2(ar[dx][y], ar[dy][x]), j1(sq[dx][y], sq[dy][x])),
    }[cls]
    return d[ar[x][y]] == arrow_side and d[sq[x][y]] == squig_side


def test_satisfies_matches_written_out_identities(all_fixtures, cyclic3):
    # every map of cyclic3, and seeded random maps plus every enumerated
    # derivation of each fixture
    rng = random.Random(7)
    cases = [(cyclic3, d) for d in itertools.product(range(3), repeat=3)]
    for algebra in all_fixtures.values():
        n = algebra.size
        cases += [(algebra, tuple(rng.randrange(n) for _ in range(n)))
                  for _ in range(200)]
        cases += [(algebra, d) for cls in CLASS_ORDER
                  for d in enumerate_derivations(algebra, cls, force=True)]
    for algebra, d in cases:
        pairs = [(x, y) for x in algebra.elements() for y in algebra.elements()]
        for cls in CLASS_ORDER:
            expected = all(_readme_identities(algebra, cls, d, x, y) for x, y in pairs)
            assert satisfies(algebra, d, cls, force=True) == expected


def _transport(d, order):
    """A map of A as a map of permuted(A, order)."""
    position = {old: new for new, old in enumerate(order)}
    return tuple(position[d[old]] for old in order)


@pytest.mark.parametrize("label", PRODUCT_LABELS)
def test_enumeration_invariant_under_declaration_order(label, products, monkeypatch):
    algebra = products[label]
    n = algebra.size
    monkeypatch.setenv("PBCI_MAX_SIZE", str(n))
    base = {cls: enumerate_derivations(algebra, cls, force=True)
            for cls in CLASS_ORDER}
    translations = regular_translation_maps(algebra)
    for order in seeded_orders(n):
        moved = permuted(algebra, order)
        for cls in CLASS_ORDER:
            got = enumerate_derivations(moved, cls, force=True)
            assert got == sorted(_transport(d, order) for d in base[cls])
        assert (regular_translation_maps(moved)
                == sorted(_transport(d, order) for d in translations))


def test_oracle_equivalence_matches_product_filter(cyclic3):
    # the oracle really is a plain filter over all n^n maps
    n = cyclic3.size
    expected = [d for d in itertools.product(range(n), repeat=n)
                if satisfies(cyclic3, d, C.SYMMETRIC_I)]
    assert brute_force_derivations(cyclic3, C.SYMMETRIC_I) == expected


def test_map_properties_golden(proper5):
    d2 = m(proper5, "d d d 1 d")
    p2 = map_properties(proper5, d2)
    assert not p2.regular
    assert p2.isotone
    assert not p2.idempotent
    assert proper5.name_set(p2.kernel) == ("d",)
    assert p2.image_in_atoms
    assert not p2.maps_bck_into_bck

    d3 = m(proper5, "1 1 1 d 1")
    p3 = map_properties(proper5, d3)
    assert p3.regular and p3.isotone and p3.idempotent
    assert proper5.name_set(p3.kernel) == ("a", "b", "c", "1")
    assert p3.kernel_is_subalgebra and p3.kernel_in_bck_part

    p1 = map_properties(proper5, identity_map(proper5))
    assert p1.regular and p1.isotone and p1.idempotent
    assert p1.kernel == frozenset({proper5.unit})


def test_phi_map_golden(proper5, group6, cyclic3):
    assert phi_map(proper5) == m(proper5, "1 1 1 d 1")
    assert phi_map(group6) == identity_map(group6)
    assert phi_map(cyclic3) == identity_map(cyclic3)


def test_phi_map_type_two_membership(proper5, mixed6):
    # guaranteed for commutative algebras, possible beyond them
    assert satisfies(proper5, phi_map(proper5), C.IMPLICATIVE_II)
    assert satisfies(mixed6, phi_map(mixed6), C.IMPLICATIVE_II)


def test_compose_golden(proper5):
    d1, d2, d3 = maps(proper5, "a b c d 1", "d d d 1 d", "1 1 1 d 1")
    assert compose(d1, d2) == d2 and compose(d2, d1) == d2
    assert compose(d1, d3) == d3 and compose(d3, d1) == d3
    assert compose(d2, d3) == d2 and compose(d3, d2) == d2
    for d in (d1, d2, d3):
        assert compose(d, d1) == d


def test_pointwise_golden(proper5, cyclic3):
    ident = identity_map(proper5)
    const_unit = tuple(proper5.unit for _ in proper5.elements())
    assert pointwise(proper5, "arrow", ident, ident) == const_unit

    d2, d3 = maps(cyclic3, "b 1 a", "1 a b")
    a, b = 0, 1
    assert pointwise(cyclic3, "arrow", d2, d3) == (a, a, a)
    assert pointwise(cyclic3, "arrow", d3, d2) == (b, b, b)
    with pytest.raises(ValueError):
        pointwise(cyclic3, "times", d2, d3)


def test_monoid_report_golden(proper5, cyclic3):
    idop = enumerate_derivations(proper5, C.IMPLICATIVE_I)
    report = monoid_report(proper5, idop)
    assert report.closed_under_composition
    assert report.commutative
    assert report.has_identity
    assert report.witnesses == ()
    ident_index = idop.index(identity_map(proper5))
    assert all(report.composition_table[ident_index][j] == j
               for j in range(len(idop)))

    rotations = enumerate_derivations(cyclic3, C.IMPLICATIVE_I)
    rot_report = monoid_report(cyclic3, rotations)
    assert rot_report.closed_under_composition and rot_report.commutative

    single = monoid_report(proper5, [identity_map(proper5)])
    assert single.closed_under_composition and single.commutative
    assert single.has_identity


def test_monoid_report_detects_failures(cyclic3):
    d2 = m(cyclic3, "b 1 a")
    report = monoid_report(cyclic3, [d2])
    assert not report.closed_under_composition
    assert not report.has_identity
    assert report.witnesses
    with pytest.raises(ValueError):
        monoid_report(cyclic3, [])
    with pytest.raises(ValueError):
        monoid_report(cyclic3, [d2, d2])


def test_regular_translation_route(proper5, bck5, group6):
    for algebra in (proper5, bck5, group6):
        direct = enumerate_derivations(algebra, C.IMPLICATIVE_II, regular=True)
        assert sorted(regular_translation_maps(algebra)) == direct
