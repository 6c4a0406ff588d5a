import itertools
import random

import pytest

from pbci import (TypeRequiresPseudoBckError, EnumerationCapExceeded, enumerate_ds,
                  parse_algebra, validate)
from pbci import derivations
from pbci.derivations import (
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
from pbci.dsystems import congruence_classes, quotient
from pbci.search import SearchQuery, search

from conftest import (CHAIN2, LARGE_PRODUCT_LABELS, PRODUCT_LABELS, flat,
                      load_algebra, m, permuted, product, product_factors,
                      seeded_orders)


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


def test_applies_to_scopes_types_three_four(all_fixtures):
    for name, algebra in all_fixtures.items():
        scope = [str(cls) for cls in C if cls.applies_to(algebra)]
        if name == "bck5":
            assert scope == [str(cls) for cls in C]
        else:
            assert scope == ["implicative-I", "implicative-II",
                             "symmetric-I", "symmetric-II"]


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
    for cls in C:
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
    for cls in (C.IMPLICATIVE_I, C.IMPLICATIVE_II, C.IMPLICATIVE_III, C.IMPLICATIVE_IV):
        assert len(enumerate_derivations(algebra, cls)) == 2 ** (n - 1)
    assert enumerate_derivations(algebra, C.SYMMETRIC_I) == [(algebra.unit,) * n]
    assert phi_map(algebra) == (algebra.unit,) * n
    assert enumerate_derivations(algebra, C.SYMMETRIC_II) == []


def test_oracle_equivalence_on_small_pool(small_pool):
    for algebra in small_pool:
        for cls in C:
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
        cases += [(algebra, d) for cls in C
                  for d in enumerate_derivations(algebra, cls, force=True)]
    for algebra, d in cases:
        pairs = [(x, y) for x in algebra.elements() for y in algebra.elements()]
        for cls in C:
            expected = all(_readme_identities(algebra, cls, d, x, y) for x, y in pairs)
            assert satisfies(algebra, d, cls, force=True) == expected


def _transport(d, order):
    """A map of A as a map of permuted(A, order)."""
    position = {old: new for new, old in enumerate(order)}
    return tuple(position[d[old]] for old in order)


@pytest.mark.parametrize("label", PRODUCT_LABELS + LARGE_PRODUCT_LABELS)
def test_enumeration_invariant_under_declaration_order(label, products,
                                                      large_products, monkeypatch):
    # the solver's schedule follows declaration order, and the brute-force
    # oracle stops at n = 4, so relabelling is the oracle at n = 9 to 36
    algebra = {**products, **large_products}[label]
    n = algebra.size
    monkeypatch.setenv("PBCI_MAX_SIZE", str(n))
    base = {cls: enumerate_derivations(algebra, cls, force=True)
            for cls in C}
    translations = regular_translation_maps(algebra)
    for order in seeded_orders(n):
        moved = permuted(algebra, order)
        for cls in C:
            got = enumerate_derivations(moved, cls, force=True)
            assert got == sorted(_transport(d, order) for d in base[cls])
        assert (regular_translation_maps(moved)
                == sorted(_transport(d, order) for d in translations))


def _assert_schedule_sound(A, schedule, rhss, reads_x):
    """The invariants that let the solver run without undo: each pair's row
    runs at exactly one level, after every image it reads is known; each
    element is written exactly once, by its branch or by one mode bit; and a
    clear mode bit checks an image already known."""
    n = A.size
    pairs = sorted((x, y) for _, rows in schedule for x, y, _ in rows)
    assert pairs == [(x, y) for x in range(n) for y in range(n)]
    known: list[int] = []
    for e, level in schedule:
        known.append(e)
        rows = [derivations._rows(A, rhs, level) for rhs in rhss]
        for i, (x, y, mode) in enumerate(level):
            assert y in known and (x in known or not reads_x)
            assert all({row[i][0], row[i][1]} <= set(known) for row in rows)
            for bit, t in ((1, A.arrow[x][y]), (2, A.squig[x][y])):
                if mode & bit:
                    known.append(t)
                assert t in known
    assert sorted(known) == list(range(n))
    assert schedule[0][0] == A.unit


def test_schedules_are_sound(small_pool, products):
    for algebra in small_pool + list(products.values()):
        _assert_schedule_sound(algebra, algebra.derivation_schedule,
                               [cls.rhs for cls in C], True)
        _assert_schedule_sound(algebra, algebra.translation_schedule,
                               [derivations._TRANSLATION], False)


def _assert_splits(A, B, algebra):
    # Der_c(A x B) is the set of d1 x d2 over Der_c(A) x Der_c(B); the pair
    # (x, y) is element x * |B| + y of the product.  The operations act
    # coordinatewise, so every d1 x d2 is a derivation; the converse is
    # unproved, so the rule is an oracle here and not a catalogue row.
    k = B.size
    for cls in C:
        if cls.applies_to(algebra):
            split = sorted(
                tuple(d1[x] * k + d2[y] for x in A.elements() for y in B.elements())
                for d1 in enumerate_derivations(A, cls)
                for d2 in enumerate_derivations(B, cls))
            assert enumerate_derivations(algebra, cls) == split, cls


@pytest.mark.parametrize("label", PRODUCT_LABELS + LARGE_PRODUCT_LABELS)
def test_derivations_split_over_products(label, products, large_products,
                                         monkeypatch):
    algebra = {**products, **large_products}[label]
    monkeypatch.setenv("PBCI_MAX_SIZE", str(algebra.size))
    _assert_splits(*product_factors()[label], algebra)


@pytest.mark.parametrize("factor, power", [("chain2", 5), ("cyclic3", 3)])
def test_derivations_split_over_tail_products(factor, power, monkeypatch):
    # chain2^6 = chain2 x chain2^5 (n = 64) and cyclic3^4 = cyclic3 x
    # cyclic3^3 (n = 81), the largest tables the solver meets, and those
    # where the order of its schedule shows most
    A = load_algebra("cyclic3") if factor == "cyclic3" else validate(
        parse_algebra(CHAIN2))
    B = A
    for _ in range(power - 1):
        B = product(B, A)
    algebra = product(A, B)
    monkeypatch.setenv("PBCI_MAX_SIZE", str(algebra.size))
    _assert_splits(A, B, algebra)


def _assert_descends_to_quotients(A):
    """Every derivation of every class that applies to A is constant on the
    classes of each compatible closed D with {1} != D != A, and the map it
    induces on A/D is a derivation of the same class there (types III/IV
    with force=True, since A/D need not be pseudo-BCK).  Returns the number
    of (map, D) pairs checked."""
    checked = 0
    for D in enumerate_ds(A):
        if not (D.compatible and D.closed) or len(D.members) in (1, A.size):
            continue
        classes = congruence_classes(A, D)
        class_of = {x: i for i, block in enumerate(classes) for x in block}
        Q = quotient(A, D)
        for cls in C:
            if not cls.applies_to(A):
                continue
            induced = set(enumerate_derivations(Q, cls, force=True))
            for d in enumerate_derivations(A, cls):
                assert all(len({class_of[d[x]] for x in block}) == 1
                           for block in classes), (cls, d, D.members)
                dq = tuple(class_of[d[block[0]]] for block in classes)
                assert dq in induced, (cls, d, D.members)
                checked += 1
    return checked


def test_derivations_descend_to_quotients_on_small_pool(small_pool):
    # Derivations descending to quotients is an observation with no proof
    # here, so it is an oracle for the solver and not a catalogue row.
    assert sum(map(_assert_descends_to_quotients, small_pool)) > 0


@pytest.mark.parametrize("label", PRODUCT_LABELS + LARGE_PRODUCT_LABELS)
def test_derivations_descend_to_quotients_on_products(label, products,
                                                      large_products, monkeypatch):
    # unproved like the small-pool case; the products hold the pairs of
    # factors' systems, so each has a D strictly between {1} and A
    algebra = {**products, **large_products}[label]
    monkeypatch.setenv("PBCI_MAX_SIZE", str(algebra.size))
    assert _assert_descends_to_quotients(algebra) > 0


def central_translations(A, involutions_only=False):
    """The maps x -> x.c for c in the centre of A's group, x.y being
    ``A.product``; with involutions_only, only those with c.c = 1."""
    mul, n = A.product, A.size
    return sorted(tuple(mul[x][c] for x in range(n)) for c in range(n)
                  if all(mul[x][c] == mul[c][x] for x in range(n))
                  and not (involutions_only and mul[c][c] != A.unit))


P_SEMISIMPLE_LABELS = ("cyclic3", "group6", "cyclic3^2", "cyclic3^3", "group6^2",
                       "cyclic3^4")


@pytest.mark.parametrize("label", P_SEMISIMPLE_LABELS)
def test_p_semisimple_derivations_are_central_translations(
        label, all_fixtures, products, large_products, monkeypatch):
    # proved closed form on a p-semisimple algebra: type I maps are the
    # translations by central elements, type II those by central c with
    # c.c = 1, of either kind; forced, III equals I and IV equals II
    if label == "cyclic3^4":        # n = 81, built as the tail products are
        algebra = product(all_fixtures["cyclic3"], large_products["cyclic3^3"])
    else:
        algebra = {**all_fixtures, **products, **large_products}[label]
    assert algebra.classification.is_p_semisimple
    monkeypatch.setenv("PBCI_MAX_SIZE", str(algebra.size))
    expected = {"I": central_translations(algebra),
                "II": central_translations(algebra, involutions_only=True)}
    expected["III"], expected["IV"] = expected["I"], expected["II"]
    for cls in C:
        assert enumerate_derivations(algebra, cls, force=True) == expected[cls.dtype], cls


def _assert_symmetric_families(A):
    """Each symmetric class lies in its n-element term family and is
    injective in d(1): type I in {x -> (x -> a) -> 1}, type II in
    {x -> a -> x} over the a whose rows of -> and ~> are equal.  Both are
    observations with no proof here, so they are an oracle for the solver
    and not catalogue rows.  Returns the number of maps checked."""
    u = A.unit
    arrow = A.arrow
    family = {
        C.SYMMETRIC_I: {tuple(arrow[arrow[x][a]][u] for x in A.elements())
                        for a in A.elements()},
        C.SYMMETRIC_II: {arrow[a] for a in A.elements() if arrow[a] == A.squig[a]},
    }
    checked = 0
    for cls, terms in family.items():
        found = enumerate_derivations(A, cls)
        assert set(found) <= terms, (cls, A.names)
        assert len({d[u] for d in found}) == len(found), (cls, A.names)
        checked += len(found)
    return checked


def test_symmetric_derivations_lie_in_their_families(small_pool, products,
                                                     large_products, monkeypatch):
    # every table of the small pool and the eight products: 241 symmetric
    # I and 38 symmetric II maps
    monkeypatch.setenv("PBCI_MAX_SIZE", "36")
    pool = small_pool + list(products.values()) + list(large_products.values())
    assert len(pool) == 143
    assert sum(map(_assert_symmetric_families, pool)) == 241 + 38


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


def test_monoid_report_composes_each_unordered_pair_once(monkeypatch):
    # the table needs every ordered pair and the commutativity test one more
    # composition per unordered pair: m² + m(m-1)/2, not 2m²
    algebra = flat(6)
    idop = enumerate_derivations(algebra, C.IMPLICATIVE_I)
    calls = 0

    def counted(d1, d2):
        nonlocal calls
        calls += 1
        return compose(d1, d2)

    monkeypatch.setattr(derivations, "compose", counted)
    report = monoid_report(algebra, idop)
    size = len(idop)
    assert size == 32
    assert calls == size * size + size * (size - 1) // 2
    assert report.commutative and report.witnesses == ()


def test_monoid_report_names_maps_that_do_not_commute(proper5):
    # the constant maps to a and to b: each absorbs the other from the left
    report = monoid_report(proper5, maps(proper5, "a a a a a", "b b b b b"))
    assert report.closed_under_composition
    assert not report.commutative
    assert not report.has_identity
    assert report.composition_table == ((0, 0), (1, 1))
    assert report.witnesses == ("maps 0 and 1 do not commute",)


def test_regular_translation_route(proper5, bck5, group6):
    for algebra in (proper5, bck5, group6):
        direct = enumerate_derivations(algebra, C.IMPLICATIVE_II, regular=True)
        assert sorted(regular_translation_maps(algebra)) == direct


def test_regular_translation_maps_match_docstring_filter(small_pool):
    # d(1) = 1, d(x -> y) = x -> d(y) and d(x ~> y) = x ~> d(y), as a plain
    # filter over all n^n maps
    for algebra in small_pool:
        n, unit, ar, sq = algebra.size, algebra.unit, algebra.arrow, algebra.squig
        expected = [d for d in itertools.product(range(n), repeat=n)
                    if d[unit] == unit
                    and all(d[ar[x][y]] == ar[x][d[y]] and d[sq[x][y]] == sq[x][d[y]]
                            for x in range(n) for y in range(n))]
        assert regular_translation_maps(algebra) == expected


def test_regular_type1_and_type2_coincide_on_every_class_to_size5():
    # Observed, not proved: on every class of size <= 5 (and of size 6) the
    # regular type I maps are the regular translation maps, which are the
    # regular type II maps, so the translation row set to the type I row
    # is an equivalent mutant on these algebras.
    specs = [spec for n in range(1, 6)
             for spec in search(SearchQuery(size=n, modulo_iso=True))]
    assert len(specs) == 214
    for spec in specs:
        algebra = validate(spec)
        translations = regular_translation_maps(algebra)
        assert enumerate_derivations(algebra, C.IMPLICATIVE_I, regular=True) == translations
        assert enumerate_derivations(algebra, C.IMPLICATIVE_II, regular=True) == translations
