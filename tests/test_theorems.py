import dataclasses

import pytest

from pbci import EnumerationCapExceeded, theorems
from pbci.derivations import (DerivationClass, compose, enumerate_derivations,
                              identity_map, map_properties)
from pbci.dsystems import bck_part_system, enumerate_ds
from pbci.theorems import (CATALOG_IDS, EMPIRICAL_NOTE, Analysis, TheoremResult,
                           theorem_suite)

from conftest import FIXTURE_NAMES, flat, m


def test_catalog_ids_unique():
    assert len(CATALOG_IDS) == len(set(CATALOG_IDS))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_all_applicable_statements_pass(name, request):
    algebra = request.getfixturevalue(name)
    report = theorem_suite(algebra)
    assert report.failures() == []
    assert report.all_passed
    assert len(report.results) == len(CATALOG_IDS)


def test_skips_follow_preconditions(proper5, group6, cyclic3, bck5):
    def skipped(algebra):
        return {r.tid for r in theorem_suite(algebra).results if not r.applicable}

    psemi_only = {
        "psemisimple-type1-closed",
        "psemisimple-type2-closed",
        "psemisimple-composition-commutes",
        "psemisimple-implicative-monoid",
        "psemisimple-pointwise-constant",
        "psemisimple-sym2-left-translation",
        "psemisimple-sym2-equals-type2",
    }
    bck_only = {"bck-type3-join-absorption", "bck-type4-join-absorption-iff-regular"}
    psemi_bci = {"psemisimple-bci-sym1-equals-type1"}
    comm = {"commutative-phi-map-two-sided"}

    assert skipped(proper5) == psemi_only | bck_only | psemi_bci | comm
    assert skipped(group6) == bck_only | psemi_bci
    assert skipped(cyclic3) == bck_only
    assert skipped(bck5) == psemi_only | psemi_bci | comm


def test_applicability_is_read_from_passed():
    skipped = TheoremResult(tid="t", statement="s", passed=None, witness=None)
    assert skipped.applicable is False
    failed = TheoremResult(tid="t", statement="s", passed=False, witness="x=a")
    assert failed.applicable is True
    assert [f.name for f in dataclasses.fields(TheoremResult)] == [
        "tid", "statement", "passed", "witness", "note"]


def test_skipped_entries_are_not_passed(proper5):
    for result in theorem_suite(proper5).results:
        if not result.applicable:
            assert result.passed is None
            assert result.witness is None


def test_vacuous_universal_counts_as_pass(mixed6):
    # the type II symmetric set is empty here; the entry still runs
    report = theorem_suite(mixed6)
    by_id = {r.tid: r for r in report.results}
    entry = by_id["sym2-atom-valued"]
    assert entry.applicable and entry.passed


def test_empirical_entries_flagged(bck5):
    by_id = {r.tid: r for r in theorem_suite(bck5).results}
    for tid in ("bck-type3-join-absorption", "bck-type4-join-absorption-iff-regular"):
        assert by_id[tid].note == EMPIRICAL_NOTE
        assert by_id[tid].applicable and by_id[tid].passed


def test_suite_respects_cap(proper5, monkeypatch):
    # derivations are enumerated before deductive systems
    monkeypatch.setenv("PBCI_MAX_SIZE", "3")
    with pytest.raises(EnumerationCapExceeded, match="exceeds enumeration cap 3"):
        theorem_suite(proper5)


def test_suite_over_small_pool(small_pool):
    for algebra in small_pool:
        report = theorem_suite(algebra)
        assert report.failures() == [], (algebra.names, report.failures())


def _atom_of(A):
    """Each element's branch atom, read off A.branches."""
    return {x: a for a, block in A.branches.items() for x in block}


def test_regular_type2_implied_facts_hold(small_pool, products, monkeypatch):
    # regular-type2-basics checks only x <= dx and the translation link of
    # each chain d(x) op y <= d(x) op dy <= x op dy = d(x op y); the order
    # links follow from x <= dx and laws (5) and (6), and the branch, BCK
    # part, image-gap and kernel facts from lemmas L1-L5 of the theorems
    # module.  All hold here as facts
    monkeypatch.setenv("PBCI_MAX_SIZE", "15")
    for A in small_pool + list(products.values()):
        rng, K, atom_of = A.elements(), A.bck_part, _atom_of(A)
        for d in enumerate_derivations(A, DerivationClass.IMPLICATIVE_II, regular=True):
            where = (A.names, d)
            for x in rng:
                assert atom_of[A.phi(x)] == atom_of[d[x]], (where, x)
                for op in (A.arrow, A.squig):
                    assert op[A.phi(x)][d[x]] in K, (where, x)
                    for y in rng:
                        low, mid, high = op[d[x]][y], op[d[x]][d[y]], op[x][d[y]]
                        assert A.arrow[low][mid] == A.unit, (where, x, y)
                        assert A.arrow[mid][high] == A.unit, (where, x, y)
                        if A.le(x, y):
                            assert mid in K, (where, x, y)
            rec = map_properties(A, d)
            assert rec.kernel_in_bck_part and rec.maps_bck_into_bck, where
            assert rec.kernel_is_subalgebra, where


def test_validation_lemmas_and_implied_map_facts_hold(small_pool, products,
                                                      monkeypatch):
    # the lemmas L1-L5 of the theorems module, which follow from the laws
    # that validation asserts, and the conjuncts of the per-map laws that
    # they prove, so that no row checks them
    monkeypatch.setenv("PBCI_MAX_SIZE", "15")
    for A in small_pool + list(products.values()):
        rng, u, K, ats = A.elements(), A.unit, A.bck_part, A.atoms
        arrow, squig, (cup1, cup2), phi = A.arrow, A.squig, A.joins, A.phi
        atom_of = _atom_of(A)
        assert u in ats and A.branches[u] == K, A.names
        for x in rng:
            assert arrow[phi(x)][u] == arrow[x][u], (A.names, x)              # L1
            assert {phi(x), arrow[x][u]} <= ats, (A.names, x)                 # L2
            assert phi(phi(x)) == phi(x), (A.names, x)
            assert atom_of[x] == phi(x), (A.names, x)                         # L4
            for y in rng:
                if phi(x) == phi(y):                                          # L5
                    assert {arrow[x][y], squig[x][y]} <= K, (A.names, x, y)
        for a in ats:
            for x in rng:                                                     # L3
                assert {arrow[x][a], squig[x][a]} <= ats, (A.names, a, x)
                assert cup1[a][x] == cup2[a][x] == a, (A.names, a, x)
                assert not A.le(a, x) or x == a, (A.names, a, x)              # L4
        for d in enumerate_derivations(A, DerivationClass.IMPLICATIVE_II):
            for a in ats:
                assert d[a] == arrow[d[u]][a] == squig[d[u]][a], (A.names, d, a)
        implicative = {d for cls in (DerivationClass.IMPLICATIVE_I,
                                     DerivationClass.IMPLICATIVE_II)
                       for d in enumerate_derivations(A, cls)}
        for d in implicative:                       # implicative-atom-stability
            assert {d[a] for a in ats} <= ats, (A.names, d)
            assert d[u] == u or d[u] not in K, (A.names, d)
            assert all(d[a] == a for a in ats) == (d[u] == u), (A.names, d)
        for d in enumerate_derivations(A, DerivationClass.SYMMETRIC_I, regular=True):
            assert set(d) <= ats, (A.names, d)
        for d in enumerate_derivations(A, DerivationClass.SYMMETRIC_II):
            assert set(d) <= ats, (A.names, d)
            for x in rng:
                assert cup1[d[x]][x] == cup2[d[x]][x] == d[x], (A.names, d, x)
                assert phi(cup2[d[x]][x]) == d[x], (A.names, d, x)
                for v in d:
                    assert {arrow[x][v], squig[x][v]} <= ats, (A.names, d, x, v)
            if d[u] == u:
                assert d == identity_map(A), (A.names, d)


def test_per_map_readings_match_the_property_record(small_pool, products, monkeypatch):
    # the suite reads its per-map facts off the map, the report from
    # map_properties, which stays the reference: a kernel equal to K(A)
    # (_kernel_is_bck_part), idempotence (compose(d, d) == d), atom values
    # (atoms.issuperset(d)) and, on the regular maps it is read for, a
    # trivial kernel (d.count(1) == 1).  Every map of every applicable
    # class is compared, and each reading takes both values somewhere
    monkeypatch.setenv("PBCI_MAX_SIZE", "15")
    seen = set()
    for A in small_pool + list(products.values()):
        an, u = Analysis(A), A.unit
        for d in set().union(*an.derivations.values()):
            rec = map_properties(A, d)
            readings = {
                "kernel is K(A)": (theorems._kernel_is_bck_part(an, d),
                                   rec.kernel == A.bck_part),
                "idempotent": (compose(d, d) == d, rec.idempotent),
                "atom-valued": (A.atoms.issuperset(d), rec.image_in_atoms),
            }
            if d[u] == u:
                readings["trivial kernel"] = (d.count(u) == 1, rec.kernel == {u})
            for name, (read, reference) in readings.items():
                assert read == reference, (A.names, d, name)
                seen.add((name, read))
    assert len(seen) == 8, seen


_I, _II, _III, _IV = (DerivationClass.IMPLICATIVE_I, DerivationClass.IMPLICATIVE_II,
                      DerivationClass.IMPLICATIVE_III, DerivationClass.IMPLICATIVE_IV)
_S1, _S2 = DerivationClass.SYMMETRIC_I, DerivationClass.SYMMETRIC_II


@pytest.mark.parametrize("tid, name, cls, image, witness", [
    ("type1-join-absorption", "proper5", _I, "a a a a a", "d=(a a a a a) at x=b"),
    ("bck-type3-join-absorption", "bck5", _III, "0 0 0 0 0", "d=(0 0 0 0 0) at x=a"),
    ("type2-join-absorption-iff-regular", "proper5", _II, "a a a a 1",
     "d=(a a a a 1)"),
    ("bck-type4-join-absorption-iff-regular", "bck5", _IV, "0 0 0 0 1",
     "d=(0 0 0 0 1)"),
    ("psemisimple-type1-closed", "group6", _I, "a a a a a b",
     "d1=(a a a a a b), d2=(a a a a a b)"),
    ("psemisimple-type2-closed", "group6", _II, "a a a a a b",
     "d1=(a a a a a b), d2=(a a a a a b)"),
    ("psemisimple-sym2-equals-type2", "group6", _S2, "a a a a a a",
     "sets differ, e.g. (a a a a a a)"),
    ("psemisimple-bci-sym1-equals-type1", "cyclic3", _S1, "a a a",
     "sets differ, e.g. (a a a)"),
    ("type2-regular-iff-all-invariant", "proper5", _II, "a a a a 1", "d=(a a a a 1)"),
    ("sym-regular-iff-all-invariant", "proper5", _S1, "a a a a 1", "d=(a a a a 1)"),
    ("sym-regular-iff-all-invariant", "proper5", _S2, "a a a a 1", "d=(a a a a 1)"),
    ("regular-type2-basics", "cyclic3", _II, "a a 1",
     "d=(a a 1): arrow chain fails at (a, b)"),
    ("kernel-is-bck-part-iff-phi", "cyclic3", _II, "a a 1", "d=(a a 1)"),
    ("kernel-bck-part-forces-idempotent", "cyclic3", _II, "b a 1", "d=(b a 1)"),
    ("type1-unit-image", "cyclic3", _I, "a a a",
     "d=(a a a): atom translation fails at a"),
    ("type2-unit-translation", "cyclic3", _II, "a a a",
     "d=(a a a): d(1) op x <= dx fails at a"),
    ("implicative-atom-stability", "cyclic3", _I, "a a b",
     "d=(a a b): product rule fails at (a, a)"),
    ("sym1-constant-gap", "cyclic3", _S1, "a a a",
     "d=(a a a): gap x op dx is not d(1) at a"),
    ("sym2-atom-valued", "cyclic3", _S2, "a a a",
     "d=(a a a): gap dx op x is not d(1) at a"),
    ("sym-atom-product-translation", "cyclic3", _S1, "a a a", "d=(a a a) at (a, a)"),
    ("dominated-idempotent-composition", "proper5", _II, "a a a d 1",
     "d1=(a a a d 1), d2=(a b c d 1)"),
    ("regular-type2-characterization", "cyclic3", _II, "a a 1",
     "route disagreement, e.g. (a a 1)"),
    ("atom-valued-type1-pullthrough", "cyclic3", _I, "a a a", "d=(a a a) at (a, a)"),
    ("regular-type2-invariance", "proper5", _II, "a a a a 1",
     "d=(a a a a 1), D={c, 1}"),
    ("psemisimple-iff-trivial-regular-type2", "cyclic3", _II, "a a 1",
     "classification=True, trivial kernels=True, only identity=False"),
    ("psemisimple-implicative-monoid", "cyclic3", _II, "b 1 a",
     "composition of maps 1 and 1 escapes the set"),
    ("psemisimple-pointwise-constant", "cyclic3", _II, "b 1 a",
     "d1=(a b 1), d2=(b 1 a), op=arrow"),
    ("psemisimple-sym2-left-translation", "cyclic3", _S2, "a a a",
     "d=(a a a): left translation fails at (a, a)"),
    ("type1-unit-image", "proper5", _I, "a a a a a",
     "d=(a a a a a): d(1) is not an atom"),
    ("lower-bound-forces-regular-bck", "proper5", (_I, _II), "a a a a a",
     "d=(a a a a a) bounded below but not regular"),
    ("lower-bound-forces-regular-bck", "proper5", (_I, _II), "a a a a 1",
     "d=(a a a a 1) bounded below on a non-pseudo-BCK algebra"),
    # 1 lies above both a and b but nothing lies below both, so only the
    # second map is bounded below
    ("lower-bound-forces-regular-bck", "mixed6", (_I, _II), ("a a a a a b", "b b b b b b"),
     "d=(b b b b b b) bounded below but not regular"),
    ("psemisimple-composition-commutes", "cyclic3", (_I, _II), ("a a a", "b b b"),
     "d1=(a a a), d2=(b b b)"),
    # not inflationary at b, so the order links of the chain at (a, d)
    # fail too, but they are left to laws (5) and (6)
    ("regular-type2-basics", "proper5", _II, "a a a 1 1",
     "d=(a a a 1 1): x <= dx fails at b"),
    ("regular-type2-basics", "proper5", _II, "a b a d 1",
     "d=(a b a d 1): squig chain fails at (b, a)"),
    ("sym1-constant-gap", "proper5", _S1, "a a a a 1",
     "d=(a a a a 1): dx join d(1) fails at a"),
    ("sym2-atom-valued", "proper5", _S2, "a a a a 1",
     "d=(a a a a 1): dx via phi of join fails at a"),
    # the gap is constant whenever two gaps agree everywhere, so the first
    # gap check to fail is this one
    ("psemisimple-sym2-left-translation", "cyclic3", _S2, "a a 1",
     "d=(a a 1): two gaps differ at (a, b)"),
])
def test_failure_witnesses(tid, name, cls, image, witness, request):
    # one map that breaks the law, or a tuple of maps, added to the true
    # maps of the class, or of each class of a tuple (a map of types I and
    # II is two-sided).  No map breaks the other two per-map rows.
    # invariance-forces-regular: {1} is always a deductive system and an
    # irregular map moves 1 out of it.  left-translation-forces-identity:
    # x = 1 in d(x -> y) = d(x) -> y gives d(y) = d(1) -> y = y once
    # d(1) = 1, and likewise for ~>.
    algebra = request.getfixturevalue(name)
    maps = dict(Analysis(algebra).derivations)
    added = {m(algebra, text) for text in
             ((image,) if isinstance(image, str) else image)}
    for c in cls if isinstance(cls, tuple) else (cls,):
        maps[c] = sorted(set(maps[c]) | added)
    an = Analysis(algebra)
    an.__dict__["derivations"] = maps
    result = next(r for r in an.theorems.results if r.tid == tid)
    assert (result.applicable, result.passed, result.witness) == (True, False, witness)


def test_invariance_is_decided_once_per_map(monkeypatch):
    # the invariance table tests each map against the systems in turn, up
    # to its first non-invariant one, and nothing else calls is_invariant:
    # the BCK part row reads no map
    calls = 0
    original = theorems.is_invariant

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(theorems, "is_invariant", counted)
    an = Analysis(flat(8))
    assert theorem_suite(an).all_passed
    scanned = sum(len(an.systems) if D is None else an.systems.index(D) + 1
                  for D in an.non_invariant.values())
    distinct = set().union(*an.derivations.values())
    assert calls == scanned <= len(distinct) * len(an.systems) <= 16_640


def test_invariance_table_holds_only_the_maps_the_rows_read(bck5):
    # the invariance rows read implicative, ridop2, idop2 and symmetric maps;
    # bck5 has two more distinct maps, of type III or IV only
    an = Analysis(bck5)
    assert theorem_suite(an).all_passed
    read = set(an.implicative) | set(an.symmetric)
    assert set(an.non_invariant) == read
    assert len(read) == 4 < len(set().union(*an.derivations.values())) == 6


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_bck_system_is_the_enumerated_entry(name, request):
    # K(A) as bck_part_system states it, flags unchecked (lemma L6), is the
    # entry that enumerate_ds lists with its members
    A = request.getfixturevalue(name)
    assert bck_part_system(A) == next(D for D in enumerate_ds(A)
                                      if D.members == A.bck_part)


@pytest.mark.parametrize("change", ["missing", "not-compatible", "not-closed"])
def test_bck_system_faults_are_internal(proper5, change):
    # K(A) is a compatible closed deductive system by a theorem, so an
    # enumeration that lacks it, or flags it otherwise, is a package bug,
    # which the BCK part row reports as its witness
    an = Analysis(proper5)
    systems = [D for D in an.systems if D.members != proper5.bck_part]
    if change != "missing":
        K = next(D for D in an.systems if D.members == proper5.bck_part)
        field = change.removeprefix("not-")
        systems.append(dataclasses.replace(K, **{field: False}))
    an.systems = systems
    result = next(r for r in an.theorems.results
                  if r.tid == "bck-part-closed-compatible-invariant")
    assert (result.applicable, result.passed, result.witness) == (
        True, False, "BCK part is not listed as a compatible closed deductive system")
