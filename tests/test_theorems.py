import pytest

from pbci import EnumerationCapExceeded
from pbci.derivations import DerivationClass
from pbci.theorems import CATALOG_IDS, EMPIRICAL_NOTE, Analysis, theorem_suite

from conftest import FIXTURE_NAMES, m


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
])
def test_failure_witnesses(tid, name, cls, image, witness, request):
    # one map that breaks the law, added to the class's true maps
    algebra = request.getfixturevalue(name)
    maps = dict(Analysis(algebra).derivations)
    maps[cls] = sorted(set(maps[cls]) | {m(algebra, image)})
    an = Analysis(algebra)
    an.__dict__["derivations"] = maps
    result = next(r for r in an.theorems.results if r.tid == tid)
    assert (result.applicable, result.passed, result.witness) == (True, False, witness)
