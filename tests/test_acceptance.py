"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 1 once expected the type II symmetric derivations of the 5-element
proper fixture to be {(1 1 1 d 1)}.  That value was replaced by
{(d d d 1 d)} for two reasons:

* At a diagonal pair (x, x) the arrow identity of the class reads
  d(x -> x) = (dx -> x) \\/2 (dx -> x), and u \\/2 u = (u ~> u) -> u = u, so
  every type II symmetric map has d(1) = dx -> x for all x.  A regular map
  (d(1) = 1) therefore needs dx <= x everywhere.  (1 1 1 d 1) is regular
  but sends a to 1: at (a, a) the left side is 1 and the right side is a.
  Brute force over all 5^5 self-maps leaves exactly (d d d 1 d).
* The old value contradicts criterion 7: the theorem suite's
  ``sym2-atom-valued`` entry rejects every regular type II symmetric map
  other than the identity, so criteria 1 and 7 could never both pass.

The test checks both halves itself: the diagonal instance and the oracle.
"""

import json
import time

from click.testing import CliRunner

from pbci import classify, collect_violations, validate
from pbci.derivations import (
    DerivationClass as C,
    brute_force_derivations,
    compose,
    enumerate_derivations,
    identity_map,
    map_properties,
    phi_map,
    satisfies,
)
from pbci.dsystems import (
    as_deductive_system,
    bck_part_system,
    enumerate_ds,
    is_invariant,
    quotient,
)
from pbci.cli import main
from pbci.core import atoms, bck_part
from pbci.search import SearchQuery, brute_force_search, search
from pbci.theorems import theorem_suite

from conftest import FIXTURE_DIR, FIXTURE_NAMES, m


def _emit(num: int, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}"
    if detail:
        line += f": {detail}"
    print(line)


def test_criterion_01_golden_enumeration(proper5):
    t0 = time.perf_counter()
    idop1 = enumerate_derivations(proper5, C.IMPLICATIVE_I)
    idop2 = enumerate_derivations(proper5, C.IMPLICATIVE_II)
    sdop1 = enumerate_derivations(proper5, C.SYMMETRIC_I)
    sdop2 = enumerate_derivations(proper5, C.SYMMETRIC_II)
    ridop2 = enumerate_derivations(proper5, C.IMPLICATIVE_II, regular=True)
    elapsed = time.perf_counter() - t0

    d1 = m(proper5, "a b c d 1")
    d2 = m(proper5, "d d d 1 d")
    d3 = m(proper5, "1 1 1 d 1")
    clauses = {
        "IDOP-I": set(idop1) == {d1, d2, d3},
        "IDOP-II": set(idop2) == {d1, d2, d3},
        "SDOP-I": set(sdop1) == {d2, d3},
        "SDOP-II": set(sdop2) == {d2},
        "RIDOP-II": set(ridop2) == {d1, d3},
        "runtime<1s": elapsed < 1.0,
    }
    failing = [k for k, ok in clauses.items() if not ok]
    _emit(1, not failing, f"failing clauses: {failing}" if failing else "")
    assert clauses["IDOP-I"] and clauses["IDOP-II"]
    assert clauses["SDOP-I"] and clauses["RIDOP-II"]
    assert clauses["runtime<1s"], f"took {elapsed:.2f}s"
    assert clauses["SDOP-II"], f"SDOP-II computed {sorted(sdop2)}"

    # Why (d d d 1 d) and not the once-recorded (1 1 1 d 1): the latter
    # breaks the arrow identity at (a, a), where d(a -> a) = d(1) = 1 but
    # (da -> a) \/2 (da -> a) = (1 -> a) \/2 (1 -> a) = a.
    arrow, squig = proper5.arrow, proper5.squig
    a = proper5.index_of("a")
    u = arrow[d3[a]][a]
    lhs, rhs = d3[arrow[a][a]], arrow[squig[u][u]][u]
    assert (lhs, rhs) == (proper5.unit, a)
    assert not satisfies(proper5, d3, C.SYMMETRIC_II)
    assert brute_force_derivations(proper5, C.SYMMETRIC_II) == [d2]


def test_criterion_02_golden_structure(proper5):
    d1 = m(proper5, "a b c d 1")
    d2 = m(proper5, "d d d 1 d")
    d3 = m(proper5, "1 1 1 d 1")
    ok = True

    ok &= proper5.name_set(atoms(proper5)) == ("d", "1")
    ok &= proper5.name_set(bck_part(proper5)) == ("a", "b", "c", "1")
    systems = enumerate_ds(proper5)
    ok &= [proper5.name_set(ds.members) for ds in systems] == [
        ("1",), ("c", "1"), ("a", "b", "c", "1"), ("a", "b", "c", "d", "1")]
    ok &= phi_map(proper5) == d3
    p1, p2, p3 = (map_properties(proper5, d) for d in (d1, d2, d3))
    ok &= p3.kernel == bck_part(proper5)
    ok &= not p2.regular
    ok &= p1.isotone and p2.isotone and p3.isotone
    ok &= p1.idempotent and p3.idempotent and not p2.idempotent
    c_system = systems[1]
    ok &= not is_invariant(proper5, c_system, d2)
    ok &= is_invariant(proper5, c_system, d1)
    ok &= is_invariant(proper5, c_system, d3)
    ok &= compose(d1, d2) == d2 == compose(d2, d1)
    ok &= compose(d1, d3) == d3 == compose(d3, d1)
    ok &= compose(d2, d3) == d2 == compose(d3, d2)

    _emit(2, ok)
    assert ok


def test_criterion_03_golden_p_semisimple(group6):
    t0 = time.perf_counter()
    report = classify(group6)
    ridop2 = enumerate_derivations(group6, C.IMPLICATIVE_II, regular=True)
    idop2 = enumerate_derivations(group6, C.IMPLICATIVE_II)
    sdop2 = enumerate_derivations(group6, C.SYMMETRIC_II)
    oracle_idop2 = brute_force_derivations(group6, C.IMPLICATIVE_II)
    oracle_sdop2 = brute_force_derivations(group6, C.SYMMETRIC_II)
    oracle_ridop2 = [d for d in oracle_idop2 if d[group6.unit] == group6.unit]
    elapsed = time.perf_counter() - t0

    ok = report.is_p_semisimple
    ok &= all(holds for _, holds in report.p_semisimple_crosscheck)
    ok &= len(report.p_semisimple_crosscheck) == 9
    ok &= ridop2 == [identity_map(group6)]
    ok &= atoms(group6) == frozenset(group6.elements())
    ok &= bck_part(group6) == frozenset({group6.unit})
    ok &= set(sdop2) == set(idop2)
    ok &= oracle_idop2 == idop2 and oracle_sdop2 == sdop2
    ok &= oracle_ridop2 == ridop2
    timely = elapsed < 5.0
    _emit(3, ok and timely, f"{elapsed:.2f}s including 6^6-map oracle")
    assert ok
    assert timely, f"took {elapsed:.2f}s"


def test_criterion_04_golden_symmetric(mixed6):
    d1 = m(mixed6, "a b x y g 1")
    d2 = m(mixed6, "g g 1 1 1 g")
    d3 = m(mixed6, "1 1 g g g 1")
    ok = set(enumerate_derivations(mixed6, C.SYMMETRIC_I)) == {d2, d3}
    ok &= enumerate_derivations(mixed6, C.SYMMETRIC_II) == []
    ok &= set(enumerate_derivations(mixed6, C.IMPLICATIVE_I)) == {d1, d2, d3}
    ok &= set(enumerate_derivations(mixed6, C.IMPLICATIVE_II)) == {d1, d2, d3}
    ok &= phi_map(mixed6) == d3
    _emit(4, ok)
    assert ok


def test_criterion_05_golden_bci(cyclic3):
    d1 = m(cyclic3, "a b 1")
    d2 = m(cyclic3, "b 1 a")
    d3 = m(cyclic3, "1 a b")
    rotations = {d1, d2, d3}
    ok = set(enumerate_derivations(cyclic3, C.SYMMETRIC_I)) == rotations
    ok &= set(enumerate_derivations(cyclic3, C.IMPLICATIVE_I)) == rotations
    ok &= enumerate_derivations(cyclic3, C.SYMMETRIC_II) == [d1]
    ok &= enumerate_derivations(cyclic3, C.IMPLICATIVE_II) == [d1]
    _emit(5, ok)
    assert ok


def test_criterion_06_golden_pseudo_bck(bck5):
    d1 = m(bck5, "0 a b c 1")
    d2 = m(bck5, "0 a b 1 1")
    d3 = m(bck5, "0 1 1 c 1")
    d4 = m(bck5, "0 1 1 1 1")
    d5 = m(bck5, "1 1 1 c 1")
    d6 = m(bck5, "1 1 1 1 1")
    four = {d1, d2, d5, d6}
    ok = set(enumerate_derivations(bck5, C.IMPLICATIVE_I)) == four
    ok &= set(enumerate_derivations(bck5, C.IMPLICATIVE_II)) == four
    ok &= set(enumerate_derivations(bck5, C.IMPLICATIVE_IV)) == four
    ok &= set(enumerate_derivations(bck5, C.IMPLICATIVE_III)) == {
        d1, d2, d3, d4, d5, d6}
    _emit(6, ok)
    assert ok


def test_criterion_07_theorem_suite(all_fixtures):
    failures = []
    for name, algebra in all_fixtures.items():
        for result in theorem_suite(algebra).failures():
            failures.append((name, result.tid, result.witness))
    for n in (1, 2, 3, 4):
        for spec in search(SearchQuery(size=n)):
            algebra = validate(spec)
            for result in theorem_suite(algebra).failures():
                failures.append((f"search-{n}", result.tid, result.witness))
    _emit(7, not failures, f"{len(failures)} failure(s)" if failures else
          "5 fixtures + all sizes 1-4")
    assert failures == []


def test_criterion_08_oracle_equivalence(all_fixtures):
    ok = True
    for name, algebra in all_fixtures.items():
        if algebra.size > 5:
            continue
        for cls in C:
            fast = enumerate_derivations(algebra, cls, force=True)
            slow = brute_force_derivations(algebra, cls, force=True)
            ok &= fast == slow
    for n in (1, 2, 3):
        got = []
        for spec in search(SearchQuery(size=n)):
            pos = {nm: i for i, nm in enumerate(spec.names)}
            got.append((
                tuple(tuple(pos[v] for v in row) for row in spec.arrow),
                tuple(tuple(pos[v] for v in row) for row in spec.squig)))
        ok &= got == brute_force_search(n)
    _emit(8, ok)
    assert ok


def test_criterion_09_quotient(proper5):
    t0 = time.perf_counter()
    Q = quotient(proper5, bck_part_system(proper5))
    small_ok = (
        Q.size == 2
        and collect_violations(Q.to_spec()) == []
        and classify(Q).is_p_semisimple
        and enumerate_derivations(Q, C.IMPLICATIVE_II, regular=True)
        == [identity_map(Q)])
    trivial = as_deductive_system(proper5, {proper5.unit})
    Q1 = quotient(proper5, trivial)
    iso_ok = (Q1.arrow == proper5.arrow and Q1.squig == proper5.squig
              and Q1.unit == proper5.unit)
    elapsed = time.perf_counter() - t0
    ok = small_ok and iso_ok and elapsed < 1.0
    _emit(9, ok, f"{elapsed:.3f}s")
    assert small_ok and iso_ok
    assert elapsed < 1.0


def test_criterion_10_determinism():
    runner = CliRunner()
    ok = True
    for name in FIXTURE_NAMES:
        args = ["analyze", str(FIXTURE_DIR / f"{name}.pbci"), "--json"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        ok &= first.exit_code == 0 and first.output == second.output
        payload = json.loads(first.output)
        ok &= payload["algebra"]["names"] == list(payload["summary"]["elements"])
    _emit(10, ok, "byte-identical analyze --json on all fixtures")
    assert ok
