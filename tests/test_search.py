import pytest

from pbci import SearchCapExceeded, collect_violations, validate
from pbci.search import (
    SearchQuery,
    brute_force_search,
    element_names,
    is_lex_least_rep,
    search,
    _flat_key,
    _transport,
    _unit_fixing_perms,
)


def index_tables(spec):
    pos = {name: i for i, name in enumerate(spec.names)}
    arrow = tuple(tuple(pos[v] for v in row) for row in spec.arrow)
    squig = tuple(tuple(pos[v] for v in row) for row in spec.squig)
    return arrow, squig


def test_size_one_unique():
    results = search(SearchQuery(size=1))
    assert len(results) == 1
    assert results[0].arrow == (("1",),)


def test_size_two_models():
    results = search(SearchQuery(size=2, modulo_iso=True))
    assert len(results) == 2
    arrows = {spec.arrow for spec in results}
    # the two-element group (a -> 1 = a) and the two-chain (a -> 1 = 1)
    assert (("1", "a"), ("a", "1")) in arrows
    assert (("1", "1"), ("a", "1")) in arrows
    assert search(SearchQuery(size=2)) == results  # no collapses at size 2


def test_every_result_validates():
    for n in (2, 3, 4):
        for spec in search(SearchQuery(size=n)):
            assert collect_violations(spec) == []


def test_search_matches_brute_force_oracle():
    for n in (1, 2, 3):
        got = [index_tables(spec) for spec in search(SearchQuery(size=n))]
        assert got == brute_force_search(n)


def test_output_sorted_by_flattened_pair():
    specs = search(SearchQuery(size=3))
    keys = [_flat_key(*index_tables(spec)) for spec in specs]
    assert keys == sorted(keys)


def test_limit_is_a_prefix():
    full = search(SearchQuery(size=3))
    assert search(SearchQuery(size=3, limit=2)) == full[:2]
    assert search(SearchQuery(size=3, limit=0)) == []


def test_modulo_iso_no_two_isomorphic():
    reps = [index_tables(spec) for spec in
            search(SearchQuery(size=3, modulo_iso=True))]
    assert all(is_lex_least_rep(a, s) for a, s in reps)
    n = 3
    seen = set()
    for arrow, squig in reps:
        orbit = frozenset(
            (_transport(arrow, p), _transport(squig, p))
            for p in _unit_fixing_perms(n))
        assert orbit not in seen
        seen.add(orbit)
    # and the representatives cover every labeled algebra
    labeled = [index_tables(spec) for spec in search(SearchQuery(size=3))]
    covered = set()
    for orbit in seen:
        covered |= orbit
    assert set(labeled) <= covered


def test_p_semisimple_size3_is_the_cyclic_group(cyclic3):
    results = search(SearchQuery(size=3, predicates=(("p_semisimple", True),),
                                 modulo_iso=True))
    assert len(results) == 1
    arrow, squig = index_tables(results[0])
    target = (cyclic3.arrow, cyclic3.squig)
    perms = [p for p in _unit_fixing_perms(3)
             if (_transport(arrow, p), _transport(squig, p)) == target]
    assert perms  # matches the golden table up to a unit-fixing permutation


def test_predicates():
    bci = search(SearchQuery(size=3, predicates=(("bci", True),)))
    assert bci and all(spec.arrow == spec.squig for spec in bci)
    non_bck = search(SearchQuery(size=3, predicates=(("pseudo_bck", False),)))
    for spec in non_bck:
        algebra = validate(spec)
        assert not all(algebra.le(x, algebra.unit) for x in algebra.elements())
    with pytest.raises(ValueError):
        SearchQuery(size=3, predicates=(("shiny", True),)).check()


def test_search_cap(monkeypatch):
    with pytest.raises(SearchCapExceeded):
        search(SearchQuery(size=7))
    monkeypatch.setenv("PBCI_MAX_SIZE", "2")
    with pytest.raises(SearchCapExceeded):
        search(SearchQuery(size=3))
    monkeypatch.setenv("PBCI_MAX_SIZE", "3")
    assert search(SearchQuery(size=3))


def test_element_names():
    assert element_names(1) == ("1",)
    assert element_names(3) == ("a", "b", "1")
    assert element_names(30)[-1] == "1"
    assert len(set(element_names(30))) == 30
