import functools
import hashlib
import importlib
import itertools

import pytest

from pbci import (InternalInconsistencyError, SearchCapExceeded, classify,
                  validate)
from pbci.search import (
    PREDICATE_NAMES,
    SearchQuery,
    brute_force_search,
    element_names,
    is_lex_least_rep,
    search,
    _canonical_tables,
    _dfs,
    _flat_key,
    _images,
    _plain_orbit,
    _transport,
    _transports,
    _unflatten,
    _unit_fixing_perms,
)

# the package exports the function ``search`` under the module's name
search_module = importlib.import_module("pbci.search")


def index_tables(spec):
    pos = {name: i for i, name in enumerate(spec.names)}
    arrow = tuple(tuple(pos[v] for v in row) for row in spec.arrow)
    squig = tuple(tuple(pos[v] for v in row) for row in spec.squig)
    return arrow, squig


def canonical_models(n):
    return [_unflatten(flat, n) for flat in _canonical_tables(n)]


def orbit(arrow, squig):
    """Every unit-fixing transport of the pair."""
    return {(_transport(arrow, p), _transport(squig, p))
            for p in _unit_fixing_perms(len(arrow))}


def dfs_order_key(arrow, squig):
    """The canonical key, read here without the search: the unit column,
    then the other off-diagonal cells row by row, each cell as its arrow
    value and then its squig value."""
    unit = len(arrow) - 1
    cells = [(i, unit) for i in range(unit)]
    cells += [(i, j) for i in range(unit) for j in range(unit) if i != j]
    return tuple((arrow[i][j], squig[i][j]) for i, j in cells)


@functools.cache
def brute_force(n):
    return brute_force_search(n)


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
    # the search validates one member per class and emits the others as its
    # images under the translate tables; here every labelled result, up to
    # the 3,747 of size 5, passes the full validator, sanity suite included
    for n in (2, 3, 4, 5):
        labelled = search(SearchQuery(size=n))
        assert [validate(spec).to_spec() for spec in labelled] == labelled


@pytest.mark.parametrize("k", range(6))
def test_a_wrong_transport_table_is_caught(monkeypatch, k):
    # entry k relabels a and b the other way round: its images are no
    # transports, so some least key is no algebra, and the validator's
    # refusal is reported as a fault of the search, not of its input
    transports = list(search_module._transports(4))
    table, gather = transports[k]
    wrong = bytearray(table)
    wrong[0], wrong[1] = wrong[1], wrong[0]
    transports[k] = (bytes(wrong), gather)
    monkeypatch.setattr(search_module, "_transports", lambda n: tuple(transports))
    with pytest.raises(InternalInconsistencyError, match="fails validation"):
        search(SearchQuery(size=4, modulo_iso=True))


# flat keys of size 3 that the DFS must never yield, by what they break
BAD_KEYS = {
    # b -> 1 = a but b ~> 1 = 1
    "psBCI1": (2, 0, 0, 0, 2, 0, 0, 1, 2, 2, 0, 0, 0, 2, 2, 0, 1, 2),
    # a -> b = 3, no element: a translate table of _transports sends that
    # byte to a, so a least key read without the range check looks valid
    "entry 3 is not an element": (2, 3, 0, 0, 2, 2, 0, 1, 2,
                                  2, 0, 0, 0, 2, 2, 0, 1, 2),
}


@pytest.mark.parametrize("modulo_iso", [False, True], ids=["labelled", "modulo-iso"])
@pytest.mark.parametrize("fault", BAD_KEYS)
def test_a_bad_dfs_key_is_caught(monkeypatch, fault, modulo_iso):
    # the representative is checked on its index tables, after the range
    # check, so a faulty key is reported as a fault of the search
    monkeypatch.setattr(search_module, "_canonical_tables",
                        lambda n: iter([BAD_KEYS[fault]]))
    with pytest.raises(InternalInconsistencyError,
                       match=f"fails validation: .*{fault}"):
        search(SearchQuery(size=3, modulo_iso=modulo_iso))


def test_modulo_iso_keys_are_the_least_plain_transports():
    # the translate tables against the plain _transport, at a size where
    # every class has 24 transports
    keys = [_flat_key(*index_tables(spec))
            for spec in search(SearchQuery(size=5, modulo_iso=True))]
    assert keys == sorted(min(_flat_key(*image) for image in orbit(*model))
                          for model in canonical_models(5))


def test_translate_tables_give_the_plain_transports():
    # both output modes read the translate tables, and the plain _transport
    # defines the orbit.  Two probes tell every cell apart: in the first,
    # an arrow entry names its row and a squig entry its column, and in the
    # second the other way round, so a misplaced entry, a swapped table or
    # a wrong relabelling changes some image
    for n in range(1, 8):
        rows = tuple(tuple([x] * n) for x in range(n))
        cols = tuple(tuple(range(n)) for _ in range(n))
        probes = [(rows, cols), (cols, rows)]
        for perm, (table, gather) in zip(_unit_fixing_perms(n), _transports(n),
                                         strict=True):
            for arrow, squig in probes:
                image = gather(bytes(_flat_key(arrow, squig)).translate(table))
                assert image == _flat_key(_transport(arrow, perm),
                                          _transport(squig, perm)), (n, perm)
    # and each class's images are its orbit
    for n in (3, 4, 5):
        for flat in _canonical_tables(n):
            assert set(_images(flat, n)) == _plain_orbit(*_unflatten(flat, n))


def test_search_matches_brute_force_oracle():
    for n in (1, 2, 3):
        got = [index_tables(spec) for spec in search(SearchQuery(size=n))]
        assert got == brute_force(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_canonical_orbits_partition_brute_force(n):
    owner = {}
    for model in canonical_models(n):
        for member in orbit(*model):
            assert member not in owner, "two canonical models in one orbit"
            owner[member] = model
    assert sorted(owner) == brute_force(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_canonical_model_is_least_of_its_transports(n):
    for arrow, squig in canonical_models(n):
        own = dfs_order_key(arrow, squig)
        assert all(own <= dfs_order_key(*image) for image in orbit(arrow, squig))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_no_two_canonical_models_isomorphic(n):
    orbits = [orbit(*model) for model in canonical_models(n)]
    assert len(set().union(*orbits)) == sum(map(len, orbits))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_modulo_iso_keeps_the_lex_least_representatives(n):
    labelled = search(SearchQuery(size=n))
    assert search(SearchQuery(size=n, modulo_iso=True)) == [
        spec for spec in labelled if is_lex_least_rep(*index_tables(spec))]


def test_classification_is_constant_on_each_orbit():
    reports = {index_tables(spec): classify(validate(spec))
               for spec in search(SearchQuery(size=4))}
    assert len(reports) == 119
    for model, report in reports.items():
        assert all(reports[image] == report for image in orbit(*model))


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("name", PREDICATE_NAMES)
@pytest.mark.parametrize("n", [3, 4])
def test_predicate_filters_like_classify_on_each_model(n, name, value):
    def kept(specs):
        return [spec for spec in specs
                if getattr(classify(validate(spec)), "is_" + name) == value]

    predicates = ((name, value),)
    assert search(SearchQuery(size=n, predicates=predicates)) == kept(
        search(SearchQuery(size=n)))
    assert search(SearchQuery(size=n, predicates=predicates,
                              modulo_iso=True)) == kept(
        search(SearchQuery(size=n, modulo_iso=True)))


@pytest.mark.parametrize("n, labelled, classes",
                         [(3, 8, 5), (4, 119, 25), (5, 3747, 181)])
def test_model_counts(n, labelled, classes):
    assert len(search(SearchQuery(size=n))) == labelled
    assert len(search(SearchQuery(size=n, modulo_iso=True))) == classes


def test_dfs_evaluates_instances_only_where_they_wait():
    # an instance is evaluated at the step of its last outer cell and then
    # only at the step of each inner cell it waits on; putting it in a later
    # bucket, or keeping the moves of a finished branch, changes no output
    # but shows here.  The counts cover only the branches that the
    # symmetry check and the law (8) instances leave, so a weaker check
    # shows here as well, in the evaluations and in the inner nodes.
    for n, nodes, evaluations in [(3, 16, 269), (4, 219, 5_594),
                                  (5, 4_940, 199_717)]:
        run = _dfs(n)
        assert (run.nodes, run.evaluations) == (nodes, evaluations), n


def test_dfs_visiting_order_is_pinned():
    # the raw size-5 keys in DFS order, unsorted: a change in the order in
    # which the DFS meets the classes, or in the member it keeps of each,
    # shows here although the sorted output hides it.  The order-first
    # search of ROADMAP item 2 meets the classes in another order and
    # re-pins this digest on purpose.
    keys = _canonical_tables(5)
    assert len(keys) == 181
    assert hashlib.sha256(b"".join(map(bytes, keys))).hexdigest() == (
        "3a4ede4f0ba928c5143043e6d5ef92f4fe148ecafa5298b6cb012ac52c840765")


def product_tables(first, second):
    """Index tables of the direct product of two (arrow, squig) pairs, with
    (x, y) numbered x * m + y for m elements in the second factor, so that
    the unit (1, 1) comes last."""
    m = len(second[0])
    pairs = list(itertools.product(range(len(first[0])), range(m)))
    return tuple(
        tuple(tuple(f[x1][x2] * m + s[y1][y2] for x2, y2 in pairs)
              for x1, y1 in pairs)
        for f, s in zip(first, second))


def test_modulo_iso_size4_holds_every_product_of_size2_models():
    # a product of pseudo-BCI algebras is one, built here from the oracle's
    # models without the DFS, so it checks the pruning for lost models
    reps = {index_tables(spec)
            for spec in search(SearchQuery(size=4, modulo_iso=True))}
    for first, second in itertools.product(brute_force(2), repeat=2):
        model = product_tables(first, second)
        assert any(image in reps for image in orbit(*model))


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
    seen = set()
    for model in reps:
        members = frozenset(orbit(*model))
        assert members not in seen
        seen.add(members)
    # and the representatives cover every labeled algebra
    labeled = [index_tables(spec) for spec in search(SearchQuery(size=3))]
    assert set(labeled) <= set().union(*seen)


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
    with pytest.raises(ValueError, match="limit must be >= 0"):
        SearchQuery(size=3, limit=-1).check()


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
