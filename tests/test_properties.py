"""Law checks: exhaustive over the small pool, hypothesis-driven where the
input space is genuinely open (renamings, permutations)."""

from hypothesis import given, settings, strategies as st

from pbci import (
    AlgebraSpec,
    atoms,
    bck_part,
    classify,
    parse_algebra,
    serialize_spec,
    validate,
)
from pbci.derivations import (
    DerivationClass as C,
    brute_force_derivations,
    enumerate_derivations,
    identity_map,
    phi_map,
    satisfies,
)
from pbci.search import SearchQuery, search

from conftest import FIXTURE_NAMES, load_algebra

SMALL = [load_algebra(name) for name in FIXTURE_NAMES]
for _n in (1, 2, 3):
    SMALL.extend(validate(spec) for spec in search(SearchQuery(size=_n)))


def test_join_laws():
    for A in SMALL:
        u = A.unit
        psemi = classify(A).is_p_semisimple
        for x in A.elements():
            assert A.cup1(u, x) == u and A.cup2(u, x) == u
            assert A.cup1(x, x) == x and A.cup2(x, x) == x
            if psemi:
                assert A.cup1(x, u) == x and A.cup2(x, u) == x
            for y in A.elements():
                assert A.le(x, y) == (A.cup1(x, y) == y) == (A.cup2(x, y) == y)
                assert A.le(x, A.cup1(x, y)) and A.le(x, A.cup2(x, y))
                assert A.arrow[A.cup1(x, y)][y] == A.arrow[x][y]
                assert A.squig[A.cup2(x, y)][y] == A.squig[x][y]
                for x2 in A.elements():
                    if A.le(x, x2):
                        assert A.le(A.cup1(x, y), A.cup1(x2, y))
                        assert A.le(A.cup2(x, y), A.cup2(x2, y))


def test_phi_laws():
    for A in SMALL:
        ats = atoms(A)
        part = bck_part(A)
        for x in A.elements():
            p = A.phi(x)
            # the two join forms of phi agree on valid algebras
            assert p == A.cup1(x, A.unit) == A.cup2(x, A.unit)
            assert p in ats
            assert A.arrow[p][x] in part and A.squig[p][x] in part
            if x in part:
                assert p == A.unit


def test_atom_implication_closure():
    for A in SMALL:
        ats = atoms(A)
        for a in ats:
            for x in A.elements():
                assert A.arrow[x][a] in ats and A.squig[x][a] in ats


def test_crosschecks_never_fire_on_valid_algebras():
    for A in SMALL:
        atoms(A)
        classify(A)


def test_phi_map_memberships():
    for A in SMALL:
        phi = phi_map(A)   # asserts implicative-I and symmetric-I internally
        if classify(A).is_p_semisimple:
            assert phi == identity_map(A)
        if classify(A).is_commutative:
            assert satisfies(A, phi, C.IMPLICATIVE_II)


def test_enumerator_equals_oracle_on_small_pool():
    for A in SMALL:
        if A.size > 3:
            continue
        for cls in C:
            assert (enumerate_derivations(A, cls, force=True)
                    == brute_force_derivations(A, cls, force=True))


def _rename(spec: AlgebraSpec, names: tuple[str, ...]) -> AlgebraSpec:
    table = dict(zip(spec.names, names))
    return AlgebraSpec(
        names=names,
        unit=table[spec.unit],
        arrow=tuple(tuple(table[v] for v in row) for row in spec.arrow),
        squig=tuple(tuple(table[v] for v in row) for row in spec.squig),
    )


_name = st.from_regex(r"[A-Za-z0-9_.]{1,6}", fullmatch=True)


@st.composite
def renamed_specs(draw):
    algebra = draw(st.sampled_from(SMALL))
    n = algebra.size
    names = draw(st.lists(_name, min_size=n, max_size=n, unique=True))
    return _rename(algebra.to_spec(), tuple(names))


@given(renamed_specs())
@settings(max_examples=60, deadline=None)
def test_round_trip_serialize_parse(spec):
    assert parse_algebra(serialize_spec(spec)) == spec
    validate(spec)


@st.composite
def permuted_pairs(draw):
    algebra = draw(st.sampled_from(SMALL))
    n = algebra.size
    others = [i for i in range(n) if i != algebra.unit]
    image = draw(st.permutations(others))
    perm = [0] * n
    perm[algebra.unit] = algebra.unit
    for src, dst in zip(others, image):
        perm[src] = dst
    return algebra, tuple(perm)


@given(permuted_pairs())
@settings(max_examples=60, deadline=None)
def test_classification_is_isomorphism_invariant(pair):
    algebra, perm = pair
    n = algebra.size
    names = algebra.names

    def transport(table):
        out = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                out[perm[x]][perm[y]] = perm[table[x][y]]
        return tuple(tuple(names[v] for v in row) for row in out)

    spec = AlgebraSpec(names=names, unit=names[algebra.unit],
                       arrow=transport(algebra.arrow),
                       squig=transport(algebra.squig))
    other = validate(spec)
    assert classify(other) == classify(algebra)
    assert len(atoms(other)) == len(atoms(algebra))
    assert frozenset(perm[x] for x in bck_part(algebra)) == bck_part(other)


@given(permuted_pairs())
@settings(max_examples=40, deadline=None)
def test_derivation_counts_are_isomorphism_invariant(pair):
    algebra, perm = pair
    n = algebra.size
    names = algebra.names

    def transport(table):
        out = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                out[perm[x]][perm[y]] = perm[table[x][y]]
        return tuple(tuple(names[v] for v in row) for row in out)

    other = validate(AlgebraSpec(
        names=names, unit=names[algebra.unit],
        arrow=transport(algebra.arrow), squig=transport(algebra.squig)))
    inv = [0] * n
    for src, dst in enumerate(perm):
        inv[dst] = src
    for cls in (C.IMPLICATIVE_I, C.IMPLICATIVE_II, C.SYMMETRIC_I, C.SYMMETRIC_II):
        ours = enumerate_derivations(algebra, cls)
        theirs = enumerate_derivations(other, cls)
        # transport each map d to perm . d . perm^-1 and compare whole sets
        expected = sorted(tuple(perm[d[inv[x]]] for x in range(n)) for d in ours)
        assert expected == theirs


def test_unit_need_not_be_declared_last(proper5):
    text = (
        "pbci 1\n"
        "elements: 1 a b c d\n"
        "unit: 1\n"
        "arrow:\n"
        "1 a b c d\n"
        "1 1 1 1 d\n"
        "1 b 1 1 d\n"
        "1 b b 1 d\n"
        "d d d d 1\n"
        "squig:\n"
        "1 a b c d\n"
        "1 1 1 1 d\n"
        "1 c 1 1 d\n"
        "1 a b 1 d\n"
        "d d d d 1\n")
    moved = validate(parse_algebra(text))
    assert moved.unit == 0
    assert moved.name_set(atoms(moved)) == ("1", "d")
    assert classify(moved) == classify(proper5)
    for cls in (C.IMPLICATIVE_I, C.SYMMETRIC_II):
        assert (len(enumerate_derivations(moved, cls))
                == len(enumerate_derivations(proper5, cls)))
    regular = enumerate_derivations(moved, C.IMPLICATIVE_II, regular=True)
    assert all(d[moved.unit] == moved.unit for d in regular)
    assert len(regular) == 2


@given(st.sampled_from(SMALL), st.data())
@settings(max_examples=80, deadline=None)
def test_order_is_a_partial_order(algebra, data):
    n = algebra.size
    x = data.draw(st.integers(0, n - 1))
    y = data.draw(st.integers(0, n - 1))
    z = data.draw(st.integers(0, n - 1))
    assert algebra.le(x, x)
    if algebra.le(x, y) and algebra.le(y, x):
        assert x == y
    if algebra.le(x, y) and algebra.le(y, z):
        assert algebra.le(x, z)


@given(st.sampled_from(SMALL), st.data())
@settings(max_examples=80, deadline=None)
def test_composition_preserves_two_sided_membership_on_psemisimple(algebra, data):
    if not classify(algebra).is_p_semisimple:
        return
    idop = sorted(set(enumerate_derivations(algebra, C.IMPLICATIVE_I))
                  & set(enumerate_derivations(algebra, C.IMPLICATIVE_II)))
    d1 = data.draw(st.sampled_from(idop))
    d2 = data.draw(st.sampled_from(idop))
    composed = tuple(d1[v] for v in d2)
    assert satisfies(algebra, composed, C.IMPLICATIVE_I)
    assert satisfies(algebra, composed, C.IMPLICATIVE_II)
