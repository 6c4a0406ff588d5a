import random
from pathlib import Path

import pytest

from pbci import AlgebraSpec, parse_algebra, parse_selfmap, validate
from pbci.search import SearchQuery, search

FIXTURE_DIR = Path(__file__).parent / "fixtures"
FIXTURE_NAMES = ("proper5", "group6", "mixed6", "cyclic3", "bck5")


def fixture_text(name: str) -> str:
    return (FIXTURE_DIR / f"{name}.pbci").read_text(encoding="utf-8")


def load_algebra(name: str):
    return validate(parse_algebra(fixture_text(name)))


def m(algebra, text):
    """Shorthand: parse a self-map given as an image row."""
    return parse_selfmap(text, algebra)


@pytest.fixture(scope="session")
def proper5():
    return load_algebra("proper5")


@pytest.fixture(scope="session")
def group6():
    return load_algebra("group6")


@pytest.fixture(scope="session")
def mixed6():
    return load_algebra("mixed6")


@pytest.fixture(scope="session")
def cyclic3():
    return load_algebra("cyclic3")


@pytest.fixture(scope="session")
def bck5():
    return load_algebra("bck5")


@pytest.fixture(scope="session")
def all_fixtures(proper5, group6, mixed6, cyclic3, bck5):
    return {
        "proper5": proper5,
        "group6": group6,
        "mixed6": mixed6,
        "cyclic3": cyclic3,
        "bck5": bck5,
    }


@pytest.fixture(scope="session")
def small_pool(all_fixtures):
    """Every algebra of size <= 4 plus the five table fixtures."""
    pool = list(all_fixtures.values())
    for n in (1, 2, 3, 4):
        pool.extend(validate(spec) for spec in search(SearchQuery(size=n)))
    return pool


def product(A, B):
    """Direct product A x B, elements named "x.y" in row-major order."""
    pairs = [(x, y) for x in A.elements() for y in B.elements()]
    names = tuple(f"{A.names[x]}.{B.names[y]}" for x, y in pairs)

    def table(ta, tb):
        return tuple(tuple(f"{A.names[ta[x1][x2]]}.{B.names[tb[y1][y2]]}"
                           for x2, y2 in pairs) for x1, y1 in pairs)

    return validate(AlgebraSpec(
        names=names, unit=f"{A.names[A.unit]}.{B.names[B.unit]}",
        arrow=table(A.arrow, B.arrow), squig=table(A.squig, B.squig)),
        max_size=len(names))


def flat(n):
    """The flat pseudo-BCK algebra F_n: n - 1 pairwise incomparable elements
    a0, a1, ... under the unit 1, with x -> y = x ~> y = y for x != y."""
    names = tuple(f"a{i}" for i in range(n - 1)) + ("1",)
    table = tuple(tuple("1" if y in (x, "1") else y for y in names)
                  for x in names)
    return validate(AlgebraSpec(names=names, unit="1", arrow=table, squig=table))


@pytest.fixture(scope="session")
def flat5():
    return flat(5)


@pytest.fixture(scope="session")
def flat6():
    return flat(6)


def permuted(A, order):
    """A declared in the order names[order[0]], names[order[1]], ..."""
    spec = A.to_spec()
    return validate(AlgebraSpec(
        names=tuple(spec.names[i] for i in order), unit=spec.unit,
        arrow=tuple(tuple(spec.arrow[i][j] for j in order) for i in order),
        squig=tuple(tuple(spec.squig[i][j] for j in order) for i in order)),
        max_size=A.size)


def seeded_orders(n):
    """Three seeded declaration orders of range(n)."""
    for seed in (1, 2, 3):
        order = list(range(n))
        random.Random(seed).shuffle(order)
        yield order


PRODUCT_LABELS = ("cyclic3^2", "chain2*bck5", "proper5*cyclic3", "bck5*cyclic3")

CHAIN2 = """pbci 1
elements: 0 1
unit: 1
arrow:
1 1
0 1
squig: same
"""


def make_products():
    """The PRODUCT_LABELS algebras, n = 9 to 15."""
    cyclic3, bck5, proper5 = (load_algebra(name)
                              for name in ("cyclic3", "bck5", "proper5"))
    chain2 = validate(parse_algebra(CHAIN2))
    return {
        "cyclic3^2": product(cyclic3, cyclic3),
        "chain2*bck5": product(chain2, bck5),
        "proper5*cyclic3": product(proper5, cyclic3),
        "bck5*cyclic3": product(bck5, cyclic3),
    }


@pytest.fixture(scope="session")
def products():
    return make_products()


LARGE_PRODUCT_LABELS = ("bck5^2", "cyclic3^3", "mixed6*proper5", "group6^2")


def make_large_products():
    """The LARGE_PRODUCT_LABELS algebras, n = 25 to 36; cyclic3^3 is the
    only medial one."""
    bck5, cyclic3, mixed6, proper5, group6 = (
        load_algebra(name)
        for name in ("bck5", "cyclic3", "mixed6", "proper5", "group6"))
    return {
        "bck5^2": product(bck5, bck5),
        "cyclic3^3": product(product(cyclic3, cyclic3), cyclic3),
        "mixed6*proper5": product(mixed6, proper5),
        "group6^2": product(group6, group6),
    }


@pytest.fixture(scope="session")
def large_products():
    return make_large_products()
