"""Derivation operators: membership tests, enumeration, and map analysis.

A self-map is a plain tuple ``d`` with ``d[i]`` the image of element ``i``.
Each derivation class is a pair of defining identities, one per implication
table, written once as a row of the ``DerivationClass`` table, which also
holds the class's kind, type and scope; the translation route is one more
such row, ``_TRANSLATION``.  Both identities, instantiated at a pair (x, y),
read the same two images and fix d(x -> y) and d(x ~> y) from them, so each
pair compiles to one row holding both instances.  ``satisfies`` checks every
row; ``enumerate_derivations`` and ``regular_translation_maps`` share one
propagating solver, ``_solve``, which runs the rows in the order of the
algebra's propagation schedule (``derivation_schedule`` for the six
classes, ``translation_schedule`` for the translation route, each built
once per algebra), assigning or checking the targets of each row as the
schedule says and rejecting a branch on a clash.  ``brute_force_derivations``
is the independent oracle: a plain filter over all n^n maps.  ``phi_map`` is
the one builder of phi and returns the bare map.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .core import PseudoBciAlgebra, Schedule, is_pseudo_bck, is_subalgebra
from .errors import TypeRequiresPseudoBckError
from .limits import check_cap

SelfMap = tuple[int, ...]
Rhs = tuple[int, tuple[str, str], tuple[str, str]]


class DerivationClass(Enum):
    r"""The six derivation-operator classes in report order, one row each:
    kind, type, the right side of the arrow identity d(x -> y) = s \/k t as
    (k, s, t) with each term a pair of operands of ->, and whether the class
    is defined only on pseudo-BCK algebras.  The squig identity reads the
    same row with ~> in place of -> and the other join: \/2 for \/1 and \/1
    for \/2.  Join order is kept exactly as defined, since the joins are not
    commutative in general."""

    IMPLICATIVE_I = ("implicative", "I", (2, ("x", "dy"), ("dx", "y")), False)
    IMPLICATIVE_II = ("implicative", "II", (2, ("dx", "y"), ("x", "dy")), False)
    IMPLICATIVE_III = ("implicative", "III", (1, ("x", "dy"), ("dx", "y")), True)
    IMPLICATIVE_IV = ("implicative", "IV", (1, ("dx", "y"), ("x", "dy")), True)
    SYMMETRIC_I = ("symmetric", "I", (2, ("x", "dy"), ("y", "dx")), False)
    SYMMETRIC_II = ("symmetric", "II", (2, ("dx", "y"), ("dy", "x")), False)

    def __init__(self, kind: str, dtype: str, rhs: Rhs, pseudo_bck_only: bool):
        self.kind = kind
        self.dtype = dtype
        self.rhs = rhs
        self.pseudo_bck_only = pseudo_bck_only

    def applies_to(self, A: PseudoBciAlgebra) -> bool:
        """Whether the class is defined on A: types III/IV need 1 to be the
        greatest element."""
        return not self.pseudo_bck_only or is_pseudo_bck(A)

    @classmethod
    def from_strings(cls, kind: str, dtype: str) -> "DerivationClass":
        kind, dtype = kind.lower(), dtype.upper()
        for member in cls:
            if member.kind == kind and member.dtype == dtype:
                return member
        raise ValueError(f"no derivation class with kind={kind!r}, type={dtype!r}")

    def __str__(self) -> str:
        return f"{self.kind}-{self.dtype}"


def identity_map(A: PseudoBciAlgebra) -> SelfMap:
    return tuple(range(A.size))


# d(x -> y) = x -> dy and d(x ~> y) = x ~> dy, as a row whose two terms are
# equal: u \/2 u = (u ~> u) -> u = 1 -> u = u, and likewise u \/1 u = u.
_TRANSLATION: Rhs = (2, ("x", "dy"), ("x", "dy"))

# One row per pair (x, y), holding both identities' instances there:
# (a, b, t, s, u, join, t2, s2, u2, join2, mode), read as
# d(t) = join[s[d(a)]][u[d(b)]] for the arrow identity and
# d(t2) = join2[s2[d(a)]][u2[d(b)]] for the squig identity.  a and b are the
# elements whose images the two terms read, the same for both identities;
# t = x -> y and t2 = x ~> y; s, u (s2, u2) are the row or column of -> (~>)
# that turns such an image into the term's value.  mode is the pair's mode
# in the algebra's schedule (bit 1: the solver assigns d(t), bit 2: d(t2));
# only the solver reads it, and ``_instances`` sets it to 0.
Instance = tuple[int, int, int, tuple[int, ...], tuple[int, ...],
                 tuple[tuple[int, ...], ...], int, tuple[int, ...],
                 tuple[int, ...], tuple[tuple[int, ...], ...], int]


def _term(left: str, right: str) -> tuple[int, bool, int]:
    """How the term left op right reads the map, as (v, is_column, w) with
    operands numbered x = 0, y = 1: the term is d(v) op w, column w of op
    at d(v), or w op d(v), row w of op at d(v)."""
    if left[0] == "d":
        return "xy".index(left[1]), True, "xy".index(right)
    return "xy".index(right[1]), False, "xy".index(left)


def _rows(A: PseudoBciAlgebra, rhs: Rhs,
          pairs: Iterable[tuple[int, int, int]]) -> list[Instance]:
    """Both identities of one right-hand side, instantiated at each
    (x, y, mode) of pairs as one row, in the order given, from the
    algebra's tables, their columns and its joins."""
    k, first, second = rhs
    (ra, col_s, at_s), (rb, col_u, at_u) = _term(*first), _term(*second)
    cup1, cup2 = A.joins
    join, join2 = (cup1, cup2) if k == 1 else (cup2, cup1)
    arrow, squig = A.arrow, A.squig
    ss, ss2 = A.columns if col_s else (arrow, squig)
    us, us2 = A.columns if col_u else (arrow, squig)
    return [(p[ra], p[rb], arrow[p[0]][p[1]], ss[p[at_s]], us[p[at_u]], join,
             squig[p[0]][p[1]], ss2[p[at_s]], us2[p[at_u]], join2, p[2])
            for p in pairs]


def _instances(A: PseudoBciAlgebra, rhs: Rhs) -> list[Instance]:
    """The rows of every pair, in pair order."""
    n = A.size
    return _rows(A, rhs, itertools.product(range(n), range(n), (0,)))


def _holds(d: SelfMap, instances: list[Instance]) -> bool:
    return all(d[t] == join[s[d[a]]][u[d[b]]]
               and d[t2] == join2[s2[d[a]]][u2[d[b]]]
               for a, b, t, s, u, join, t2, s2, u2, join2, _ in instances)


def _gate_class(A: PseudoBciAlgebra, cls: DerivationClass, force: bool) -> None:
    if not (force or cls.applies_to(A)):
        raise TypeRequiresPseudoBckError(
            f"{cls} is defined only on pseudo-BCK algebras; "
            "pass force=True to evaluate the identities anyway")


def _check_map(A: PseudoBciAlgebra, d: SelfMap) -> None:
    n = A.size
    if len(d) != n or any(not (0 <= v < n) for v in d):
        raise ValueError(f"self-map {d!r} is not total on a universe of size {n}")


def satisfies(A: PseudoBciAlgebra, d: SelfMap, cls: DerivationClass, *,
              force: bool = False) -> bool:
    """True iff both defining identities of the class hold for all pairs."""
    _check_map(A, d)
    _gate_class(A, cls, force)
    return _holds(d, _instances(A, cls.rhs))


def _solve(A: PseudoBciAlgebra, rhs: Rhs, schedule: Schedule,
           unit_domain: Iterable[int]) -> list[SelfMap]:
    """Every total map satisfying rhs at all pairs with d(1) in unit_domain,
    sorted lexicographically.

    Forward propagation, as in the SEM and Mace4 model finders, compiled
    ahead: the algebra's ``schedule`` (``core._schedule``) lists the levels
    of branching, d(1) first and then the lowest unknown element, each with
    the rows that fire once its branch element is known, in the order a
    propagation queue would reach them, and whether each row assigns or
    checks each of its two targets.  So the search sets d(e) = v at a level
    and runs the level's rows, assigning or comparing, and drops v on the
    first clash.  There is no trail to undo: every image a level writes is
    written again, before any row reads it, on the level's next try.
    """
    n = A.size
    levels = [(e, unit_domain if e == A.unit else range(n), _rows(A, rhs, pairs))
              for e, pairs in schedule]
    last = len(levels) - 1
    d = [0] * n
    found: list[SelfMap] = []

    def extend(k: int) -> None:
        e, domain, rows = levels[k]
        for v in domain:
            d[e] = v
            for a, b, t, s, u, join, t2, s2, u2, join2, mode in rows:
                da = d[a]
                db = d[b]
                w = join[s[da]][u[db]]
                if mode & 1:
                    d[t] = w
                elif d[t] != w:
                    break
                w = join2[s2[da]][u2[db]]
                if mode & 2:
                    d[t2] = w
                elif d[t2] != w:
                    break
            else:
                if k < last:
                    extend(k + 1)
                else:
                    found.append(tuple(d))

    extend(0)
    found.sort()
    return found


def enumerate_derivations(A: PseudoBciAlgebra, cls: DerivationClass, *,
                          regular: bool = False, force: bool = False) -> list[SelfMap]:
    """All self-maps in the class, sorted lexicographically by image tuple.

    With regular=True only maps fixing the unit are produced.  The result is
    a pure function of (algebra, class, filter); the search order is an
    internal detail and brute force over all n^n maps returns the same set
    (tested for small n).
    """
    _gate_class(A, cls, force)
    check_cap(A.size, "enumeration")
    return _solve(A, cls.rhs, A.derivation_schedule,
                  (A.unit,) if regular else range(A.size))


def brute_force_derivations(A: PseudoBciAlgebra, cls: DerivationClass, *,
                            regular: bool = False, force: bool = False) -> list[SelfMap]:
    """Oracle enumeration: filter every one of the n^n total maps.

    Exponential by construction; intended for cross-checking the pruned
    enumerator at small sizes.
    """
    _gate_class(A, cls, force)
    instances = _instances(A, cls.rhs)
    unit = A.unit
    return [d for d in itertools.product(range(A.size), repeat=A.size)
            if not (regular and d[unit] != unit) and _holds(d, instances)]


def regular_translation_maps(A: PseudoBciAlgebra) -> list[SelfMap]:
    """Maps with d(1)=1, d(x->y) = x->d(y) and d(x~>y) = x~>d(y) everywhere.

    This family characterizes the regular type II implicative derivations;
    enumerating it independently lets the theorem suite compare the two
    routes as whole sets.
    """
    check_cap(A.size, "enumeration")
    return _solve(A, _TRANSLATION, A.translation_schedule, (A.unit,))


# ---------------------------------------------------------------------------
# map algebra


def compose(d1: SelfMap, d2: SelfMap) -> SelfMap:
    """Function composition d1 after d2."""
    return tuple(d1[v] for v in d2)


def pointwise(A: PseudoBciAlgebra, op: str, d1: SelfMap, d2: SelfMap) -> SelfMap:
    """x |-> d1(x) op d2(x) for op 'arrow' or 'squig'."""
    _check_map(A, d1)
    _check_map(A, d2)
    if op == "arrow":
        table = A.arrow
    elif op == "squig":
        table = A.squig
    else:
        raise ValueError(f"op must be 'arrow' or 'squig', got {op!r}")
    return tuple(table[d1[x]][d2[x]] for x in A.elements())


@dataclass(frozen=True)
class MapPropertyRecord:
    """Exhaustively computed per-map facts."""

    regular: bool
    isotone: bool
    idempotent: bool
    kernel: frozenset[int]
    image: frozenset[int]
    kernel_is_subalgebra: bool
    kernel_in_bck_part: bool
    image_in_atoms: bool
    maps_bck_into_bck: bool
    maps_atoms_into_atoms: bool


def map_properties(A: PseudoBciAlgebra, d: SelfMap) -> MapPropertyRecord:
    """Compute every MapPropertyRecord field by direct exhaustive check."""
    _check_map(A, d)
    n = A.size
    unit = A.unit
    order = A.byte_tables.order
    part, ats = A.bck_part, A.atoms
    kernel = frozenset(x for x in range(n) if d[x] == unit)
    image = frozenset(d)
    row = bytes(d)
    return MapPropertyRecord(
        regular=d[unit] == unit,
        # bit 8y: x <= y must imply d(x) <= d(y), byte y of row d sent
        # through the order row of d(x)
        isotone=all(not int.from_bytes(up, "little")
                    & ~int.from_bytes(row.translate(order[v]), "little")
                    for up, v in zip(order, d)),
        idempotent=all(d[d[x]] == d[x] for x in range(n)),
        kernel=kernel,
        image=image,
        kernel_is_subalgebra=is_subalgebra(A, kernel),
        kernel_in_bck_part=kernel <= part,
        image_in_atoms=image <= ats,
        maps_bck_into_bck=all(d[x] in part for x in part),
        maps_atoms_into_atoms=all(d[a] in ats for a in ats),
    )


def phi_map(A: PseudoBciAlgebra) -> SelfMap:
    """The map x |-> (x -> 1) ~> 1.

    Always a type I implicative and a type I symmetric derivation, which
    the theorem entry phi-map-type1-both-kinds checks.  Whether it is also
    type II varies by algebra (guaranteed under commutativity) and can be
    queried with ``satisfies``.
    """
    return tuple(map(A.phi, A.elements()))


@dataclass(frozen=True)
class MonoidReport:
    """Composition structure of a finite set of self-maps.

    Associativity of function composition is unconditional, so all three
    flags true means the set is a commutative monoid under composition.
    """

    closed_under_composition: bool
    commutative: bool
    has_identity: bool
    composition_table: tuple[tuple[int | None, ...], ...]
    witnesses: tuple[str, ...]


def monoid_report(A: PseudoBciAlgebra, maps: list[SelfMap]) -> MonoidReport:
    """Build the full composition table over the given maps.

    Each unordered pair is tested for commutativity once, at its visit
    with i < j, so m maps take m² + m(m-1)/2 compositions."""
    if not maps:
        raise ValueError("maps must be non-empty")
    if len(set(maps)) != len(maps):
        raise ValueError("maps must be pairwise distinct")
    for d in maps:
        _check_map(A, d)
    index = {d: i for i, d in enumerate(maps)}
    witnesses: list[str] = []
    closed = True
    commutative = True
    table: list[tuple[int | None, ...]] = []
    for i, di in enumerate(maps):
        row: list[int | None] = []
        for j, dj in enumerate(maps):
            comp = compose(di, dj)
            cell = index.get(comp)
            if cell is None:
                closed = False
                witnesses.append(f"composition of maps {i} and {j} escapes the set")
            if i < j and comp != compose(dj, di):
                commutative = False
                witnesses.append(f"maps {i} and {j} do not commute")
            row.append(cell)
        table.append(tuple(row))
    return MonoidReport(
        closed_under_composition=closed,
        commutative=commutative,
        has_identity=identity_map(A) in index,
        composition_table=tuple(table),
        witnesses=tuple(witnesses),
    )
