"""Derivation operators: membership tests, enumeration, and map analysis.

A self-map is a plain tuple ``d`` with ``d[i]`` the image of element ``i``.
Each derivation class is a pair of defining identities, one per implication
table, written once as a row of the ``_RHS`` table.  Every identity
instance says that d(x op y) is fixed by x, y and the images its right side
reads.  ``satisfies`` checks every instance of both identities;
``enumerate_derivations`` and ``regular_translation_maps`` share one
propagating solver that assigns d(x op y) as soon as those images are known
and rejects a branch on a clash.  ``brute_force_derivations`` is the
independent oracle: a plain filter over all n^n maps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

from .core import PseudoBciAlgebra, atoms, bck_part, is_pseudo_bck, is_subalgebra
from .errors import InternalInconsistencyError, TypeRequiresPseudoBckError
from .limits import ENUM_CAP, check_enumeration_cap

SelfMap = tuple[int, ...]


class DerivationClass(Enum):
    """The six derivation-operator classes, (kind, type)."""

    IMPLICATIVE_I = ("implicative", "I")
    IMPLICATIVE_II = ("implicative", "II")
    IMPLICATIVE_III = ("implicative", "III")
    IMPLICATIVE_IV = ("implicative", "IV")
    SYMMETRIC_I = ("symmetric", "I")
    SYMMETRIC_II = ("symmetric", "II")

    @property
    def kind(self) -> str:
        return self.value[0]

    @property
    def dtype(self) -> str:
        return self.value[1]

    @property
    def requires_pseudo_bck(self) -> bool:
        """Types III/IV are defined only when 1 is the greatest element."""
        return self in (DerivationClass.IMPLICATIVE_III, DerivationClass.IMPLICATIVE_IV)

    @classmethod
    def from_strings(cls, kind: str, dtype: str) -> "DerivationClass":
        kind = kind.lower()
        dtype = dtype.upper()
        for member in cls:
            if member.kind == kind and member.dtype == dtype:
                return member
        raise ValueError(f"no derivation class with kind={kind!r}, type={dtype!r}")

    def __str__(self) -> str:
        return f"{self.kind}-{self.dtype}"


CLASS_ORDER = (
    DerivationClass.IMPLICATIVE_I,
    DerivationClass.IMPLICATIVE_II,
    DerivationClass.IMPLICATIVE_III,
    DerivationClass.IMPLICATIVE_IV,
    DerivationClass.SYMMETRIC_I,
    DerivationClass.SYMMETRIC_II,
)


def identity_map(A: PseudoBciAlgebra) -> SelfMap:
    return tuple(range(A.size))


# Right-hand side of each class's arrow identity d(x -> y) = s \/k t, as
# (k, s, t) with each term a pair of operands of ->.  The squig identity reads
# the same row with ~> in place of -> and the other join: \/2 for \/1 and
# \/1 for \/2.  Join order is kept exactly as defined, since the joins are
# not commutative in general.
Rhs = tuple[int | None, tuple[str, str], tuple[str, str]]
_RHS: dict[DerivationClass, Rhs] = {
    DerivationClass.IMPLICATIVE_I: (2, ("x", "dy"), ("dx", "y")),
    DerivationClass.IMPLICATIVE_II: (2, ("dx", "y"), ("x", "dy")),
    DerivationClass.IMPLICATIVE_III: (1, ("x", "dy"), ("dx", "y")),
    DerivationClass.IMPLICATIVE_IV: (1, ("dx", "y"), ("x", "dy")),
    DerivationClass.SYMMETRIC_I: (2, ("x", "dy"), ("y", "dx")),
    DerivationClass.SYMMETRIC_II: (2, ("dx", "y"), ("dy", "x")),
}
# d(x -> y) = x -> dy and d(x ~> y) = x ~> dy: no join (k = None) keeps the
# first term alone.
_TRANSLATION: Rhs = (None, ("x", "dy"), ("x", "dy"))

# One identity instance (t, a, s, b, u, join), read as
# d(t) = join[s[d(a)]][u[d(b)]]: t = x op y, a and b are the elements whose
# images the two terms read, and s, u are the op row or column that turns
# such an image into the term's value.
Instance = tuple[int, int, tuple[int, ...], int, tuple[int, ...],
                 tuple[tuple[int, ...], ...]]


def _term(left: str, right: str) -> tuple[int, bool, int]:
    """How the term left op right reads the map, as (v, is_column, w) with
    operands numbered x = 0, y = 1: the term is d(v) op w, column w of op
    at d(v), or w op d(v), row w of op at d(v)."""
    if left[0] == "d":
        return "xy".index(left[1]), True, "xy".index(right)
    return "xy".index(right[1]), False, "xy".index(left)


def _instances(A: PseudoBciAlgebra, rhs: Rhs) -> list[Instance]:
    """Both identities of one right-hand side, instantiated at every pair."""
    k, first, second = rhs
    (ra, col_s, at_s), (rb, col_u, at_u) = _term(*first), _term(*second)
    n = A.size
    rng = range(n)
    arrow, squig = A.arrow, A.squig
    if k is None:
        keep_first = tuple((u,) * n for u in rng)
        joins = (keep_first, keep_first)
    else:
        cup1 = tuple(tuple(squig[arrow[u][v]][v] for v in rng) for u in rng)
        cup2 = tuple(tuple(arrow[squig[u][v]][v] for v in rng) for u in rng)
        joins = (cup1, cup2) if k == 1 else (cup2, cup1)
    found: list[Instance] = []
    for table, join in zip((arrow, squig), joins):
        cols = tuple(zip(*table))
        ss = cols if col_s else table
        us = cols if col_u else table
        found += [(table[p[0]][p[1]], p[ra], ss[p[at_s]], p[rb], us[p[at_u]], join)
                  for p in itertools.product(rng, repeat=2)]
    return found


def _holds(d: SelfMap, instances: list[Instance]) -> bool:
    return all(d[t] == join[s[d[a]]][u[d[b]]] for t, a, s, b, u, join in instances)


def _gate_class(A: PseudoBciAlgebra, cls: DerivationClass, force: bool) -> None:
    if cls.requires_pseudo_bck and not force and not is_pseudo_bck(A):
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
    return _holds(d, _instances(A, _RHS[cls]))


def _solve(A: PseudoBciAlgebra, instances: list[Instance], *,
           regular: bool) -> list[SelfMap]:
    """Every total map satisfying all instances, sorted lexicographically.

    Branches on d(1) first (only d(1) = 1 when regular), then on the lowest
    unassigned element.  Each assignment fires the instances whose read
    images are now all known: the instance's target image is assigned if it
    is still free and the branch is rejected if it clashes (forward
    propagation, as in the SEM and Mace4 model finders).
    """
    n = A.size
    unit = A.unit
    watch: list[list[Instance]] = [[] for _ in range(n)]
    for inst in instances:
        watch[inst[1]].append(inst)
        if inst[3] != inst[1]:
            watch[inst[3]].append(inst)
    order = [unit] + [x for x in range(n) if x != unit]
    d = [-1] * n
    trail: list[int] = []
    found: list[SelfMap] = []

    def assign(e: int, v: int) -> bool:
        d[e] = v
        trail.append(e)
        queue = [e]
        while queue:
            for t, a, s, b, u, join in watch[queue.pop()]:
                da = d[a]
                db = d[b]
                if da < 0 or db < 0:
                    continue
                w = join[s[da]][u[db]]
                dt = d[t]
                if dt < 0:
                    d[t] = w
                    trail.append(t)
                    queue.append(t)
                elif dt != w:
                    return False
        return True

    def extend(pos: int) -> None:
        while pos < n and d[order[pos]] >= 0:
            pos += 1
        if pos == n:
            found.append(tuple(d))
            return
        e = order[pos]
        mark = len(trail)
        for v in ((unit,) if regular and e == unit else range(n)):
            if assign(e, v):
                extend(pos + 1)
            while len(trail) > mark:
                d[trail.pop()] = -1

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
    check_enumeration_cap(A.size, ENUM_CAP, "enumeration")
    return _solve(A, _instances(A, _RHS[cls]), regular=regular)


def brute_force_derivations(A: PseudoBciAlgebra, cls: DerivationClass, *,
                            regular: bool = False, force: bool = False) -> list[SelfMap]:
    """Oracle enumeration: filter every one of the n^n total maps.

    Exponential by construction; intended for cross-checking the pruned
    enumerator at small sizes.
    """
    _gate_class(A, cls, force)
    instances = _instances(A, _RHS[cls])
    unit = A.unit
    return [d for d in itertools.product(range(A.size), repeat=A.size)
            if not (regular and d[unit] != unit) and _holds(d, instances)]


def regular_translation_maps(A: PseudoBciAlgebra) -> list[SelfMap]:
    """Maps with d(1)=1, d(x->y) = x->d(y) and d(x~>y) = x~>d(y) everywhere.

    This family characterizes the regular type II implicative derivations;
    enumerating it independently lets the theorem suite compare the two
    routes as whole sets.
    """
    check_enumeration_cap(A.size, ENUM_CAP, "enumeration")
    return _solve(A, _instances(A, _TRANSLATION), regular=True)


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
    return _map_record(A, d, bck_part(A), atoms(A))


def _map_record(A: PseudoBciAlgebra, d: SelfMap, part: frozenset[int],
                ats: frozenset[int]) -> MapPropertyRecord:
    """map_properties() of a total map, given K(A) and the atoms of A."""
    n = A.size
    unit = A.unit
    leq = A.leq
    kernel = frozenset(x for x in range(n) if d[x] == unit)
    image = frozenset(d)
    return MapPropertyRecord(
        regular=d[unit] == unit,
        isotone=all(leq[d[x]][d[y]] for x in range(n) for y in range(n) if leq[x][y]),
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

    Always a type I implicative and a type I symmetric derivation; both
    facts are theorems, so their failure raises InternalInconsistencyError.
    Whether it is also type II varies by algebra (guaranteed under
    commutativity) and can be queried with ``satisfies``.
    """
    d = tuple(A.phi(x) for x in A.elements())
    if not satisfies(A, d, DerivationClass.IMPLICATIVE_I):
        raise InternalInconsistencyError("phi map fails the type I implicative identities")
    if not satisfies(A, d, DerivationClass.SYMMETRIC_I):
        raise InternalInconsistencyError("phi map fails the type I symmetric identities")
    return d


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
    """Build the full composition table over the given maps."""
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
            if comp != compose(dj, di):
                commutative = False
                if i < j:
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
