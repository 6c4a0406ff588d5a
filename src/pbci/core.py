"""Validated finite pseudo-BCI algebras and their structural invariants.

An algebra lives on indices 0..n-1 with display names attached; both
implication tables are dense tuples so every operation is a table lookup.
``validate`` is the only intended constructor of :class:`PseudoBciAlgebra`:
it checks the five defining axioms, precomputes the order relation and runs
a suite of theorem-backed sanity checks whose failure can only mean a bug
in this package, never bad input.

The classification crosschecks keep every quantifier of the laws they test,
but evaluate the inner one a row at a time: the medial laws, the atom
characterizations and group associativity compare whole rows of composed
tables (``_pickers``), each built at most once per call, and the atom
tests share what does not depend on the atom.  Everything is pure
Python; numpy would cost more at start-up than it saves on these tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable

from .errors import (
    InternalInconsistencyError,
    NotPSemisimpleError,
    StructuralError,
    ValidationError,
)
from .limits import UNIVERSE_CAP, effective_cap

Table = tuple[tuple[int, ...], ...]
Picker = Callable[[tuple[int, ...]], tuple[int, ...]]


def _pickers(table: Table) -> list[Picker]:
    """pick[b](row) = tuple(row[v] for v in table[b]), in one C call.

    The rows of a composed table, y |-> outer[a][inner[b][y]], are
    pick[b](outer[a]) with pick = _pickers(inner); the scans below compare
    such rows whole instead of looping over y.
    """
    if len(table) == 1:             # itemgetter(v) would return row[v] bare
        return [lambda row: (row[0],)]
    return [itemgetter(*r) for r in table]


@dataclass(frozen=True)
class AlgebraSpec:
    """Raw symbol-level description of an algebra, prior to validation."""

    names: tuple[str, ...]
    unit: str
    arrow: tuple[tuple[str, ...], ...]  # row x, column y holds x -> y
    squig: tuple[tuple[str, ...], ...]  # row x, column y holds x ~> y

    def check_structure(self) -> None:
        """Raise StructuralError unless names/unit/tables are well-formed."""
        n = len(self.names)
        if n == 0:
            raise StructuralError("empty universe")
        if len(set(self.names)) != n:
            raise StructuralError("element names are not pairwise distinct")
        if self.unit not in self.names:
            raise StructuralError(f"unit {self.unit!r} is not a declared element")
        for label, table in (("arrow", self.arrow), ("squig", self.squig)):
            if len(table) != n:
                raise StructuralError(f"{label} table has {len(table)} rows, expected {n}")
            for i, row in enumerate(table):
                if len(row) != n:
                    raise StructuralError(
                        f"{label} table row {i} has {len(row)} entries, expected {n}"
                    )
                for entry in row:
                    if entry not in self.names:
                        raise StructuralError(
                            f"{label} table entry {entry!r} is not a declared element"
                        )


@dataclass(frozen=True)
class Violation:
    """A single failed axiom instance with its witness tuple."""

    axiom: str                 # "psBCI1" .. "psBCI5"
    witness: tuple[str, ...]   # element names bound to x, y, z in order
    detail: str

    def __str__(self) -> str:
        binding = ", ".join(self.witness)
        return f"{self.axiom}[{binding}]: {self.detail}"


@dataclass(frozen=True)
class PseudoBciAlgebra:
    """Immutable validated pseudo-BCI algebra with a precomputed order table.

    Safe to share between threads; every function in this package treats it
    as read-only.
    """

    names: tuple[str, ...]
    unit: int
    arrow: Table
    squig: Table
    leq: tuple[tuple[bool, ...], ...]

    @property
    def size(self) -> int:
        return len(self.names)

    def elements(self) -> range:
        return range(len(self.names))

    def le(self, x: int, y: int) -> bool:
        """The partial order: x <= y iff x -> y = 1 (iff x ~> y = 1)."""
        return self.leq[x][y]

    def cup1(self, x: int, y: int) -> int:
        """(x -> y) ~> y, the first join-like term."""
        return self.squig[self.arrow[x][y]][y]

    def cup2(self, x: int, y: int) -> int:
        """(x ~> y) -> y, the second join-like term."""
        return self.arrow[self.squig[x][y]][y]

    def cup(self, variant: int, x: int, y: int) -> int:
        if variant == 1:
            return self.cup1(x, y)
        if variant == 2:
            return self.cup2(x, y)
        raise ValueError(f"cup variant must be 1 or 2, got {variant}")

    def phi(self, x: int) -> int:
        """(x -> 1) ~> 1; lands in the atom heading x's branch."""
        return self.squig[self.arrow[x][self.unit]][self.unit]

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown element {name!r}") from None

    def name_set(self, members: Iterable[int]) -> tuple[str, ...]:
        """Names of an index set, in declaration order."""
        return tuple(self.names[i] for i in sorted(members))

    def to_spec(self) -> AlgebraSpec:
        nm = self.names
        return AlgebraSpec(
            names=nm,
            unit=nm[self.unit],
            arrow=tuple(tuple(nm[v] for v in row) for row in self.arrow),
            squig=tuple(tuple(nm[v] for v in row) for row in self.squig),
        )


def _index_tables(spec: AlgebraSpec) -> tuple[int, Table, Table]:
    pos = {name: i for i, name in enumerate(spec.names)}
    arrow = tuple(tuple(pos[v] for v in row) for row in spec.arrow)
    squig = tuple(tuple(pos[v] for v in row) for row in spec.squig)
    return pos[spec.unit], arrow, squig


def collect_violations(spec: AlgebraSpec) -> list[Violation]:
    """Every failed axiom instance of psBCI1..psBCI5, in scan order.

    Structural problems raise StructuralError instead of being reported as
    violations.
    """
    spec.check_structure()
    unit, arrow, squig = _index_tables(spec)
    names = spec.names
    n = len(names)
    out: list[Violation] = []

    for x in range(n):
        if arrow[unit][x] != x:
            out.append(Violation(
                "psBCI3", (names[x],),
                f"1 -> {names[x]} = {names[arrow[unit][x]]}, expected {names[x]}"))
        if squig[unit][x] != x:
            out.append(Violation(
                "psBCI4", (names[x],),
                f"1 ~> {names[x]} = {names[squig[unit][x]]}, expected {names[x]}"))
    for x in range(n):
        for y in range(x + 1, n):
            if arrow[x][y] == unit and arrow[y][x] == unit:
                out.append(Violation(
                    "psBCI5", (names[x], names[y]),
                    "both implications equal 1 for distinct elements"))
    for x in range(n):
        ax = arrow[x]
        sx = squig[x]
        for y in range(n):
            axy = ax[y]
            sxy = sx[y]
            ay = arrow[y]
            sy = squig[y]
            for z in range(n):
                v = squig[ay[z]][ax[z]]          # (y->z) ~> (x->z)
                if squig[axy][v] != unit:
                    out.append(Violation(
                        "psBCI1", (names[x], names[y], names[z]),
                        f"(x->y) ~> [(y->z) ~> (x->z)] = {names[squig[axy][v]]}"))
                w = arrow[sy[z]][sx[z]]          # (y~>z) -> (x~>z)
                if arrow[sxy][w] != unit:
                    out.append(Violation(
                        "psBCI2", (names[x], names[y], names[z]),
                        f"(x~>y) -> [(y~>z) -> (x~>z)] = {names[arrow[sxy][w]]}"))
    return out


def validate(spec: AlgebraSpec, *, max_size: int | None = None) -> PseudoBciAlgebra:
    """Check the axioms and build the immutable algebra.

    Raises StructuralError for malformed input, ValidationError carrying the
    complete violation list when any axiom fails, and
    InternalInconsistencyError if the axioms pass but the theorem-backed
    sanity suite does not (an implementation bug, by Lemma-level results
    that hold in every pseudo-BCI algebra).
    """
    spec.check_structure()
    cap = effective_cap(UNIVERSE_CAP) if max_size is None else max_size
    if len(spec.names) > cap:
        raise StructuralError(
            f"universe size {len(spec.names)} exceeds cap {cap}; "
            "pass max_size or set PBCI_MAX_SIZE to opt in")
    violations = collect_violations(spec)
    if violations:
        raise ValidationError(violations)
    unit, arrow, squig = _index_tables(spec)
    n = len(spec.names)
    leq = tuple(tuple(arrow[x][y] == unit for y in range(n)) for x in range(n))
    alg = PseudoBciAlgebra(names=spec.names, unit=unit, arrow=arrow,
                           squig=squig, leq=leq)
    failures = _sanity_failures(alg)
    if failures:
        raise InternalInconsistencyError(
            "axioms hold but derived laws fail (package bug): "
            + "; ".join(failures))
    return alg


def _sanity_failures(A: PseudoBciAlgebra) -> list[str]:
    """First witness for each violated law of the twelve-law sanity suite.

    Every law is a theorem of the five axioms, so any failure here means a
    bug in the validator or in these very loops, not bad input.
    """
    n = A.size
    u = A.unit
    arrow, squig, leq = A.arrow, A.squig, A.leq
    names = A.names
    fails: dict[str, str] = {}

    def report(law: str, *xs: int) -> None:
        if law not in fails:
            fails[law] = f"{law} at ({', '.join(names[i] for i in xs)})"

    for x in range(n):
        if arrow[x][x] != u or squig[x][x] != u:                       # (1)
            report("x->x=1", x)
        if leq[u][x] and x != u:                                       # (9)
            report("1<=x implies x=1", x)
        if arrow[x][u] != squig[x][u]:                                 # (11)
            report("x->1=x~>1", x)
    for x in range(n):
        for y in range(n):
            if not leq[x][A.cup1(x, y)] or not leq[x][A.cup2(x, y)]:   # (2)
                report("x<=(x->y)~>y", x, y)
            if (arrow[x][y] == u) != (squig[x][y] == u):               # (3)
                report("x->y=1 iff x~>y=1", x, y)
            if arrow[arrow[x][y]][u] != squig[arrow[x][u]][arrow[y][u]]:   # (12)
                report("(x->y)->1=(x->1)~>(y->1)", x, y)
            if squig[squig[x][y]][u] != arrow[squig[x][u]][squig[y][u]]:
                report("(x~>y)~>1=(x~>1)->(y~>1)", x, y)
            for z in range(n):
                if leq[x][arrow[y][z]] != leq[y][squig[x][z]]:         # (4)
                    report("x<=y->z iff y<=x~>z", x, y, z)
                if leq[x][y]:
                    if not leq[arrow[y][z]][arrow[x][z]] or \
                            not leq[squig[y][z]][squig[x][z]]:         # (5)
                        report("x<=y implies y->z<=x->z", x, y, z)
                    if not leq[arrow[z][x]][arrow[z][y]] or \
                            not leq[squig[z][x]][squig[z][y]]:         # (6)
                        report("x<=y implies z->x<=z->y", x, y, z)
                    if leq[y][z] and not leq[x][z]:                    # (10)
                        report("transitivity", x, y, z)
                if not leq[arrow[x][y]][arrow[arrow[z][x]][arrow[z][y]]] or \
                        not leq[squig[x][y]][squig[squig[z][x]][squig[z][y]]]:  # (7)
                    report("x->y<=(z->x)->(z->y)", x, y, z)
                if arrow[x][squig[y][z]] != squig[y][arrow[x][z]]:     # (8)
                    report("x->(y~>z)=y~>(x->z)", x, y, z)
    return list(fails.values())


# ---------------------------------------------------------------------------
# structural notions: atoms, BCK part, branches


def _is_atom(A: PseudoBciAlgebra, a: int) -> bool:
    u = A.unit
    return A.arrow[A.arrow[a][u]][u] == a


@dataclass(frozen=True)
class _AtomTables:
    """What the atom characterizations share across the elements of one
    algebra: both tables by column, and the elements fixed by each cup."""

    arrow_cols: Table                # arrow_cols[y][x] = x -> y
    squig_cols: Table                # squig_cols[y][x] = x ~> y
    pick_arrow_cols: list[Picker]    # _pickers(arrow_cols)
    pick_squig_cols: list[Picker]    # _pickers(squig_cols)
    cup1_fixed: frozenset[int]       # {v | (v -> y) ~> y = v for every y}
    cup2_fixed: frozenset[int]       # {v | (v ~> y) -> y = v for every y}


def _atom_tables(A: PseudoBciAlgebra) -> _AtomTables:
    arrow, squig = A.arrow, A.squig
    rng = A.elements()
    arrow_cols = tuple(zip(*arrow))
    squig_cols = tuple(zip(*squig))
    return _AtomTables(
        arrow_cols=arrow_cols,
        squig_cols=squig_cols,
        pick_arrow_cols=_pickers(arrow_cols),
        pick_squig_cols=_pickers(squig_cols),
        cup1_fixed=frozenset(
            v for v in rng if all(squig[arrow[v][y]][y] == v for y in rng)),
        cup2_fixed=frozenset(
            v for v in rng if all(arrow[squig[v][y]][y] == v for y in rng)),
    )


def _atom_characterizations(A: PseudoBciAlgebra, a: int,
                            t: _AtomTables) -> list[tuple[str, bool]]:
    """The ten equivalent membership tests (b)..(k) for a in At(A).

    Each test quantifies over x (and y) as in the paper, a whole column at
    a time: (c)-(f), (i) and (j) compare the column x |-> x -> a or
    x |-> x ~> a with a composed row; (g) and (h) ask whether every entry of
    that column is fixed by a cup, and (b) whether a itself is.
    """
    u = A.unit
    arrow, squig = A.arrow, A.squig
    to_a, sq_to_a = t.arrow_cols[a], t.squig_cols[a]
    by_arrow_col, by_squig_col = t.pick_arrow_cols, t.pick_squig_cols
    return [
        ("b", a in t.cup1_fixed and a in t.cup2_fixed),
        ("c", to_a == tuple(map(t.squig_cols[u].__getitem__, arrow[a]))),
        ("d", sq_to_a == tuple(map(t.arrow_cols[u].__getitem__, squig[a]))),
        ("e", all(to_a == by_arrow_col[y](squig[arrow[a][y]])
                  for y in A.elements())),
        ("f", all(sq_to_a == by_squig_col[y](arrow[squig[a][y]])
                  for y in A.elements())),
        ("g", t.cup2_fixed.issuperset(to_a)),
        ("h", t.cup1_fixed.issuperset(sq_to_a)),
        ("i", to_a == by_arrow_col[u](squig[arrow[a][u]])),
        ("j", sq_to_a == by_squig_col[u](arrow[squig[a][u]])),
        ("k", squig[arrow[a][u]][u] == a and arrow[squig[a][u]][u] == a),
    ]


def atoms(A: PseudoBciAlgebra) -> frozenset[int]:
    """The minimal elements, computed as {x | (x -> 1) -> 1 = x}.

    Every element's membership is re-derived through the ten equivalent
    characterizations; disagreement raises InternalInconsistencyError since
    the equivalence is a theorem.
    """
    base = frozenset(x for x in A.elements() if _is_atom(A, x))
    tables = _atom_tables(A)
    for x in A.elements():
        for label, holds in _atom_characterizations(A, x, tables):
            if holds != (x in base):
                raise InternalInconsistencyError(
                    f"atom characterization ({label}) disagrees at {A.names[x]}")
    return base


def is_pseudo_bck(A: PseudoBciAlgebra) -> bool:
    """Whether 1 is the greatest element, i.e. K(A) is the whole universe."""
    return all(A.leq[x][A.unit] for x in A.elements())


def bck_part(A: PseudoBciAlgebra) -> frozenset[int]:
    """K(A) = {x | x <= 1}; verified closed under both implications."""
    part = frozenset(x for x in A.elements() if A.leq[x][A.unit])
    for x in part:
        for y in part:
            if A.arrow[x][y] not in part or A.squig[x][y] not in part:
                raise InternalInconsistencyError(
                    f"BCK part not closed at ({A.names[x]}, {A.names[y]})")
    return part


def branches(A: PseudoBciAlgebra) -> dict[int, frozenset[int]]:
    """Map each atom a to its branch {x | x <= a}; the branches partition A."""
    return _branches(A, atoms(A))


def _branches(A: PseudoBciAlgebra, ats: frozenset[int]) -> dict[int, frozenset[int]]:
    """The branches headed by already computed atoms, checked to partition A."""
    result = {
        a: frozenset(x for x in A.elements() if A.leq[x][a])
        for a in sorted(ats)
    }
    seen: set[int] = set()
    for a, block in result.items():
        if block & seen:
            raise InternalInconsistencyError(
                f"branches overlap at atom {A.names[a]}")
        seen |= block
    if seen != set(A.elements()):
        raise InternalInconsistencyError("branches do not cover the universe")
    return result


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class ClassificationReport:
    is_bci: bool
    is_pseudo_bck: bool
    is_proper: bool
    is_p_semisimple: bool
    p_semisimple_crosscheck: tuple[tuple[str, bool], ...]
    is_commutative: bool
    is_branchwise_commutative: bool
    is_medial_arrow: bool
    is_medial_squig: bool


def _p_semisimple_characterizations(A: PseudoBciAlgebra) -> list[tuple[str, bool]]:
    n = A.size
    u = A.unit
    arrow, squig, leq = A.arrow, A.squig, A.leq
    rng = range(n)

    a = all(not leq[x][u] or x == u for x in rng)
    b = all(not leq[x][y] or x == y for x in rng for y in rng)
    c = all(A.cup1(x, y) == x and A.cup2(x, y) == x for x in rng for y in rng)
    d = all(squig[arrow[x][u]][u] == x and arrow[squig[x][u]][u] == x for x in rng)
    e = all(squig[arrow[x][u]][y] == arrow[squig[y][u]][x] for x in rng for y in rng)
    f = all(len({arrow[x][col] for x in rng}) == n for col in rng)
    g = all(len({squig[x][col] for x in rng}) == n for col in rng)
    h = all(_is_atom(A, x) for x in rng)
    i = _group_axioms_hold(A)
    return [("a", a), ("b", b), ("c", c), ("d", d), ("e", e),
            ("f", f), ("g", g), ("h", h), ("i", i)]


def _group_axioms_hold(A: PseudoBciAlgebra) -> bool:
    """Whether x.y = (x->1)~>y with x^-1 = x->1 is a group reconstructing
    both implications; quantified over the full table."""
    n = A.size
    u = A.unit
    arrow, squig = A.arrow, A.squig
    inv = [arrow[x][u] for x in range(n)]
    prod = [squig[i] for i in inv]    # prod[x][y] = (x->1) ~> y
    for x in range(n):
        px = prod[x]
        if px[u] != x or prod[u][x] != x:
            return False
        if px[inv[x]] != u or prod[inv[x]][x] != u:
            return False
        if inv[x] != squig[x][u]:
            return False
        for y in range(n):
            if px[y] != arrow[squig[y][u]][x]:   # the dual product form
                return False
            if arrow[x][y] != prod[y][inv[x]] or squig[x][y] != prod[inv[x]][y]:
                return False
    # associativity, a row of z at a time: (x.y).z against x.(y.z)
    pick = _pickers(prod)
    return all(prod[px[y]] == pick[y](px) for px in prod for y in range(n))


def _is_medial(outer: Table, inner: Table) -> bool:
    """Whether (p * q) . (x * y) = (p * x) . (q * y) for all p, q, x, y,
    with . the outer and * the inner implication.

    Both sides are entries of rows of the composed table
    C(a, b)[y] = outer[a][inner[b][y]], so the law holds iff
    C(p * q, x) = C(p * x, q) for all p, q and x; the pair (q, x) and its
    swap make the same comparison.  Each row is built when first compared,
    at most n^2 of them, and kept only as the index of its first equal row,
    so a medial algebra, whose composed table has n distinct rows, holds n
    rows and not n^2.  The scan stops at the first unequal pair.
    """
    n = len(outer)
    rng = range(n)
    pick = _pickers(inner)
    distinct: dict[tuple[int, ...], int] = {}
    first = distinct.setdefault     # a row's index among the distinct rows
    row_id: list[list[int | None]] = [[None] * n for _ in rng]
    for ip in inner:
        for q in rng:
            a = ip[q]
            left = row_id[a]
            for x in range(q):
                lhs = left[x]
                if lhs is None:
                    lhs = left[x] = first(pick[x](outer[a]), len(distinct))
                b = ip[x]
                rhs = row_id[b][q]
                if rhs is None:
                    rhs = row_id[b][q] = first(pick[q](outer[b]), len(distinct))
                if lhs != rhs:
                    return False
    return True


def classify(A: PseudoBciAlgebra) -> ClassificationReport:
    """Decide every classification flag, cross-checking the theorem-level
    equivalences between them."""
    return _classify(A, branches(A))


def _classify(A: PseudoBciAlgebra, brs: dict[int, frozenset[int]]) -> ClassificationReport:
    """classify() on the already computed branches of A."""
    n = A.size
    arrow, squig, leq = A.arrow, A.squig, A.leq
    rng = range(n)

    is_bci = arrow == squig
    pseudo_bck = is_pseudo_bck(A)
    is_proper = not is_bci and not pseudo_bck

    chars = _p_semisimple_characterizations(A)
    is_p_semisimple = chars[0][1]
    for label, holds in chars:
        if holds != is_p_semisimple:
            raise InternalInconsistencyError(
                f"p-semisimple characterization ({label}) disagrees")

    is_commutative = all(
        A.cup1(x, y) == x and A.cup2(x, y) == x
        for x in rng for y in rng if leq[y][x])
    is_branchwise = all(
        A.cup1(x, y) == A.cup1(y, x) and A.cup2(x, y) == A.cup2(y, x)
        for block in brs.values() for x in block for y in block)

    is_medial_arrow = _is_medial(arrow, squig)
    is_medial_squig = _is_medial(squig, arrow)

    if is_commutative != is_branchwise:
        raise InternalInconsistencyError(
            "commutative and branchwise-commutative disagree")
    if is_p_semisimple and not is_commutative:
        raise InternalInconsistencyError(
            "p-semisimple algebra fails commutativity")
    if (is_medial_arrow or is_medial_squig) and not (is_p_semisimple and is_bci):
        raise InternalInconsistencyError(
            "medial algebra is not a p-semisimple BCI algebra")

    return ClassificationReport(
        is_bci=is_bci,
        is_pseudo_bck=pseudo_bck,
        is_proper=is_proper,
        is_p_semisimple=is_p_semisimple,
        p_semisimple_crosscheck=tuple(chars),
        is_commutative=is_commutative,
        is_branchwise_commutative=is_branchwise,
        is_medial_arrow=is_medial_arrow,
        is_medial_squig=is_medial_squig,
    )


# ---------------------------------------------------------------------------
# group view of p-semisimple algebras


@dataclass(frozen=True)
class GroupView:
    """The group carried by a p-semisimple algebra: x.y = (x->1)~>y."""

    product: Table
    inverse: tuple[int, ...]
    identity: int


def group_view(A: PseudoBciAlgebra) -> GroupView:
    """Build and verify the group structure of a p-semisimple algebra.

    Raises NotPSemisimpleError when the BCK part is bigger than {1}, and
    InternalInconsistencyError if the group axioms fail on a p-semisimple
    input (impossible unless this package is buggy).
    """
    if bck_part(A) != frozenset({A.unit}):
        raise NotPSemisimpleError(
            "group view requires a p-semisimple algebra (BCK part = {1})")
    if not _group_axioms_hold(A):
        raise InternalInconsistencyError(
            "group axioms fail on a p-semisimple algebra")
    n = A.size
    u = A.unit
    inv = tuple(A.arrow[x][u] for x in range(n))
    product = tuple(tuple(A.squig[inv[x]][y] for y in range(n)) for x in range(n))
    return GroupView(product=product, inverse=inv, identity=u)


def is_subalgebra(A: PseudoBciAlgebra, members: Iterable[int]) -> bool:
    """True iff the subset contains 1 and is closed under both implications."""
    s = frozenset(members)
    if A.unit not in s:
        return False
    return all(A.arrow[x][y] in s and A.squig[x][y] in s for x in s for y in s)
