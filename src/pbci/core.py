"""Validated finite pseudo-BCI algebras and their structural invariants.

An algebra lives on indices 0..n-1 with display names attached; both
implication tables are dense tuples so every operation is a table lookup.
The algebra's four fields are its names, unit and two tables.  The tables
derived from them (the order x <= y iff x -> y = 1 among them) and the
structure every result is stated over (atoms, K(A), branches,
classification) are cached properties of the algebra, each built on first
use and kept, so each crosscheck behind the structure runs once per
algebra.
``validate`` is the first of two intended constructors of
:class:`PseudoBciAlgebra`: it checks the five defining axioms and runs a
suite of theorem-backed sanity checks whose failure can only mean a bug in
this package, never bad input.  The second is
``PseudoBciAlgebra.renamed``, which keeps the tables ``validate`` accepted
and every cached property built from them; ``dsystems.quotient`` calls it
when every congruence class is a singleton.

``validate`` reads the tables in one pass into an unvalidated algebra, and
the axiom scan (``collect_violations``) and the sanity suite
(``_sanity_failures``) read that instance, which ``validate`` returns once
both pass.  Each decides every instance of every law in one pass over the
pairs (x, y), walking whole rows and columns instead of subscripting both
tables per instance: sanity laws (4) and (8) compare two picker rows over z
per pair, and (5), (6) and (10) run only over the pairs x <= y.  Both
rescan only a pair at which some instance fails, one z at a time, to list
what fails there.  So every violation (and every sanity witness) is
reported with the same text and in the same order as an
instance-by-instance scan.

The classification crosschecks keep every quantifier of the laws they test,
but evaluate the inner one a row at a time: the medial laws, the atom
characterizations and group associativity compare whole rows of composed
tables (``_pickers``), and the atom tests share what does not depend on
the atom.  Everything is pure Python; numpy would cost more at start-up
than it saves on these tables.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable

from .errors import (
    InternalInconsistencyError,
    NotPSemisimpleError,
    StructuralError,
    ValidationError,
)
from .limits import check_cap

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
        _index_tables(self)


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
    """Immutable pseudo-BCI algebra: element names, unit and both tables.

    The scans in ``validate`` read an unvalidated instance.  The derived
    tables (the order among them) and the structure (atoms, K(A), branches,
    classification, each the public function of this module called on the
    algebra) are cached properties, built on first use and kept.  They are
    not fields, so ``==``, ``hash`` and ``dataclasses.replace`` see only the
    four fields.
    Every cached property must depend on the tables and the unit alone,
    never on ``names``: ``renamed`` hands on whatever has been built.  Safe
    to share between threads; every function in this package treats it as
    read-only.
    """

    names: tuple[str, ...]
    unit: int
    arrow: Table
    squig: Table

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

    def phi(self, x: int) -> int:
        """(x -> 1) ~> 1; lands in the atom heading x's branch."""
        return self.squig[self.arrow[x][self.unit]][self.unit]

    @cached_property
    def leq(self) -> tuple[tuple[bool, ...], ...]:
        """The order table: [x][y] is x <= y, that is x -> y = 1."""
        return tuple(tuple(map(self.unit.__eq__, row)) for row in self.arrow)

    @cached_property
    def columns(self) -> tuple[Table, Table]:
        """Both tables by column: [0][y][x] = x -> y and [1][y][x] = x ~> y."""
        return tuple(zip(*self.arrow)), tuple(zip(*self.squig))

    @cached_property
    def joins(self) -> tuple[Table, Table]:
        r"""Both join tables: [0][x][y] = x \/1 y = cup1(x, y) and
        [1][x][y] = x \/2 y = cup2(x, y)."""
        arrow, squig = self.arrow, self.squig
        return (tuple(tuple(squig[v][y] for y, v in enumerate(row)) for row in arrow),
                tuple(tuple(arrow[v][y] for y, v in enumerate(row)) for row in squig))

    @cached_property
    def product(self) -> Table:
        """product[x][y] = (x -> 1) ~> y: row x is the squig row at x -> 1.
        On a p-semisimple algebra it is the group product."""
        u = self.unit
        return tuple(self.squig[row[u]] for row in self.arrow)

    @cached_property
    def pickers(self) -> tuple[list[Picker], list[Picker]]:
        """_pickers of the arrow and of the squig table."""
        return _pickers(self.arrow), _pickers(self.squig)

    @cached_property
    def column_pickers(self) -> tuple[list[Picker], list[Picker]]:
        """_pickers of both tables by column."""
        arrow_cols, squig_cols = self.columns
        return _pickers(arrow_cols), _pickers(squig_cols)

    @cached_property
    def preimages(self) -> tuple[Table, Table]:
        """Both tables as preimage masks: bit y of [0][x][v] is set iff
        x -> y = v, and bit y of [1][x][v] iff x ~> y = v."""
        n = len(self.names)
        out = []
        for table in (self.arrow, self.squig):
            rows = []
            for row in table:
                masks = [0] * n
                for y, v in enumerate(row):
                    masks[v] |= 1 << y
                rows.append(tuple(masks))
            out.append(tuple(rows))
        return tuple(out)

    @cached_property
    def atoms(self) -> frozenset[int]:
        """The atoms, ``atoms(self)``."""
        return atoms(self)

    @cached_property
    def bck_part(self) -> frozenset[int]:
        """K(A), ``bck_part(self)``."""
        return bck_part(self)

    @cached_property
    def branches(self) -> dict[int, frozenset[int]]:
        """The branch of each atom, ``branches(self)``."""
        return branches(self)

    @cached_property
    def classification(self) -> ClassificationReport:
        """Every classification flag, ``classify(self)``."""
        return classify(self)

    def renamed(self, names: tuple[str, ...]) -> PseudoBciAlgebra:
        """This algebra under other element names, keeping every cached
        property built so far: none of them reads the names."""
        out = replace(self, names=names)
        out.__dict__.update((key, value) for key, value in self.__dict__.items()
                            if key != "names")
        return out

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


def _index_tables(spec: AlgebraSpec) -> PseudoBciAlgebra:
    """The spec as an unvalidated algebra, read in one pass that raises
    StructuralError unless names, unit and tables are well-formed."""
    names = spec.names
    n = len(names)
    if n == 0:
        raise StructuralError("empty universe")
    pos = {name: i for i, name in enumerate(names)}
    if len(pos) != n:
        raise StructuralError("element names are not pairwise distinct")
    if spec.unit not in names:
        raise StructuralError(f"unit {spec.unit!r} is not a declared element")
    index = pos.__getitem__
    tables = []
    for label, table in (("arrow", spec.arrow), ("squig", spec.squig)):
        if len(table) != n:
            raise StructuralError(f"{label} table has {len(table)} rows, expected {n}")
        rows = []
        for i, row in enumerate(table):
            if len(row) != n:
                raise StructuralError(
                    f"{label} table row {i} has {len(row)} entries, expected {n}")
            try:
                rows.append(tuple(map(index, row)))
            except (KeyError, TypeError):
                entry = next(e for e in row if e not in names)
                raise StructuralError(
                    f"{label} table entry {entry!r} is not a declared element") from None
        tables.append(tuple(rows))
    arrow, squig = tables
    return PseudoBciAlgebra(names=names, unit=pos[spec.unit], arrow=arrow, squig=squig)


def collect_violations(spec: AlgebraSpec | PseudoBciAlgebra) -> list[Violation]:
    """Every failed axiom instance of psBCI1..psBCI5, in scan order.

    Structural problems raise StructuralError instead of being reported as
    violations.  ``validate`` passes the unvalidated algebra it has read
    from the spec, whose columns the sanity suite reuses.

    psBCI1 is (x->y) ~> [(y->z) ~> (x->z)] = 1 and psBCI2 the same with the
    tables swapped.  For fixed x and y the pass over z reads each bracket
    (y->z) ~> (x->z) from the column of squig at x->z and looks it up in
    the one row squig[x->y]; psBCI2 reads the other tables.  Only a pair
    (x, y) at which some z fails is scanned again, one z at a time, to list
    its violations.
    """
    A = spec if isinstance(spec, PseudoBciAlgebra) else _index_tables(spec)
    unit, arrow, squig, names = A.unit, A.arrow, A.squig, A.names
    n = len(names)
    rng = range(n)
    out: list[Violation] = []

    au, su = arrow[unit], squig[unit]
    if au != tuple(rng) or su != tuple(rng):
        for x in rng:
            if au[x] != x:
                out.append(Violation(
                    "psBCI3", (names[x],),
                    f"1 -> {names[x]} = {names[au[x]]}, expected {names[x]}"))
            if su[x] != x:
                out.append(Violation(
                    "psBCI4", (names[x],),
                    f"1 ~> {names[x]} = {names[su[x]]}, expected {names[x]}"))
    arrow_cols, squig_cols = A.columns
    for x, ax, to_x in zip(rng, arrow, arrow_cols):
        for y in range(x + 1, n):
            if ax[y] == unit and to_x[y] == unit:
                out.append(Violation(
                    "psBCI5", (names[x], names[y]),
                    "both implications equal 1 for distinct elements"))
    for x, ax, sx in zip(rng, arrow, squig):
        # entry z of each list: the column ? ~> (x->z), resp. ? -> (x~>z)
        sq_cols = [squig_cols[c] for c in ax]
        ar_cols = [arrow_cols[c] for c in sx]
        for y, ay, sy, axy, sxy in zip(rng, arrow, squig, ax, sx):
            s_row, a_row = squig[axy], arrow[sxy]   # (x->y) ~> ?, (x~>y) -> ?
            for s_col, a, a_col, b in zip(sq_cols, ay, ar_cols, sy):
                if s_row[s_col[a]] != unit or a_row[a_col[b]] != unit:
                    break
            else:
                continue                            # no z fails at (x, y)
            for z in rng:                           # list the failing z
                v = s_row[squig[ay[z]][ax[z]]]
                if v != unit:
                    out.append(Violation(
                        "psBCI1", (names[x], names[y], names[z]),
                        f"(x->y) ~> [(y->z) ~> (x->z)] = {names[v]}"))
                w = a_row[arrow[sy[z]][sx[z]]]
                if w != unit:
                    out.append(Violation(
                        "psBCI2", (names[x], names[y], names[z]),
                        f"(x~>y) -> [(y~>z) -> (x~>z)] = {names[w]}"))
    return out


def validate(spec: AlgebraSpec, *, max_size: int | None = None) -> PseudoBciAlgebra:
    """Check the axioms and build the immutable algebra.

    Raises StructuralError for malformed input or a universe above the
    "universe" cap (``max_size`` if given), ValidationError carrying the
    complete violation list when any axiom fails, and
    InternalInconsistencyError if the axioms pass but the theorem-backed
    sanity suite does not (an implementation bug, by Lemma-level results
    that hold in every pseudo-BCI algebra).
    """
    A = _index_tables(spec)
    check_cap(A.size, "universe", max_size)
    violations = collect_violations(A)
    if violations:
        raise ValidationError(violations)
    failures = _sanity_failures(A)
    if failures:
        raise InternalInconsistencyError(
            "axioms hold but derived laws fail (package bug): "
            + "; ".join(failures))
    return A


# The sanity suite: each derived law by its label, in the order the
# witness scan of _sanity_failures states them, with the name it reports.
SANITY_LAWS = {
    "(1)": "x->x=1",
    "(9)": "1<=x implies x=1",
    "(11)": "x->1=x~>1",
    "(2)": "x<=(x->y)~>y",
    "(3)": "x->y=1 iff x~>y=1",
    "(12)": "(x->y)->1=(x->1)~>(y->1)",
    "(12')": "(x~>y)~>1=(x~>1)->(y~>1)",
    "(4)": "x<=y->z iff y<=x~>z",
    "(5)": "x<=y implies y->z<=x->z",
    "(6)": "x<=y implies z->x<=z->y",
    "(10)": "transitivity",
    "(7)": "x->y<=(z->x)->(z->y)",
    "(8)": "x->(y~>z)=y~>(x->z)",
}


def _sanity_failures(A: PseudoBciAlgebra) -> list[str]:
    """First witness for each violated law of the twelve-law sanity suite,
    in the order first seen.

    Every law is a theorem of the five axioms, so any failure here means a
    bug in the validator or in these very loops, not bad input.  Laws (1),
    (9) and (11) are single entries per x, and (2), (3), (12) and (12')
    per pair (x, y); each reports its witness where it fails.  The laws
    over z are decided per pair in one pass: (4) and (8) compare two whole
    rows over z built by _pickers; (7) reads (z->x) -> (z->y) from the rows
    (z->x) -> and the column y of arrow, and likewise for ~>; (5), (6) and
    (10) run over z only when x <= y.  Only a pair at which one of them
    fails is scanned again, one z at a time, for its witnesses.
    """
    n = A.size
    u = A.unit
    arrow, squig, leq = A.arrow, A.squig, A.leq
    names = A.names
    rng = range(n)
    arrow_cols, squig_cols = A.columns
    pa, ps = A.pickers
    to_u, sq_to_u = arrow_cols[u], squig_cols[u]      # x -> 1, x ~> 1
    fails: dict[str, str] = {}

    def report(law: str, *xs: int) -> None:
        if law not in fails:
            fails[law] = f"{SANITY_LAWS[law]} at ({', '.join(names[i] for i in xs)})"

    for x, ax, sx in zip(rng, arrow, squig):
        if ax[x] != u or sx[x] != u:
            report("(1)", x)
        if leq[u][x] and x != u:
            report("(9)", x)
        if ax[u] != sx[u]:
            report("(11)", x)
    for x, ax, sx, lx in zip(rng, arrow, squig, leq):
        axu, sxu = ax[u], sx[u]
        pax, psx = pa[x], ps[x]
        acx, scx = arrow_cols[x], squig_cols[x]
        # entry z of each list: the row (z -> x) ->, resp. (z ~> x) ~>
        ar_zx = [arrow[c] for c in acx]
        sq_zx = [squig[c] for c in scx]
        for y, ay, sy, ly in zip(rng, arrow, squig, leq):
            axy, sxy = ax[y], sx[y]
            if not lx[squig[axy][y]] or not lx[arrow[sxy][y]]:
                report("(2)", x, y)
            if (axy == u) != (sxy == u):
                report("(3)", x, y)
            if arrow[axy][u] != squig[axu][to_u[y]]:
                report("(12)", x, y)
            if squig[sxy][u] != arrow[sxu][sq_to_u[y]]:
                report("(12')", x, y)
            acy, scy = arrow_cols[y], squig_cols[y]
            la, ls = leq[axy], leq[sxy]
            holds = pa[y](lx) == psx(ly) and ps[y](ax) == pax(sy)           # (4), (8)
            if holds:
                for a_row, a, s_row, b in zip(ar_zx, acy, sq_zx, scy):      # (7)
                    if not la[a_row[a]] or not ls[s_row[b]]:
                        holds = False
                        break
            if holds and lx[y]:                                # x <= y: (5), (6), (10)
                for z in rng:
                    if (not leq[ay[z]][ax[z]] or not leq[sy[z]][sx[z]]
                            or not leq[acx[z]][acy[z]] or not leq[scx[z]][scy[z]]
                            or ly[z] and not lx[z]):
                        holds = False
                        break
            if holds:
                continue
            # some law fails at (x, y) for some z: list its first witnesses
            for z in rng:
                if lx[ay[z]] != ly[sx[z]]:
                    report("(4)", x, y, z)
                if lx[y]:
                    if not leq[ay[z]][ax[z]] or not leq[sy[z]][sx[z]]:
                        report("(5)", x, y, z)
                    if not leq[acx[z]][acy[z]] or not leq[scx[z]][scy[z]]:
                        report("(6)", x, y, z)
                    if ly[z] and not lx[z]:
                        report("(10)", x, y, z)
                if not la[ar_zx[z][acy[z]]] or not ls[sq_zx[z][scy[z]]]:
                    report("(7)", x, y, z)
                if ax[sy[z]] != sy[ax[z]]:
                    report("(8)", x, y, z)
    return list(fails.values())


# ---------------------------------------------------------------------------
# structural notions: atoms, BCK part, branches


def _is_atom(A: PseudoBciAlgebra, a: int) -> bool:
    u = A.unit
    return A.arrow[A.arrow[a][u]][u] == a


def _join_fixed(A: PseudoBciAlgebra) -> tuple[frozenset[int], frozenset[int]]:
    r"""The elements v with v \/k y = v for every y, for k = 1 and 2."""
    n = A.size
    return tuple(frozenset(v for v, row in enumerate(join) if row.count(v) == n)
                 for join in A.joins)


def _atom_characterizations(A: PseudoBciAlgebra, a: int,
                            fixed: tuple[frozenset[int], frozenset[int]],
                            ) -> list[tuple[str, bool]]:
    """The ten equivalent membership tests (b)..(k) for a in At(A).

    Each test quantifies over x (and y) as in the paper, a whole column at
    a time: (c)-(f), (i) and (j) compare the column x |-> x -> a or
    x |-> x ~> a with a composed row; (g) and (h) ask whether every entry of
    that column is fixed by a join, and (b) whether a itself is.  ``fixed``
    is _join_fixed(A), shared by every a.
    """
    u = A.unit
    arrow, squig = A.arrow, A.squig
    arrow_cols, squig_cols = A.columns
    by_arrow_col, by_squig_col = A.column_pickers
    cup1_fixed, cup2_fixed = fixed
    to_a, sq_to_a = arrow_cols[a], squig_cols[a]
    return [
        ("b", a in cup1_fixed and a in cup2_fixed),
        ("c", to_a == tuple(map(squig_cols[u].__getitem__, arrow[a]))),
        ("d", sq_to_a == tuple(map(arrow_cols[u].__getitem__, squig[a]))),
        ("e", all(to_a == by_arrow_col[y](squig[arrow[a][y]])
                  for y in A.elements())),
        ("f", all(sq_to_a == by_squig_col[y](arrow[squig[a][y]])
                  for y in A.elements())),
        ("g", cup2_fixed.issuperset(to_a)),
        ("h", cup1_fixed.issuperset(sq_to_a)),
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
    fixed = _join_fixed(A)
    for x in A.elements():
        for label, holds in _atom_characterizations(A, x, fixed):
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
    result = {
        a: frozenset(x for x in A.elements() if A.leq[x][a])
        for a in sorted(A.atoms)
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
    cup1, cup2 = A.joins
    rng = range(n)

    a = all(not leq[x][u] or x == u for x in rng)
    b = all(not leq[x][y] or x == y for x in rng for y in rng)
    c = all(cup1[x][y] == x and cup2[x][y] == x for x in rng for y in rng)
    d = all(squig[arrow[x][u]][u] == x and arrow[squig[x][u]][u] == x for x in rng)
    e = all(squig[arrow[x][u]][y] == arrow[squig[y][u]][x] for x in rng for y in rng)
    f = all(len(set(col)) == n for col in A.columns[0])
    g = all(len(set(col)) == n for col in A.columns[1])
    h = all(_is_atom(A, x) for x in rng)
    i = _group_axioms_hold(A)
    return [("a", a), ("b", b), ("c", c), ("d", d), ("e", e),
            ("f", f), ("g", g), ("h", h), ("i", i)]


def _group_axioms_hold(A: PseudoBciAlgebra) -> bool:
    """Whether x.y = (x->1)~>y with x^-1 = x->1 is a group reconstructing
    both implications; quantified over the full table."""
    n = A.size
    u = A.unit
    arrow, squig, prod = A.arrow, A.squig, A.product
    inv = A.columns[0][u]             # x -> 1
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


def _is_medial(outer: Table, inner: Table, pick: list[Picker]) -> bool:
    """Whether (p * q) . (x * y) = (p * x) . (q * y) for all p, q, x, y,
    with . the outer and * the inner implication; pick is _pickers(inner).

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
    n = A.size
    arrow, squig, leq = A.arrow, A.squig, A.leq
    cup1, cup2 = A.joins
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
        cup1[x][y] == x and cup2[x][y] == x
        for x in rng for y in rng if leq[y][x])
    is_branchwise = all(
        cup1[x][y] == cup1[y][x] and cup2[x][y] == cup2[y][x]
        for block in A.branches.values() for x in block for y in block)

    pick_arrow, pick_squig = A.pickers
    is_medial_arrow = _is_medial(arrow, squig, pick_squig)
    is_medial_squig = _is_medial(squig, arrow, pick_arrow)

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
    """The group structure of a p-semisimple algebra.

    Raises NotPSemisimpleError unless the classification says p-semisimple.
    ``classify`` has verified the group axioms there already, as
    characterization (i), against the other eight.
    """
    if not A.classification.is_p_semisimple:
        raise NotPSemisimpleError(
            "group view requires a p-semisimple algebra (BCK part = {1})")
    return GroupView(product=A.product, inverse=A.columns[0][A.unit],
                     identity=A.unit)


def is_subalgebra(A: PseudoBciAlgebra, members: Iterable[int]) -> bool:
    """True iff the subset contains 1 and is closed under both implications."""
    s = frozenset(members)
    if A.unit not in s:
        return False
    return all(A.arrow[x][y] in s and A.squig[x][y] in s for x in s for y in s)
