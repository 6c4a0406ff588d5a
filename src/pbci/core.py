"""Validated finite pseudo-BCI algebras and their structural invariants.

An algebra lives on indices 0..n-1 with display names attached; both
implication tables are dense tuples so every operation is a table lookup.
The algebra's four fields are its names, unit and two tables.  The tables
derived from them and the structure every result is stated over (atoms,
K(A), branches, classification) are cached properties of the algebra, each
built on first use and kept, so each crosscheck behind the structure runs
once per algebra.  The order x <= y iff x -> y = 1 lives only in the byte
views, as rows and columns of 0/1 bytes.
``validate`` is the first of two intended constructors of
:class:`PseudoBciAlgebra`: it checks the five defining axioms and runs a
suite of theorem-backed sanity checks whose failure can only mean a bug in
this package, never bad input.  The second is
``PseudoBciAlgebra.renamed``, which keeps the tables ``validate`` accepted
and every cached property built from them; ``dsystems.quotient`` calls it
when every congruence class is a singleton.

``validate`` is reading plus one check.  It reads the tables in one pass
into an unvalidated algebra (``_index_tables`` and the universe cap), and
``check_algebra`` runs the axiom scan (``collect_violations``) and the
sanity suite (``_sanity_failures``) on that instance, which it returns once
both pass.  The search's class representatives and the other quotients
are index tables already, so ``search`` and ``dsystems.quotient`` build
the algebra from them and enter at ``check_algebra``: the same check with
the same errors.  One pass of byte blocks decides every instance of every
law of both (``_failing_pairs``, kept as the cached ``failing_pairs``).
``ByteTables`` holds the tables as bytes, so composing a row with a table
is one ``bytes.translate`` and n of them joined make an n x n block over
two of the variables: the pass makes O(n^2) C calls on blocks of n^2
bytes, never an n^3 buffer, and it is the one scan at every n.  The block
of laws (5) and (6), which the pass reads only where x <= y, is built only
for an x with a strict upper bound; for the others, every element of a
p-semisimple algebra among them, its one column is read off the diagonal
v |-> v -> v.  A translate table has 256 entries, so an algebra has at
most 256 elements (``MAX_ELEMENTS``), a limit no size cap lifts.  Both
checks then rescan only a pair (x, y) at which some instance fails, one z
at a time, to list what fails there.  So every violation (and every
sanity witness) is reported with the same text and in the same order as
an instance-by-instance scan.

psBCI5 is one mask test of the order against its transpose.
The steps after validation read the same views: K(A) and each branch are
columns of the order, each join table is n translated columns, and the
columns are the byte columns as tuples.  ``is_subalgebra`` is the one
closure test: both rows of every member, gathered at the members, must
hold members alone; deductive systems and kernels go through it.
Membership in a subset is one translate through a 256-byte table
(``member_map``), which ``dsystems`` uses for deductive systems and
congruences.

The classification crosschecks keep every quantifier of the laws they test,
but evaluate the inner one a row or a block at a time on the same byte
views: group associativity compares a block over (y, z) per x, and the
medial laws compare ids of composed rows.  The atom test is
(a -> 1) -> 1 = a, crosschecked against the characterizations (b)-(d)
alone: (b) reads row a of both joins, and (c) and (d) compare a column
with a composed row.  The other seven, the branch partition and
"p-semisimple implies commutative" follow from (b)-(d), the sanity laws
and lemma L2 of ``theorems``; ``_atom_characterizations``, ``branches`` and
``classify`` give the proofs.  p-semisimplicity (c), (d) and (h), atom
tests at every element, read the crosschecked atom set; (e) compares a
row with a translated column per element; (i) is the group axioms and the
reconstruction.  Everything is pure Python; numpy would cost more
at start-up than it saves on these tables.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import compress
from typing import Iterable, NamedTuple

from .errors import (
    InternalInconsistencyError,
    NotPSemisimpleError,
    StructuralError,
    ValidationError,
)
from .limits import check_cap

Table = tuple[tuple[int, ...], ...]
Pairs = tuple[tuple[int, int], ...]
# levels of (branch element, ((x, y, mode), ...)); see ``_schedule``
Schedule = tuple[tuple[int, tuple[tuple[int, int, int], ...]], ...]

# bytes.translate maps bytes through a 256-entry table, so an algebra's
# byte views, and with them every algebra, hold at most this many elements
MAX_ELEMENTS = 256


class ByteTables(NamedTuple):
    """Both tables and the order as bytes, for composing with bytes.translate.

    Index 0 is the arrow table, index 1 the squig table.  ``rows[k][x]`` and
    ``cols[k][y]`` are row x and column y; ``maps`` and ``col_maps`` are the
    same padded to 256 bytes, so ``s.translate(maps[0][a])`` is a -> s[i]
    and ``s.translate(col_maps[0][a])`` is s[i] -> a, entry by entry.  So the
    row y |-> outer[a][inner[b][y]] of a composed table is one C call,
    ``inner_rows[b].translate(outer_maps[a])``, and n rows joined make an
    n x n block.  ``order[x]`` is row x of the order table as 0/1 bytes,
    padded likewise: ``s.translate(order[x])`` marks the entries above x.
    ``order_cols[y]`` is column y of the order, unpadded: byte x marks
    x <= y.  These two are the algebra's only order table.
    """

    rows: tuple[tuple[bytes, ...], tuple[bytes, ...]]
    cols: tuple[tuple[bytes, ...], tuple[bytes, ...]]
    maps: tuple[tuple[bytes, ...], tuple[bytes, ...]]
    col_maps: tuple[tuple[bytes, ...], tuple[bytes, ...]]
    order: tuple[bytes, ...]
    order_cols: tuple[bytes, ...]


@dataclass(frozen=True)
class AlgebraSpec:
    """Raw symbol-level description of an algebra, prior to validation."""

    names: tuple[str, ...]
    unit: str
    arrow: tuple[tuple[str, ...], ...]  # row x, column y holds x -> y
    squig: tuple[tuple[str, ...], ...]  # row x, column y holds x ~> y


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
    tables and the structure (atoms, K(A), branches, classification, each
    the public function of this module called on the algebra) are cached
    properties, built on first use and kept.  They are not fields, so
    ``==``, ``hash`` and ``dataclasses.replace`` see only the four fields.
    The order is read from the byte views alone (``ByteTables.order`` and
    ``order_cols``); ``le`` looks up one entry.
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
        return self.byte_tables.order[x][y] == 1

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
    def columns(self) -> tuple[Table, Table]:
        """Both tables by column: [0][y][x] = x -> y and [1][y][x] = x ~> y,
        read off the byte views."""
        return tuple(tuple(map(tuple, cols)) for cols in self.byte_tables.cols)

    @cached_property
    def joins(self) -> tuple[Table, Table]:
        r"""Both join tables: [0][x][y] = x \/1 y = cup1(x, y) and
        [1][x][y] = x \/2 y = cup2(x, y), the rows of ``_cup_columns``."""
        n = len(self.names)
        nn = n * n
        cups = _cup_columns(self.byte_tables)
        return (tuple([tuple(cups[x:nn:n]) for x in range(n)]),
                tuple([tuple(cups[nn + x::n]) for x in range(n)]))

    @cached_property
    def product(self) -> Table:
        """product[x][y] = (x -> 1) ~> y: row x is the squig row at x -> 1.
        On a p-semisimple algebra it is the group product."""
        u = self.unit
        return tuple(self.squig[row[u]] for row in self.arrow)

    @cached_property
    def byte_tables(self) -> ByteTables:
        """Both tables, by row and by column, and the order, as bytes."""
        n = len(self.names)
        pad = bytes(256 - n)
        is_unit = member_map((self.unit,))
        rows = tuple(map(bytes, self.arrow)), tuple(map(bytes, self.squig))
        cols = tuple(tuple([flat[y::n] for y in range(n)])
                     for flat in map(b"".join, rows))
        return ByteTables(
            rows, cols,
            tuple(tuple([r + pad for r in table]) for table in rows),
            tuple(tuple([c + pad for c in table]) for table in cols),
            tuple([r.translate(is_unit) + pad for r in rows[0]]),
            tuple([c.translate(is_unit) for c in cols[0]]))

    @cached_property
    def failing_pairs(self) -> tuple[Pairs, Pairs]:
        """Where the axiom scan, resp. the sanity suite, must list failing
        instances: ``_failing_pairs(self)``, empty twice once validated."""
        return _failing_pairs(self)

    @cached_property
    def preimages(self) -> Table:
        """The arrow table as preimage masks: bit y of [x][v] is set iff
        x -> y = v.  Only the ->-detachment closure of ``dsystems`` reads
        them; the squig form decides the same deductive systems."""
        n = len(self.names)
        rows = []
        for row in self.arrow:
            masks = [0] * n
            for y, v in enumerate(row):
                masks[v] |= 1 << y
            rows.append(tuple(masks))
        return tuple(rows)

    @cached_property
    def derivation_schedule(self) -> Schedule:
        """The propagation schedule of identities that read d(x) and d(y)
        at a pair (x, y), ``_schedule(self, True)``.  Only the solver of
        ``derivations`` reads it, for all six classes."""
        return _schedule(self, True)

    @cached_property
    def translation_schedule(self) -> Schedule:
        """The propagation schedule of identities that read d(y) alone at a
        pair (x, y), ``_schedule(self, False)``: the translation route."""
        return _schedule(self, False)

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


def member_map(members: Iterable[int], inside: int = 1, outside: int = 0) -> bytes:
    """A 256-byte translate table: v |-> inside for the v in members, and
    outside for every other byte."""
    table = bytearray([outside]) * 256
    for v in members:
        table[v] = inside
    return bytes(table)


def gather(maps: Iterable[tuple[bytes, ...]], xs: bytes, ys: bytes) -> bytes:
    """Row x of each table in maps at the columns ys, for each x in xs, as
    one block: the entries x op y, y in ys, x by x."""
    return b"".join([ys.translate(m[x]) for x in xs for m in maps])


def _cup_columns(bt: ByteTables) -> bytes:
    r"""Both join tables by column as one block: entry y*n + x is
    x \/1 y = (x->y) ~> y, then from n*n on x \/2 y = (x~>y) -> y.  Column y
    of a join is column y of one table sent through the other's map to y."""
    (arrow_cols, squig_cols), (arrow_to, squig_to) = bt.cols, bt.col_maps
    return b"".join([c.translate(t) for c, t in zip(arrow_cols + squig_cols,
                                                     squig_to + arrow_to)])


def _schedule(A: PseudoBciAlgebra, reads_x: bool) -> Schedule:
    """When propagation fixes each image of a self-map, for identities that
    instantiate at every pair (x, y), read d(y) (and d(x) when reads_x) and
    fix d(x -> y) and d(x ~> y) from what they read.

    A row fires as soon as every image it reads is known, whatever those
    images are, so which images are known after branching on d(1), then on
    the lowest unknown element, and so on, depends on the tables, the unit
    and the read pattern alone.  Each level is a branch element and the
    pairs whose rows first fire once it is known, in the order a first in,
    first out queue of newly known elements reaches them, each element's
    rows in pair order: that order decides how early a clash shows, and
    watch lists that put the pairs (e, y) before the pairs (x, e) made
    enumeration on bck5^2 and chain2^6 15-27% slower.  Bit 1 (2) of a pair's mode is set iff the row
    assigns d(x -> y) (d(x ~> y)), which is still unknown when it runs;
    a clear bit means the row checks that image.  So every pair lies in
    exactly one level, and every element is known by exactly one write:
    its branch or one mode bit.
    """
    n, unit, arrow, squig = len(A.names), A.unit, A.arrow, A.squig
    watch: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for x in range(n):
        for y in range(n):
            watch[y].append((x, y))
            if reads_x and x != y:
                watch[x].append((x, y))
    known = [False] * n
    fired = [[False] * n for _ in range(n)]
    levels = []
    for e in (unit, *range(n)):
        if known[e]:
            continue
        known[e] = True
        queue = [e]
        rows = []
        for f in queue:
            for x, y in watch[f]:
                if fired[x][y] or not (known[y] and (known[x] or not reads_x)):
                    continue
                fired[x][y] = True
                mode = 0
                for bit, t in ((1, arrow[x][y]), (2, squig[x][y])):
                    if not known[t]:
                        known[t] = True
                        queue.append(t)
                        mode |= bit
                rows.append((x, y, mode))
        levels.append((e, tuple(rows)))
    return tuple(levels)


def _index_tables(spec: AlgebraSpec) -> PseudoBciAlgebra:
    """The spec as an unvalidated algebra, read in one pass that raises
    StructuralError unless names, unit and tables are well-formed."""
    names = spec.names
    n = len(names)
    if n == 0:
        raise StructuralError("empty universe")
    if n > MAX_ELEMENTS:
        raise StructuralError(
            f"size {n} exceeds the limit of {MAX_ELEMENTS} elements, "
            "which no cap lifts")
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


def _failing_pairs(A: PseudoBciAlgebra) -> tuple[Pairs, Pairs]:
    """The decide step of the axiom scan and the sanity suite, one pass of
    byte blocks: the pairs (x, y), in scan order, at which psBCI1 or psBCI2
    fails for some z, and those at which a sanity law over pairs, or one
    over triples for some z, fails.

    (3), (12) and (12') compare two blocks over all (x, y) at once, and (2)
    a row over y per x.  For each x, (4) and (8) compare two blocks over
    (z, y): a table's joined columns sent through one row against a join
    of its columns.  Four more blocks over (z, y) are joins of n translated
    rows or columns; the stride-n slice of one at y runs over z.  The
    brackets (y->z) ~> (x->z) of psBCI1, sent through the row (x->y) ~>,
    must give 1 throughout, as must the brackets (y~>z) -> (x~>z) of psBCI2
    and (z~>x) ~> (z~>y) of (7'), sent through (x~>y) ->, and
    (z->x) -> (z->y) of (7), sent through (x->y) ->.  At the y with x <= y,
    (6) asks that (z->x) -> (z->y) and (z~>x) -> (z~>y) be 1 throughout, (5)
    the same of (y->z) -> (x->z) and (y~>z) -> (x~>z), and (10) compares
    the order rows of x and y as bit masks.  Only where a block differs is
    each y looked at.

    Two of those four brackets, (y->z) -> (x->z) and (z~>x) -> (z~>y), have
    a block of their own, which is read only at the y with x <= y.  So it
    is built only for an x with a strict upper bound, some y != x with
    x <= y.  For any other x that branch is reached at y = x alone, if at
    all, where the block's column over z is (x->z) -> (x->z) and then
    (z~>x) -> (z~>x): x's row of arrow and column of squig sent through the
    diagonal v |-> v -> v.  Both readings give the same bytes on every
    table, valid or not.  In a valid algebra the unit has no strict upper
    bound, and in a p-semisimple one no element has.
    """
    n, u = A.size, A.unit
    nn = n * n
    bt = A.byte_tables
    (arrow, squig), (arrow_cols, squig_cols) = bt.rows, bt.cols
    (to_arrow, to_squig), (arrow_to, squig_to) = bt.maps, bt.col_maps
    order = bt.order
    units = bytes([u]) * n
    units2, trues2 = units * 2, bytes([1]) * (2 * n)
    is_unit = member_map((u,))
    flat_arrow, flat_squig = b"".join(arrow), b"".join(squig)
    columns_arrow, columns_squig = b"".join(arrow_cols), b"".join(squig_cols)
    # three blocks over (x, y) side by side: (3) marks x -> y = 1 and
    # x ~> y = 1, and (12) and (12') give both sides
    lhs = b"".join((flat_arrow.translate(is_unit), flat_arrow.translate(arrow_to[u]),
                    flat_squig.translate(squig_to[u])))
    to_u, sq_to_u = arrow_cols[u], squig_cols[u]       # x -> 1, x ~> 1
    rhs = b"".join([flat_squig.translate(is_unit),
                    *[to_u.translate(to_squig[v]) for v in to_u],
                    *[sq_to_u.translate(to_arrow[v]) for v in sq_to_u]])
    pairs_hold = lhs == rhs
    cups = _cup_columns(bt)     # entry y*n + x: x \/1 y, then x \/2 y
    up = [int.from_bytes(row[:n], "big") for row in order]  # byte z: x <= z
    # column v of arrow, 1 where its entry is 1, and column v of squig
    arrow_col_units = bt.order_cols.__getitem__
    squig_col = squig_cols.__getitem__
    # Each x's blocks over (z, y) are six parts of n rows.  Row z of a part
    # is a row or column sent through the translate table that the entry z
    # of a row or column of x picks: the brackets (y->z) ~> (x->z) of
    # psBCI1; (z->x) -> (z->y); the brackets (y~>z) -> (x~>z) of psBCI2;
    # (z~>x) ~> (z~>y); (y->z) -> (x->z); and (z~>x) -> (z~>y).
    sources = arrow_cols + arrow + squig_cols + squig + arrow_cols + squig
    tables = ((squig_to,) * n + (to_arrow,) * n + (arrow_to,) * n + (to_squig,) * n
              + (arrow_to,) * n + (to_arrow,) * n)
    n2, n4 = 2 * n, 4 * n
    sources4, tables4 = sources[:n4], tables[:n4]   # all but (5) and (6)
    diag = flat_arrow[::n + 1] + bytes(256 - n)     # v |-> v -> v
    axiom_pairs, sanity_pairs = [], []
    for x, ax, sx, ox in zip(range(n), arrow, squig, order):
        # (2): x <= x \/1 y, then x <= x \/2 y, over y
        above = cups[x::n].translate(ox)
        hold2 = pairs_hold and above == trues2
        # entry z*n + y: both sides of (4), then from n*n on of (8)
        lhs48 = columns_arrow.translate(ox) + columns_squig.translate(to_arrow[x])
        rhs48 = b"".join([*map(arrow_col_units, sx), *map(squig_col, ax)])
        hold48 = lhs48 == rhs48
        # entry z*n + y: psBCI1; (7); psBCI2, then from n*n on (7'); and
        # (5) for arrow, then (6) for squig if x has a strict upper bound,
        # else only its column at y = x, read off the diagonal
        if ox.count(1) > ox[x]:
            picks = b"".join((ax, arrow_cols[x], sx, squig_cols[x], ax, squig_cols[x]))
            composed = [s.translate(t[v]) for s, t, v in zip(sources, tables, picks)]
            b56 = b"".join(composed[n4:])
        else:
            picks = b"".join((ax, arrow_cols[x], sx, squig_cols[x]))
            composed = [s.translate(t[v]) for s, t, v in zip(sources4, tables4, picks)]
            b56, col56 = None, ax.translate(diag) + squig_cols[x].translate(diag)
        b1, b7 = b"".join(composed[:n]), b"".join(composed[n:n2])
        b2 = b"".join(composed[n2:n4])
        up_x = up[x]
        for y, axy, sxy in zip(range(n), ax, sx):
            col2 = b2[y::n]
            sent2 = col2.translate(to_arrow[sxy])
            hold_both2 = sent2 == units2
            if (b1[y::n].translate(to_squig[axy]) != units
                    or not hold_both2 and sent2[:n] != units):
                axiom_pairs.append((x, y))
            col7 = b7[y::n]
            if ((hold2 or (above[y] and above[n + y]
                           and lhs[x * n + y::nn] == rhs[x * n + y::nn]))
                    and (hold48 or lhs48[y::n] == rhs48[y::n])
                    and (hold_both2 or sent2[n:] == units)
                    and col7.translate(to_arrow[axy]) == units
                    and (not ox[y]
                         or (col7 == units and col2[:n] == units
                             and (col56 if b56 is None else b56[y::n]) == units2
                             and not up[y] & ~up_x))):
                continue
            sanity_pairs.append((x, y))
    return tuple(axiom_pairs), tuple(sanity_pairs)


def collect_violations(spec: AlgebraSpec | PseudoBciAlgebra) -> list[Violation]:
    """Every failed axiom instance of psBCI1..psBCI5, in scan order.

    Structural problems raise StructuralError instead of being reported as
    violations.  ``validate`` passes the unvalidated algebra it has read
    from the spec, whose byte views the sanity suite reuses.

    psBCI1 is (x->y) ~> [(y->z) ~> (x->z)] = 1 and psBCI2 the same with the
    tables swapped.  Byte blocks decide, for each pair (x, y), whether every
    z passes (``failing_pairs``); only a pair at which some z fails is
    scanned again, one z at a time, to list its violations.  psBCI5 is one
    AND of the order bytes with their transpose, whose set bits off the
    diagonal are its violations.
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
    # bit 8(x*n + y) of both: x <= y and y <= x, off the diagonal
    down = b"".join(A.byte_tables.order_cols)       # byte y*n + x: x <= y
    up = b"".join([down[x::n] for x in rng])        # byte x*n + y: x <= y
    both = (int.from_bytes(up, "little") & int.from_bytes(down, "little")
            & ~int.from_bytes((b"\x01" + bytes(n)) * n, "little"))
    while both:                                     # in scan order
        low = both & -both
        both ^= low
        x, y = divmod(low.bit_length() // 8, n)
        if x < y:
            out.append(Violation(
                "psBCI5", (names[x], names[y]),
                "both implications equal 1 for distinct elements"))
    for x, y in A.failing_pairs[0]:                 # list the failing z
        ax, sx, ay, sy = arrow[x], squig[x], arrow[y], squig[y]
        s_row, a_row = squig[ax[y]], arrow[sx[y]]   # (x->y) ~> ?, (x~>y) -> ?
        for z in rng:
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
    return check_algebra(A)


def check_algebra(A: PseudoBciAlgebra) -> PseudoBciAlgebra:
    """The checking half of ``validate``: A itself once the axiom scan and
    the sanity suite pass, with the same errors.

    For callers that hold well-formed index tables already (the search's
    class representatives, a quotient's class tables), which enter here
    instead of spelling the tables out as names for ``validate`` to read
    back.  Every entry must be an index below ``A.size`` <= MAX_ELEMENTS.
    """
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
    (9) and (11) are single entries per x.  Byte blocks decide, for each
    pair (x, y), whether the laws over pairs hold there and those over
    triples hold for every z (``failing_pairs``); only a pair at which one
    of them fails is scanned again, one z at a time, for its witnesses.
    """
    n = A.size
    u = A.unit
    arrow, squig = A.arrow, A.squig
    names = A.names
    rng = range(n)
    fails: dict[str, str] = {}

    def report(law: str, *xs: int) -> None:
        if law not in fails:
            fails[law] = f"{SANITY_LAWS[law]} at ({', '.join(names[i] for i in xs)})"

    for x, ax, sx, above_unit in zip(rng, arrow, squig, A.byte_tables.order[u]):
        if ax[x] != u or sx[x] != u:
            report("(1)", x)
        if above_unit and x != u:
            report("(9)", x)
        if ax[u] != sx[u]:
            report("(11)", x)
    leq = A.byte_tables.order
    for x, y in A.failing_pairs[1]:
        ax, sx, ay, sy, lx, ly = arrow[x], squig[x], arrow[y], squig[y], leq[x], leq[y]
        axy, sxy = ax[y], sx[y]
        if not lx[squig[axy][y]] or not lx[arrow[sxy][y]]:
            report("(2)", x, y)
        if (axy == u) != (sxy == u):
            report("(3)", x, y)
        if arrow[axy][u] != squig[ax[u]][arrow[y][u]]:
            report("(12)", x, y)
        if squig[sxy][u] != arrow[sx[u]][squig[y][u]]:
            report("(12')", x, y)
        la, ls = leq[axy], leq[sxy]
        for z, az, sz in zip(rng, arrow, squig):
            if lx[ay[z]] != ly[sx[z]]:
                report("(4)", x, y, z)
            if lx[y]:
                if not leq[ay[z]][ax[z]] or not leq[sy[z]][sx[z]]:
                    report("(5)", x, y, z)
                if not leq[az[x]][az[y]] or not leq[sz[x]][sz[y]]:
                    report("(6)", x, y, z)
                if ly[z] and not lx[z]:
                    report("(10)", x, y, z)
            if not la[arrow[az[x]][az[y]]] or not ls[squig[sz[x]][sz[y]]]:
                report("(7)", x, y, z)
            if ax[sy[z]] != sy[ax[z]]:
                report("(8)", x, y, z)
    return list(fails.values())


# ---------------------------------------------------------------------------
# structural notions: atoms, BCK part, branches


def _is_atom(A: PseudoBciAlgebra, a: int) -> bool:
    u = A.unit
    return A.arrow[A.arrow[a][u]][u] == a


def _atom_characterizations(A: PseudoBciAlgebra, a: int) -> list[tuple[str, bool]]:
    r"""The membership tests (b), (c) and (d) for a in At(A), each over every
    x: (b) a \/1 x = a \/2 x = a, read off row a of both joins; (c)
    x -> a = (a -> x) ~> 1 and (d) x ~> a = (a ~> x) -> 1, a column against
    a composed row, one translate each.

    The paper's other seven characterizations hold iff a passes the atom
    test (a -> 1) -> 1 = a, given (b)-(d), the sanity laws of
    ``check_algebra`` (numbered as in ``SANITY_LAWS``) and lemma L2 of
    ``theorems``, so none of the seven is checked.  Lemmas L2-L4 rest on
    (b)-(d), the sanity laws and the partition proved at ``branches``,
    never on (e)-(k), so no step below is circular.
    (k) (a -> 1) ~> 1 = a and (a ~> 1) -> 1 = a: both sides on the left
        equal (a -> 1) -> 1 by (11), so (k) is the atom test.
    (i) x -> a = (a -> 1) ~> (x -> 1): for an atom, x -> a = (a -> x) ~> 1
        by (c), = (a -> x) -> 1 by (11), = (a -> 1) ~> (x -> 1) by (12).
        Conversely x = 1 gives a = (a -> 1) ~> 1 = phi(a) by psBCI3 and
        (1), an atom by L2.
    (j) x ~> a = (a ~> 1) -> (x ~> 1): dually by (d), (11) and (12').
        Conversely x = 1 gives a = (a ~> 1) -> 1 = (a -> 1) -> 1 by psBCI4,
        (1) and (11).
    (e) x -> a = (a -> y) ~> (x -> y): for an atom, psBCI1 at (x, a, y)
        gives x -> a <= (a -> y) ~> (x -> y); x -> a is an atom (L3) and
        an atom lies below nothing else (L4), so the two are equal.
        Conversely y = 1 gives (i).
    (f) x ~> a = (a ~> y) -> (x ~> y): dually by psBCI2; y = 1 gives (j).
    (g), (h) every x -> a is fixed by \/2 and every x ~> a by \/1: for an
        atom, x -> a and x ~> a are atoms, fixed by both joins (L3).
        Conversely x = y = 1 gives a = (a ~> 1) -> 1, the atom test by
        (11), and a = (a -> 1) ~> 1 = phi(a), an atom by L2.
    """
    u = A.unit
    n = A.size
    bt = A.byte_tables
    (arrow, squig), (arrow_cols, squig_cols) = bt.rows, bt.cols
    arrow_to, squig_to = bt.col_maps
    cup1, cup2 = A.joins
    return [
        ("b", cup1[a].count(a) == n and cup2[a].count(a) == n),
        ("c", arrow_cols[a] == arrow[a].translate(squig_to[u])),
        ("d", squig_cols[a] == squig[a].translate(arrow_to[u])),
    ]


def atoms(A: PseudoBciAlgebra) -> frozenset[int]:
    """The minimal elements, computed as {x | (x -> 1) -> 1 = x}.

    Every element's membership is re-derived through the characterizations
    (b)-(d), which imply the other seven (``_atom_characterizations``);
    disagreement raises InternalInconsistencyError since the equivalence is
    a theorem.
    """
    base = frozenset(x for x in A.elements() if _is_atom(A, x))
    for x in A.elements():
        for label, holds in _atom_characterizations(A, x):
            if holds != (x in base):
                raise InternalInconsistencyError(
                    f"atom characterization ({label}) disagrees at {A.names[x]}")
    return base


def is_pseudo_bck(A: PseudoBciAlgebra) -> bool:
    """Whether 1 is the greatest element, i.e. K(A) is the whole universe:
    column 1 of the order holds no 0."""
    return 0 not in A.byte_tables.order_cols[A.unit]


def bck_part(A: PseudoBciAlgebra) -> frozenset[int]:
    """K(A) = {x | x <= 1}, read off column 1 of the order: the x with
    x -> 1 = 1.  It is a compatible closed deductive system, by sanity laws
    that ``check_algebra`` asserts: lemma L6 of ``theorems``, proved at
    ``dsystems.bck_part_system``."""
    return frozenset(compress(A.elements(), A.byte_tables.order_cols[A.unit]))


def branches(A: PseudoBciAlgebra) -> dict[int, frozenset[int]]:
    """Map each atom a to its branch {x | x <= a}, column a of the order.

    The branches partition A, so nothing scans for overlap or cover; laws
    are numbered as in ``SANITY_LAWS``.  x <= phi(x) by (2) at y = 1, and
    phi(x) is an atom (L2 of ``theorems``).  If x <= a for an atom a, (5)
    with z = 1, applied twice, gives phi(x) <= (a -> 1) ~> 1 = a, by (11)
    and the atom test.  For atoms b <= a, (c) at b gives
    a -> b = (b -> a) ~> 1 = 1 ~> 1 = 1 by (1), so a = b by psBCI5.  So phi(x) is
    the one atom above x.  Likewise an atom a <= z lies below nothing else
    (L4): z <= phi(z), so a <= phi(z) by (10), a = phi(z), and z = a by
    psBCI5.
    """
    cols = A.byte_tables.order_cols
    return {a: frozenset(compress(A.elements(), cols[a])) for a in sorted(A.atoms)}


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


# The flags a model search can select on: each names the ``is_`` field above.
PREDICATE_NAMES = (
    "p_semisimple",
    "commutative",
    "proper",
    "pseudo_bck",
    "bci",
    "medial_arrow",
    "medial_squig",
)


def _p_semisimple_characterizations(A: PseudoBciAlgebra) -> list[tuple[str, bool]]:
    n = A.size
    u = A.unit
    bt = A.byte_tables
    below = bt.order_cols

    a = below[u].count(1) == 1                  # K(A) = {1}
    b = b"".join(below).count(1) == n           # only x <= x
    # (c) is atom characterization (b) at every x and (h) the atom test at
    # every x, which atoms() crosschecked; (d) is (k) at every x, which is
    # the atom test by (11)
    c = d = h = len(A.atoms) == n
    # (x->1) ~> y = (y~>1) -> x, a row over y per x: row x -> 1 of squig
    # against column x of arrow read at the y ~> 1
    to_u, sq_to_u = bt.cols[0][u], bt.cols[1][u]
    e = all(bt.rows[1][v] == sq_to_u.translate(arrow_to_x)
            for v, arrow_to_x in zip(to_u, bt.col_maps[0]))
    f = all(len(set(col)) == n for col in A.columns[0])
    g = all(len(set(col)) == n for col in A.columns[1])
    i = _group_axioms_hold(A)
    return [("a", a), ("b", b), ("c", c), ("d", d), ("e", e),
            ("f", f), ("g", g), ("h", h), ("i", i)]


def _group_axioms_hold(A: PseudoBciAlgebra) -> bool:
    """Whether x.y = (x->1)~>y with x^-1 = x->1 is a group reconstructing
    both implications; quantified over the full table.  These imply law
    (11) and the dual product form: x ~> 1 = x^-1.1 = x^-1 = x -> 1, so
    (y ~> 1) -> x = x.(y^-1)^-1 = x.y."""
    u = A.unit
    prod = A.product
    prod_cols = tuple(zip(*prod))
    inv = A.columns[0][u]             # x -> 1
    for x, (px, ix) in enumerate(zip(prod, inv)):
        if px[u] != x or prod[u][x] != x or px[ix] != u or prod[ix][x] != u:
            return False            # 1 is no identity, or x^-1 no inverse
        # the reconstruction at every y: row x of -> is column x^-1 of the
        # product, and row x of ~> is its row x^-1
        if A.arrow[x] != prod_cols[ix] or A.squig[x] != prod[ix]:
            return False
    # associativity, a block over (y, z) per x: (x.y).z is the join of the
    # rows x.y, and x.(y.z) the whole product table sent through row x
    bt = A.byte_tables
    rows = [bt.rows[1][v] for v in bt.cols[0][u]]         # product rows
    maps = [bt.maps[1][v] for v in bt.cols[0][u]]
    flat = b"".join(rows)
    return all(b"".join(map(rows.__getitem__, row)) == flat.translate(to_row)
               for row, to_row in zip(rows, maps))


def _is_medial(tables: ByteTables, k: int) -> bool:
    """Whether (p * q) . (x * y) = (p * x) . (q * y) for all p, q, x, y,
    with . table k of ``tables`` (0 arrow, 1 squig) and * the other.

    Both sides are entries of rows of the composed table
    C(a, b)[y] = outer[a][inner[b][y]], so the law holds iff
    C(p * q, x) = C(p * x, q) for all p, q and x; the pair (q, x) and its
    swap make the same comparison.  Each distinct row gets an id, at most
    n^2 of them, written as a low and a high byte.  Column q of ids,
    a |-> C(a, q), takes one translate per a and is a translate table
    itself, so for each x < q both sides over all p are one translate of a
    column of *: column q sent through ids column x, against column x sent
    through ids column q.  The columns are built in turn and the scan stops
    at the first unequal pair, so an algebra that is not medial builds few.
    """
    outer, inner, inner_cols = tables.maps[k], tables.rows[1 - k], tables.cols[1 - k]
    pad = bytes(256 - len(inner))
    ids: dict[bytes, int] = {}
    low: list[bytes] = []
    high: list[bytes] = []
    for row_q, col_q in zip(inner, inner_cols):
        col = [ids.setdefault(row_q.translate(t), len(ids)) for t in outer]
        low_q = bytes([i & 255 for i in col]) + pad
        high_q = bytes([i >> 8 for i in col]) + pad
        for col_x, low_x, high_x in zip(inner_cols, low, high):    # x < q
            if (col_q.translate(low_x) != col_x.translate(low_q)
                    or col_q.translate(high_x) != col_x.translate(high_q)):
                return False
        low.append(low_q)
        high.append(high_q)
    return True


def classify(A: PseudoBciAlgebra) -> ClassificationReport:
    r"""Decide every classification flag, cross-checking the theorem-level
    equivalences between them.

    "p-semisimple implies commutative" is not checked: p-semisimple
    characterization (b), only x <= x, is crosschecked first, so there the
    commutativity scan reads y = x alone, where x \/1 x = 1 ~> x = x and
    x \/2 x = 1 -> x = x by (1), psBCI4 and psBCI3.
    """
    n = A.size
    arrow, squig = A.arrow, A.squig
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
        for x, below in zip(rng, A.byte_tables.order_cols)
        for y in compress(rng, below))
    is_branchwise = all(
        cup1[x][y] == cup1[y][x] and cup2[x][y] == cup2[y][x]
        for block in A.branches.values() for x in block for y in block)

    is_medial_arrow = _is_medial(A.byte_tables, 0)
    # with one table the two laws are one
    is_medial_squig = is_medial_arrow if is_bci else _is_medial(A.byte_tables, 1)

    if is_commutative != is_branchwise:
        raise InternalInconsistencyError(
            "commutative and branchwise-commutative disagree")
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


def member_set(A: PseudoBciAlgebra, members: Iterable[int]) -> frozenset[int]:
    """The members as a set, after checking that each is an index of A:
    raises ValueError naming the least one outside 0..n-1."""
    ms = frozenset(members)
    for x in sorted(ms):
        if not 0 <= x < A.size:
            raise ValueError(f"element index {x} is outside a universe of size {A.size}")
    return ms


def is_subalgebra(A: PseudoBciAlgebra, members: Iterable[int]) -> bool:
    """True iff the subset contains 1 and is closed under both implications:
    both rows of every member, gathered at the members, hold members alone.
    Raises ValueError for an index outside A (``member_set``)."""
    s = bytes(sorted(member_set(A, members)))
    return A.unit in s and not gather(A.byte_tables.maps, s, s).translate(None, s)
