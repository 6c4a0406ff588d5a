"""Deductive systems, invariance under self-maps, and quotient algebras.

A deductive system contains the unit and is closed under detachment:
x in D and x -> y in D imply y in D.  The deductive systems are closed
under intersection, so they are the closed sets of one closure operator on
bitmasks (``_closure``), which ``generate_ds`` applies and ``enumerate_ds``
walks by Close-by-One: each system found is extended by one element, and
the closure of the extension starts from the closed system, so it processes
only the pairs that involve a new element.  ``brute_force_ds`` is the
independent oracle: a scan of every subset holding the unit, under both
forms of detachment.

The squig form selects the same subsets, so ->-detachment alone decides
them.  If D is closed under ->-detachment, then x in D and x <= z give
x -> z = 1 in D, so z in D; by law (2), x <= (x ~> y) -> y, so x ~> y in
D gives y in D.  The converse is the same with the operations swapped,
and laws (2) and (3) are sanity laws, which ``core.check_algebra`` asserts
on every validated algebra.

Close-by-One reads the algebra's arrow preimage masks
(``PseudoBciAlgebra.preimages``): bit y of pre[x][v] is set iff x -> y = v.
Nothing else reads them.  A given subset is tested on the byte views
(``PseudoBciAlgebra.byte_tables``) instead: each row sent through one
256-byte membership table (``core.member_map``) marks the y with x op y
in D.  Compatible means both implications detect membership identically,
so the marked -> rows equal the marked ~> rows; closed is
``core.is_subalgebra``, the package's one closure test; detachment
gathers the members' rows at the non-members.
Quotients exist exactly for compatible closed systems; the congruence of
a system is built once as bitmask rows, each read off a translated row
and column, checked for reflexivity and transitivity a row at a time and
for compatibility on rows of class ids.  A quotient's tables of class
indices pass the validator's axiom scan and sanity suite again
(``core.check_algebra``) unless every class is a singleton; then its
tables are the algebra's own, already validated, and the quotient is the
algebra renamed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import (PseudoBciAlgebra, Table, check_algebra, gather, is_subalgebra,
                   member_map, member_set)
from .errors import (CongruenceError, InternalInconsistencyError,
                     NotCompatibleOrClosedError)
from .limits import check_cap


@dataclass(frozen=True)
class DeductiveSystem:
    members: frozenset[int]
    compatible: bool
    closed: bool


def _detachment_closed(A: PseudoBciAlgebra, members: frozenset[int], k: int) -> bool:
    """Whether x in D and x op y in D imply y in D, with op table k of the
    byte views (0 arrow, 1 squig): the members' rows, gathered at the
    non-members, hold no member."""
    inside = bytes(sorted(members))
    outside = bytes(range(A.size)).translate(None, inside)
    return not gather([A.byte_tables.maps[k]], inside, outside).translate(None, outside)


def _flags(A: PseudoBciAlgebra, members: frozenset[int]) -> DeductiveSystem:
    """The system with its two flags.  Each row sent through one membership
    table marks the y with x op y in D, and D is compatible iff the marked
    -> rows equal the marked ~> rows.  Closed is ``is_subalgebra``.
    """
    in_d = member_map(members)
    arrow, squig = (b"".join(rows).translate(in_d) for rows in A.byte_tables.rows)
    return DeductiveSystem(members=members, compatible=arrow == squig,
                           closed=is_subalgebra(A, members))


def as_deductive_system(A: PseudoBciAlgebra, members: Iterable[int]) -> DeductiveSystem:
    """Wrap a subset after checking the deductive-system axioms.

    Raises ValueError when the subset is not a deductive system.  Only
    ->-detachment is tested: closed under it, D holds every z above a
    member (x -> z = 1), so x ~> y in D gives y in D by law (2),
    x <= (x ~> y) -> y; the module docstring has the converse.
    """
    ms = member_set(A, members)
    if A.unit not in ms:
        raise ValueError("a deductive system must contain the unit")
    if not _detachment_closed(A, ms, 0):
        raise ValueError("subset is not closed under detachment")
    return _flags(A, ms)


def _closure(pre: Table, m: int, done: list[int], new: int,
             below: int = 0) -> int | None:
    """The least bitmask above m | new that is closed under
    ->-detachment, whose preimage masks are pre.

    Closed means x in D and x -> y in D imply y in D: pre[x][v] lies in D
    for all members x and v.  m must be closed already, with its members
    listed in done, so only the pairs (x, v) that involve a new member are
    processed: each new member z once, against the members before it, and
    every such pair when its later member comes up.  The members added are
    appended to done.  Returns None, unfinished, as soon as a member of
    ``below`` would be added.
    """
    m |= new
    queue = _bits(new)
    for z in queue:                 # the queue grows while it is walked
        pz = pre[z]
        add = pz[z]
        for x in done:
            add |= pz[x] | pre[x][z]
        done.append(z)
        add &= ~m
        if add & below:
            return None
        m |= add
        queue += _bits(add)
    return m


def _closed_sets(A: PseudoBciAlgebra) -> list[int]:
    """Every closed bitmask of ->-detachment, by Close-by-One.

    From the closure of the unit, each closed B is extended by each i
    outside B above the element that produced B, and the closure of
    B | {i} is kept iff it adds nothing below i (the canonicity test of
    Kuznetsov's CbO, decided while closing).  So every closed set is
    reached once, from its canonical parent, and the closure works from
    the closed base.  The list is in depth-first order, which depends on
    the family of closed sets alone.
    """
    n, pre = A.size, A.preimages
    done: list[int] = []
    root = _closure(pre, 0, done, 1 << A.unit)
    found = [root]

    def extend(base: int, start: int) -> None:
        kept = len(done)
        for i in range(start, n):
            bit = 1 << i
            if base & bit:
                continue
            closed = _closure(pre, base, done, bit, bit - 1)
            if closed is not None:
                found.append(closed)
                extend(closed, i + 1)
            del done[kept:]

    extend(root, 0)
    return found


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _members(mask: int) -> frozenset[int]:
    return frozenset(_bits(mask))


def _disagreement(A: PseudoBciAlgebra, members: frozenset[int]):
    return InternalInconsistencyError(
        "arrow- and squig-detachment disagree on "
        f"{{{', '.join(A.name_set(members))}}}")


def _sorted_systems(A: PseudoBciAlgebra, sets) -> list[DeductiveSystem]:
    found = [_flags(A, members) for members in sets]
    found.sort(key=lambda d: (len(d.members), tuple(sorted(d.members))))
    return found


def enumerate_ds(A: PseudoBciAlgebra) -> list[DeductiveSystem]:
    """Every deductive system, sorted by (size, membership indices).

    Close-by-One over the closed sets of ->-detachment, run once: closed
    under it, D holds every z above a member (x -> z = 1), so x ~> y in D
    gives y in D by law (2), x <= (x ~> y) -> y, and the squig form
    selects the same sets (the module docstring has the converse).  Only
    the systems and their one-element extensions are closed, not the
    2^(n-1) subsets.
    """
    check_cap(A.size, "subset-enumeration")
    return _sorted_systems(A, map(_members, _closed_sets(A)))


def brute_force_ds(A: PseudoBciAlgebra) -> list[DeductiveSystem]:
    """Oracle enumeration: test every one of the 2^(n-1) subsets holding
    the unit under both detachment forms, whose disagreement raises
    InternalInconsistencyError.

    Exponential by construction; intended for cross-checking enumerate_ds.
    """
    rest = [x for x in range(A.size) if x != A.unit]
    found = []
    for bits in range(1 << len(rest)):
        members = frozenset(
            [A.unit] + [rest[i] for i in range(len(rest)) if bits >> i & 1])
        by_arrow = _detachment_closed(A, members, 0)
        if by_arrow != _detachment_closed(A, members, 1):
            raise _disagreement(A, members)
        if by_arrow:
            found.append(members)
    return _sorted_systems(A, found)


def generate_ds(A: PseudoBciAlgebra, generators: Iterable[int]) -> DeductiveSystem:
    """The least deductive system containing the generators.

    Closure under ->-detachment from the generators plus the unit; usable
    above the enumeration cap.
    """
    start = sum(1 << x for x in member_set(A, generators)) | 1 << A.unit
    return _flags(A, _members(_closure(A.preimages, 0, [], start)))


def bck_part_system(A: PseudoBciAlgebra) -> DeductiveSystem:
    """K(A) = {x | x -> 1 = 1} as a deductive system, compatible and closed.

    Nothing is checked, because the sanity laws that ``core.check_algebra``
    asserts on every algebra prove it (numbered as in ``core.SANITY_LAWS``;
    lemma L6 of ``theorems``).  Compatible: x -> y is in K iff
    (x -> 1) ~> (y -> 1) = 1 by (12), iff (x -> 1) -> (y -> 1) = 1 by (3);
    x ~> y is in K iff (x ~> y) ~> 1 = 1 by (11), iff
    (x ~> 1) -> (y ~> 1) = 1 by (12'), iff (x -> 1) -> (y -> 1) = 1 by
    (11).  Closed, and a deductive system: 1 -> 1 = 1 by (1), and for x in
    K that condition reads 1 -> (y -> 1) = 1, which is y -> 1 = 1 by
    psBCI3.  So x, y in K put x -> y and x ~> y in K, and x, x -> y in K
    put y in K.
    """
    return DeductiveSystem(A.bck_part, compatible=True, closed=True)


def is_invariant(A: PseudoBciAlgebra, D: DeductiveSystem, d: tuple[int, ...]) -> bool:
    """True iff the image of the system under the map stays inside it."""
    return all(d[x] in D.members for x in D.members)


def congruence_classes(A: PseudoBciAlgebra, D: DeductiveSystem) -> list[tuple[int, ...]]:
    """Blocks of x ~ y iff x->y and y->x both lie in D, ordered by least index.

    Verifies that ~ is an equivalence compatible with both operations;
    violations raise CongruenceError with a witness.  The relation is built
    once as bitmask rows, row x of ``->`` and its column x each sent through
    one membership table to a binary numeral, so transitivity is one mask
    test per related pair (x, y): every z related to y must be related to
    x, and the least z that is not, for the least such x and y, is the
    witness.  Compatibility is decided on class-id rows, each row sent
    through the table of class ids: every row must equal its class
    representative's row, and equal itself gathered at each column's
    representative.  Only a failure is rescanned, a pair of classes at a
    time, for the witness: the first pair but two singletons, whose 1 x 1
    block holds one value, on which an operation is not constant.
    """
    if not (D.compatible and D.closed):
        raise NotCompatibleOrClosedError(
            "quotients require a compatible closed deductive system")
    n = A.size
    names = A.names
    bt = A.byte_tables
    digit = member_map(D.members, ord("1"), ord("0"))

    # related[x]: the y with x -> y and y -> x both in D, bit y read off
    # byte y of the numeral reversed
    related = [int(row.translate(digit)[::-1], 2) & int(col.translate(digit)[::-1], 2)
               for row, col in zip(bt.rows[0], bt.cols[0])]
    for x, rx in enumerate(related):
        if not rx >> x & 1:
            raise CongruenceError(f"relation not reflexive at {names[x]}")
        for y in _bits(rx):
            missing = related[y] & ~rx
            if missing:
                z = _bits(missing)[0]
                raise CongruenceError(
                    f"relation not transitive at ({names[x]}, {names[y]}, {names[z]})")

    # each row is its element's class, first seen at the least member
    rows = {r: i for i, r in enumerate(dict.fromkeys(related))}
    classes = [tuple(_bits(r)) for r in rows]
    if len(classes) == n:
        return classes
    class_of = [rows[r] for r in related]
    ids = bytes(class_of) + bytes(256 - n)
    rep = bytes([classes[c][0] for c in class_of])      # least member of x's class
    for table, maps in zip(bt.rows, bt.maps):
        by_class = b"".join(table).translate(ids)
        if (by_class == b"".join(map(table.__getitem__, rep)).translate(ids)
                == b"".join([rep.translate(m) for m in maps]).translate(ids)):
            continue
        for bx in classes:
            for by in classes:
                if len(bx) == len(by) == 1:
                    continue
                for t in (A.arrow, A.squig):
                    if len({class_of[t[x][y]] for x in bx for y in by}) != 1:
                        raise CongruenceError(
                            "operation not constant on classes "
                            f"[{names[bx[0]]}] op [{names[by[0]]}]")
    return classes


def quotient(A: PseudoBciAlgebra, D: DeductiveSystem) -> PseudoBciAlgebra:
    """The quotient by a compatible closed deductive system.

    Classes are named by their lexicographically least member in brackets
    and ordered by least member index.  When every class is a singleton,
    class i is {i}, so the quotient's tables and order are A's own, which
    ``validate`` has accepted; the result is A under the bracketed names,
    with every table A has built.
    Otherwise the result is built from the tables of class indices, read
    off each class's least member, and checked again rather than trusting
    the correspondence theorem: ``core.check_algebra`` runs the validator's
    axiom scan and sanity suite on them.  A failure is a package bug.
    """
    classes = congruence_classes(A, D)
    names = tuple("[" + min(A.names[x] for x in block) + "]" for block in classes)
    if len(classes) == A.size:
        return A.renamed(names)
    class_of = {x: i for i, block in enumerate(classes) for x in block}
    reps = [block[0] for block in classes]
    arrow, squig = (tuple(tuple(class_of[table[x][y]] for y in reps) for x in reps)
                    for table in (A.arrow, A.squig))
    try:
        return check_algebra(PseudoBciAlgebra(names, class_of[A.unit], arrow, squig))
    except Exception as exc:  # correspondence theorem guarantees validity
        raise InternalInconsistencyError(
            f"quotient tables failed validation: {exc}") from exc
