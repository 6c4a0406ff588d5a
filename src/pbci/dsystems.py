"""Deductive systems, invariance under self-maps, and quotient algebras.

A deductive system contains the unit and is closed under detachment:
x in D and x -> y in D imply y in D.  The deductive systems are closed
under intersection, so they are the closed sets of one closure operator on
bitmasks (``_closure``), which ``generate_ds`` applies and ``enumerate_ds``
walks by Close-by-One: each system found is extended by one element, and
the closure of the extension starts from the closed system, so it processes
only the pairs that involve a new element.  The squig form of detachment
selects the same subsets (a theorem), which enumeration asserts by running
Close-by-One under both forms.  ``brute_force_ds`` is the independent
oracle: a scan of every subset holding the unit.

Every bitmask here is read from the algebra's preimage masks
(``PseudoBciAlgebra.preimages``): bit y of pre[x][v] is set iff x op y = v.
Compatible means both implications detect membership identically; closed
means the subset is a subalgebra.  ``_flags`` decides both from the masks
of the y with x op y in D.  Quotients exist exactly for compatible closed
systems; the congruence of a system is built once as bitmask rows and
checked for reflexivity and transitivity a row at a time.  A quotient is
re-validated through the full axiom checker unless every class is a
singleton; then its tables are the algebra's own, already validated, and
the quotient is the algebra renamed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterable

from .core import AlgebraSpec, PseudoBciAlgebra, Table, validate
from .errors import (CongruenceError, InternalInconsistencyError,
                     NotCompatibleOrClosedError)
from .limits import check_cap


@dataclass(frozen=True)
class DeductiveSystem:
    members: frozenset[int]
    compatible: bool
    closed: bool


def _detachment_closed(A: PseudoBciAlgebra, members: frozenset[int], table) -> bool:
    n = A.size
    for x in members:
        row = table[x]
        for y in range(n):
            if row[y] in members and y not in members:
                return False
    return True


def _flags(A: PseudoBciAlgebra, members: frozenset[int]) -> DeductiveSystem:
    """The system with its two flags, both read from the preimage masks.

    in_op[x], the OR of pre[x][v] over the members v, is the mask of the y
    with x op y in D.  D is compatible iff in_->[x] = in_~>[x] for every x,
    and closed (a subalgebra) iff it holds the unit and lies inside
    in_->[x] & in_~>[x] for every member x.
    """
    pre_arrow, pre_squig = A.preimages
    mask = sum(1 << v for v in members)
    compatible, closed = True, A.unit in members
    for x, row_arrow, row_squig in zip(range(A.size), pre_arrow, pre_squig):
        in_arrow = reduce(or_, map(row_arrow.__getitem__, members), 0)
        in_squig = reduce(or_, map(row_squig.__getitem__, members), 0)
        if in_arrow != in_squig:
            compatible = False
        if x in members and mask & ~(in_arrow & in_squig):
            closed = False
        if not (compatible or closed):
            break
    return DeductiveSystem(members=members, compatible=compatible, closed=closed)


def _member_set(A: PseudoBciAlgebra, members: Iterable[int]) -> frozenset[int]:
    ms = frozenset(members)
    for x in sorted(ms):
        if not 0 <= x < A.size:
            raise ValueError(f"element index {x} is outside a universe of size {A.size}")
    return ms


def as_deductive_system(A: PseudoBciAlgebra, members: Iterable[int]) -> DeductiveSystem:
    """Wrap a subset after checking the deductive-system axioms.

    Raises ValueError when the subset is not a deductive system.  The two
    detachment forms select the same subsets (a theorem), so disagreement
    between them is an internal bug, not bad input.
    """
    ms = _member_set(A, members)
    if A.unit not in ms:
        raise ValueError("a deductive system must contain the unit")
    by_arrow = _detachment_closed(A, ms, A.arrow)
    if by_arrow != _detachment_closed(A, ms, A.squig):
        raise _disagreement(A, ms)
    if not by_arrow:
        raise ValueError("subset is not closed under detachment")
    return _flags(A, ms)


def _closure(pre: Table, m: int, done: list[int], new: int,
             below: int = 0) -> int | None:
    """The least bitmask above m | new that is closed under detachment
    along one implication, whose preimage masks are pre.

    Closed means x in D and x op y in D imply y in D: pre[x][v] lies in D
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


def _closed_sets(A: PseudoBciAlgebra, pre: Table) -> list[int]:
    """Every closed bitmask of detachment along pre, by Close-by-One.

    From the closure of the unit, each closed B is extended by each i
    outside B above the element that produced B, and the closure of
    B | {i} is kept iff it adds nothing below i (the canonicity test of
    Kuznetsov's CbO, decided while closing).  So every closed set is
    reached once, from its canonical parent, and the closure works from
    the closed base.  The list is in depth-first order, which depends on
    the family of closed sets alone.
    """
    n = A.size
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

    Close-by-One over the closed sets of arrow-detachment, and again of
    squig-detachment; the two families are the same (a theorem), which is
    asserted.  Only the systems and their one-element extensions are
    closed, not the 2^(n-1) subsets.
    """
    check_cap(A.size, "subset-enumeration")
    pre_arrow, pre_squig = A.preimages
    by_arrow = _closed_sets(A, pre_arrow)
    by_squig = _closed_sets(A, pre_squig)
    if by_arrow != by_squig:
        odd = min(set(by_arrow) ^ set(by_squig))
        raise _disagreement(A, _members(odd))
    return _sorted_systems(A, map(_members, by_arrow))


def brute_force_ds(A: PseudoBciAlgebra) -> list[DeductiveSystem]:
    """Oracle enumeration: test every one of the 2^(n-1) subsets holding
    the unit under both detachment forms.

    Exponential by construction; intended for cross-checking enumerate_ds.
    """
    rest = [x for x in range(A.size) if x != A.unit]
    found = []
    for bits in range(1 << len(rest)):
        members = frozenset(
            [A.unit] + [rest[i] for i in range(len(rest)) if bits >> i & 1])
        by_arrow = _detachment_closed(A, members, A.arrow)
        if by_arrow != _detachment_closed(A, members, A.squig):
            raise _disagreement(A, members)
        if by_arrow:
            found.append(members)
    return _sorted_systems(A, found)


def generate_ds(A: PseudoBciAlgebra, generators: Iterable[int]) -> DeductiveSystem:
    """The least deductive system containing the generators.

    Closure under arrow-detachment from the generators plus the unit; usable
    above the enumeration cap.
    """
    start = sum(1 << x for x in _member_set(A, generators)) | 1 << A.unit
    return _flags(A, _members(_closure(A.preimages[0], 0, [], start)))


def bck_part_system(A: PseudoBciAlgebra) -> DeductiveSystem:
    """K(A) as a deductive system; always compatible and closed (asserted)."""
    ds = as_deductive_system(A, A.bck_part)
    if not (ds.compatible and ds.closed):
        raise InternalInconsistencyError("BCK part is not compatible and closed")
    return ds


def is_invariant(A: PseudoBciAlgebra, D: DeductiveSystem, d: tuple[int, ...]) -> bool:
    """True iff the image of the system under the map stays inside it."""
    return all(d[x] in D.members for x in D.members)


def congruence_classes(A: PseudoBciAlgebra, D: DeductiveSystem) -> list[tuple[int, ...]]:
    """Blocks of x ~ y iff x->y and y->x both lie in D, ordered by least index.

    Verifies that ~ is an equivalence compatible with both operations;
    violations raise CongruenceError with a witness.  The relation is built
    once as bitmask rows, so transitivity is one mask test per related pair
    (x, y): every z related to y must be related to x, and the least z that
    is not, for the least such x and y, is the witness.  Compatibility is
    tested on every pair of classes but two singletons, whose 1 x 1 block
    holds one value.
    """
    if not (D.compatible and D.closed):
        raise NotCompatibleOrClosedError(
            "quotients require a compatible closed deductive system")
    n = A.size
    names = A.names
    inside = [v in D.members for v in range(n)]

    def mask(values: Iterable[int]) -> int:
        return sum(1 << i for i, v in enumerate(values) if inside[v])

    # related[x]: the y with x -> y and y -> x both in D
    related = [mask(row) & mask(col) for row, col in zip(A.arrow, A.columns[0])]
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
    class_of = [rows[r] for r in related]

    for bx in classes:
        for by in classes:
            if len(bx) == len(by) == 1:
                continue
            for table in (A.arrow, A.squig):
                results = {class_of[table[x][y]] for x in bx for y in by}
                if len(results) != 1:
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
    Otherwise the result is re-validated through the full axiom checker
    rather than trusting the correspondence theorem.
    """
    classes = congruence_classes(A, D)
    names = tuple("[" + min(A.names[x] for x in block) + "]" for block in classes)
    if len(classes) == A.size:
        return A.renamed(names)
    class_of = {x: i for i, block in enumerate(classes) for x in block}
    unit_name = names[class_of[A.unit]]
    arrow = tuple(
        tuple(names[class_of[A.arrow[bx[0]][by[0]]]] for by in classes)
        for bx in classes)
    squig = tuple(
        tuple(names[class_of[A.squig[bx[0]][by[0]]]] for by in classes)
        for bx in classes)
    spec = AlgebraSpec(names=names, unit=unit_name, arrow=arrow, squig=squig)
    try:
        return validate(spec, max_size=A.size)
    except Exception as exc:  # correspondence theorem guarantees validity
        raise InternalInconsistencyError(
            f"quotient tables failed validation: {exc}") from exc
