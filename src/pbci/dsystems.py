"""Deductive systems, invariance under self-maps, and quotient algebras.

A deductive system contains the unit and is closed under detachment:
x in D and x -> y in D imply y in D.  The deductive systems are closed
under intersection, so they are the closed sets of one closure operator on
bitmasks (``_closure``), which ``generate_ds`` applies and ``enumerate_ds``
walks with Ganter's NextClosure, visiting closed sets only.  The squig form
of detachment selects the same subsets (a theorem), which enumeration
asserts by running NextClosure under both forms.  ``brute_force_ds`` is the
independent oracle: a scan of every subset holding the unit.  Compatible means
both implications detect membership identically; closed means the subset is
a subalgebra.  Quotients exist exactly for compatible closed systems; the
congruence of a system is built once as bitmask rows and checked for
reflexivity and transitivity a row at a time.  A quotient is re-validated
through the full axiom checker unless every class is a singleton; then its
tables are the algebra's own, already validated, and the quotient is the
algebra renamed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .core import AlgebraSpec, PseudoBciAlgebra, bck_part, is_subalgebra, validate
from .errors import (CongruenceError, InternalInconsistencyError,
                     NotCompatibleOrClosedError)
from .limits import check_cap


@dataclass(frozen=True)
class DeductiveSystem:
    members: frozenset[int]
    compatible: bool
    closed: bool

    def __contains__(self, x: int) -> bool:
        return x in self.members


def _detachment_closed(A: PseudoBciAlgebra, members: frozenset[int], table) -> bool:
    n = A.size
    for x in members:
        row = table[x]
        for y in range(n):
            if row[y] in members and y not in members:
                return False
    return True


def _flags(A: PseudoBciAlgebra, members: frozenset[int]) -> DeductiveSystem:
    n = A.size
    compatible = all(
        (A.arrow[x][y] in members) == (A.squig[x][y] in members)
        for x in range(n) for y in range(n))
    return DeductiveSystem(members=members, compatible=compatible,
                           closed=is_subalgebra(A, members))


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


def _closure(A: PseudoBciAlgebra, table) -> Callable[[int], int]:
    """The closure operator of detachment along one implication table.

    close(m) is the least bitmask above m that holds the unit and is closed
    under detachment: x in D and x op y in D imply y in D.  Each element is
    processed once, against the elements processed before it, so every pair
    (x, x op y) of members is looked at when its later member comes up.
    """
    n = A.size
    # pre[x][v]: the y with x op y = v, as a bitmask
    pre = [[0] * n for _ in range(n)]
    for x in range(n):
        for y, v in enumerate(table[x]):
            pre[x][v] |= 1 << y
    unit_bit = 1 << A.unit

    def close(m: int) -> int:
        m |= unit_bit
        queue = [x for x in range(n) if m >> x & 1]
        done: list[int] = []
        for z in queue:
            pz = pre[z]
            new = pz[z]
            for x in done:
                new |= pz[x] | pre[x][z]
            done.append(z)
            new &= ~m
            m |= new
            while new:
                low = new & -new
                queue.append(low.bit_length() - 1)
                new ^= low
        return m

    return close


def _closed_sets(n: int, close: Callable[[int], int]) -> list[int]:
    """Every closed bitmask of a closure operator on range(n), in lectic
    order, by Ganter's NextClosure: from closed m, the next one is
    close(m below i, plus i) for the largest i not in m whose closure adds
    nothing below i."""
    m = close(0)
    found = [m]
    while True:
        for i in range(n - 1, -1, -1):
            bit = 1 << i
            if m & bit:
                continue
            below = bit - 1
            c = close(m & below | bit)
            if not c & ~m & below:
                m = c
                found.append(m)
                break
        else:
            return found


def _members(mask: int) -> frozenset[int]:
    return frozenset(x for x in range(mask.bit_length()) if mask >> x & 1)


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

    NextClosure over the closed sets of arrow-detachment, and again of
    squig-detachment; the two families are the same (a theorem), which is
    asserted.  Only closed sets are visited, not the 2^(n-1) subsets.
    """
    n = A.size
    check_cap(n, "subset-enumeration")
    by_arrow = _closed_sets(n, _closure(A, A.arrow))
    by_squig = _closed_sets(n, _closure(A, A.squig))
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
    close = _closure(A, A.arrow)
    return _flags(A, _members(close(sum(1 << x for x in _member_set(A, generators)))))


def bck_part_system(A: PseudoBciAlgebra) -> DeductiveSystem:
    """K(A) as a deductive system; always compatible and closed (asserted)."""
    ds = as_deductive_system(A, bck_part(A))
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
        pending = rx
        while pending:
            low = pending & -pending
            y = low.bit_length() - 1
            missing = related[y] & ~rx
            if missing:
                z = (missing & -missing).bit_length() - 1
                raise CongruenceError(
                    f"relation not transitive at ({names[x]}, {names[y]}, {names[z]})")
            pending ^= low

    rep = list(range(n))
    for x in range(n):
        below = related[x] & ((1 << x) - 1)
        if below:
            rep[x] = rep[(below & -below).bit_length() - 1]
    blocks: dict[int, list[int]] = {}
    for x in range(n):
        blocks.setdefault(rep[x], []).append(x)
    classes = [tuple(blocks[r]) for r in sorted(blocks)]

    for bx in classes:
        for by in classes:
            if len(bx) == len(by) == 1:
                continue
            for table in (A.arrow, A.squig):
                results = {rep[table[x][y]] for x in bx for y in by}
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
    n = A.size
    if len(classes) == n:
        return A.renamed(names)
    rep_of = [0] * n
    for ci, block in enumerate(classes):
        for x in block:
            rep_of[x] = ci
    unit_name = names[rep_of[A.unit]]
    arrow = tuple(
        tuple(names[rep_of[A.arrow[bx[0]][by[0]]]] for by in classes)
        for bx in classes)
    squig = tuple(
        tuple(names[rep_of[A.squig[bx[0]][by[0]]]] for by in classes)
        for bx in classes)
    spec = AlgebraSpec(names=names, unit=unit_name, arrow=arrow, squig=squig)
    try:
        return validate(spec, max_size=A.size)
    except Exception as exc:  # correspondence theorem guarantees validity
        raise InternalInconsistencyError(
            f"quotient tables failed validation: {exc}") from exc
