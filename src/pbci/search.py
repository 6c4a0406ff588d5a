"""Isomorph-free backtracking search for finite pseudo-BCI algebras.

The generator fixes the unit as the last element, forces the cells the
axioms force directly (unit rows are identity rows, the diagonal is the
unit, and x -> y = 1 iff x ~> y = 1 couples the two tables), and assigns
the remaining cells one step at a time, unit column first, each arrow cell
together with its squig partner.  Every psBCI1/psBCI2 instance waits in the
bucket of one step: first the step of the last of its three outer cells,
then the step of the inner cell its value reads next.  A step evaluates
only its own bucket, moves each instance it cannot decide to a later one
and undoes those moves on backtrack, so each instance is decided at the
first step that knows every cell it touches.  The instances of the
exchange law (8), x -> (y ~> z) = y ~> (x -> z), wait in the same buckets.
The law is a theorem of the axioms, which the validator's sanity suite
asserts on every algebra, so pruning with it loses no model.  At size 5 the
DFS visits 4,940 inner nodes with it and 35,985 with the axioms alone.

Both tables are one flat list of 2n^2 cells, the arrow table and then the
squig table row by row, which is also the model's flat key.  ``_layout``
builds, once per size, the step of every flat cell and every instance as
a record of flat cell offsets, so that the DFS loop decides a record with
a few list reads and no call, and tests the permutations the same way.
``_dfs`` also counts its work exactly: the inner nodes it visits, one per
step entered with a cell to assign, and the instances it evaluates, added
once per bucket pass from what the pass's iterator has left.  The tests
pin both counts, and CI pins them at size 6.

The DFS visits one model per isomorphism class that fixes the unit: the
canonical one, whose key (each cell's arrow and then squig value, in DFS
cell order) is the least among its (n-1)! transports.  Every permutation
other than the identity waits in a step's bucket as well.  It compares the
transported key with the assigned one cell by cell, up to the first cell
whose preimage is not assigned yet, and waits for that cell's step.  A
transport that is smaller at the first difference prunes the branch; one
that is larger never can, and drops out (lex-leader symmetry breaking:
Crawford, Ginsberg, Luks and Roy, KR 1996; McKay, J. Algorithms 26, 1998).
``search`` expands each class once, through the translate tables of
``_transports``: a labelled search emits every distinct image of the
canonical model, and ``modulo_iso`` only the least.  The tests hold those
images equal to the plain ``_transport`` ones, which define the orbit.
The class's representative (the canonical model, or the least key) is
checked on its index tables: once its entries are known to be elements,
``core.check_algebra`` runs the validator's axiom scan and sanity suite on
it, and every predicate, an isomorphism invariant, is decided on it.  The
axioms and the sanity laws hold or fail together under isomorphism, so
each emitted spec is checked or a transport of a checked one.

``brute_force_search`` is the independent oracle for small sizes: a plain
scan of all table pairs (with only the axiom-forced unit rows fixed) that
checks the axioms alone and shares none of the search's propagation.
``is_lex_least_rep`` is the oracle for the ``modulo_iso`` representatives.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

from .core import PREDICATE_NAMES, AlgebraSpec, PseudoBciAlgebra, check_algebra
from .errors import InternalInconsistencyError, ValidationError
from .limits import check_cap


@dataclass(frozen=True)
class SearchQuery:
    size: int
    predicates: tuple[tuple[str, bool], ...] = field(default_factory=tuple)
    limit: int | None = None
    modulo_iso: bool = False

    def check(self) -> None:
        if self.size < 1:
            raise ValueError("size must be >= 1")
        for name, _ in self.predicates:
            if name not in PREDICATE_NAMES:
                raise ValueError(
                    f"unknown predicate {name!r}; choose from {PREDICATE_NAMES}")
        if self.limit is not None and self.limit < 0:
            raise ValueError("limit must be >= 0")


def element_names(n: int) -> tuple[str, ...]:
    """a, b, c, ... with the unit named '1' and listed last."""
    if n - 1 <= 26:
        letters = [chr(ord("a") + i) for i in range(n - 1)]
    else:
        letters = [f"e{i}" for i in range(n - 1)]
    return tuple(letters + ["1"])


def _flat_key(arrow, squig) -> tuple[int, ...]:
    return tuple(itertools.chain(*arrow, *squig))


def _unflatten(flat, n: int):
    """The (arrow, squig) row tuples of a flat key of size n, given as any
    iterable of its entries."""
    entries = iter(flat)
    rows = tuple(zip(*[entries] * n))      # n entries at a time
    return rows[:n], rows[n:]


def _transport(table, perm):
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[perm[x]][perm[y]] = perm[table[x][y]]
    return tuple(tuple(row) for row in out)


def _unit_fixing_perms(n: int):
    for p in itertools.permutations(range(n - 1)):
        yield tuple(p) + (n - 1,)


def _plain_orbit(arrow, squig) -> set[tuple[int, ...]]:
    """The distinct flat keys of the pair's unit-fixing transports."""
    return {_flat_key(_transport(arrow, perm), _transport(squig, perm))
            for perm in _unit_fixing_perms(len(arrow))}


def is_lex_least_rep(arrow, squig) -> bool:
    """Whether the pair has the least flat key of its unit-fixing iso class.

    A check by the plain transports, kept outside the search as the test
    oracle for ``modulo_iso`` output (the search reads every image off the
    translate tables) and as a span that the benchmark's tracer names."""
    return _flat_key(arrow, squig) == min(_plain_orbit(arrow, squig))


class _Layout(NamedTuple):
    """The fixed part of the size-n DFS: the forced key, the cell each step
    assigns, and the records that wait in each step's bucket at the root."""
    tab: tuple[int | None, ...]
    pos: tuple[int, ...]
    where: tuple[tuple[int, int, int], ...]
    waiting: tuple[tuple[tuple[bool, int, int, int, int], ...], ...]
    waiting_perms: tuple[tuple[tuple[tuple[int, ...], tuple[int, ...],
                                     tuple[int, ...], int], ...], ...]
    pairs: tuple[tuple[tuple[int, int, int], ...], ...]


@functools.cache
def _layout(n: int) -> _Layout:
    unit, nn = n - 1, n * n
    # tab: the flat key, arrow cell (i, j) at i * n + j and its squig
    # partner nn further on; an unassigned cell holds None
    tab: list[int | None] = [None] * (2 * nn)
    for j in range(n):
        tab[unit * n + j] = tab[nn + unit * n + j] = j
    for i in range(n):
        tab[i * n + i] = tab[nn + i * n + i] = unit

    # unit-column cells first: x -> 1 pins the branch structure and feeds
    # every axiom instance with z = 1, so they prune hardest
    cells = [(i, unit) for i in range(n - 1)]
    cells += [(i, j) for i in range(n - 1) for j in range(n - 1) if j != i]
    done = len(cells)
    # pos[c]: the step that assigns flat cell c (-1 for a forced cell)
    pos = [-1] * (2 * nn)
    for step, (i, j) in enumerate(cells):
        pos[i * n + j] = pos[nn + i * n + j] = step
    # per step: the flat arrow cell, its squig partner and the transposed
    # arrow cell, or -1 in the unit column
    where = tuple((i * n + j, nn + i * n + j, -1 if j == unit else j * n + i)
                  for i, j in cells)

    # waiting[s]: the instance records that step s may decide.  A psBCI1 or
    # psBCI2 record (False, xy, yz, xz, base) holds the flat cells of its
    # outer table and the offset of its inner one (nn for psBCI1, whose
    # outer table is ->, and 0 for psBCI2), and asks that
    # xy . (yz . xz) = 1, with . the inner operation and xy, yz, xz the
    # outer table's values.  It starts at the step of its last outer cell;
    # (x, y) is forced only for x = 1 and (y, z) only for y = 1, so one of
    # them is free.
    waiting: list[list[tuple[bool, int, int, int, int]]] = [[] for _ in cells]
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if x == y or y == z:
                    # identically true given the forced diagonal and unit
                    # rows: the instance reduces to squig[1][1] or squig[u][u]
                    continue
                outer = (x * n + y, y * n + z, x * n + z)
                waiting[max(map(pos.__getitem__, outer))] += (
                    (False, *outer, nn), (False, *(nn + c for c in outer), 0))
    # A law (8) record (True, yz, xz, x * n, nn + y * n), for
    # x -> (y ~> z) = y ~> (x -> z), holds the flat cells of y ~> z and
    # x -> z and the row offsets of x -> _ and y ~> _.  It starts at the
    # step of y ~> z or x -> z, whichever comes last.  x = 1 or y = 1 makes
    # it an identity, and so does x = y = z, given x -> 1 = x ~> 1.
    for x in range(unit):
        for y in range(unit):
            for z in range(n):
                if not x == y == z:
                    yz, xz = nn + y * n + z, x * n + z
                    waiting[max(pos[yz], pos[xz])].append(
                        (True, yz, xz, x * n, nn + y * n))

    # A permutation p maps the model to the one whose cell at step t is p
    # applied to the cell at step pre[t], the preimage of cells[t]; with
    # cells coded arrow * n + squig, that code is code_map[code at pre[t]].
    # ready[t] = max(t, pre[t]) is the step that knows both, and
    # ready[done] = done ends a comparison.  waiting_perms[s] holds
    # (code_map, pre, ready, t) for each permutation whose transported key
    # equals the key before step t and waits on step s = ready[t].
    waiting_perms: list[list[tuple[tuple[int, ...], tuple[int, ...],
                                   tuple[int, ...], int]]] = [[] for _ in cells]
    for perm in _unit_fixing_perms(n):
        if perm == tuple(range(n)):
            continue
        inv = sorted(range(n), key=perm.__getitem__)
        code_map = tuple(perm[c // n] * n + perm[c % n] for c in range(nn))
        pre = tuple(pos[inv[i] * n + inv[j]] for i, j in cells)
        ready = tuple(map(max, range(done), pre)) + (done,)
        waiting_perms[ready[0]].append((code_map, pre, ready, 0))

    # the (arrow, squig, code) values a cell may take, in key order: x -> 1
    # = x ~> 1 holds in every pseudo-BCI algebra, so a unit-column cell
    # takes equal values; elsewhere the two tables are 1-coupled, and when
    # the transposed cell already holds 1 antisymmetry leaves no value 1
    unit_pairs = tuple((v, v, v * n + v) for v in range(n))
    coupled_pairs = tuple((va, vs, va * n + vs) for va in range(n)
                          for vs in range(n) if (va == unit) == (vs == unit))
    below_pairs = tuple(pair for pair in coupled_pairs if pair[0] != unit)
    return _Layout(tuple(tab), tuple(pos), where, tuple(map(tuple, waiting)),
                   tuple(map(tuple, waiting_perms)),
                   (unit_pairs, coupled_pairs, below_pairs))


class _DfsRun(NamedTuple):
    """What one DFS found and the work it did: the canonical keys in DFS
    order, the inner nodes visited (steps entered with a cell still to
    assign) and the axiom and law (8) instances evaluated."""
    keys: list[tuple[int, ...]]
    nodes: int
    evaluations: int


def _canonical_tables(n: int) -> list[tuple[int, ...]]:
    """The flat key of the canonical member of every unit-fixing
    isomorphism class of index-table pairs with unit n-1 that pass the
    incrementally checked axioms, in DFS order."""
    return _dfs(n).keys


def _dfs(n: int) -> _DfsRun:
    layout = _layout(n)
    unit, done = n - 1, len(layout.where)
    tab, pos, where = list(layout.tab), layout.pos, layout.where
    waiting = list(map(list, layout.waiting))
    waiting_perms = list(map(list, layout.waiting_perms))
    unit_pairs, coupled_pairs, below_pairs = layout.pairs
    key = [0] * done                # the code of the cell set at each step
    out: list[tuple[int, ...]] = []
    nodes = evaluations = 0

    def extend(step: int) -> None:
        nonlocal nodes, evaluations
        if step == done:
            out.append(tuple(tab))
            return
        nodes += 1
        cell, partner, transposed = where[step]
        if transposed < 0:
            pairs = unit_pairs
        elif tab[transposed] == unit:
            pairs = below_pairs
        else:
            pairs = coupled_pairs
        bucket = waiting[step]
        size = len(bucket)
        perms = waiting_perms[step]
        # the buckets a value pair moved records into, to undo: s for an
        # instance record moved to waiting[s], ~s for a permutation
        moved = []
        evaluated = 0
        for va, vs, code in pairs:
            tab[cell] = va
            tab[partner] = vs
            key[step] = code
            # lex-leader test: a permutation whose transport is smaller at
            # the first cell both know prunes the branch, one that is larger
            # drops out, and one that ties so far waits for its next cell
            for code_map, pre, ready, t in perms:
                while ready[t] <= step:
                    theirs = code_map[key[pre[t]]]
                    if theirs != key[t]:
                        break
                    t += 1
                else:
                    if t < done:        # else p is an automorphism
                        s = ready[t]
                        waiting_perms[s].append((code_map, pre, ready, t))
                        moved.append(~s)
                    continue
                if theirs < key[t]:
                    break
            else:
                # newest first: the instances that waited on this cell fail
                # more often than those whose outer cells it completes.
                # Each decides, or waits on the inner cell it reads next.
                it = reversed(bucket)
                for inst in it:
                    law8, a, b, c, d = inst
                    if law8:
                        inner = c + tab[a]
                        left = tab[inner]
                        if left is not None:
                            inner = d + tab[b]
                            right = tab[inner]
                            if right is not None:
                                if left != right:
                                    break
                                continue
                    else:
                        inner = d + tab[b] * n + tab[c]
                        mid = tab[inner]
                        if mid is not None:
                            inner = d + tab[a] * n + mid
                            r = tab[inner]
                            if r is not None:
                                if r != unit:
                                    break
                                continue
                    s = pos[inner]
                    waiting[s].append(inst)
                    moved.append(s)
                else:
                    extend(step + 1)
                # one count per pass: the records the iterator has left
                # were not evaluated
                evaluated += size - it.__length_hint__()
            if moved:
                for s in moved:
                    if s < 0:
                        waiting_perms[~s].pop()
                    else:
                        waiting[s].pop()
                moved.clear()
        tab[cell] = tab[partner] = None
        evaluations += evaluated

    extend(0)
    return _DfsRun(out, nodes, evaluations)


@functools.cache
def _transports(n: int):
    """(table, gather) for every unit-fixing permutation p: the transport by
    p of the model with flat key k has flat key
    ``gather(bytes(k).translate(table))``, p applied to every entry and the
    entries then moved to their images' cells.  Both output modes read
    them, for every image of a class or its least, at 7-9x less than the
    plain ``_transport`` images (2.3 against 0.27 ms for the 25 classes of
    size 4, 57 against 8 ms for the 181 of size 5, best of 7 by process
    time, CPython 3.11 on a shared 2-core host)."""
    out = []
    for perm in _unit_fixing_perms(n):
        inv = sorted(range(n), key=perm.__getitem__)
        cell = [inv[x] * n + inv[y] for x in range(n) for y in range(n)]
        out.append((bytes(perm) + bytes(256 - n),
                    operator.itemgetter(*cell, *(n * n + c for c in cell))))
    return tuple(out)


def _images(flat: tuple[int, ...], n: int):
    """The flat keys of the transports of the model keyed ``flat``, one per
    unit-fixing permutation."""
    data = bytes(flat)
    return (gather(data.translate(table)) for table, gather in _transports(n))


def search(query: SearchQuery) -> list[AlgebraSpec]:
    """All (or the first ``limit``) algebras matching the query.

    The DFS yields one canonical model per unit-fixing isomorphism class.
    Each key's entries are range-checked first.  Its representative, the
    canonical model or with modulo_iso the least flat key of its class,
    then passes the validator's axiom scan and sanity suite, run on its
    index tables, and every predicate, an isomorphism invariant, is decided
    on it.  A class that passes emits its representative, or in a labelled
    search every distinct image of the canonical model under the translate
    tables of ``_transports``.  Output order is lexicographic by the
    flattened (arrow, squig) index pair.  The DFS does not meet the models
    in output order, so ``limit`` cuts the sorted list of all matches: the
    whole enumeration runs either way, and only the kept keys become
    specs.
    """
    query.check()
    check_cap(query.size, "search")
    n = query.size
    names = element_names(n)
    wanted = [("is_" + name, value) for name, value in query.predicates]

    def to_spec(flat):
        arrow, squig = _unflatten(map(names.__getitem__, flat), n)
        return AlgebraSpec(names=names, unit=names[-1], arrow=arrow, squig=squig)

    def refuse(reason) -> InternalInconsistencyError:
        return InternalInconsistencyError(
            f"a size-{n} search emitted a table that fails validation: "
            f"{reason} (package bug)")

    matches = []
    for canonical in _canonical_tables(n):
        # defense in depth, since search pruning is exact: a table the
        # checker refuses here is a fault of this module.  An entry out of
        # range is refused first, before _images translates it into a
        # byte that may look like an element.
        if max(canonical) >= n:
            raise refuse(f"entry {max(canonical)} is not an element")
        rep = min(_images(canonical, n)) if query.modulo_iso else canonical
        tables = _unflatten(rep, n)
        try:
            algebra = check_algebra(PseudoBciAlgebra(names, n - 1, *tables))
        except ValidationError as exc:
            raise refuse(exc) from exc
        if wanted:
            report = algebra.classification
            if any(getattr(report, field_name) != value
                   for field_name, value in wanted):
                continue
        matches += [rep] if query.modulo_iso else set(_images(canonical, n))
    matches.sort()
    if query.limit is not None:
        matches = matches[: query.limit]
    return [to_spec(flat) for flat in matches]


def brute_force_search(n: int) -> list[tuple[tuple, tuple]]:
    """Oracle: all valid (arrow, squig) index pairs with unit n-1, by scan.

    Only the unit rows are pre-filled (they are forced outright by the
    identity axioms); every other cell of both tables ranges over the full
    universe, and validity is decided by a direct axiom check that shares
    no propagation with the search.  Exponential: use for n <= 3.
    """
    unit = n - 1
    rng = range(n)
    free_rows = n - 1
    results = []
    row_choices = list(itertools.product(rng, repeat=n))

    def axioms_hold(arrow, squig) -> bool:
        for x in rng:
            for y in rng:
                if x != y and arrow[x][y] == unit and arrow[y][x] == unit:
                    return False
        for x in rng:
            ax, sx = arrow[x], squig[x]
            for y in rng:
                u_a, u_s = ax[y], sx[y]
                ay, sy = arrow[y], squig[y]
                for z in rng:
                    if squig[u_a][squig[ay[z]][ax[z]]] != unit:
                        return False
                    if arrow[u_s][arrow[sy[z]][sx[z]]] != unit:
                        return False
        return True

    identity_row = tuple(rng)
    for arows in itertools.product(row_choices, repeat=free_rows):
        arrow = arows + (identity_row,)
        for srows in itertools.product(row_choices, repeat=free_rows):
            squig = srows + (identity_row,)
            if axioms_hold(arrow, squig):
                results.append((arrow, squig))
    results.sort(key=lambda p: _flat_key(*p))
    return results
