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

The DFS visits one model per isomorphism class that fixes the unit: the
canonical one, whose key (each cell's arrow and then squig value, in DFS
cell order) is the least among its (n-1)! transports.  Every permutation
other than the identity waits in a step's bucket as well.  It compares the
transported key with the assigned one cell by cell, up to the first cell
whose preimage is not assigned yet, and waits for that cell's step.  A
transport that is smaller at the first difference prunes the branch; one
that is larger never can, and drops out (lex-leader symmetry breaking:
Crawford, Ginsberg, Luks and Roy, KR 1996; McKay, J. Algorithms 26, 1998).
``search`` expands each class once: a labelled search emits the plain
``_transport`` images of the canonical model, which define its orbit, and
``modulo_iso`` only the least flat key, read off the translate tables of
``_transports``.  The class's representative (the canonical model, or the
least key) is checked on its index tables: once its entries are known to
be elements, ``core.check_algebra`` runs the validator's axiom scan and
sanity suite on it, and every predicate, an isomorphism invariant, is
decided on it.  The axioms and the sanity laws hold or fail together under
isomorphism, so each emitted spec is checked or a transport of a checked
one.

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

from .core import AlgebraSpec, PseudoBciAlgebra, check_algebra
from .errors import InternalInconsistencyError, ValidationError
from .limits import check_cap

PREDICATE_NAMES = (
    "p_semisimple",
    "commutative",
    "proper",
    "pseudo_bck",
    "bci",
    "medial_arrow",
    "medial_squig",
)

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
    oracle for ``modulo_iso`` output (the search reads the least key off
    the translate tables) and as a span that the benchmark's tracer
    names."""
    return _flat_key(arrow, squig) == min(_plain_orbit(arrow, squig))


def _canonical_tables(n: int):
    """Yield the flat key of the canonical member of every unit-fixing
    isomorphism class of index-table pairs with unit n-1 that pass the
    incrementally checked axioms, in DFS order."""
    unit = n - 1
    arrow = [[None] * n for _ in range(n)]
    squig = [[None] * n for _ in range(n)]
    for j in range(n):
        arrow[unit][j] = j
        squig[unit][j] = j
    for i in range(n):
        arrow[i][i] = unit
        squig[i][i] = unit

    # unit-column cells first: x -> 1 pins the branch structure and feeds
    # every axiom instance with z = 1, so they prune hardest
    cells = [(i, unit) for i in range(n - 1)]
    cells += [(i, j) for i in range(n - 1) for j in range(n - 1) if j != i]
    pos = {cell: step for step, cell in enumerate(cells)}
    done = len(cells)

    # waiting[s]: the instances that step s may decide.  A psBCI1 (on_arrow
    # True) or psBCI2 (False) instance starts at the step of its last outer
    # cell; (x, y) is forced only for x = 1 and (y, z) only for y = 1, so
    # one of them is free.
    waiting: list[list[tuple[int, int, int, bool | None]]] = [[] for _ in cells]
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if x == y or y == z:
                    # identically true given the forced diagonal and unit
                    # rows: the instance reduces to squig[1][1] or squig[u][u]
                    continue
                s = max(pos.get(cell, -1) for cell in ((x, y), (y, z), (x, z)))
                waiting[s] += ((x, y, z, True), (x, y, z, False))
    # A law (8) instance (on_arrow None) starts at the step of y ~> z or
    # x -> z, whichever comes last.  x = 1 or y = 1 makes it an identity,
    # and so does x = y = z, given x -> 1 = x ~> 1.
    for x in range(unit):
        for y in range(unit):
            for z in range(n):
                if not x == y == z:
                    s = max(pos.get((y, z), -1), pos.get((x, z), -1))
                    waiting[s].append((x, y, z, None))

    # key[t]: the code arrow * n + squig of the cell assigned at step t, so
    # that codes compare as the key does.  A permutation p maps the model to
    # the one whose cell at step t is p applied to the cell at step pre[t],
    # the preimage of cells[t]; as a code that is code_map[key[pre[t]]].
    # waiting_perms[s] holds (code_map, pre, t) for each permutation whose
    # transported key equals the key before step t and waits on step s.
    key = [0] * done
    waiting_perms: list[list[tuple[tuple[int, ...], tuple[int, ...], int]]] = [
        [] for _ in cells]
    for perm in _unit_fixing_perms(n):
        if perm == tuple(range(n)):
            continue
        inv = sorted(range(n), key=perm.__getitem__)
        code_map = tuple(perm[c // n] * n + perm[c % n] for c in range(n * n))
        pre = tuple(pos[inv[i], inv[j]] for i, j in cells)
        waiting_perms[pre[0]].append((code_map, pre, 0))

    def evaluate(inst) -> int:
        """-1 if the instance fails, ``done`` if it holds, else the step of
        the inner cell it waits on; its outer cells are assigned."""
        x, y, z, on_arrow = inst
        if on_arrow is None:
            # law (8): x -> (y ~> z) = y ~> (x -> z)
            v, w = squig[y][z], arrow[x][z]
            left = arrow[x][v]
            if left is None:
                return pos[x, v]
            right = squig[y][w]
            if right is None:
                return pos[y, w]
            return done if left == right else -1
        outer, inner = (arrow, squig) if on_arrow else (squig, arrow)
        u, v, w = outer[x][y], outer[y][z], outer[x][z]
        t = inner[v][w]
        if t is None:
            return pos[v, w]
        r = inner[u][t]
        if r is None:
            return pos[u, t]
        return done if r == unit else -1

    def least_so_far(step: int, moved: list[int]) -> bool:
        """False if a permutation of the bucket transports the assigned
        cells to a key that is smaller at the first cell both know."""
        for code_map, pre, t in waiting_perms[step]:
            while t <= step and pre[t] <= step:
                theirs, mine = code_map[key[pre[t]]], key[t]
                if theirs != mine:
                    if theirs < mine:
                        return False
                    break           # larger: no completion makes p prune
                t += 1
            else:
                if t < done:        # else p is an automorphism of the model
                    s = max(t, pre[t])
                    waiting_perms[s].append((code_map, pre, t))
                    moved.append(s)
        return True

    # the (arrow, squig) values a cell may take, in key order: x -> 1 =
    # x ~> 1 holds in every pseudo-BCI algebra, so a unit-column cell takes
    # equal values; elsewhere the two tables are 1-coupled, and when the
    # transposed cell already holds 1 antisymmetry leaves no value 1 (an
    # unassigned cell holds None)
    unit_pairs = [(v, v) for v in range(n)]
    coupled_pairs = [(va, vs) for va in range(n) for vs in range(n)
                     if (va == unit) == (vs == unit)]
    below_pairs = [(va, vs) for va, vs in coupled_pairs if va != unit]

    def extend(step: int):
        if step == done:
            yield _flat_key(arrow, squig)
            return
        i, j = cells[step]
        if j == unit:
            pairs = unit_pairs
        elif arrow[j][i] == unit:
            pairs = below_pairs
        else:
            pairs = coupled_pairs
        # newest first: the instances that waited on this cell fail more
        # often than those whose outer cells it completes
        bucket = waiting[step][::-1]
        perms = waiting_perms[step]
        arrow_row, squig_row = arrow[i], squig[i]
        for va, vs in pairs:
            arrow_row[j] = va
            squig_row[j] = vs
            key[step] = va * n + vs
            moved, moved_perms = [], []
            if not perms or least_so_far(step, moved_perms):
                for inst in bucket:
                    s = evaluate(inst)
                    if s < 0:
                        break
                    if s < done:
                        waiting[s].append(inst)
                        moved.append(s)
                else:
                    yield from extend(step + 1)
            for s in moved:
                waiting[s].pop()
            for s in moved_perms:
                waiting_perms[s].pop()
        arrow_row[j] = squig_row[j] = None

    yield from extend(0)


@functools.cache
def _transports(n: int):
    """(table, gather) for every unit-fixing permutation p: the transport by
    p of the model with flat key k has flat key
    ``gather(bytes(k).translate(table))``, p applied to every entry and the
    entries then moved to their images' cells.  Only ``modulo_iso`` reads
    them, for the least key of each class, at 8-12x less than the plain
    ``_transport`` images (1.9 against 0.18 ms for the 25 classes of size
    4, best of 5 by process time, CPython 3.11).  A labelled search needs
    every image anyway and builds them plainly."""
    out = []
    for perm in _unit_fixing_perms(n):
        inv = sorted(range(n), key=perm.__getitem__)
        cell = [inv[x] * n + inv[y] for x in range(n) for y in range(n)]
        out.append((bytes(perm) + bytes(256 - n),
                    operator.itemgetter(*cell, *(n * n + c for c in cell))))
    return tuple(out)


def _least_key(flat: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The least flat key among the transports of the model keyed ``flat``."""
    data = bytes(flat)
    return min(gather(data.translate(table)) for table, gather in _transports(n))


def search(query: SearchQuery) -> list[AlgebraSpec]:
    """All (or the first ``limit``) algebras matching the query.

    The DFS yields one canonical model per unit-fixing isomorphism class.
    Each key's entries are range-checked first.  Its representative, the
    canonical model or with modulo_iso the least flat key of its class,
    then passes the validator's axiom scan and sanity suite, run on its
    index tables, and every predicate, an isomorphism invariant, is decided
    on it.  A class that passes emits its representative, or in a labelled
    search every distinct transport of the canonical model.  Output order
    is lexicographic by the flattened (arrow, squig) index pair.  The DFS
    does not meet the models in output order, so ``limit`` cuts the sorted
    list of all matches: the whole enumeration runs either way, and only
    the kept keys become specs.
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
        # range is refused first, before _least_key translates it into a
        # byte that may look like an element.
        if max(canonical) >= n:
            raise refuse(f"entry {max(canonical)} is not an element")
        rep = _least_key(canonical, n) if query.modulo_iso else canonical
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
        matches += [rep] if query.modulo_iso else _plain_orbit(*tables)
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
