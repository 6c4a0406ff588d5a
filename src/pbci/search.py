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
first step that knows every cell it touches.

The DFS visits one model per isomorphism class that fixes the unit: the
canonical one, whose key (each cell's arrow and then squig value, in DFS
cell order) is the least among its (n-1)! transports.  Every permutation
other than the identity waits in a step's bucket as well.  It compares the
transported key with the assigned one cell by cell, up to the first cell
whose preimage is not assigned yet, and waits for that cell's step.  A
transport that is smaller at the first difference prunes the branch; one
that is larger never can, and drops out (lex-leader symmetry breaking:
Crawford, Ginsberg, Luks and Roy, KR 1996; McKay, J. Algorithms 26, 1998).
``search`` expands each canonical model into its orbit: every distinct
transport, or only the least by flat key for ``modulo_iso``.  Every
predicate is an isomorphism invariant, so it is decided once per orbit.
Every emitted spec additionally passes the full validator.

``brute_force_search`` is the independent oracle for small sizes: a plain
scan of all table pairs (with only the axiom-forced unit rows fixed) that
shares none of the search's propagation.  ``is_lex_least_rep`` is the
oracle for the ``modulo_iso`` representatives.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field

from .core import AlgebraSpec, classify, validate
from .errors import SearchCapExceeded
from .limits import SEARCH_CAP, effective_cap

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
    return tuple(v for row in arrow for v in row) + tuple(v for row in squig for v in row)


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


def is_lex_least_rep(arrow, squig) -> bool:
    """Whether the pair has the least flat key of its unit-fixing iso class.

    A direct check over all (n-1)! transports, kept outside the search as
    the test oracle for ``modulo_iso`` output (the search reads the least
    member off each expanded orbit) and as a span that the benchmark's
    tracer names."""
    n = len(arrow)
    own = _flat_key(arrow, squig)
    for perm in _unit_fixing_perms(n):
        if _flat_key(_transport(arrow, perm), _transport(squig, perm)) < own:
            return False
    return True


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

    # waiting[s]: the psBCI1 (on_arrow) and psBCI2 instances that step s may
    # decide.  Each starts at the step of its last outer cell; (x, y) is
    # forced only for x = 1 and (y, z) only for y = 1, so one of them is free.
    waiting: list[list[tuple[int, int, int, bool]]] = [[] for _ in cells]
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if x == y or y == z:
                    # identically true given the forced diagonal and unit
                    # rows: the instance reduces to squig[1][1] or squig[u][u]
                    continue
                s = max(pos.get(cell, -1) for cell in ((x, y), (y, z), (x, z)))
                waiting[s] += ((x, y, z, True), (x, y, z, False))

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

    def extend(step: int):
        if step == done:
            yield _flat_key(arrow, squig)
            return
        i, j = cells[step]
        partner_set = (j, i) in pos and pos[(j, i)] < step
        for va in range(n):
            # antisymmetry: both of x->y, y->x equal 1 only on the diagonal
            if va == unit and partner_set and arrow[j][i] == unit:
                continue
            arrow[i][j] = va
            # x -> 1 = x ~> 1 holds in every pseudo-BCI algebra, so the
            # unit column admits a single squig value
            squig_domain = (va,) if j == unit else range(n)
            for vs in squig_domain:
                if (va == unit) != (vs == unit):   # 1-coupling of the tables
                    continue
                squig[i][j] = vs
                key[step] = va * n + vs
                moved, moved_perms = [], []
                if least_so_far(step, moved_perms):
                    # newest first: the instances that waited on this cell
                    # fail more often than those whose outer cells it
                    # completes
                    for inst in reversed(waiting[step]):
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
            squig[i][j] = None
        arrow[i][j] = None

    yield from extend(0)


@functools.cache
def _transports(n: int):
    """(table, gather) for every unit-fixing permutation p: the transport by
    p of the model with flat key k has flat key
    ``gather(bytes(k).translate(table))``, p applied to every entry and the
    entries then moved to their images' cells.  ``_transport`` stays the
    plain form for the oracle and the tests; built from it, the orbits made
    the size 3 and 4 searches about 17% slower (CPython 3.11, 2-core host)."""
    out = []
    for perm in _unit_fixing_perms(n):
        inv = sorted(range(n), key=perm.__getitem__)
        cell = [inv[x] * n + inv[y] for x in range(n) for y in range(n)]
        out.append((bytes(perm) + bytes(256 - n),
                    operator.itemgetter(*cell, *(n * n + c for c in cell))))
    return tuple(out)


def _orbit_keys(flat: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    """The distinct flat keys of the unit-fixing transports of the model
    with flat key ``flat``, sorted."""
    data = bytes(flat)
    return sorted({gather(data.translate(table))
                   for table, gather in _transports(n)})


def search(query: SearchQuery) -> list[AlgebraSpec]:
    """All (or the first ``limit``) algebras matching the query.

    The DFS yields one canonical model per unit-fixing isomorphism class,
    and each is expanded into its orbit: every distinct transport, or with
    modulo_iso only the one with the least flat key.  Output order is
    lexicographic by the flattened (arrow, squig) index pair, and every
    result passes the full validator.  Every predicate is an isomorphism
    invariant, so it is decided once per orbit, on its least member.  The
    DFS does not meet the models in output order, so ``limit`` cuts the
    sorted list of all matches: the whole enumeration runs either way.
    """
    query.check()
    limit_cap = effective_cap(SEARCH_CAP)
    if query.size > limit_cap:
        raise SearchCapExceeded(
            f"size {query.size} exceeds search cap {limit_cap}")
    n = query.size
    names = element_names(n)
    wanted = [("is_" + name, value) for name, value in query.predicates]

    def to_spec(flat):
        named = [names[v] for v in flat]
        rows = tuple(tuple(named[k:k + n]) for k in range(0, 2 * n * n, n))
        return AlgebraSpec(names=names, unit=names[-1],
                           arrow=rows[:n], squig=rows[n:])

    matches = []
    for canonical in _canonical_tables(n):
        keys = _orbit_keys(canonical, n)
        if query.modulo_iso:
            keys = keys[:1]
        specs = [to_spec(flat) for flat in keys]
        # defense in depth; search pruning is exact.  n is within the
        # search cap, so within validate's cap from the same PBCI_MAX_SIZE
        algebra = validate(specs[0])
        if wanted:
            report = classify(algebra)
            if any(getattr(report, field_name) != value
                   for field_name, value in wanted):
                continue
        for spec in specs[1:]:
            validate(spec)
        matches += zip(keys, specs)
    matches.sort(key=lambda pair: pair[0])
    specs = [spec for _, spec in matches]
    if query.limit is not None:
        specs = specs[: query.limit]
    return specs


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
