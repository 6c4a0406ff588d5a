"""Bounded backtracking search for finite pseudo-BCI algebras.

The generator fixes the unit as the last element, forces the cells the
axioms force directly (unit rows are identity rows, the diagonal is the
unit, and x -> y = 1 iff x ~> y = 1 couples the two tables), assigns the
remaining cells in interleaved row-major order (arrow cell, then its squig
partner), and tests every axiom instance as soon as all entries it touches
are assigned.  Every emitted spec additionally passes the full validator.

``brute_force_search`` is the independent oracle for small sizes: a plain
scan of all table pairs (with only the axiom-forced unit rows fixed) that
shares none of the search's propagation.
"""

from __future__ import annotations

import itertools
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
    """Whether the pair is the minimal member of its unit-fixing iso class."""
    n = len(arrow)
    own = _flat_key(arrow, squig)
    for perm in _unit_fixing_perms(n):
        if _flat_key(_transport(arrow, perm), _transport(squig, perm)) < own:
            return False
    return True


def _search_tables(n: int):
    """Yield every (arrow, squig) index-table pair with unit n-1 that passes
    the incrementally checked axioms, in interleaved-assignment DFS order."""
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
    pos = {}
    for step, cell in enumerate(cells):
        pos[cell] = step
    forced = -1

    def cell_pos(x: int, y: int) -> int:
        return pos.get((x, y), forced)

    # psBCI1 instances keyed by the step at which their three arrow cells
    # are known; psBCI2 mirrors with squig cells (same positions, since the
    # two halves of a cell are assigned together).
    schedule: list[list[tuple[int, int, int, bool]]] = [[] for _ in cells]
    initial: list[tuple[int, int, int, bool]] = []
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if x == y or y == z:
                    # identically true given the forced diagonal and unit
                    # rows: the instance reduces to squig[1][1] or squig[u][u]
                    continue
                s = max(cell_pos(x, y), cell_pos(y, z), cell_pos(x, z))
                for on_arrow in (True, False):
                    inst = (x, y, z, on_arrow)
                    if s == forced:
                        initial.append(inst)
                    else:
                        schedule[s].append(inst)

    def evaluate(inst) -> bool | None:
        """True/False when decidable under the partial assignment."""
        x, y, z, on_arrow = inst
        outer, inner = (arrow, squig) if on_arrow else (squig, arrow)
        u = outer[x][y]
        v = outer[y][z]
        w = outer[x][z]
        if u is None or v is None or w is None:
            return None
        t = inner[v][w]
        if t is None:
            return None
        r = inner[u][t]
        if r is None:
            return None
        return r == unit

    pending0 = []
    for inst in initial:
        verdict = evaluate(inst)
        if verdict is False:
            return
        if verdict is None:
            pending0.append(inst)

    def extend(step: int, pending: list):
        if step == len(cells):
            assert not pending
            yield (tuple(tuple(r) for r in arrow), tuple(tuple(r) for r in squig))
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
                nxt = []
                ok = True
                for inst in itertools.chain(pending, schedule[step]):
                    verdict = evaluate(inst)
                    if verdict is False:
                        ok = False
                        break
                    if verdict is None:
                        nxt.append(inst)
                if ok:
                    yield from extend(step + 1, nxt)
            squig[i][j] = None
        arrow[i][j] = None

    yield from extend(0, pending0)


def search(query: SearchQuery) -> list[AlgebraSpec]:
    """All (or the first ``limit``) algebras matching the query.

    Output order is lexicographic by the flattened (arrow, squig) index
    pair; with modulo_iso only the least representative of each unit-fixing
    isomorphism class is kept.  Every result passes the full validator.
    """
    query.check()
    limit_cap = effective_cap(SEARCH_CAP)
    if query.size > limit_cap:
        raise SearchCapExceeded(
            f"size {query.size} exceeds search cap {limit_cap}")
    n = query.size
    names = element_names(n)
    wanted = [("is_" + name, value) for name, value in query.predicates]

    matches = []
    for arrow, squig in _search_tables(n):
        spec = AlgebraSpec(
            names=names,
            unit=names[-1],
            arrow=tuple(tuple(names[v] for v in row) for row in arrow),
            squig=tuple(tuple(names[v] for v in row) for row in squig),
        )
        # defense in depth; search pruning is exact.  n is within the
        # search cap, so within validate's cap from the same PBCI_MAX_SIZE
        algebra = validate(spec)
        if wanted:
            report = classify(algebra)
            if any(getattr(report, field_name) != value
                   for field_name, value in wanted):
                continue
        if query.modulo_iso and not is_lex_least_rep(arrow, squig):
            continue
        matches.append((_flat_key(arrow, squig), spec))
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
