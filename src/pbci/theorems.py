"""Executable theorem suite: structural laws checked exhaustively per algebra.

Each catalogued statement is quantified over the relevant derivation sets,
deductive systems and element tuples of one concrete algebra.  A statement
whose structural preconditions fail is reported as skipped, never passed;
an applicable statement that fails indicates a bug in this package, since
every catalogued law is proved for all pseudo-BCI algebras (two entries are
marked as checked empirically only).

The checks read their objects from an ``Analysis``: the classification,
atoms, K(A), branches, each applicable derivation class, phi and the
deductive systems of one algebra, each computed on first use and kept for
the rest of the call.  ``report.build_report`` passes its own analysis to
``theorem_suite``, so a report and its theorems share one computation.

The catalogue is one table, ``_CATALOG``.  Each row names its precondition
as ClassificationReport flags and its check as a function of the analysis.
A law the paper states for several derivation sets (join absorption for
types I and III, closure under composition for types I and II, ...) has
one checker that takes the map lists, and each row passes its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import (ClassificationReport, PseudoBciAlgebra, _branches, _classify,
                   atoms, classify)
from .derivations import (
    CLASS_ORDER,
    DerivationClass,
    MonoidReport,
    SelfMap,
    compose,
    enumerate_derivations,
    identity_map,
    monoid_report,
    phi_map,
    pointwise,
    regular_translation_maps,
)
from .dsystems import (DeductiveSystem, bck_part_system, enumerate_ds, is_invariant,
                       quotient)
from .formats import format_selfmap

EMPIRICAL_NOTE = "checked empirically; asserted without catalogued proof"


@dataclass(frozen=True)
class TheoremResult:
    tid: str
    statement: str
    applicable: bool
    passed: bool | None          # None iff skipped
    witness: str | None
    note: str | None = None


@dataclass(frozen=True)
class TheoremReport:
    results: tuple[TheoremResult, ...]

    @property
    def all_passed(self) -> bool:
        return not self.failures()

    def failures(self) -> list[TheoremResult]:
        return [r for r in self.results if r.applicable and r.passed is False]

    def applicable(self) -> list[TheoremResult]:
        return [r for r in self.results if r.applicable]


def _maps_of(cls: DerivationClass) -> property:
    return property(lambda self: self.derivations.get(cls, []),
                    doc=f"The {cls} maps; [] where the class does not apply.")


class Analysis:
    """Every derived object of one algebra that the report and the theorem
    suite read, each computed on first use and then kept.

    Built per call from A alone, so nothing here outlives the build_report
    or theorem_suite call that made it.  Each crosscheck behind these
    objects (atoms, K(A), classification, phi, deductive systems) runs once
    per algebra.
    """

    def __init__(self, A: PseudoBciAlgebra):
        self.A = A
        self.n = A.size
        self.unit = A.unit
        self.ident = identity_map(A)

    @cached_property
    def atoms(self) -> frozenset[int]:
        return atoms(self.A)

    @cached_property
    def K(self) -> frozenset[int]:
        return self.bck_system.members

    @cached_property
    def branches(self) -> dict[int, frozenset[int]]:
        return _branches(self.A, self.atoms)

    @cached_property
    def branch_of(self) -> dict[int, int]:
        return {x: a for a, block in self.branches.items() for x in block}

    @cached_property
    def classification(self) -> ClassificationReport:
        return _classify(self.A, self.branches)

    @cached_property
    def derivations(self) -> dict[DerivationClass, list[SelfMap]]:
        """Each applicable class's maps, in CLASS_ORDER: implicative I/II and
        symmetric I/II everywhere, III/IV on pseudo-BCK algebras."""
        bck = self.classification.is_pseudo_bck
        return {cls: enumerate_derivations(self.A, cls)
                for cls in CLASS_ORDER if bck or not cls.requires_pseudo_bck}

    idop1 = _maps_of(DerivationClass.IMPLICATIVE_I)
    idop2 = _maps_of(DerivationClass.IMPLICATIVE_II)
    idop3 = _maps_of(DerivationClass.IMPLICATIVE_III)
    idop4 = _maps_of(DerivationClass.IMPLICATIVE_IV)
    sdop1 = _maps_of(DerivationClass.SYMMETRIC_I)
    sdop2 = _maps_of(DerivationClass.SYMMETRIC_II)

    @cached_property
    def ridop1(self) -> list[SelfMap]:
        return [d for d in self.idop1 if d[self.unit] == self.unit]

    @cached_property
    def ridop2(self) -> list[SelfMap]:
        return [d for d in self.idop2 if d[self.unit] == self.unit]

    @cached_property
    def idop(self) -> list[SelfMap]:
        """The two-sided implicative maps: type I and type II."""
        return sorted(set(self.idop1) & set(self.idop2))

    @cached_property
    def monoid(self) -> MonoidReport:
        return monoid_report(self.A, self.idop)

    @cached_property
    def phi(self) -> SelfMap:
        return phi_map(self.A)

    @cached_property
    def systems(self) -> list[DeductiveSystem]:
        return enumerate_ds(self.A)

    @cached_property
    def bck_system(self) -> DeductiveSystem:
        return bck_part_system(self.A)

    @cached_property
    def theorems(self) -> TheoremReport:
        """Every catalogued statement, in catalogue order; skipped entries
        carry passed=None."""
        results = []
        for tid, statement, flags, check, note in _CATALOG:
            if not all(getattr(self.classification, f) for f in flags):
                results.append(TheoremResult(
                    tid=tid, statement=statement, applicable=False,
                    passed=None, witness=None, note=note))
                continue
            witness = check(self)
            results.append(TheoremResult(
                tid=tid, statement=statement, applicable=True,
                passed=witness is None, witness=witness, note=note))
        return TheoremReport(results=tuple(results))

    def fmt(self, d: SelfMap) -> str:
        return "(" + format_selfmap(d, self.A) + ")"

    def name(self, x: int) -> str:
        return self.A.names[x]

    def kernel(self, d: SelfMap) -> frozenset[int]:
        return frozenset(x for x in range(self.n) if d[x] == self.unit)

    def prod(self, x: int, y: int) -> int:
        """(x -> 1) ~> y, the group product usable on atoms."""
        return self.A.squig[self.A.arrow[x][self.unit]][y]

    def invariant_under(self, d: SelfMap) -> bool:
        return all(is_invariant(self.A, D, d) for D in self.systems)


# Every check returns a witness string on failure, None on success.


def _chk_join_absorption(c: Analysis, maps: list[SelfMap]):
    A = c.A
    for d in maps:
        for x in range(c.n):
            if d[x] != A.cup1(d[x], x) or d[x] != A.cup2(d[x], x):
                return f"d={c.fmt(d)} at x={c.name(x)}"
    return None


def _chk_join_absorption_iff_regular(c: Analysis, maps: list[SelfMap]):
    A = c.A
    for d in maps:
        absorbed = all(
            d[x] == A.cup1(x, d[x]) and d[x] == A.cup2(x, d[x])
            for x in range(c.n))
        if absorbed != (d[c.unit] == c.unit):
            return f"d={c.fmt(d)}"
    return None


def _chk_regular_type2_basics(c: Analysis):
    A = c.A
    arrow, squig, leq = A.arrow, A.squig, A.leq
    for d in c.ridop2:
        tag = f"d={c.fmt(d)}"
        for x in range(c.n):
            if not leq[x][d[x]]:
                return f"{tag}: x <= dx fails at {c.name(x)}"
            if c.branch_of[A.phi(x)] != c.branch_of[d[x]]:
                return f"{tag}: phi(x), dx in different branches at {c.name(x)}"
            if arrow[A.phi(x)][d[x]] not in c.K or squig[A.phi(x)][d[x]] not in c.K:
                return f"{tag}: phi(x) op dx outside BCK part at {c.name(x)}"
            for y in range(c.n):
                am, bm = arrow[d[x]][y], arrow[d[x]][d[y]]
                cm = arrow[x][d[y]]
                if not (leq[am][bm] and leq[bm][cm] and cm == d[arrow[x][y]]):
                    return f"{tag}: arrow chain fails at ({c.name(x)}, {c.name(y)})"
                am, bm = squig[d[x]][y], squig[d[x]][d[y]]
                cm = squig[x][d[y]]
                if not (leq[am][bm] and leq[bm][cm] and cm == d[squig[x][y]]):
                    return f"{tag}: squig chain fails at ({c.name(x)}, {c.name(y)})"
                # comparable arguments force the image gap into the BCK part
                # (isotonicity itself can fail: images may sit in one branch
                # without being comparable)
                if leq[x][y] and (arrow[d[x]][d[y]] not in c.K
                                  or squig[d[x]][d[y]] not in c.K):
                    return f"{tag}: image gap escapes BCK part at ({c.name(x)}, {c.name(y)})"
        ker = c.kernel(d)
        if c.unit not in ker or not all(
                arrow[x][y] in ker and squig[x][y] in ker for x in ker for y in ker):
            return f"{tag}: kernel not a subalgebra"
        if not ker <= c.K:
            return f"{tag}: kernel escapes the BCK part"
        if not all(d[x] in c.K for x in c.K):
            return f"{tag}: image of BCK part escapes it"
    return None


def _chk_dominated_idempotent_composition(c: Analysis):
    for d2 in c.ridop2:
        if compose(d2, d2) != d2:
            continue
        for d1 in c.ridop2:
            if all(c.A.leq[d1[x]][d2[x]] for x in range(c.n)):
                if compose(d2, d1) != d2:
                    return f"d1={c.fmt(d1)}, d2={c.fmt(d2)}"
    return None


def _chk_kernel_is_bck_part_iff_phi(c: Analysis):
    for d in c.ridop2:
        if (c.kernel(d) == c.K) != (d == c.phi):
            return f"d={c.fmt(d)}"
    return None


def _chk_kernel_bck_part_forces_idempotent(c: Analysis):
    for d in c.ridop2:
        if c.kernel(d) == c.K and compose(d, d) != d:
            return f"d={c.fmt(d)}"
    return None


def _chk_lower_bound_forces_regular_bck(c: Analysis):
    leq = c.A.leq
    for d in c.idop:
        bounded = any(all(leq[a][d[x]] for x in range(c.n)) for a in range(c.n))
        if bounded:
            if d[c.unit] != c.unit:
                return f"d={c.fmt(d)} bounded below but not regular"
            if not c.classification.is_pseudo_bck:
                return f"d={c.fmt(d)} bounded below on a non-pseudo-BCK algebra"
    return None


def _chk_type1_unit_image(c: Analysis):
    A = c.A
    arrow, squig = A.arrow, A.squig
    u = c.unit
    for d in c.idop1:
        tag = f"d={c.fmt(d)}"
        if d[u] not in c.atoms:
            return f"{tag}: d(1) is not an atom"
        for a in c.atoms:
            if d[a] != arrow[arrow[a][u]][d[u]] or d[a] != squig[arrow[a][u]][d[u]]:
                return f"{tag}: atom translation fails at {c.name(a)}"
        for x in range(c.n):
            if d[arrow[d[x]][x]] != u or d[squig[d[x]][x]] != u:
                return f"{tag}: d(dx op x) != 1 at {c.name(x)}"
    return None


def _chk_type2_unit_translation(c: Analysis):
    A = c.A
    arrow, squig, leq = A.arrow, A.squig, A.leq
    for d in c.idop2:
        tag = f"d={c.fmt(d)}"
        d1 = d[c.unit]
        for x in range(c.n):
            if not leq[arrow[d1][x]][d[x]] or not leq[squig[d1][x]][d[x]]:
                return f"{tag}: d(1) op x <= dx fails at {c.name(x)}"
        for a in c.atoms:
            if d[a] != arrow[d1][a] or d[a] != squig[d1][a]:
                return f"{tag}: atom translation fails at {c.name(a)}"
    return None


def _chk_implicative_atom_stability(c: Analysis):
    u = c.unit
    for d in sorted(set(c.idop1) | set(c.idop2)):
        tag = f"d={c.fmt(d)}"
        if not all(d[a] in c.atoms for a in c.atoms):
            return f"{tag}: image of an atom is not an atom"
        if d[u] in c.K and d[u] != u:
            return f"{tag}: d(1) in the BCK part but not 1"
        d1inv = c.A.arrow[d[u]][u]
        for a in c.atoms:
            for b in c.atoms:
                if d[c.prod(a, b)] != c.prod(c.prod(d[a], d1inv), d[b]):
                    return f"{tag}: product rule fails at ({c.name(a)}, {c.name(b)})"
        if all(d[a] == a for a in c.atoms) != (d[u] == u):
            return f"{tag}: atom-fixing vs regularity mismatch"
    return None


def _chk_regular_type2_characterization(c: Analysis):
    alt = regular_translation_maps(c.A)
    if set(alt) != set(c.ridop2):
        extra = set(alt) ^ set(c.ridop2)
        some = c.fmt(sorted(extra)[0])
        return f"route disagreement, e.g. {some}"
    return None


def _chk_atom_valued_type1_pullthrough(c: Analysis):
    A = c.A
    arrow, squig = A.arrow, A.squig
    for d in c.idop1:
        if not all(v in c.atoms for v in d):
            continue
        for x in range(c.n):
            for y in range(c.n):
                if d[arrow[x][y]] != arrow[x][d[y]] or d[squig[x][y]] != squig[x][d[y]]:
                    return f"d={c.fmt(d)} at ({c.name(x)}, {c.name(y)})"
    return None


def _chk_left_translation_forces_identity(c: Analysis):
    A = c.A
    arrow, squig = A.arrow, A.squig
    rng = range(c.n)
    for d in sorted(set(c.ridop1) | set(c.ridop2)):
        left_arrow = all(d[arrow[x][y]] == arrow[d[x]][y] for x in rng for y in rng)
        left_squig = all(d[squig[x][y]] == squig[d[x]][y] for x in rng for y in rng)
        if (left_arrow or left_squig) and d != c.ident:
            return f"d={c.fmt(d)}"
    return None


def _chk_invariance_forces_regular(c: Analysis):
    for d in sorted(set(c.idop1) | set(c.idop2)):
        if c.invariant_under(d) and d[c.unit] != c.unit:
            return f"d={c.fmt(d)}"
    return None


def _chk_regular_type2_invariance(c: Analysis):
    for d in c.ridop2:
        for D in c.systems:
            if not is_invariant(c.A, D, d):
                return f"d={c.fmt(d)}, D={{{', '.join(c.A.name_set(D.members))}}}"
    return None


def _chk_regular_iff_all_invariant(c: Analysis, maps: list[SelfMap]):
    for d in maps:
        if (d[c.unit] == c.unit) != c.invariant_under(d):
            return f"d={c.fmt(d)}"
    return None


def _chk_psemisimple_iff_trivial_regular_type2(c: Analysis):
    a = c.classification.is_p_semisimple
    b = all(c.kernel(d) == frozenset({c.unit}) for d in c.ridop2)
    e = c.ridop2 == [c.ident]
    if not (a == b == e):
        return f"classification={a}, trivial kernels={b}, only identity={e}"
    return None


def _chk_closed_under_composition(c: Analysis, maps: list[SelfMap]):
    members = set(maps)
    for d1 in maps:
        for d2 in maps:
            if compose(d1, d2) not in members:
                return f"d1={c.fmt(d1)}, d2={c.fmt(d2)}"
    return None


def _chk_psemisimple_composition_commutes(c: Analysis):
    for d1 in c.idop:
        for d2 in c.idop:
            if compose(d1, d2) != compose(d2, d1):
                return f"d1={c.fmt(d1)}, d2={c.fmt(d2)}"
    return None


def _chk_psemisimple_implicative_monoid(c: Analysis):
    rep = c.monoid
    if not (rep.closed_under_composition and rep.commutative and rep.has_identity):
        return "; ".join(rep.witnesses) or "identity map missing"
    return None


def _chk_psemisimple_pointwise_constant(c: Analysis):
    A = c.A
    for d1 in c.idop:
        for d2 in c.idop:
            value = compose(d1, d2)[c.unit]
            for op in ("arrow", "squig"):
                p12 = pointwise(A, op, d1, d2)
                p21 = pointwise(A, op, d2, d1)
                if p12 != p21 or any(v != value for v in p12):
                    return f"d1={c.fmt(d1)}, d2={c.fmt(d2)}, op={op}"
    return None


def _chk_sym1_constant_gap(c: Analysis):
    A = c.A
    arrow, squig, leq = A.arrow, A.squig, A.leq
    for d in c.sdop1:
        tag = f"d={c.fmt(d)}"
        d1 = d[c.unit]
        for x in range(c.n):
            if arrow[x][d[x]] != d1 or squig[x][d[x]] != d1:
                return f"{tag}: gap x op dx is not d(1) at {c.name(x)}"
            if d[x] != A.cup1(d[x], d1) or d[x] != A.cup2(d[x], d1):
                return f"{tag}: dx join d(1) fails at {c.name(x)}"
        if d1 == c.unit:
            for x in range(c.n):
                if not leq[x][d[x]]:
                    return f"{tag}: x <= dx fails at {c.name(x)}"
                if d[x] not in c.atoms:
                    return f"{tag}: dx not an atom at {c.name(x)}"
                for y in range(c.n):
                    if d[x] != A.cup1(d[x], y) or d[x] != A.cup2(d[x], y):
                        return f"{tag}: dx join y fails at ({c.name(x)}, {c.name(y)})"
    return None


def _chk_sym2_atom_valued(c: Analysis):
    A = c.A
    arrow, squig = A.arrow, A.squig
    for d in c.sdop2:
        tag = f"d={c.fmt(d)}"
        d1 = d[c.unit]
        for x in range(c.n):
            if arrow[d[x]][x] != d1 or squig[d[x]][x] != d1:
                return f"{tag}: gap dx op x is not d(1) at {c.name(x)}"
            if d[x] != A.phi(A.cup1(d[x], x)) or d[x] != A.phi(A.cup2(d[x], x)):
                return f"{tag}: dx via phi of join fails at {c.name(x)}"
            if d[x] != A.cup1(d[x], x) or d[x] != A.cup2(d[x], x):
                return f"{tag}: dx join x fails at {c.name(x)}"
            if d[x] not in c.atoms:
                return f"{tag}: dx not an atom at {c.name(x)}"
            for y in range(c.n):
                if d[x] != A.cup1(d[x], y) or d[x] != A.cup2(d[x], y):
                    return f"{tag}: dx join y fails at ({c.name(x)}, {c.name(y)})"
                if arrow[x][d[y]] not in c.atoms or squig[x][d[y]] not in c.atoms:
                    return f"{tag}: x op dy not an atom at ({c.name(x)}, {c.name(y)})"
        if d1 == c.unit and d != c.ident:
            return f"{tag}: regular but not the identity"
    return None


def _chk_sym_atom_product_translation(c: Analysis):
    for d in sorted(set(c.sdop1) | set(c.sdop2)):
        for x in c.atoms:
            for y in c.atoms:
                lhs = d[c.prod(x, y)]
                if lhs != c.prod(d[x], y) or lhs != c.prod(x, d[y]):
                    return f"d={c.fmt(d)} at ({c.name(x)}, {c.name(y)})"
    return None


def _chk_psemisimple_sym2_left_translation(c: Analysis):
    A = c.A
    arrow, squig = A.arrow, A.squig
    rng = range(c.n)
    for d in c.sdop2:
        tag = f"d={c.fmt(d)}"
        for x in rng:
            for y in rng:
                if d[arrow[x][y]] != arrow[d[x]][y] or d[squig[x][y]] != squig[d[x]][y]:
                    return f"{tag}: left translation fails at ({c.name(x)}, {c.name(y)})"
                if arrow[x][d[x]] != arrow[y][d[y]] or squig[x][d[x]] != squig[y][d[y]]:
                    return f"{tag}: gap not constant at ({c.name(x)}, {c.name(y)})"
                if arrow[x][d[x]] != arrow[d[y]][y] or squig[x][d[x]] != squig[d[y]][y]:
                    return f"{tag}: two gaps differ at ({c.name(x)}, {c.name(y)})"
    return None


def _chk_same_maps(c: Analysis, maps: list[SelfMap], others: list[SelfMap]):
    if set(maps) != set(others):
        diff = sorted(set(maps) ^ set(others))
        return f"sets differ, e.g. {c.fmt(diff[0])}"
    return None


def _chk_bck_part_closed_compatible_invariant(c: Analysis):
    ds = c.bck_system
    for d in c.ridop2:
        if not is_invariant(c.A, ds, d):
            return f"BCK part not invariant under d={c.fmt(d)}"
    return None


def _chk_quotient_by_bck_part_psemisimple(c: Analysis):
    Q = quotient(c.A, c.bck_system)
    if not classify(Q).is_p_semisimple:
        return "quotient by the BCK part is not p-semisimple"
    reg = enumerate_derivations(Q, DerivationClass.IMPLICATIVE_II, regular=True)
    if reg != [identity_map(Q)]:
        return f"quotient has {len(reg)} regular type II derivations"
    return None


def _chk_phi_map_type1_both_kinds(c: Analysis):
    if c.phi not in c.idop1:
        return "unit-double-negation map is not a type I implicative map"
    if c.phi not in c.sdop1:
        return "unit-double-negation map is not a type I symmetric map"
    return None


def _chk_commutative_phi_map_two_sided(c: Analysis):
    if c.phi not in c.idop2:
        return "unit-double-negation map is not type II on a commutative algebra"
    return None


# Each row is (id, statement, precondition, check, note).  The precondition
# names the ClassificationReport flags that must all hold; an empty one
# never reads the classification, so those rows cannot change the order in
# which an Analysis computes its members.
_CATALOG = (
    ("type1-join-absorption",
     "type I implicative maps absorb their argument under both joins",
     (), lambda c: _chk_join_absorption(c, c.idop1), None),
    ("type2-join-absorption-iff-regular",
     "type II implicative maps are join-absorbed by their argument iff regular",
     (), lambda c: _chk_join_absorption_iff_regular(c, c.idop2), None),
    ("regular-type2-basics",
     "regular type II maps are inflationary with well-placed kernels, "
     "images and branches",
     (), _chk_regular_type2_basics, None),
    ("dominated-idempotent-composition",
     "an idempotent regular type II map absorbs dominated ones under composition",
     (), _chk_dominated_idempotent_composition, None),
    ("kernel-is-bck-part-iff-phi",
     "a regular type II map has kernel equal to the BCK part iff it is the "
     "unit-double-negation map",
     (), _chk_kernel_is_bck_part_iff_phi, None),
    ("kernel-bck-part-forces-idempotent",
     "a regular type II map whose kernel is the BCK part is idempotent",
     (), _chk_kernel_bck_part_forces_idempotent, None),
    ("lower-bound-forces-regular-bck",
     "a two-sided implicative map bounded below forces regularity and a "
     "pseudo-BCK algebra",
     (), _chk_lower_bound_forces_regular_bck, None),
    ("type1-unit-image",
     "type I maps send the unit to an atom, translate atoms, and kill the gaps",
     (), _chk_type1_unit_image, None),
    ("type2-unit-translation",
     "type II maps dominate the translation by d(1) and translate atoms by it",
     (), _chk_type2_unit_translation, None),
    ("implicative-atom-stability",
     "implicative maps stabilize the atoms and fix them exactly when regular",
     (), _chk_implicative_atom_stability, None),
    ("regular-type2-characterization",
     "regular type II maps are exactly the regular right-translation-"
     "compatible maps (two enumeration routes agree)",
     (), _chk_regular_type2_characterization, None),
    ("atom-valued-type1-pullthrough",
     "atom-valued type I maps pull through both implications",
     (), _chk_atom_valued_type1_pullthrough, None),
    ("left-translation-forces-identity",
     "a regular implicative map that left-translates either implication is "
     "the identity",
     (), _chk_left_translation_forces_identity, None),
    ("invariance-forces-regular",
     "if every deductive system is invariant under an implicative map, the "
     "map is regular",
     (), _chk_invariance_forces_regular, None),
    ("regular-type2-invariance",
     "every deductive system is invariant under every regular type II map",
     (), _chk_regular_type2_invariance, None),
    ("type2-regular-iff-all-invariant",
     "a type II map is regular iff every deductive system is invariant under it",
     (), lambda c: _chk_regular_iff_all_invariant(c, c.idop2), None),
    ("psemisimple-iff-trivial-regular-type2",
     "p-semisimple iff all regular type II kernels are trivial iff the only "
     "regular type II map is the identity",
     (), _chk_psemisimple_iff_trivial_regular_type2, None),
    ("psemisimple-type1-closed",
     "on p-semisimple algebras type I maps are closed under composition",
     ("is_p_semisimple",), lambda c: _chk_closed_under_composition(c, c.idop1), None),
    ("psemisimple-type2-closed",
     "on p-semisimple algebras type II maps are closed under composition",
     ("is_p_semisimple",), lambda c: _chk_closed_under_composition(c, c.idop2), None),
    ("psemisimple-composition-commutes",
     "on p-semisimple algebras two-sided implicative maps commute",
     ("is_p_semisimple",), _chk_psemisimple_composition_commutes, None),
    ("psemisimple-implicative-monoid",
     "on p-semisimple algebras the two-sided implicative maps form a "
     "commutative monoid under composition",
     ("is_p_semisimple",), _chk_psemisimple_implicative_monoid, None),
    ("psemisimple-pointwise-constant",
     "on p-semisimple algebras pointwise implications of two-sided maps "
     "commute and are constant at the composite of the unit",
     ("is_p_semisimple",), _chk_psemisimple_pointwise_constant, None),
    ("sym1-constant-gap",
     "type I symmetric maps have constant gap d(1) = x op dx; regular ones "
     "are inflationary and atom-valued",
     (), _chk_sym1_constant_gap, None),
    ("sym2-atom-valued",
     "type II symmetric maps are atom-valued with constant gap dx op x and "
     "collapse to the identity when regular",
     (), _chk_sym2_atom_valued, None),
    ("sym-atom-product-translation",
     "symmetric maps translate the atom product on either side",
     (), _chk_sym_atom_product_translation, None),
    ("psemisimple-sym2-left-translation",
     "on p-semisimple algebras type II symmetric maps left-translate and "
     "have constant gaps",
     ("is_p_semisimple",), _chk_psemisimple_sym2_left_translation, None),
    ("psemisimple-sym2-equals-type2",
     "on p-semisimple algebras symmetric and implicative type II sets coincide",
     ("is_p_semisimple",), lambda c: _chk_same_maps(c, c.sdop2, c.idop2), None),
    ("psemisimple-bci-sym1-equals-type1",
     "on p-semisimple BCI algebras symmetric and implicative type I sets coincide",
     ("is_p_semisimple", "is_bci"), lambda c: _chk_same_maps(c, c.sdop1, c.idop1),
     None),
    ("sym-regular-iff-all-invariant",
     "a symmetric map is regular iff every deductive system is invariant under it",
     (), lambda c: _chk_regular_iff_all_invariant(
         c, sorted(set(c.sdop1) | set(c.sdop2))), None),
    ("bck-part-closed-compatible-invariant",
     "the BCK part is a compatible closed deductive system invariant under "
     "every regular type II map",
     (), _chk_bck_part_closed_compatible_invariant, None),
    ("quotient-by-bck-part-psemisimple",
     "the quotient by the BCK part is p-semisimple with only the identity as "
     "regular type II map",
     (), _chk_quotient_by_bck_part_psemisimple, None),
    ("bck-type3-join-absorption",
     "on pseudo-BCK algebras type III implicative maps absorb their argument "
     "under both joins",
     ("is_pseudo_bck",), lambda c: _chk_join_absorption(c, c.idop3), EMPIRICAL_NOTE),
    ("bck-type4-join-absorption-iff-regular",
     "on pseudo-BCK algebras type IV implicative maps are join-absorbed by "
     "their argument iff regular",
     ("is_pseudo_bck",), lambda c: _chk_join_absorption_iff_regular(c, c.idop4),
     EMPIRICAL_NOTE),
    ("phi-map-type1-both-kinds",
     "the unit-double-negation map is a type I implicative and a type I "
     "symmetric derivation",
     (), _chk_phi_map_type1_both_kinds, None),
    ("commutative-phi-map-two-sided",
     "on commutative algebras the unit-double-negation map is two-sided "
     "implicative",
     ("is_commutative",), _chk_commutative_phi_map_two_sided, None),
)


CATALOG_IDS = tuple(entry[0] for entry in _CATALOG)


def theorem_suite(A: PseudoBciAlgebra | Analysis) -> TheoremReport:
    """Run every catalogued statement on one algebra.

    Applicability is decided per statement (p-semisimple / BCI / pseudo-BCK
    preconditions); skipped entries carry passed=None.  A may also be an
    Analysis already made for the algebra, as build_report passes its own;
    its derivation sets and deductive systems are then reused.
    """
    an = A if isinstance(A, Analysis) else Analysis(A)
    return an.theorems
