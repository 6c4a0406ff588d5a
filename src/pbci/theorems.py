"""Executable theorem suite: structural laws checked exhaustively per algebra.

Each catalogued statement is quantified over the relevant derivation sets,
deductive systems and element tuples of one concrete algebra.  A statement
whose structural preconditions fail is reported as skipped, never passed;
an applicable statement that fails indicates a bug in this package, since
every catalogued law is proved for all pseudo-BCI algebras (two entries are
marked as checked empirically only).

The checks read the structure and tables of the algebra from its cached
properties, and the enumerations, capped per call, from an ``Analysis``:
each applicable derivation class, map records, phi (``phi_map``), the
deductive systems and the monoid, each computed on first use and kept for
the call.  K(A) as a deductive system is the entry of the systems with its
members.  Per-map facts are read from the map's one record, and
d-invariance from the one table ``non_invariant``.  A result's
applicability is derived from ``passed``, which is None exactly when the
row is skipped.
``report.build_report`` passes its own analysis to ``theorem_suite``, so a
report and its theorems share one computation.

The catalogue is one table, ``_CATALOG``.  Each row names its precondition
as ClassificationReport flags and its check as a function of the analysis.
Most rows claim that every map of one derivation list obeys a law; their
check is ``_each(list, law)``, where ``law(c, d)`` returns None when the map
d obeys the law and otherwise the witness text after ``d=(...)``, and
``_each`` reports the first map of the named ``Analysis`` list that fails.
A law the paper states for several lists (join absorption for types I and
III, regularity iff invariance for type II and symmetric maps) is one law
that several rows name.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

from .core import PseudoBciAlgebra
from .derivations import (
    DerivationClass,
    MapPropertyRecord,
    MonoidReport,
    SelfMap,
    compose,
    enumerate_derivations,
    identity_map,
    map_properties,
    monoid_report,
    phi_map,
    pointwise,
    regular_translation_maps,
)
from .dsystems import DeductiveSystem, enumerate_ds, is_invariant, quotient
from .errors import InternalInconsistencyError
from .formats import format_selfmap

EMPIRICAL_NOTE = "checked empirically; asserted without catalogued proof"


@dataclass(frozen=True)
class TheoremResult:
    tid: str
    statement: str
    passed: bool | None          # None iff skipped
    witness: str | None
    note: str | None = None

    @property
    def applicable(self) -> bool:
        return self.passed is not None


@dataclass(frozen=True)
class TheoremReport:
    results: tuple[TheoremResult, ...]

    @property
    def all_passed(self) -> bool:
        return not self.failures()

    def failures(self) -> list[TheoremResult]:
        return [r for r in self.results if r.passed is False]

    def applicable(self) -> list[TheoremResult]:
        return [r for r in self.results if r.applicable]


def _maps_of(cls: DerivationClass) -> property:
    return property(lambda self: self.derivations.get(cls, []),
                    doc=f"The {cls} maps; [] where the class does not apply.")


class Analysis:
    """The enumerations of one algebra that the report and the theorem
    suite read, each computed on first use and then kept.

    Built per call from A alone, so nothing here outlives the build_report
    or theorem_suite call that made it, and each call checks the size caps
    afresh.  The atoms, K(A), branches and classification are the
    algebra's own cached properties.  Each distinct map of the derivation
    classes gets one property record however many classes list it.
    """

    def __init__(self, A: PseudoBciAlgebra):
        self.A = A
        self.n = A.size
        self.unit = A.unit
        self.ident = identity_map(A)

    @cached_property
    def branch_of(self) -> dict[int, int]:
        return {x: a for a, block in self.A.branches.items() for x in block}

    @cached_property
    def derivations(self) -> dict[DerivationClass, list[SelfMap]]:
        """The maps of each class that applies to A, in DerivationClass
        order; DerivationClass.applies_to decides the scope."""
        return {cls: enumerate_derivations(self.A, cls)
                for cls in DerivationClass if cls.applies_to(self.A)}

    @cached_property
    def map_records(self) -> dict[SelfMap, MapPropertyRecord]:
        """The property record of each distinct map of the applicable
        classes, keyed by the map, in first-listed order."""
        distinct = dict.fromkeys(d for maps in self.derivations.values() for d in maps)
        return {d: map_properties(self.A, d) for d in distinct}

    idop1 = _maps_of(DerivationClass.IMPLICATIVE_I)
    idop2 = _maps_of(DerivationClass.IMPLICATIVE_II)
    idop3 = _maps_of(DerivationClass.IMPLICATIVE_III)
    idop4 = _maps_of(DerivationClass.IMPLICATIVE_IV)
    sdop1 = _maps_of(DerivationClass.SYMMETRIC_I)
    sdop2 = _maps_of(DerivationClass.SYMMETRIC_II)

    @cached_property
    def ridop2(self) -> list[SelfMap]:
        return [d for d in self.idop2 if d[self.unit] == self.unit]

    @cached_property
    def idop(self) -> list[SelfMap]:
        """The two-sided implicative maps: type I and type II."""
        return sorted(set(self.idop1) & set(self.idop2))

    @cached_property
    def implicative(self) -> list[SelfMap]:
        """The maps of type I or type II implicative, sorted."""
        return sorted(set(self.idop1) | set(self.idop2))

    @cached_property
    def symmetric(self) -> list[SelfMap]:
        """The maps of type I or type II symmetric, sorted."""
        return sorted(set(self.sdop1) | set(self.sdop2))

    @cached_property
    def monoid(self) -> MonoidReport:
        return monoid_report(self.A, self.idop)

    @cached_property
    def phi(self) -> SelfMap:
        """``phi_map``; its type I membership in both kinds is the catalogue
        entry phi-map-type1-both-kinds."""
        return phi_map(self.A)

    @cached_property
    def systems(self) -> list[DeductiveSystem]:
        return enumerate_ds(self.A)

    @cached_property
    def non_invariant(self) -> dict[SelfMap, DeductiveSystem | None]:
        """Each implicative or symmetric map's first system not invariant
        under it, or None.  The four invariance rows read only these maps
        (ridop2 and idop2 lie in implicative), so a map of type III or IV
        alone is not looked at."""
        return {d: next((D for D in self.systems if not is_invariant(self.A, D, d)), None)
                for d in dict.fromkeys(self.implicative + self.symmetric)}

    @cached_property
    def bck_system(self) -> DeductiveSystem:
        """K(A) as the entry of ``systems`` with its members, whose flags
        are already built; it must be there, compatible and closed."""
        K = self.A.bck_part
        D = next((D for D in self.systems if D.members == K), None)
        if D is None:
            raise InternalInconsistencyError("BCK part is not a deductive system")
        if not (D.compatible and D.closed):
            raise InternalInconsistencyError("BCK part is not compatible and closed")
        return D

    @cached_property
    def theorems(self) -> TheoremReport:
        """Every catalogued statement, in catalogue order; skipped entries
        carry passed=None."""
        results = []
        for tid, statement, flags, check, note in _CATALOG:
            passed = witness = None
            if all(getattr(self.A.classification, f) for f in flags):
                witness = check(self)
                passed = witness is None
            results.append(TheoremResult(tid=tid, statement=statement,
                                         passed=passed, witness=witness, note=note))
        return TheoremReport(results=tuple(results))

    def fmt(self, d: SelfMap) -> str:
        return "(" + format_selfmap(d, self.A) + ")"

    def name(self, x: int) -> str:
        return self.A.names[x]


# Every check returns a witness string on failure, None on success.


def _each(maps: str, law: Callable[[Analysis, SelfMap], str | None]):
    """The check that every map of the Analysis list ``maps`` obeys
    ``law``.  ``law(c, d)`` returns None where the map d obeys it and
    otherwise the witness text after ``d=(...)``; the check reports the
    first map that fails."""
    def check(c: Analysis):
        for d in getattr(c, maps):
            failure = law(c, d)
            if failure is not None:
                return f"d={c.fmt(d)}{failure}"
        return None
    return check


def _join_absorption(c: Analysis, d: SelfMap):
    cup1, cup2 = c.A.joins
    for x in range(c.n):
        if d[x] != cup1[d[x]][x] or d[x] != cup2[d[x]][x]:
            return f" at x={c.name(x)}"


def _join_absorption_iff_regular(c: Analysis, d: SelfMap):
    cup1, cup2 = c.A.joins
    absorbed = all(d[x] == cup1[x][d[x]] and d[x] == cup2[x][d[x]] for x in range(c.n))
    if absorbed != (d[c.unit] == c.unit):
        return ""


def _regular_type2_basics(c: Analysis, d: SelfMap):
    A = c.A
    arrow, squig, K, phi = A.arrow, A.squig, A.bck_part, c.phi
    leq = A.byte_tables.order
    for x in range(c.n):
        if not leq[x][d[x]]:
            return f": x <= dx fails at {c.name(x)}"
        if c.branch_of[phi[x]] != c.branch_of[d[x]]:
            return f": phi(x), dx in different branches at {c.name(x)}"
        if arrow[phi[x]][d[x]] not in K or squig[phi[x]][d[x]] not in K:
            return f": phi(x) op dx outside BCK part at {c.name(x)}"
        for y in range(c.n):
            am, bm = arrow[d[x]][y], arrow[d[x]][d[y]]
            cm = arrow[x][d[y]]
            if not (leq[am][bm] and leq[bm][cm] and cm == d[arrow[x][y]]):
                return f": arrow chain fails at ({c.name(x)}, {c.name(y)})"
            am, bm = squig[d[x]][y], squig[d[x]][d[y]]
            cm = squig[x][d[y]]
            if not (leq[am][bm] and leq[bm][cm] and cm == d[squig[x][y]]):
                return f": squig chain fails at ({c.name(x)}, {c.name(y)})"
            # comparable arguments force the image gap into the BCK part
            # (isotonicity itself can fail: images may sit in one branch
            # without being comparable)
            if leq[x][y] and (arrow[d[x]][d[y]] not in K
                              or squig[d[x]][d[y]] not in K):
                return f": image gap escapes BCK part at ({c.name(x)}, {c.name(y)})"
    rec = c.map_records[d]
    if not rec.kernel_is_subalgebra:
        return ": kernel not a subalgebra"
    if not rec.kernel_in_bck_part:
        return ": kernel escapes the BCK part"
    if not rec.maps_bck_into_bck:
        return ": image of BCK part escapes it"


def _chk_dominated_idempotent_composition(c: Analysis):
    leq = c.A.byte_tables.order
    for d2 in c.ridop2:
        if not c.map_records[d2].idempotent:
            continue
        for d1 in c.ridop2:
            if all(leq[d1[x]][d2[x]] for x in range(c.n)):
                if compose(d2, d1) != d2:
                    return f"d1={c.fmt(d1)}, d2={c.fmt(d2)}"
    return None


def _kernel_is_bck_part_iff_phi(c: Analysis, d: SelfMap):
    if (c.map_records[d].kernel == c.A.bck_part) != (d == c.phi):
        return ""


def _kernel_bck_part_forces_idempotent(c: Analysis, d: SelfMap):
    rec = c.map_records[d]
    if rec.kernel == c.A.bck_part and not rec.idempotent:
        return ""


def _lower_bound_forces_regular_bck(c: Analysis, d: SelfMap):
    if any(all(up[v] for v in d) for up in c.A.byte_tables.order):
        if d[c.unit] != c.unit:
            return " bounded below but not regular"
        if not c.A.classification.is_pseudo_bck:
            return " bounded below on a non-pseudo-BCK algebra"


def _type1_unit_image(c: Analysis, d: SelfMap):
    arrow, squig, ats, u = c.A.arrow, c.A.squig, c.A.atoms, c.unit
    if d[u] not in ats:
        return ": d(1) is not an atom"
    for a in ats:
        if d[a] != arrow[arrow[a][u]][d[u]] or d[a] != squig[arrow[a][u]][d[u]]:
            return f": atom translation fails at {c.name(a)}"
    for x in range(c.n):
        if d[arrow[d[x]][x]] != u or d[squig[d[x]][x]] != u:
            return f": d(dx op x) != 1 at {c.name(x)}"


def _type2_unit_translation(c: Analysis, d: SelfMap):
    A = c.A
    arrow, squig, leq = A.arrow, A.squig, A.byte_tables.order
    d1 = d[c.unit]
    for x in range(c.n):
        if not leq[arrow[d1][x]][d[x]] or not leq[squig[d1][x]][d[x]]:
            return f": d(1) op x <= dx fails at {c.name(x)}"
    for a in A.atoms:
        if d[a] != arrow[d1][a] or d[a] != squig[d1][a]:
            return f": atom translation fails at {c.name(a)}"


def _implicative_atom_stability(c: Analysis, d: SelfMap):
    prod, ats, u = c.A.product, c.A.atoms, c.unit
    if not c.map_records[d].maps_atoms_into_atoms:
        return ": image of an atom is not an atom"
    if d[u] in c.A.bck_part and d[u] != u:
        return ": d(1) in the BCK part but not 1"
    d1inv = c.A.arrow[d[u]][u]
    for a in ats:
        for b in ats:
            if d[prod[a][b]] != prod[prod[d[a]][d1inv]][d[b]]:
                return f": product rule fails at ({c.name(a)}, {c.name(b)})"
    if all(d[a] == a for a in ats) != (d[u] == u):
        return ": atom-fixing vs regularity mismatch"


def _chk_regular_type2_characterization(c: Analysis):
    alt = regular_translation_maps(c.A)
    if set(alt) != set(c.ridop2):
        extra = set(alt) ^ set(c.ridop2)
        some = c.fmt(sorted(extra)[0])
        return f"route disagreement, e.g. {some}"
    return None


def _atom_valued_type1_pullthrough(c: Analysis, d: SelfMap):
    arrow, squig = c.A.arrow, c.A.squig
    if not c.map_records[d].image_in_atoms:
        return None
    for x in range(c.n):
        for y in range(c.n):
            if d[arrow[x][y]] != arrow[x][d[y]] or d[squig[x][y]] != squig[x][d[y]]:
                return f" at ({c.name(x)}, {c.name(y)})"


def _left_translation_forces_identity(c: Analysis, d: SelfMap):
    arrow, squig, rng = c.A.arrow, c.A.squig, range(c.n)
    if d[c.unit] != c.unit or d == c.ident:
        return None
    if (all(d[arrow[x][y]] == arrow[d[x]][y] for x in rng for y in rng)
            or all(d[squig[x][y]] == squig[d[x]][y] for x in rng for y in rng)):
        return ""


def _invariance_forces_regular(c: Analysis, d: SelfMap):
    if d[c.unit] != c.unit and c.non_invariant[d] is None:
        return ""


def _regular_type2_invariance(c: Analysis, d: SelfMap):
    D = c.non_invariant[d]
    if D is not None:
        return f", D={{{', '.join(c.A.name_set(D.members))}}}"


def _regular_iff_all_invariant(c: Analysis, d: SelfMap):
    if (d[c.unit] == c.unit) != (c.non_invariant[d] is None):
        return ""


def _chk_psemisimple_iff_trivial_regular_type2(c: Analysis):
    a = c.A.classification.is_p_semisimple
    b = all(c.map_records[d].kernel == {c.unit} for d in c.ridop2)
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


def _sym1_constant_gap(c: Analysis, d: SelfMap):
    A = c.A
    arrow, squig, leq = A.arrow, A.squig, A.byte_tables.order
    cup1, cup2 = A.joins
    d1 = d[c.unit]
    for x in range(c.n):
        if arrow[x][d[x]] != d1 or squig[x][d[x]] != d1:
            return f": gap x op dx is not d(1) at {c.name(x)}"
        if d[x] != cup1[d[x]][d1] or d[x] != cup2[d[x]][d1]:
            return f": dx join d(1) fails at {c.name(x)}"
    if d1 == c.unit:
        for x in range(c.n):
            if not leq[x][d[x]]:
                return f": x <= dx fails at {c.name(x)}"
            if d[x] not in A.atoms:
                return f": dx not an atom at {c.name(x)}"
            for y in range(c.n):
                if d[x] != cup1[d[x]][y] or d[x] != cup2[d[x]][y]:
                    return f": dx join y fails at ({c.name(x)}, {c.name(y)})"


def _sym2_atom_valued(c: Analysis, d: SelfMap):
    A = c.A
    arrow, squig, ats, phi = A.arrow, A.squig, A.atoms, c.phi
    cup1, cup2 = A.joins
    d1 = d[c.unit]
    for x in range(c.n):
        if arrow[d[x]][x] != d1 or squig[d[x]][x] != d1:
            return f": gap dx op x is not d(1) at {c.name(x)}"
        if d[x] != phi[cup1[d[x]][x]] or d[x] != phi[cup2[d[x]][x]]:
            return f": dx via phi of join fails at {c.name(x)}"
        if d[x] != cup1[d[x]][x] or d[x] != cup2[d[x]][x]:
            return f": dx join x fails at {c.name(x)}"
        if d[x] not in ats:
            return f": dx not an atom at {c.name(x)}"
        for y in range(c.n):
            if d[x] != cup1[d[x]][y] or d[x] != cup2[d[x]][y]:
                return f": dx join y fails at ({c.name(x)}, {c.name(y)})"
            if arrow[x][d[y]] not in ats or squig[x][d[y]] not in ats:
                return f": x op dy not an atom at ({c.name(x)}, {c.name(y)})"
    if d1 == c.unit and d != c.ident:
        return ": regular but not the identity"


def _sym_atom_product_translation(c: Analysis, d: SelfMap):
    prod, ats = c.A.product, c.A.atoms
    for x in ats:
        for y in ats:
            lhs = d[prod[x][y]]
            if lhs != prod[d[x]][y] or lhs != prod[x][d[y]]:
                return f" at ({c.name(x)}, {c.name(y)})"


def _psemisimple_sym2_left_translation(c: Analysis, d: SelfMap):
    arrow, squig, rng = c.A.arrow, c.A.squig, range(c.n)
    for x in rng:
        for y in rng:
            if d[arrow[x][y]] != arrow[d[x]][y] or d[squig[x][y]] != squig[d[x]][y]:
                return f": left translation fails at ({c.name(x)}, {c.name(y)})"
            if arrow[x][d[x]] != arrow[y][d[y]] or squig[x][d[x]] != squig[y][d[y]]:
                return f": gap not constant at ({c.name(x)}, {c.name(y)})"
            if arrow[x][d[x]] != arrow[d[y]][y] or squig[x][d[x]] != squig[d[y]][y]:
                return f": two gaps differ at ({c.name(x)}, {c.name(y)})"


def _chk_same_maps(c: Analysis, maps: list[SelfMap], others: list[SelfMap]):
    if set(maps) != set(others):
        diff = sorted(set(maps) ^ set(others))
        return f"sets differ, e.g. {c.fmt(diff[0])}"
    return None


def _chk_bck_part_closed_compatible_invariant(c: Analysis):
    c.bck_system                # raises unless compatible and closed
    for d in c.ridop2:
        if not c.map_records[d].maps_bck_into_bck:
            return f"BCK part not invariant under d={c.fmt(d)}"
    return None


def _chk_quotient_by_bck_part_psemisimple(c: Analysis):
    Q = quotient(c.A, c.bck_system)
    if not Q.classification.is_p_semisimple:
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
     (), _each("idop1", _join_absorption), None),
    ("type2-join-absorption-iff-regular",
     "type II implicative maps are join-absorbed by their argument iff regular",
     (), _each("idop2", _join_absorption_iff_regular), None),
    ("regular-type2-basics",
     "regular type II maps are inflationary with well-placed kernels, "
     "images and branches",
     (), _each("ridop2", _regular_type2_basics), None),
    ("dominated-idempotent-composition",
     "an idempotent regular type II map absorbs dominated ones under composition",
     (), _chk_dominated_idempotent_composition, None),
    ("kernel-is-bck-part-iff-phi",
     "a regular type II map has kernel equal to the BCK part iff it is the "
     "unit-double-negation map",
     (), _each("ridop2", _kernel_is_bck_part_iff_phi), None),
    ("kernel-bck-part-forces-idempotent",
     "a regular type II map whose kernel is the BCK part is idempotent",
     (), _each("ridop2", _kernel_bck_part_forces_idempotent), None),
    ("lower-bound-forces-regular-bck",
     "a two-sided implicative map bounded below forces regularity and a "
     "pseudo-BCK algebra",
     (), _each("idop", _lower_bound_forces_regular_bck), None),
    ("type1-unit-image",
     "type I maps send the unit to an atom, translate atoms, and kill the gaps",
     (), _each("idop1", _type1_unit_image), None),
    ("type2-unit-translation",
     "type II maps dominate the translation by d(1) and translate atoms by it",
     (), _each("idop2", _type2_unit_translation), None),
    ("implicative-atom-stability",
     "implicative maps stabilize the atoms and fix them exactly when regular",
     (), _each("implicative", _implicative_atom_stability), None),
    ("regular-type2-characterization",
     "regular type II maps are exactly the regular right-translation-"
     "compatible maps (two enumeration routes agree)",
     (), _chk_regular_type2_characterization, None),
    ("atom-valued-type1-pullthrough",
     "atom-valued type I maps pull through both implications",
     (), _each("idop1", _atom_valued_type1_pullthrough), None),
    ("left-translation-forces-identity",
     "a regular implicative map that left-translates either implication is "
     "the identity",
     (), _each("implicative", _left_translation_forces_identity), None),
    ("invariance-forces-regular",
     "if every deductive system is invariant under an implicative map, the "
     "map is regular",
     (), _each("implicative", _invariance_forces_regular), None),
    ("regular-type2-invariance",
     "every deductive system is invariant under every regular type II map",
     (), _each("ridop2", _regular_type2_invariance), None),
    ("type2-regular-iff-all-invariant",
     "a type II map is regular iff every deductive system is invariant under it",
     (), _each("idop2", _regular_iff_all_invariant), None),
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
     (), _each("sdop1", _sym1_constant_gap), None),
    ("sym2-atom-valued",
     "type II symmetric maps are atom-valued with constant gap dx op x and "
     "collapse to the identity when regular",
     (), _each("sdop2", _sym2_atom_valued), None),
    ("sym-atom-product-translation",
     "symmetric maps translate the atom product on either side",
     (), _each("symmetric", _sym_atom_product_translation), None),
    ("psemisimple-sym2-left-translation",
     "on p-semisimple algebras type II symmetric maps left-translate and "
     "have constant gaps",
     ("is_p_semisimple",), _each("sdop2", _psemisimple_sym2_left_translation), None),
    ("psemisimple-sym2-equals-type2",
     "on p-semisimple algebras symmetric and implicative type II sets coincide",
     ("is_p_semisimple",), lambda c: _chk_same_maps(c, c.sdop2, c.idop2), None),
    ("psemisimple-bci-sym1-equals-type1",
     "on p-semisimple BCI algebras symmetric and implicative type I sets coincide",
     ("is_p_semisimple", "is_bci"), lambda c: _chk_same_maps(c, c.sdop1, c.idop1),
     None),
    ("sym-regular-iff-all-invariant",
     "a symmetric map is regular iff every deductive system is invariant under it",
     (), _each("symmetric", _regular_iff_all_invariant), None),
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
     ("is_pseudo_bck",), _each("idop3", _join_absorption), EMPIRICAL_NOTE),
    ("bck-type4-join-absorption-iff-regular",
     "on pseudo-BCK algebras type IV implicative maps are join-absorbed by "
     "their argument iff regular",
     ("is_pseudo_bck",), _each("idop4", _join_absorption_iff_regular), EMPIRICAL_NOTE),
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
