r"""Executable theorem suite: structural laws checked exhaustively per algebra.

Each catalogued statement is quantified over the relevant derivation sets,
deductive systems and element tuples of one concrete algebra.  A statement
whose structural preconditions fail is reported as skipped, never passed;
an applicable statement that fails indicates a bug in this package, since
every catalogued law is proved for all pseudo-BCI algebras (two entries are
marked as checked empirically only).

The checks read the structure and tables of the algebra from its cached
properties, and the enumerations, capped per call, from an ``Analysis``:
each applicable derivation class, phi (``phi_map``), the deductive systems
and the monoid, each computed on first use and kept for the call.  K(A) as
a deductive system is ``bck_part_system`` (L6 below).  Per-map facts are
read off the map itself: idempotence as ``compose(d, d) == d``, a kernel
equal to K(A) by ``_kernel_is_bck_part``, a regular map's trivial kernel
as one 1 in its image row, and atom values as a subset of the atoms;
``derivations.map_properties`` stays the reference for them.
d-invariance is read from the one table ``non_invariant``.  A result's
applicability is derived from ``passed``, which is None exactly when the
row is skipped.  ``report.build_report`` passes its own analysis to
``theorem_suite``, so a report and its theorems share one computation.

The catalogue is one table, ``_CATALOG``.  Each row names its precondition
as ClassificationReport flags and its check as a function of the analysis.
Most rows claim that every map of one derivation list obeys a law; their
check is ``_each(list, law)``, where ``law(c, d)`` returns None when the map
d obeys the law and otherwise the witness text after ``d=(...)``, and
``_each`` reports the first map of the named ``Analysis`` list that fails.
A law the paper states for several lists (join absorption for types I and
III, regularity iff invariance for type II and symmetric maps) is one law
that several rows name.

A law leaves out each conjunct that validation already proves, and its
docstring says why.  Every algebra here has passed ``core.check_algebra``,
whose sanity suite asserts laws (1)-(12'), and its classification has
crosschecked the atom characterizations (b)-(d) (``core.atoms``), which
with those laws and L2 imply the other seven
(``core._atom_characterizations``).  With phi(x) = (x -> 1) ~> 1:

L1. phi(x) -> 1 = x -> 1.  (2) at y = 1 gives x <= phi(x), so (5) gives
    phi(x) -> 1 <= x -> 1; (2) in its ~> form at u = x -> 1 gives
    x -> 1 <= (u ~> 1) -> 1 = phi(x) -> 1; psBCI5 makes them equal.
L2. phi(w) and w -> 1 are atoms, and phi(phi(w)) = phi(w): by (11),
    (v -> 1) -> 1 = phi(v) for every v, the atom test, and L1.
L3. For an atom a, x -> a and x ~> a are atoms, and a \/1 y = a \/2 y = a:
    (c) and (d) give x -> a = (a -> x) ~> 1 and x ~> a = (a ~> x) -> 1,
    atoms by (11) and L2, and (b) is the joins.
L4. phi(x) is the atom of x's branch, and an atom lies below nothing
    else: x <= phi(x), (5), (10), (c), psBCI5 and L2, by the partition
    proof at ``core.branches``.  1 is an atom and its branch is K(A).
L5. If phi(u) = phi(v), then u -> v and u ~> v lie in K(A): L1 gives
    u -> 1 = v -> 1, and (12), (12'), (11) and (1) give
    (u -> v) -> 1 = (u -> 1) ~> (v -> 1) = 1 and
    (u ~> v) -> 1 = (u ~> 1) -> (v ~> 1) = 1.
L6. K(A) is a compatible closed deductive system, by (1), (3), (11),
    (12), (12') and psBCI3; ``dsystems.bck_part_system`` gives the proof
    and is the one place that states the flags.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

from .core import PseudoBciAlgebra
from .derivations import (
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
    suite read, each computed on first use and then kept, and the suite's
    results.

    Built per call from A alone, so nothing here outlives the build_report
    or theorem_suite call that made it, and each call checks the size caps
    afresh.  The atoms, K(A), branches and classification are the
    algebra's own cached properties.  Map property records are no part of
    it: the report builds them, and the suite reads each fact off the map.
    """

    def __init__(self, A: PseudoBciAlgebra):
        self.A = A
        self.n = A.size
        self.unit = A.unit
        self.ident = identity_map(A)

    @cached_property
    def derivations(self) -> dict[DerivationClass, list[SelfMap]]:
        """The maps of each class that applies to A, in DerivationClass
        order; DerivationClass.applies_to decides the scope."""
        return {cls: enumerate_derivations(self.A, cls)
                for cls in DerivationClass if cls.applies_to(self.A)}

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
    """Of each chain d(x) op y <= d(x) op dy <= x op dy = d(x op y), only
    the translation link is checked: y <= dy with (6) gives
    dx op y <= dx op dy, and x <= dx with (5) gives dx op dy <= x op dy,
    and both inflation links are checked in this row.

    Kernels, images and branches follow from x <= dx and the translation
    links, by the lemmas of the module docstring.  x <= dx <= phi(dx)
    gives phi(x) = phi(dx) by L4, and x <= y likewise gives
    phi(dx) = phi(x) = phi(y) = phi(dy), so by L2 and L5 phi(x) op dx and
    dx op dy lie in K(A).  dx = 1 gives x <= 1, and x in K(A) gives
    phi(dx) = phi(x) = 1 (L4), so the kernel and the image of K(A) lie in
    K(A).  The kernel holds 1, and for x, y in it d(x -> y) = x -> 1 = 1
    and d(x ~> y) = x ~> 1 = 1 by (11): it is a subalgebra.
    """
    arrow, squig, leq = c.A.arrow, c.A.squig, c.A.byte_tables.order
    for x in range(c.n):
        if not leq[x][d[x]]:
            return f": x <= dx fails at {c.name(x)}"
        for y in range(c.n):
            if arrow[x][d[y]] != d[arrow[x][y]]:
                return f": arrow chain fails at ({c.name(x)}, {c.name(y)})"
            if squig[x][d[y]] != d[squig[x][y]]:
                return f": squig chain fails at ({c.name(x)}, {c.name(y)})"


def _chk_dominated_idempotent_composition(c: Analysis):
    leq = c.A.byte_tables.order
    for d2 in c.ridop2:
        if compose(d2, d2) != d2:
            continue
        for d1 in c.ridop2:
            if all(leq[d1[x]][d2[x]] for x in range(c.n)):
                if compose(d2, d1) != d2:
                    return f"d1={c.fmt(d1)}, d2={c.fmt(d2)}"
    return None


def _kernel_is_bck_part(c: Analysis, d: SelfMap) -> bool:
    """Whether d's kernel is K(A): the column marking d(x) = 1 against
    column 1 of the order, which marks x <= 1."""
    return bytes(v == c.unit for v in d) == c.A.byte_tables.order_cols[c.unit]


def _kernel_is_bck_part_iff_phi(c: Analysis, d: SelfMap):
    if _kernel_is_bck_part(c, d) != (d == c.phi):
        return ""


def _kernel_bck_part_forces_idempotent(c: Analysis, d: SelfMap):
    if _kernel_is_bck_part(c, d) and compose(d, d) != d:
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
    """The atoms are translated once d(1) op x <= dx holds at every x:
    d(1) op a is an atom (L3), and an atom lies below nothing else (L4),
    so d(1) op a <= d(a) is d(a) = d(1) op a."""
    arrow, squig, leq = c.A.arrow, c.A.squig, c.A.byte_tables.order
    d1 = d[c.unit]
    for x in range(c.n):
        if not leq[arrow[d1][x]][d[x]] or not leq[squig[d1][x]][d[x]]:
            return f": d(1) op x <= dx fails at {c.name(x)}"


def _implicative_atom_stability(c: Analysis, d: SelfMap):
    """Only the product rule is checked; the rest follows from the unit
    rows.  A type I map passes ``type1-unit-image``, so d(1) is an atom and
    d(a) = (a -> 1) -> d(1).  A type II map passes
    ``type2-unit-translation``, so d(1) -> 1 <= d(1) and d(1) -> a <= d(a).
    The left sides are atoms (L2, L3), and an atom lies below nothing else
    (L4), so d(1) and each d(a) are atoms, and an atom d(1) in K(A) is 1.
    With d(1) = 1, d(a) = (a -> 1) -> 1 = a by the atom test, or
    d(a) = 1 -> a = a by psBCI3; and 1 is an atom, so a map that fixes the
    atoms is regular."""
    prod, ats, u = c.A.product, c.A.atoms, c.unit
    d1inv = c.A.arrow[d[u]][u]
    for a in ats:
        for b in ats:
            if d[prod[a][b]] != prod[prod[d[a]][d1inv]][d[b]]:
                return f": product rule fails at ({c.name(a)}, {c.name(b)})"


def _atom_valued_type1_pullthrough(c: Analysis, d: SelfMap):
    arrow, squig = c.A.arrow, c.A.squig
    if not c.A.atoms.issuperset(d):
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
    b = all(d.count(c.unit) == 1 for d in c.ridop2)  # regular: 1 is in each kernel
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
    """Reads the monoid's ``commutative`` flag, which tests every pair of
    the two-sided maps.  Only a failure looks for the first pair to name."""
    if c.monoid.commutative:
        return None
    d1, d2 = next((d1, d2) for i, d1 in enumerate(c.idop) for d2 in c.idop[i + 1:]
                  if compose(d1, d2) != compose(d2, d1))
    return f"d1={c.fmt(d1)}, d2={c.fmt(d2)}"


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
    r"""A regular map is inflationary by the gap x -> dx = d(1) = 1, and
    atom-valued by the join: dx = dx \/1 1 = (dx -> 1) ~> 1 = phi(dx),
    an atom by L2."""
    arrow, squig = c.A.arrow, c.A.squig
    cup1, cup2 = c.A.joins
    d1 = d[c.unit]
    for x in range(c.n):
        if arrow[x][d[x]] != d1 or squig[x][d[x]] != d1:
            return f": gap x op dx is not d(1) at {c.name(x)}"
        if d[x] != cup1[d[x]][d1] or d[x] != cup2[d[x]][d1]:
            return f": dx join d(1) fails at {c.name(x)}"


def _sym2_atom_valued(c: Analysis, d: SelfMap):
    r"""dx = phi(dx \/1 x) is an atom (L2), which fixes both joins (L3):
    dx \/1 x = dx \/2 x = dx, and phi(dx \/2 x) = phi(dx) = dx (L2).
    Each x op dy is an atom by L3.  A regular map has dx -> x = d(1) = 1,
    so dx <= x, and the atom dx lies below nothing else (L4): d is the
    identity."""
    arrow, squig, phi = c.A.arrow, c.A.squig, c.phi
    cup1 = c.A.joins[0]
    d1 = d[c.unit]
    for x in range(c.n):
        if arrow[d[x]][x] != d1 or squig[d[x]][x] != d1:
            return f": gap dx op x is not d(1) at {c.name(x)}"
        if d[x] != phi[cup1[d[x]][x]]:
            return f": dx via phi of join fails at {c.name(x)}"


def _sym_atom_product_translation(c: Analysis, d: SelfMap):
    prod, ats = c.A.product, c.A.atoms
    for x in ats:
        for y in ats:
            lhs = d[prod[x][y]]
            if lhs != prod[d[x]][y] or lhs != prod[x][d[y]]:
                return f" at ({c.name(x)}, {c.name(y)})"


def _psemisimple_sym2_left_translation(c: Analysis, d: SelfMap):
    """The gap x op dx is constant once it equals dy op y at every (x, y):
    at (x, y) and at (y, y), x op dx = dy op y = y op dy."""
    arrow, squig, rng = c.A.arrow, c.A.squig, range(c.n)
    for x in rng:
        for y in rng:
            if d[arrow[x][y]] != arrow[d[x]][y] or d[squig[x][y]] != squig[d[x]][y]:
                return f": left translation fails at ({c.name(x)}, {c.name(y)})"
            if arrow[x][d[x]] != arrow[d[y]][y] or squig[x][d[x]] != squig[d[y]][y]:
                return f": two gaps differ at ({c.name(x)}, {c.name(y)})"


def _chk_same_maps(c: Analysis, maps: list[SelfMap], others: list[SelfMap],
                   failure: str = "sets differ"):
    """The check that two map lists hold the same maps; a failure names the
    least map in one list only."""
    diff = set(maps) ^ set(others)
    return f"{failure}, e.g. {c.fmt(min(diff))}" if diff else None


def _chk_bck_part_closed_compatible_invariant(c: Analysis):
    """Only that ``enumerate_ds`` lists K(A) with both flags, which L6
    proves.  Each regular type II map d sends K(A) into itself:
    ``regular-type2-basics`` checks x <= dx, law (2) gives dx <= phi(dx),
    and (10) then x <= phi(dx), an atom by L2.  For x in K(A), the branch
    of 1 (L4), the branch partition gives phi(dx) = 1, so dx <= 1."""
    if bck_part_system(c.A) not in c.systems:
        return "BCK part is not listed as a compatible closed deductive system"
    return None


def _chk_quotient_by_bck_part_psemisimple(c: Analysis):
    Q = quotient(c.A, bck_part_system(c.A))
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
     (), lambda c: _chk_same_maps(c, regular_translation_maps(c.A), c.ridop2,
                                  "route disagreement"), None),
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
