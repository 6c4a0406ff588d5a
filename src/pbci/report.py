"""Analysis reports: a deterministic dict built once, rendered as JSON or text.

``build_report`` reads the structure from the algebra's cached properties
and every enumeration from one ``theorems.Analysis``, which it hands on to
``theorem_suite``, so one report enumerates each derivation class and the
deductive systems once.  The map property records are built here, and only
here and in ``pbci map``: ``_derivation_blocks`` builds one per distinct
map (``derivations.map_properties``) however many classes list it, and
each entry of the report still holds its own dicts and lists.

Identical inputs produce byte-identical output: every collection is emitted
in a canonical order (declaration order for element sets, lexicographic
image tuples for maps, catalogue order for theorems) and the JSON renderer
preserves construction order.  ``render_json`` writes exactly the bytes of
``json.dumps(report, indent=2)`` plus a newline, in one pass over the types
a report holds.
"""

from __future__ import annotations

from dataclasses import fields
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .core import AlgebraSpec, PseudoBciAlgebra
from .derivations import map_properties
from .theorems import Analysis, theorem_suite


def _record(A: PseudoBciAlgebra, record) -> dict:
    """A record's fields in declaration order: element sets as name lists,
    (label, holds) pairs as characterization entries."""
    out = {}
    for f in fields(record):
        value = getattr(record, f.name)
        if isinstance(value, frozenset):
            value = list(A.name_set(value))
        elif isinstance(value, tuple):
            value = [{"characterization": label, "holds": holds}
                     for label, holds in value]
        out[f.name] = value
    return out


def _derivation_blocks(an: Analysis) -> list[dict]:
    """One block per applicable class, each map with its property record;
    a map listed by several classes has its record built once."""
    A = an.A
    records = {d: map_properties(A, d)
               for d in dict.fromkeys(d for maps in an.derivations.values() for d in maps)}
    return [
        {
            "class": str(cls),
            "count": len(maps),
            "maps": [{"images": [A.names[v] for v in d],
                      "properties": _record(A, records[d])} for d in maps],
        }
        for cls, maps in an.derivations.items()
    ]


def build_report(A: PseudoBciAlgebra) -> dict:
    """The full analysis of one algebra as a deterministic plain dict."""
    an = Analysis(A)
    spec = A.to_spec()
    return {
        "tool": {"name": "pbci", "version": __version__},
        "algebra": {
            "names": list(spec.names),
            "unit": spec.unit,
            "arrow": [list(row) for row in spec.arrow],
            "squig": [list(row) for row in spec.squig],
        },
        "summary": {
            "size": A.size,
            "elements": list(A.names),
            "unit": A.names[A.unit],
        },
        "classification": _record(A, A.classification),
        "atoms": list(A.name_set(A.atoms)),
        "bck_part": list(A.name_set(A.bck_part)),
        "branches": [
            {"atom": A.names[a], "members": list(A.name_set(block))}
            for a, block in sorted(A.branches.items())
        ],
        "deductive_systems": [
            {
                "members": list(A.name_set(ds.members)),
                "compatible": ds.compatible,
                "closed": ds.closed,
            }
            for ds in an.systems
        ],
        "phi_map": {
            "images": [A.names[v] for v in an.phi],
            # each class's list is complete, so membership is satisfies()
            "classes": [str(cls) for cls, maps in an.derivations.items()
                        if an.phi in maps],
        },
        "derivations": _derivation_blocks(an),
        "monoid": {
            "members": [[A.names[v] for v in d] for d in an.idop],
            "closed_under_composition": an.monoid.closed_under_composition,
            "commutative": an.monoid.commutative,
            "has_identity": an.monoid.has_identity,
            "composition_table": [list(row) for row in an.monoid.composition_table],
            "witnesses": list(an.monoid.witnesses),
        },
        "theorems": [
            {
                "id": r.tid,
                "statement": r.statement,
                "applicable": r.applicable,
                "passed": r.passed,
                "witness": r.witness,
                "note": r.note,
            }
            for r in theorem_suite(an).results
        ],
    }


def spec_from_report(report: dict) -> AlgebraSpec:
    """Rebuild the input spec from a report's embedded algebra block."""
    block = report["algebra"]
    return AlgebraSpec(
        names=tuple(block["names"]),
        unit=block["unit"],
        arrow=tuple(tuple(row) for row in block["arrow"]),
        squig=tuple(tuple(row) for row in block["squig"]),
    )


_LITERALS = {True: "true", False: "false", None: "null"}


def _scalar(value) -> str:
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return repr(value)
    if kind is bool or value is None:
        return _LITERALS[value]
    raise TypeError(f"a report holds no {kind.__name__}: {value!r}")


def _render(value, indent: str, out: list[str]) -> None:
    """Append the indented JSON of a dict or list to out.  Scalars are
    rendered inline and an all-string list in one join."""
    inner = indent + "  "
    sep = ",\n" + inner
    if type(value) is dict:
        if not value:
            out.append("{}")
            return
        lead = "{\n" + inner
        for key, item in value.items():  # _quote raises TypeError on a non-str key
            kind = type(item)
            if kind is dict or kind is list:
                out.append(lead + _quote(key) + ": ")
                _render(item, inner, out)
            else:
                out.append(lead + _quote(key) + ": " + _scalar(item))
            lead = sep
        out.append("\n" + indent + "}")
        return
    if not value:
        out.append("[]")
        return
    if type(value[0]) is str:
        try:
            out.append("[\n" + inner + sep.join(map(_quote, value)) + "\n" + indent + "]")
            return
        except TypeError:  # not every item is a str
            pass
    lead = "[\n" + inner
    for item in value:
        kind = type(item)
        if kind is dict or kind is list:
            out.append(lead)
            _render(item, inner, out)
        else:
            out.append(lead + _scalar(item))
        lead = sep
    out.append("\n" + indent + "]")


def render_json(report) -> str:
    """The report as ``json.dumps(report, indent=2)`` plus a newline, ASCII
    escaped.  It renders dicts with str keys, lists, str, int, bool and None;
    any other type raises TypeError."""
    kind = type(report)
    if kind is not dict and kind is not list:
        return _scalar(report) + "\n"
    out: list[str] = []
    _render(report, "", out)
    out.append("\n")
    return "".join(out)


def failed_theorems(report: dict) -> list[dict]:
    """The report's theorem entries that failed; a skipped entry has
    passed null and an applicable one true or false."""
    return [r for r in report["theorems"] if r["passed"] is False]


def _flag_phrase(value: bool, name: str) -> str:
    return name if value else f"not {name}"


def render_text(report: dict) -> str:
    """Human-readable summary of a report."""
    lines: list[str] = []
    summary = report["summary"]
    cl = report["classification"]
    lines.append(
        f"algebra: {summary['size']} elements "
        f"[{' '.join(summary['elements'])}], unit {summary['unit']}")
    kinds = []
    if cl["is_bci"]:
        kinds.append("BCI")
    if cl["is_pseudo_bck"]:
        kinds.append("pseudo-BCK")
    if cl["is_proper"]:
        kinds.append("proper")
    lines.append("kind: " + (", ".join(kinds) if kinds else "pseudo-BCI"))
    lines.append("classification: "
                 + "; ".join(_flag_phrase(cl[k], k.removeprefix("is_").replace("_", " "))
                             for k in ("is_p_semisimple", "is_commutative",
                                       "is_branchwise_commutative",
                                       "is_medial_arrow", "is_medial_squig")))
    lines.append("atoms: " + " ".join(report["atoms"]))
    lines.append("BCK part: " + " ".join(report["bck_part"]))
    for br in report["branches"]:
        lines.append(f"branch of {br['atom']}: {{{' '.join(br['members'])}}}")
    lines.append(f"deductive systems ({len(report['deductive_systems'])}):")
    for ds in report["deductive_systems"]:
        flags = []
        flags.append("compatible" if ds["compatible"] else "not compatible")
        flags.append("closed" if ds["closed"] else "not closed")
        lines.append(f"  {{{' '.join(ds['members'])}}}  {', '.join(flags)}")
    phi = report["phi_map"]
    lines.append(f"phi map: {' '.join(phi['images'])}  "
                 f"({', '.join(phi['classes'])})")
    for block in report["derivations"]:
        lines.append(f"derivations {block['class']} ({block['count']}):")
        for entry in block["maps"]:
            p = entry["properties"]
            facts = [
                "regular" if p["regular"] else "not regular",
                "isotone" if p["isotone"] else "not isotone",
                "idempotent" if p["idempotent"] else "not idempotent",
                f"kernel={{{' '.join(p['kernel'])}}}",
            ]
            lines.append(f"  {' '.join(entry['images'])}  {'; '.join(facts)}")
    mon = report["monoid"]
    shape = ("commutative monoid" if mon["closed_under_composition"]
             and mon["commutative"] and mon["has_identity"] else "not a commutative monoid")
    lines.append(f"two-sided implicative maps ({len(mon['members'])}): {shape} "
                 "under composition")
    results = report["theorems"]
    applicable = [r for r in results if r["applicable"]]
    failed = failed_theorems(report)
    lines.append(f"theorems: {len(applicable)} applicable, "
                 f"{len(applicable) - len(failed)} passed, {len(failed)} failed, "
                 f"{len(results) - len(applicable)} skipped")
    for r in failed:
        lines.append(f"  FAIL {r['id']}: {r['witness']}")
    return "\n".join(lines) + "\n"
