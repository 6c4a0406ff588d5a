"""Analysis reports: a deterministic dict built once, rendered as JSON or text.

``build_report`` reads every derived object from one ``theorems.Analysis``
of the algebra and hands the same analysis to ``theorem_suite``, so one
report enumerates each derivation class and the deductive systems once and
runs each crosscheck once per algebra.

Identical inputs produce byte-identical output: every collection is emitted
in a canonical order (declaration order for element sets, lexicographic
image tuples for maps, catalogue order for theorems) and the JSON renderer
preserves construction order.
"""

from __future__ import annotations

import json
from dataclasses import fields

from . import __version__
from .core import AlgebraSpec, PseudoBciAlgebra
from .derivations import _map_record
from .theorems import Analysis, theorem_suite


def _names(A: PseudoBciAlgebra, members) -> list[str]:
    return [A.names[i] for i in sorted(members)]


def _record(A: PseudoBciAlgebra, record) -> dict:
    """A record's fields in declaration order: element sets as name lists,
    (label, holds) pairs as characterization entries."""
    out = {}
    for f in fields(record):
        value = getattr(record, f.name)
        if isinstance(value, frozenset):
            value = _names(A, value)
        elif isinstance(value, tuple):
            value = [{"characterization": label, "holds": holds}
                     for label, holds in value]
        out[f.name] = value
    return out


def _map_entry(an: Analysis, d) -> dict:
    A = an.A
    return {
        "images": [A.names[v] for v in d],
        "properties": _record(A, _map_record(A, d, an.K, an.atoms)),
    }


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
        "classification": _record(A, an.classification),
        "atoms": _names(A, an.atoms),
        "bck_part": _names(A, an.K),
        "branches": [
            {"atom": A.names[a], "members": _names(A, block)}
            for a, block in sorted(an.branches.items())
        ],
        "deductive_systems": [
            {
                "members": _names(A, ds.members),
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
        "derivations": [
            {
                "class": str(cls),
                "count": len(maps),
                "maps": [_map_entry(an, d) for d in maps],
            }
            for cls, maps in an.derivations.items()
        ],
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


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


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
    failed = [r for r in applicable if r["passed"] is False]
    lines.append(f"theorems: {len(applicable)} applicable, "
                 f"{len(applicable) - len(failed)} passed, {len(failed)} failed, "
                 f"{len(results) - len(applicable)} skipped")
    for r in failed:
        lines.append(f"  FAIL {r['id']}: {r['witness']}")
    return "\n".join(lines) + "\n"
