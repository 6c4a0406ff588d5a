"""Command-line surface.

Exit codes: 0 success / all checks pass; 1 axiom violations, theorem
failures, or failed quotient preconditions; 2 usage or parse errors.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from . import __version__
from .core import PseudoBciAlgebra, classify, is_pseudo_bck, validate
from .derivations import (DerivationClass, enumerate_derivations, map_properties,
                          satisfies)
from .dsystems import as_deductive_system, bck_part_system, enumerate_ds, quotient
from .errors import (
    NotCompatibleOrClosedError,
    ParseError,
    SearchCapExceeded,
    EnumerationCapExceeded,
    StructuralError,
    TypeRequiresPseudoBckError,
    ValidationError,
)
from .formats import format_selfmap, parse_algebra, parse_selfmap, serialize_spec
from .limits import env_cap
from .report import build_report, render_json, render_text
from .search import PREDICATE_NAMES, SearchQuery, search
from .theorems import theorem_suite

USAGE_EXIT = 2
FAILURE_EXIT = 1


def _usage_error(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(USAGE_EXIT)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        _usage_error(str(exc))
    except UnicodeDecodeError as exc:
        _usage_error(f"{path}: not UTF-8 text: {exc}")


def _load(path: str) -> PseudoBciAlgebra:
    text = _read(path)
    try:
        spec = parse_algebra(text)
    except ParseError as exc:
        _usage_error(f"{path}: {exc}")
    try:
        return validate(spec)
    except StructuralError as exc:
        _usage_error(f"{path}: {exc}")
    except ValidationError as exc:
        click.echo(f"{path}: not a pseudo-BCI algebra; "
                   f"{len(exc.violations)} violation(s):")
        for v in exc.violations:
            click.echo(f"  {v}")
        sys.exit(FAILURE_EXIT)


class _Pbci(click.Group):
    """The command group; a size-cap error from any command is a usage
    error, reported once here."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (EnumerationCapExceeded, SearchCapExceeded) as exc:
            _usage_error(str(exc))


@click.group(cls=_Pbci)
@click.version_option(version=__version__, prog_name="pbci")
def main() -> None:
    """Analyze finite pseudo-BCI algebras given as Cayley tables."""
    try:
        env_cap()
    except ValueError as exc:
        _usage_error(str(exc))


@main.command()
@click.argument("file", type=click.Path(exists=False, dir_okay=False))
def check(file: str) -> None:
    """Validate FILE and print its classification."""
    algebra = _load(file)
    report = classify(algebra)
    click.echo(f"valid pseudo-BCI algebra with {algebra.size} element(s)")
    for label, value in (
        ("BCI", report.is_bci),
        ("pseudo-BCK", report.is_pseudo_bck),
        ("proper", report.is_proper),
        ("p-semisimple", report.is_p_semisimple),
        ("commutative", report.is_commutative),
        ("branchwise commutative", report.is_branchwise_commutative),
        ("arrow-medial", report.is_medial_arrow),
        ("squig-medial", report.is_medial_squig),
    ):
        click.echo(f"  {label}: {'yes' if value else 'no'}")


@main.command()
@click.argument("file", type=click.Path(dir_okay=False))
@click.option("--json", "as_json", is_flag=True, help="Emit the JSON report.")
def analyze(file: str, as_json: bool) -> None:
    """Full structural report for FILE."""
    algebra = _load(file)
    report = build_report(algebra)
    click.echo(render_json(report) if as_json else render_text(report), nl=False)
    if any(r["applicable"] and r["passed"] is False for r in report["theorems"]):
        sys.exit(FAILURE_EXIT)


@main.command()
@click.argument("file", type=click.Path(dir_okay=False))
@click.option("--kind", type=click.Choice(["implicative", "symmetric"]),
              required=True)
@click.option("--type", "dtype", type=click.Choice(["i", "ii", "iii", "iv"]),
              required=True)
@click.option("--regular", is_flag=True, help="Only maps fixing the unit.")
@click.option("--force", is_flag=True,
              help="Evaluate types III/IV on non-pseudo-BCK inputs too.")
def derivations(file: str, kind: str, dtype: str, regular: bool, force: bool) -> None:
    """List the derivation operators of one class, one image row per line."""
    algebra = _load(file)
    try:
        cls = DerivationClass.from_strings(kind, dtype)
    except ValueError as exc:
        _usage_error(str(exc))
    try:
        maps = enumerate_derivations(algebra, cls, regular=regular, force=force)
    except TypeRequiresPseudoBckError:
        _usage_error(f"{cls} is defined only on pseudo-BCK algebras; "
                     "pass --force to evaluate the identities anyway")
    if force and cls.requires_pseudo_bck and not is_pseudo_bck(algebra):
        click.echo("# forced evaluation outside the defined scope of types III/IV")
    click.echo(f"# {cls}{' regular' if regular else ''}: {len(maps)} map(s)")
    for d in maps:
        click.echo(format_selfmap(d, algebra))


@main.command()
@click.argument("file", type=click.Path(dir_okay=False))
def ds(file: str) -> None:
    """List every deductive system of FILE with its flags."""
    algebra = _load(file)
    systems = enumerate_ds(algebra)
    click.echo(f"# {len(systems)} deductive system(s)")
    for system in systems:
        flags = []
        flags.append("compatible" if system.compatible else "not-compatible")
        flags.append("closed" if system.closed else "not-closed")
        members = " ".join(algebra.name_set(system.members))
        click.echo(f"{{{members}}}  {' '.join(flags)}")


@main.command(name="quotient")
@click.argument("file", type=click.Path(dir_okay=False))
@click.option("--by", "by_k", type=click.Choice(["K"]), default=None,
              help="Quotient by the BCK part K(A).")
@click.option("--by-file", "subset_file", type=click.Path(dir_okay=False),
              default=None, help="File listing the members of the system.")
def quotient_cmd(file: str, by_k: str | None, subset_file: str | None) -> None:
    """Quotient FILE by a compatible closed deductive system."""
    algebra = _load(file)
    if (by_k is None) == (subset_file is None):
        _usage_error("exactly one of --by K or --by-file is required")
    if by_k:
        system = bck_part_system(algebra)
    else:
        text = _read(subset_file)
        members = []
        for token in text.replace(",", " ").split():
            try:
                members.append(algebra.index_of(token))
            except KeyError:
                _usage_error(f"{subset_file}: unknown element {token!r}")
        try:
            system = as_deductive_system(algebra, members)
        except ValueError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(FAILURE_EXIT)
    try:
        result = quotient(algebra, system)
    except NotCompatibleOrClosedError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(FAILURE_EXIT)
    click.echo(f"# quotient by {{{' '.join(algebra.name_set(system.members))}}}: "
               f"{result.size} class(es)")
    click.echo(serialize_spec(result.to_spec()), nl=False)


@main.command(name="map")
@click.argument("file", type=click.Path(dir_okay=False))
@click.option("--map", "map_spec", required=True,
              help="Image row ('d d d 1 d') or pairs ('a=d,b=d,...').")
def map_cmd(file: str, map_spec: str) -> None:
    """Property record for one self-map of FILE."""
    algebra = _load(file)
    try:
        d = parse_selfmap(map_spec, algebra)
    except ParseError as exc:
        _usage_error(str(exc))
    props = map_properties(algebra, d)
    click.echo(f"map: {format_selfmap(d, algebra)}")
    click.echo(f"  regular: {'yes' if props.regular else 'no'}")
    click.echo(f"  isotone: {'yes' if props.isotone else 'no'}")
    click.echo(f"  idempotent: {'yes' if props.idempotent else 'no'}")
    click.echo(f"  kernel: {{{' '.join(algebra.name_set(props.kernel))}}}"
               f" (subalgebra: {'yes' if props.kernel_is_subalgebra else 'no'},"
               f" in BCK part: {'yes' if props.kernel_in_bck_part else 'no'})")
    click.echo(f"  image: {{{' '.join(algebra.name_set(props.image))}}}"
               f" (in atoms: {'yes' if props.image_in_atoms else 'no'})")
    click.echo(f"  maps BCK part into itself: "
               f"{'yes' if props.maps_bck_into_bck else 'no'}")
    click.echo(f"  maps atoms into atoms: "
               f"{'yes' if props.maps_atoms_into_atoms else 'no'}")
    for cls in DerivationClass:
        try:
            holds = satisfies(algebra, d, cls)
        except TypeRequiresPseudoBckError:
            continue
        click.echo(f"  {cls}: {'yes' if holds else 'no'}")


@main.command()
@click.argument("file", type=click.Path(dir_okay=False))
def verify(file: str) -> None:
    """Run the theorem suite on FILE; exit 1 on any failure."""
    algebra = _load(file)
    report = theorem_suite(algebra)
    failures = 0
    for result in report.results:
        if not result.applicable:
            status = "SKIP"
        elif result.passed:
            status = "PASS"
        else:
            status = "FAIL"
            failures += 1
        note = f" [{result.note}]" if result.note else ""
        click.echo(f"{status} {result.tid}{note}")
        if result.witness:
            click.echo(f"     witness: {result.witness}")
    applicable = len(report.applicable())
    click.echo(f"# {applicable} applicable, {applicable - failures} passed, "
               f"{failures} failed, {len(report.results) - applicable} skipped")
    if failures:
        sys.exit(FAILURE_EXIT)


def _parse_predicate(raw: str) -> tuple[str, bool]:
    name, _, value = raw.partition("=")
    if value == "":
        return name, True
    if value.lower() in ("true", "yes", "1"):
        return name, True
    if value.lower() in ("false", "no", "0"):
        return name, False
    raise ValueError(f"bad predicate value in {raw!r}; use name or name=true/false")


@main.command(name="search")
@click.option("--size", type=int, required=True)
@click.option("--pred", "preds", multiple=True,
              help=f"Predicate (repeatable): one of {', '.join(PREDICATE_NAMES)}, "
                   "optionally =true/=false.")
@click.option("--limit", type=int, default=None)
@click.option("--modulo-iso", is_flag=True,
              help="Only the least representative of each isomorphism class.")
def search_cmd(size: int, preds: tuple[str, ...], limit: int | None,
               modulo_iso: bool) -> None:
    """Enumerate pseudo-BCI algebras of a given size."""
    try:
        predicates = tuple(_parse_predicate(p) for p in preds)
        query = SearchQuery(size=size, predicates=predicates, limit=limit,
                            modulo_iso=modulo_iso)
        query.check()
    except ValueError as exc:
        _usage_error(str(exc))
    results = search(query)
    click.echo(f"# {len(results)} algebra(s)")
    for i, spec in enumerate(results):
        click.echo(f"# model {i}")
        click.echo(serialize_spec(spec), nl=False)
        click.echo("")


if __name__ == "__main__":
    main()
