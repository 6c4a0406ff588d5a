import json
import os
import subprocess
import sys
import tempfile
import textwrap
from collections import Counter
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from pbci import (
    AlgebraSpec,
    EnumerationCapExceeded,
    bck_part_system,
    core,
    derivations,
    dsystems,
    parse_algebra,
    quotient,
    serialize_spec,
    theorems,
    validate,
)
import pbci.cli
from pbci.cli import main
from pbci.search import PREDICATE_NAMES
from pbci.report import build_report, render_json, render_text, spec_from_report

from conftest import FIXTURE_DIR, FIXTURE_NAMES, fixture_text, load_algebra


@pytest.fixture()
def runner():
    return CliRunner()


def fixture_path(name: str) -> str:
    return str(FIXTURE_DIR / f"{name}.pbci")


# --- report ---------------------------------------------------------------


def test_report_json_deterministic(proper5):
    first = render_json(build_report(proper5))
    second = render_json(build_report(proper5))
    assert first == second


def test_report_round_trips_algebra_block(proper5):
    report = json.loads(render_json(build_report(proper5)))
    assert spec_from_report(report) == proper5.to_spec()


def test_report_derivations_canonical_order(proper5):
    report = build_report(proper5)
    block = next(b for b in report["derivations"] if b["class"] == "implicative-I")
    images = [entry["images"] for entry in block["maps"]]
    assert images == [
        ["a", "b", "c", "d", "1"],
        ["d", "d", "d", "1", "d"],
        ["1", "1", "1", "d", "1"],
    ]


def test_report_includes_types_three_four_only_for_bck(proper5, bck5):
    classes5 = [b["class"] for b in build_report(proper5)["derivations"]]
    assert classes5 == ["implicative-I", "implicative-II",
                        "symmetric-I", "symmetric-II"]
    classes_bck = [b["class"] for b in build_report(bck5)["derivations"]]
    assert classes_bck == ["implicative-I", "implicative-II", "implicative-III",
                           "implicative-IV", "symmetric-I", "symmetric-II"]


def test_text_report_marks_irregular_map(proper5):
    text = render_text(build_report(proper5))
    assert "d d d 1 d  not regular" in text
    assert "atoms: d 1" in text
    assert "BCK part: a b c 1" in text


def test_report_theorems_deterministic_and_green(group6):
    report = build_report(group6)
    assert all(r["passed"] for r in report["theorems"] if r["applicable"])


def test_report_respects_cap(proper5, monkeypatch):
    # deductive systems are enumerated before derivations, so their cap
    # is the one reported when both are exceeded
    monkeypatch.setenv("PBCI_MAX_SIZE", "3")
    with pytest.raises(EnumerationCapExceeded, match="subset-enumeration cap 3"):
        build_report(proper5)


@pytest.mark.parametrize("name, classes", [("bck5", 6), ("proper5", 4)])
def test_report_computes_each_object_once(name, classes, request, monkeypatch):
    fixture = request.getfixturevalue(name)
    Q = quotient(fixture, bck_part_system(fixture))
    # a fresh algebra: the session fixture keeps what earlier tests built
    algebra = validate(fixture.to_spec())
    atom_checks: Counter = Counter()
    calls: Counter = Counter()

    def count(module, fn, key):
        original = getattr(module, fn)

        def counted(*args, **kwargs):
            calls[fn] += 1
            if key:
                atom_checks[key(*args)] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, fn, counted)

    count(core, "_atom_characterizations", lambda A, a: (A.names, a))
    count(derivations, "_solve", None)
    count(dsystems, "_closed_sets", None)
    # bck_part is imported by name, so count it in every module holding it
    for module in [mod for name, mod in sys.modules.items()
                   if name.partition(".")[0] == "pbci"
                   and getattr(mod, "bck_part", None) is core.bck_part]:
        count(module, "bck_part", None)
    build_report(algebra)
    # the atom crosscheck: once per element of A and of A / K(A)
    assert set(atom_checks.values()) == {1}
    assert set(atom_checks) == ({(algebra.names, a) for a in algebra.elements()}
                                | {(Q.names, a) for a in Q.elements()})
    # Close-by-One once, under ->-detachment
    assert calls["_closed_sets"] == 1
    # K(A) once, shared by the report, the theorems and K(A) as a system
    assert calls["bck_part"] == 1
    # the solver once per class, plus the translation route and the
    # quotient's regular type II maps
    assert calls["_solve"] == classes + 2


# --- cli ------------------------------------------------------------------


def test_cli_check_ok(runner):
    result = runner.invoke(main, ["check", fixture_path("proper5")])
    assert result.exit_code == 0
    assert "valid pseudo-BCI algebra" in result.output
    assert "p-semisimple: no" in result.output


def test_cli_check_violations_exit_1(runner, tmp_path):
    bad = fixture_text("proper5").replace("a b c d 1\nsquig:", "b b c d 1\nsquig:")
    path = tmp_path / "bad.pbci"
    path.write_text(bad)
    result = runner.invoke(main, ["check", str(path)])
    assert result.exit_code == 1
    assert "psBCI3" in result.output
    # a bad command line is a usage error before the file is validated
    _one_line_error(runner.invoke(main, ["quotient", str(path)]),
                    "exactly one of --by K or --by-file")
    _one_line_error(runner.invoke(main, ["derivations", str(path), "--kind",
                                         "symmetric", "--type", "iii"]),
                    "no derivation class", "'symmetric'")


def test_cli_parse_error_exit_2(runner, tmp_path):
    path = tmp_path / "broken.pbci"
    path.write_text("pbci 9\n")
    result = runner.invoke(main, ["check", str(path)])
    assert result.exit_code == 2


def test_cli_missing_file_exit_2(runner):
    result = runner.invoke(main, ["check", "no-such-file.pbci"])
    assert result.exit_code == 2


def _one_line_error(result, *fragments):
    lines = result.output.splitlines()
    assert result.exit_code == 2
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert all(fragment in lines[0] for fragment in fragments)
    assert "Traceback" not in result.output


def test_cli_non_utf8_input_exit_2(runner, tmp_path):
    path = tmp_path / "latin1.pbci"
    path.write_bytes(fixture_text("proper5").replace("a b c d 1", "\xe4 b c d 1")
                     .encode("latin-1"))
    _one_line_error(runner.invoke(main, ["check", str(path)]), str(path))


def test_cli_reads_a_utf8_byte_order_mark(runner, tmp_path):
    path = tmp_path / "bom.pbci"
    path.write_bytes(b"\xef\xbb\xbf" + fixture_text("proper5").encode())
    plain = runner.invoke(main, ["check", fixture_path("proper5")])
    result = runner.invoke(main, ["check", str(path)])
    assert result.exit_code == plain.exit_code == 0
    assert result.stdout == plain.stdout


def test_cli_quotient_subset_file_with_byte_order_mark(runner, tmp_path):
    subset, bom = tmp_path / "unit.txt", tmp_path / "bom.txt"
    subset.write_bytes(b"1\n")
    bom.write_bytes(b"\xef\xbb\xbf1\n")
    plain, result = (runner.invoke(main, ["quotient", fixture_path("proper5"),
                                          "--by-file", str(f)])
                     for f in (subset, bom))
    assert result.exit_code == plain.exit_code == 0
    assert result.stdout == plain.stdout


def test_cli_quotient_non_utf8_subset_file_exit_2(runner, tmp_path):
    subset = tmp_path / "subset.txt"
    subset.write_bytes(b"a b c \xff 1\n")
    result = runner.invoke(main, [
        "quotient", fixture_path("proper5"), "--by-file", str(subset)])
    _one_line_error(result, str(subset))


@pytest.mark.parametrize("args", [
    ["check", "FIXTURE"], ["analyze", "FIXTURE", "--json"], ["verify", "FIXTURE"],
    ["ds", "FIXTURE"], ["derivations", "FIXTURE", "--kind", "implicative",
                        "--type", "i"],
    ["quotient", "FIXTURE", "--by", "K"], ["map", "FIXTURE", "--map", "a b c d 1"],
    ["search", "--size", "2"]])
def test_cli_non_integer_cap_exit_2(runner, args):
    args = [fixture_path("proper5") if a == "FIXTURE" else a for a in args]
    for value in ("abc", "0", "-1"):
        result = runner.invoke(main, args, env={"PBCI_MAX_SIZE": value})
        _one_line_error(result, "PBCI_MAX_SIZE", "positive integer", repr(value))


# The cached properties of an algebra: its derived tables and the
# structure built on them.
DERIVED_TABLES = ("columns", "joins", "product", "byte_tables", "failing_pairs",
                  "preimages", "atoms", "bck_part", "branches", "classification")


def test_cli_builds_each_table_of_the_algebra_once(runner, products, tmp_path,
                                                   monkeypatch):
    A = products["proper5*cyclic3"]
    path = tmp_path / "A.pbci"
    path.write_text(serialize_spec(A.to_spec()))
    builds: Counter = Counter()

    def counted(name, build):
        def wrapper(B):
            if B.names == A.names:
                builds[name] += 1
            return build(B)
        return wrapper

    for name in DERIVED_TABLES:
        prop = core.PseudoBciAlgebra.__dict__[name]
        monkeypatch.setattr(prop, "func", counted(name, prop.func))
    once = dict.fromkeys(DERIVED_TABLES, 1)
    # check enumerates no deductive system, so it needs no preimage masks,
    # and it reads no K(A)
    for_check = {name: 1 for name in once if name not in ("preimages", "bck_part")}
    # the quotient by K(A) reads K(A), its flags and its congruence off the
    # byte views: no column tuples, joins or preimage masks
    for_quotient = dict.fromkeys(("byte_tables", "failing_pairs", "bck_part"), 1)
    for command, expected in ((["analyze", "--json"], once),
                              (["check"], for_check),
                              (["quotient", "--by", "K"], for_quotient)):
        builds.clear()
        result = runner.invoke(main, command + [str(path)],
                               env={"PBCI_MAX_SIZE": str(A.size)})
        assert result.exit_code == 0
        assert dict(builds) == expected, command

    # the cached tables are not fields: equality and hash do not see them
    B = validate(A.to_spec())
    before = hash(B)
    for name in DERIVED_TABLES:
        getattr(B, name)
    assert hash(B) == before == hash(A)
    assert B == A == validate(A.to_spec())


@pytest.mark.parametrize("args, checks", [
    # the property record needs the atoms once; the class list needs none
    (["map", "FIXTURE", "--map", "d d d 1 d"], 5),
    (["derivations", "FIXTURE", "--kind", "implicative", "--type", "iii",
      "--force"], 0),
    # K(group6) = {1}, so its quotient by K(A) is group6 renamed, which
    # keeps the classification and atoms built for the theorem preconditions
    (["verify", fixture_path("group6")], 6),
])
def test_cli_atom_crosscheck_counts(runner, monkeypatch, args, checks):
    checked = []
    original = core._atom_characterizations
    monkeypatch.setattr(core, "_atom_characterizations",
                        lambda A, a: checked.append(a) or original(A, a))
    args = [fixture_path("proper5") if a == "FIXTURE" else a for a in args]
    assert runner.invoke(main, args).exit_code == 0
    assert len(checked) == checks


def test_structure_is_built_once_per_algebra(proper5, monkeypatch):
    algebra = validate(proper5.to_spec())
    checked: Counter = Counter()
    original = core._atom_characterizations

    def counted(A, a):
        if A is algebra:
            checked[a] += 1
        return original(A, a)

    monkeypatch.setattr(core, "_atom_characterizations", counted)
    core.classify(algebra)
    core.branches(algebra)
    derivations.map_properties(algebra, derivations.identity_map(algebra))
    build_report(algebra)
    assert checked == Counter(algebra.elements())


def test_verify_builds_phi_once_and_checks_no_map_alone(runner, monkeypatch):
    # phi_map is the one builder of phi, and its type I membership is read
    # from the complete enumerations, not from satisfies
    calls: Counter = Counter()
    for fn in ("phi_map", "satisfies"):
        original = getattr(derivations, fn)

        def counted(*args, _fn=fn, _original=original, **kwargs):
            calls[_fn] += 1
            return _original(*args, **kwargs)

        for module in [mod for name, mod in sys.modules.items()
                       if name.partition(".")[0] == "pbci"
                       and getattr(mod, fn, None) is original]:
            monkeypatch.setattr(module, fn, counted)
    result = runner.invoke(main, ["verify", fixture_path("proper5")])
    assert result.exit_code == 0, result.output
    assert calls == Counter(phi_map=1)


@pytest.mark.parametrize("args", [["analyze", "--json"], ["verify"]])
def test_cli_builds_one_record_per_distinct_map(args, runner, monkeypatch):
    # the report builds one property record per distinct map however many
    # classes list it; the theorem checks read their per-map facts off the
    # maps, so verify builds none
    an = theorems.Analysis(load_algebra("proper5"))
    distinct = Counter(set().union(*an.derivations.values()))
    calls: Counter = Counter()
    original = derivations.map_properties

    def counted(A, d):
        calls[d] += 1
        return original(A, d)

    for module in [mod for name, mod in sys.modules.items()
                   if name.partition(".")[0] == "pbci"
                   and getattr(mod, "map_properties", None) is original]:
        monkeypatch.setattr(module, "map_properties", counted)
    result = runner.invoke(main, args + [fixture_path("proper5")])
    assert result.exit_code == 0, result.output
    assert calls == (distinct if args[0] == "analyze" else Counter())


def test_cli_import_does_not_load_numpy():
    # the scans are pure Python: numpy would add about 0.13 s to every
    # cold start of the CLI
    code = "import sys, pbci.cli; print('numpy' in sys.modules)"
    src = str(Path(__file__).parent.parent / "src")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src},
                            check=True)
    assert result.stdout.strip() == "False"


LAZY_LAYERS = ("derivations", "dsystems", "theorems", "report", "search")


@pytest.mark.parametrize("args, unread", [
    (None, LAZY_LAYERS),
    (["--version"], LAZY_LAYERS),
    (["--help"], LAZY_LAYERS),
    (["check", fixture_path("proper5")], LAZY_LAYERS),
    (["quotient", fixture_path("proper5"), "--by", "K"],
     ("derivations", "theorems", "report", "search")),
    (["search", "--size", "3"], ("derivations", "dsystems", "theorems", "report")),
    (["verify", fixture_path("proper5")], ("report", "search")),
    (["analyze", fixture_path("proper5"), "--json"], ("search",)),
])
def test_cli_runs_only_the_layers_its_command_reads(args, unread):
    # every layer is registered from `import pbci` on; one whose body has
    # not run yet holds no public name
    code = textwrap.dedent(f"""
        import sys, types
        import pbci.cli
        if {args!r} is not None:
            try:
                pbci.cli.main({args!r}, standalone_mode=False)
            except SystemExit:
                pass
        unread = []
        for layer in {LAZY_LAYERS!r}:
            names = types.ModuleType.__getattribute__(
                sys.modules["pbci." + layer], "__dict__")
            if not any(not name.startswith("_") for name in names):
                unread.append(layer)
        print(unread, file=sys.stderr)
    """)
    src = str(Path(__file__).parent.parent / "src")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src},
                            check=True)
    assert result.stderr.strip() == str(list(unread))


def test_help_lists_every_command_and_predicate(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    for command in main.commands:
        assert f"  {command} " in result.output, command
    result = runner.invoke(main, ["search", "--help"])
    assert result.exit_code == 0
    for name in PREDICATE_NAMES:
        assert name in result.output, name


def test_cli_derivations_golden(runner):
    result = runner.invoke(main, [
        "derivations", fixture_path("proper5"), "--kind", "implicative",
        "--type", "ii", "--regular"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0].startswith("# implicative-II regular: 2")
    assert lines[1:] == ["a b c d 1", "1 1 1 d 1"]


def test_cli_derivations_kind_and_type_ignore_case(runner):
    # reports name classes as implicative-II, so --type II must be accepted
    def stdout(kind, dtype):
        result = runner.invoke(main, ["derivations", fixture_path("proper5"),
                                      "--kind", kind, "--type", dtype])
        assert result.exit_code == 0, result.output
        return result.output

    assert stdout("Symmetric", "II") == stdout("symmetric", "ii")


def test_cli_derivations_type3_needs_force(runner):
    args = ["derivations", fixture_path("proper5"), "--kind", "implicative",
            "--type", "iii"]
    _one_line_error(runner.invoke(main, args), "implicative-III",
                    "pass --force to evaluate")
    forced = runner.invoke(main, args + ["--force"])
    assert forced.exit_code == 0
    assert "outside the defined scope" in forced.output


def test_cli_derivations_symmetric_iii_rejected(runner):
    result = runner.invoke(main, [
        "derivations", fixture_path("proper5"), "--kind", "symmetric",
        "--type", "iii"])
    assert result.exit_code == 2


def test_cli_ds(runner):
    result = runner.invoke(main, ["ds", fixture_path("proper5")])
    assert result.exit_code == 0
    assert "{c 1}  not-compatible closed" in result.output
    assert "# 4 deductive system(s)" in result.output


def test_cli_quotient_by_k(runner):
    result = runner.invoke(main, ["quotient", fixture_path("proper5"), "--by", "K"])
    assert result.exit_code == 0
    body = result.output.split("\n", 1)[1]
    quotient_spec = parse_algebra(body)
    algebra = validate(quotient_spec)
    assert algebra.size == 2


def test_cli_quotient_by_file(runner, tmp_path):
    subset = tmp_path / "subset.txt"
    subset.write_text("a b c 1\n")
    result = runner.invoke(main, [
        "quotient", fixture_path("proper5"), "--by-file", str(subset)])
    assert result.exit_code == 0

    subset.write_text("c, 1\n")
    result = runner.invoke(main, [
        "quotient", fixture_path("proper5"), "--by-file", str(subset)])
    assert result.exit_code == 1      # {c,1} is not compatible

    subset.write_text("b 1\n")
    result = runner.invoke(main, [
        "quotient", fixture_path("proper5"), "--by-file", str(subset)])
    assert result.exit_code == 1      # not even a deductive system

    subset.write_text("a z 1\n")
    _one_line_error(runner.invoke(main, [
        "quotient", fixture_path("proper5"), "--by-file", str(subset)]),
        str(subset), "unknown element 'z'")

    result = runner.invoke(main, ["quotient", fixture_path("proper5")])
    assert result.exit_code == 2      # neither --by nor --by-file


def renamed_fixture(directory: Path, name: str, old: str, new: str) -> str:
    """A fixture with element old renamed new, written to directory."""
    spec = parse_algebra(fixture_text(name))

    def swap(symbol):
        return new if symbol == old else symbol

    renamed = AlgebraSpec(
        names=tuple(map(swap, spec.names)), unit=swap(spec.unit),
        arrow=tuple(tuple(map(swap, row)) for row in spec.arrow),
        squig=tuple(tuple(map(swap, row)) for row in spec.squig))
    path = directory / f"{name}.pbci"
    path.write_text(serialize_spec(renamed), encoding="utf-8")
    return str(path)


def test_cli_quotient_by_file_names_holding_commas(runner, tmp_path):
    subset = tmp_path / "subset.txt"
    path = renamed_fixture(tmp_path, "proper5", "d", "d,e")
    subset.write_text("1 d,e\n")
    result = runner.invoke(main, ["quotient", path, "--by-file", str(subset)])
    assert result.exit_code == 1      # {d,e 1} is read, but is no system
    assert result.stderr == "error: subset is not closed under detachment\n"

    path = renamed_fixture(tmp_path, "proper5", "a", "a,e")
    subset.write_text("a,e b,c,1\n")  # a name whole, then a comma list
    result = runner.invoke(main, ["quotient", path, "--by-file", str(subset)])
    assert result.exit_code == 0, result.output
    by_k = runner.invoke(main, ["quotient", path, "--by", "K"])
    assert result.stdout == by_k.stdout
    assert result.stdout.startswith("# quotient by {a,e b c 1}: 2 class(es)\n")


def test_cli_map_image_row_with_names_holding_equals(runner, tmp_path):
    path = renamed_fixture(tmp_path, "proper5", "d", "x=y")
    result = runner.invoke(main, ["map", path, "--map", "x=y x=y x=y 1 x=y"])
    assert result.exit_code == 0, result.output
    assert result.stdout.startswith("map: x=y x=y x=y 1 x=y\n")


def test_cli_map_pairs_with_names_holding_equals(runner, tmp_path):
    path = renamed_fixture(tmp_path, "proper5", "d", "x=y")
    result = runner.invoke(main, [
        "map", path, "--map", "a=x=y b=x=y c=x=y x=y=1 1=x=y"])
    assert result.exit_code == 0, result.output
    assert result.stdout.startswith("map: x=y x=y x=y 1 x=y\n")


def test_cli_map_pairs_with_names_holding_commas(runner, tmp_path):
    path = renamed_fixture(tmp_path, "proper5", "d", "x,y")
    result = runner.invoke(main, [
        "map", path, "--map", "a=x,y b=x,y c=x,y x,y=1 1=x,y"])
    assert result.exit_code == 0, result.output
    row = runner.invoke(main, ["map", path, "--map", "x,y x,y x,y 1 x,y"])
    assert result.stdout == row.stdout
    assert result.stdout.startswith("map: x,y x,y x,y 1 x,y\n")


def test_cli_map(runner):
    result = runner.invoke(main, [
        "map", fixture_path("proper5"), "--map", "d d d 1 d"])
    assert result.exit_code == 0
    assert "regular: no" in result.output
    assert "symmetric-II: yes" in result.output
    bad = runner.invoke(main, ["map", fixture_path("proper5"), "--map", "d d"])
    assert bad.exit_code == 2


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_cli_verify_fixtures_pass(runner, name):
    result = runner.invoke(main, ["verify", fixture_path(name)])
    assert result.exit_code == 0, result.output
    assert "0 failed" in result.output
    assert "FAIL" not in result.output


def test_cli_theorem_failure_exit_1(runner, monkeypatch):
    # one catalogue entry made to fail with a fixed witness
    tid = "type1-join-absorption"
    monkeypatch.setattr(theorems, "_CATALOG", tuple(
        (t, s, flags, (lambda c: "x=a") if t == tid else check, note)
        for t, s, flags, check, note in theorems._CATALOG))
    path = fixture_path("proper5")

    result = runner.invoke(main, ["verify", path])
    assert result.exit_code == 1
    lines = result.stdout.splitlines()
    assert lines[:2] == [f"FAIL {tid}", "     witness: x=a"]
    assert lines[-1] == "# 24 applicable, 23 passed, 1 failed, 11 skipped"

    result = runner.invoke(main, ["analyze", path])
    assert result.exit_code == 1
    assert result.stdout.endswith(
        "theorems: 24 applicable, 23 passed, 1 failed, 11 skipped\n"
        f"  FAIL {tid}: x=a\n")

    result = runner.invoke(main, ["analyze", path, "--json"])
    assert result.exit_code == 1
    entry = next(r for r in json.loads(result.stdout)["theorems"] if r["id"] == tid)
    assert (entry["applicable"], entry["passed"], entry["witness"]) == (True, False, "x=a")


def test_cli_verify_fails_a_phi_map_outside_type_one(runner, monkeypatch):
    # Analysis.phi is the bare map; the catalogue entry is its one type I
    # check, against the complete enumerations.  The constant map to a is
    # neither a type I implicative nor a type I symmetric map of proper5.
    monkeypatch.setattr(theorems.Analysis, "phi", property(lambda c: (0,) * c.n))
    result = runner.invoke(main, ["verify", fixture_path("proper5")])
    assert result.exit_code == 1
    assert "FAIL phi-map-type1-both-kinds" in result.stdout.splitlines()


def test_cli_analyze_json_byte_identical(runner):
    args = ["analyze", fixture_path("mixed6"), "--json"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.output == second.output
    payload = json.loads(first.output)
    assert payload["summary"]["size"] == 6


def test_cli_analyze_text(runner):
    result = runner.invoke(main, ["analyze", fixture_path("proper5")])
    assert result.exit_code == 0
    assert "algebra: 5 elements" in result.output
    assert "not regular" in result.output


def test_cli_search(runner):
    result = runner.invoke(main, [
        "search", "--size", "2", "--modulo-iso"])
    assert result.exit_code == 0
    assert "# 2 algebra(s)" in result.output
    parts = [chunk for chunk in result.output.split("# model")[1:]]
    for chunk in parts:
        spec = parse_algebra(chunk.split("\n", 1)[1])
        validate(spec)


def test_cli_search_with_predicate(runner):
    result = runner.invoke(main, [
        "search", "--size", "3", "--pred", "p_semisimple", "--modulo-iso"])
    assert result.exit_code == 0
    assert "# 1 algebra(s)" in result.output
    bad = runner.invoke(main, ["search", "--size", "3", "--pred", "shiny"])
    assert bad.exit_code == 2
    bad_value = runner.invoke(main, [
        "search", "--size", "3", "--pred", "bci=maybe"])
    assert bad_value.exit_code == 2


@pytest.mark.parametrize("value, plain", [
    ("true", "p_semisimple"), ("yes", "p_semisimple"), ("1", "p_semisimple"),
    ("TRUE", "p_semisimple"), ("false", "p_semisimple=false"),
    ("no", "p_semisimple=false"), ("0", "p_semisimple=false"),
])
def test_cli_search_predicate_values(runner, value, plain):
    def stdout(pred):
        result = runner.invoke(main, ["search", "--size", "3", "--pred", pred,
                                      "--modulo-iso"])
        assert result.exit_code == 0, result.output
        return result.stdout

    assert stdout(f"p_semisimple={value}") == stdout(plain)


def test_cli_search_cap(runner):
    result = runner.invoke(main, ["search", "--size", "9"])
    assert result.exit_code == 2


def test_cli_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "pbci" in result.output


PROPER5_UNIT_ROW = ("a b c d 1\nsquig:", "b b c d 1\nsquig:")   # breaks psBCI3


@pytest.mark.parametrize("args", [
    ["check", "proper5"],
    ["check", "corrupted"],
    ["analyze", "proper5"],
    ["analyze", "proper5", "--json"],
    ["verify", "proper5"],
    ["ds", "proper5"],
    ["derivations", "proper5", "--kind", "implicative", "--type", "i"],
    ["map", "proper5", "--map", "d d d 1 d"],
    ["quotient", "proper5", "--by", "K"],
    ["search", "--size", "3"],
], ids=" ".join)
def test_each_command_writes_stdout_once(args, runner, monkeypatch, tmp_path):
    # each command renders its stdout and writes it in one click.echo call
    corrupted = tmp_path / "corrupted.pbci"
    corrupted.write_text(fixture_text("proper5").replace(*PROPER5_UNIT_ROW))
    paths = {"proper5": fixture_path("proper5"), "corrupted": str(corrupted)}
    args = [paths.get(a, a) for a in args]
    echo, writes = click.echo, []

    def counting(*a, **kw):
        if not kw.get("err"):
            writes.append(a)
        return echo(*a, **kw)

    monkeypatch.setattr(pbci.cli.click, "echo", counting)
    result = runner.invoke(main, args)
    assert result.exit_code == (1 if str(corrupted) in args else 0), result.output
    assert len(writes) == 1


@pytest.mark.parametrize("args", [["search", "--size", "4"],
                                  ["verify", fixture_path("proper5")]],
                         ids=["search", "verify"])
def test_closed_stdout_prints_no_traceback(args):
    # the reader is gone before the command writes: the one write meets
    # EPIPE, and the command exits without a traceback
    src = str(Path(__file__).parent.parent / "src")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-m", "pbci.cli", *args],
                                stdout=write_end, stderr=subprocess.PIPE, text=True,
                                env={**os.environ, "PYTHONPATH": src}, timeout=300)
    finally:
        os.close(write_end)
    assert result.returncode in (0, 1), result.stderr
    assert "Traceback" not in result.stderr


# --- fuzz -------------------------------------------------------------------


_tokens = st.sampled_from([b"1", b"a", b"d", b" ", b"\n", b":", b"same", b"\xff", b"-"])


@st.composite
def _mutated_fixture(draw) -> bytes:
    data = fixture_text(draw(st.sampled_from(FIXTURE_NAMES))).encode()
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        cut = draw(st.integers(0, 3))
        data = data[:at] + draw(st.one_of(_tokens, st.binary(max_size=3))) + data[at + cut:]
    return data


def _flags(*flags):
    return st.lists(st.sampled_from(flags), unique=True)


_FILE_COMMANDS = st.one_of(
    st.sampled_from([["check"], ["analyze"], ["analyze", "--json"], ["verify"], ["ds"],
                     ["quotient"], ["quotient", "--by", "K"],
                     ["quotient", "--by-file", "SUBSET"],
                     ["quotient", "--by", "K", "--by-file", "SUBSET"]]),
    st.tuples(st.sampled_from(["implicative", "symmetric", "other"]),
              st.sampled_from(["i", "ii", "iii", "iv", "v"]),
              _flags("--regular", "--force")).map(
        lambda t: ["derivations", "--kind", t[0], "--type", t[1], *t[2]]),
    st.one_of(st.sampled_from(["a b c d 1", "d d d 1 d", "a=d,b=d", "1 1 1", ""]),
              st.text(max_size=12)).map(lambda spec: ["map", "--map", spec]),
)

_SEARCHES = st.tuples(
    st.sampled_from(["-1", "0", "1", "2", "3", "99", "x"]),
    st.lists(st.sampled_from(PREDICATE_NAMES + ("shiny",)).flatmap(
        lambda name: st.sampled_from([name, name + "=false", name + "=maybe"])),
        max_size=2),
    st.sampled_from([[], ["--limit", "0"], ["--limit", "1"], ["--limit", "-1"]]),
    _flags("--modulo-iso"),
).map(lambda t: ["search", "--size", t[0], *[a for p in t[1] for a in ("--pred", p)],
                 *t[2], *t[3]])


@given(command=st.one_of(_FILE_COMMANDS, _SEARCHES),
       table=_mutated_fixture(), subset=_mutated_fixture(),
       file=st.sampled_from(["in.pbci", "in.pbci", "in.pbci", "missing.pbci", "."]),
       cap=st.sampled_from([None, None, "16", "abc", "", "0", "-1", "3", "5"]))
@settings(max_examples=150, deadline=None)
def test_cli_fuzz_never_tracebacks(command, table, subset, file, cap):
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "in.pbci").write_bytes(table)
        (Path(tmp) / "subset.txt").write_bytes(subset[:40])
        args = [str(Path(tmp) / "subset.txt") if a == "SUBSET" else a for a in command]
        if args[0] != "search":
            args.insert(1, str(Path(tmp) / file))
        result = CliRunner().invoke(main, args, env={"PBCI_MAX_SIZE": cap})
    assert result.exit_code in (0, 1, 2), (args, cap, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        (args, cap, result.exception)
    if result.exit_code == 2:
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (args, cap, lines)
