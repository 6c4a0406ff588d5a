import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from pbci import (
    EnumerationCapExceeded,
    bck_part_system,
    core,
    derivations,
    dsystems,
    parse_algebra,
    quotient,
    validate,
)
from pbci.cli import main
from pbci.search import PREDICATE_NAMES
from pbci.report import build_report, render_json, render_text, spec_from_report

from conftest import FIXTURE_DIR, FIXTURE_NAMES, fixture_text


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
    algebra = request.getfixturevalue(name)
    Q = quotient(algebra, bck_part_system(algebra))
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

    count(core, "_atom_characterizations", lambda A, a, tables: (A.names, a))
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
    # NextClosure once per detachment form
    assert calls["_closed_sets"] == 2
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


@pytest.mark.parametrize("args, checks", [
    # the property record needs the atoms once; the class list needs none
    (["map", "FIXTURE", "--map", "d d d 1 d"], 5),
    (["derivations", "FIXTURE", "--kind", "implicative", "--type", "iii",
      "--force"], 0),
])
def test_cli_atom_crosscheck_counts(runner, monkeypatch, args, checks):
    checked = []
    original = core._atom_characterizations
    monkeypatch.setattr(core, "_atom_characterizations",
                        lambda A, a, tables: checked.append(a)
                        or original(A, a, tables))
    args = [fixture_path("proper5") if a == "FIXTURE" else a for a in args]
    assert runner.invoke(main, args).exit_code == 0
    assert len(checked) == checks


def test_cli_import_does_not_load_numpy():
    # the scans are pure Python: numpy would add about 0.13 s to every
    # cold start of the CLI
    code = "import sys, pbci.cli; print('numpy' in sys.modules)"
    src = str(Path(__file__).parent.parent / "src")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src},
                            check=True)
    assert result.stdout.strip() == "False"


def test_cli_derivations_golden(runner):
    result = runner.invoke(main, [
        "derivations", fixture_path("proper5"), "--kind", "implicative",
        "--type", "ii", "--regular"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0].startswith("# implicative-II regular: 2")
    assert lines[1:] == ["a b c d 1", "1 1 1 d 1"]


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

    result = runner.invoke(main, ["quotient", fixture_path("proper5")])
    assert result.exit_code == 2      # neither --by nor --by-file


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


def test_cli_search_cap(runner):
    result = runner.invoke(main, ["search", "--size", "9"])
    assert result.exit_code == 2


def test_cli_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "pbci" in result.output


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
