"""Golden outputs: CLI stdout compared byte for byte with recorded copies, so
a refactor that changes any output fails here.

- The five fixtures: `analyze --json`, `analyze`, `verify`, `check`,
  `quotient --by K`, `quotient --by-file` with a subset file that lists the
  unit alone, and `ds` stdout, stored in full under ``tests/golden/``.
- The five fixtures: `derivations` for every class that applies, without
  and with `--regular`, plus `--force` for types III/IV where the fixture
  is not pseudo-BCK; and `map` with the phi map and the identity map.  Each
  is one transcript per fixture and command: every invocation's arguments
  on a `$` line, then its stdout.
- The four products of ``conftest.PRODUCT_LABELS`` (n = 9 to 15):
  `analyze --json` and `verify` stdout as sha256 digests.
- The four products of ``conftest.LARGE_PRODUCT_LABELS`` (n = 25 to 36):
  `check`, `quotient --by K`, `quotient --by-file` with the unit alone,
  `analyze --json` and `verify` stdout as sha256 digests.
- The product ``conftest.N90_LABEL`` (n = 90): `check`, `quotient --by K`,
  `analyze --json` and `verify` stdout as sha256 digests, in the same file.
- Three corrupted fixtures and one corrupted large product: `check` stdout
  in full, with exit code 1, which pins every violation line and its order.
- `search --size N` for N = 1 to 4, and for N = 3 and 4 the benchmark's
  search variants: stdout as sha256 digests, which pins every model and
  its order.
- `search --size 5` and `search --size 5 --modulo-iso`: stdout as sha256
  digests, recorded from the labelled DFS that preceded the isomorph-free
  one; their headers pin 3,747 models in 181 classes.

After an intended output change, record them again with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import importlib
import json
import shlex
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

from pbci import parse_algebra, serialize_spec
from pbci.cli import main

from conftest import (FIXTURE_DIR, FIXTURE_NAMES, LARGE_PRODUCT_LABELS,
                      N90_LABEL, PRODUCT_LABELS, fixture_text, load_algebra,
                      make_large_products, make_n90_product, make_products)

GOLDEN_DIR = Path(__file__).parent / "golden"
PRODUCT_DIGESTS = GOLDEN_DIR / "products.sha256.json"
LARGE_DIGESTS = GOLDEN_DIR / "large.sha256.json"
SEARCH_DIGESTS = GOLDEN_DIR / "search.sha256.json"
SEARCH5_DIGESTS = GOLDEN_DIR / "search5.sha256.json"
COMMANDS = {"analyze": ("analyze", "--json"), "analyze-text": ("analyze",),
            "verify": ("verify",), "check": ("check",),
            "quotient": ("quotient", "--by", "K"),
            "quotient-unit": ("quotient", "--by-file"), "ds": ("ds",)}
SUFFIX = {"analyze": "analyze.json", "analyze-text": "analyze.txt",
          "verify": "verify.txt", "check": "check.txt",
          "quotient": "quotient.txt", "quotient-unit": "quotient-unit.txt",
          "ds": "ds.txt", "derivations": "derivations.txt", "map": "map.txt"}
TRANSCRIPTS = ("derivations", "map")
PSEUDO_BCK_FIXTURES = ("bck5",)
CLASS_FLAGS = ([("implicative", t) for t in ("i", "ii", "iii", "iv")]
               + [("symmetric", t) for t in ("i", "ii")])
PRODUCT_COMMANDS = ("analyze", "verify")
LARGE_COMMANDS = ("check", "quotient", "quotient-unit", "analyze", "verify")
N90_COMMANDS = ("check", "quotient", "analyze", "verify")
PRODUCT_ENV = {"PBCI_MAX_SIZE": "16"}
LARGE_ENV = {"PBCI_MAX_SIZE": "36"}
N90_ENV = {"PBCI_MAX_SIZE": "90"}
SEARCH_VARIANTS = (("--modulo-iso",),
                   ("--pred", "p_semisimple=false", "--modulo-iso"),
                   ("--pred", "proper"))
SEARCH_ARGS = ([("search", "--size", str(n)) for n in (1, 2, 3, 4)]
               + [("search", "--size", str(n)) + variant
                  for n in (3, 4) for variant in SEARCH_VARIANTS])
SEARCH5_ARGS = [("search", "--size", "5"), ("search", "--size", "5", "--modulo-iso")]

# label: (fixture or large product, text replaced once, replacement); each
# breaks the axioms
CORRUPTIONS = {
    # 1 -> a = b: psBCI3
    "proper5-unit-row": ("proper5", "a b c d 1\nsquig:", "b b c d 1\nsquig:"),
    # 0 -> a = 1 as well as a -> 0 = 1: psBCI5, and psBCI1 with it
    "bck5-antisymmetry": ("bck5", "arrow:\n1 1 1 1 1\n0 1 b 1 1",
                          "arrow:\n1 1 1 1 1\n1 1 b 1 1"),
    # a ~> b and a ~> c swapped: psBCI1 and psBCI2
    "group6-swapped-squig": ("group6", "squig:\n1 c b e d a",
                             "squig:\n1 b c e d a"),
    # a.a ~> a.b and a.a ~> a.c swapped (n = 36): psBCI1 and psBCI2, where
    # many z share one composed row
    "group6^2-swapped-squig": ("group6^2", "squig:\n1.1 1.c 1.b",
                               "squig:\n1.1 1.b 1.c"),
}


def stdout_of(command: str, path: str, env=None) -> str:
    """stdout of one command on the algebra file at path; exit code 0 is
    asserted.  `quotient-unit` names a subset file that lists the unit."""
    verb, *flags = COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        if command == "quotient-unit":
            subset = Path(tmp) / "unit.txt"
            text = Path(path).read_text(encoding="utf-8")
            subset.write_text(parse_algebra(text).unit + "\n", encoding="utf-8")
            flags.append(str(subset))
        result = CliRunner().invoke(main, [verb, path, *flags], env=env)
    assert result.exit_code == 0, result.output
    return result.stdout


def transcript_args(name: str, command: str) -> list[tuple[str, ...]]:
    """The flag lists of one fixture's transcript for derivations or map."""
    if command == "map":
        A = load_algebra(name)
        phi = " ".join(A.names[A.phi(x)] for x in A.elements())
        return [("--map", phi), ("--map", " ".join(A.names))]
    args = []
    for kind, dtype in CLASS_FLAGS:
        scope = ()
        if dtype in ("iii", "iv") and name not in PSEUDO_BCK_FIXTURES:
            scope = ("--force",)
        for regular in ((), ("--regular",)):
            args.append(("--kind", kind, "--type", dtype, *regular, *scope))
    return args


def transcript(name: str, command: str) -> str:
    """Every invocation of one fixture's transcript: a `$` line naming it,
    then its stdout; each must exit 0."""
    file = f"{name}.pbci"
    parts = []
    for flags in transcript_args(name, command):
        result = CliRunner().invoke(main, [command, str(FIXTURE_DIR / file), *flags])
        assert result.exit_code == 0, result.output
        parts.append(f"$ {shlex.join(('pbci', command, file, *flags))}\n"
                     f"{result.stdout}")
    return "".join(parts)


def source_text(name: str) -> str:
    """A fixture's text, or a large product's serialized tables."""
    if name in FIXTURE_NAMES:
        return fixture_text(name)
    return serialize_spec(make_large_products()[name].to_spec())


def corrupted_check_stdout(label: str, directory: Path) -> str:
    """`check` stdout on a corrupted fixture or large product, written as
    <label>.pbci in directory and named by that relative path; exit code 1
    is asserted."""
    name, old, new = CORRUPTIONS[label]
    text = source_text(name)
    assert text.count(old) == 1, label
    runner = CliRunner()
    with runner.isolated_filesystem(temp_dir=directory):
        path = f"{label}.pbci"
        Path(path).write_text(text.replace(old, new), encoding="utf-8")
        result = runner.invoke(main, ["check", path])
    assert result.exit_code == 1, result.output
    return result.stdout


def fixture_golden(name: str, command: str) -> Path:
    return GOLDEN_DIR / f"{name}.{SUFFIX[command]}"


def product_stdouts(directory: Path, algebras, commands, env):
    """(label, command, stdout) for every algebra, via a file in directory;
    env raises the caps to cover them."""
    for label, algebra in algebras.items():
        path = directory / "product.pbci"
        path.write_text(serialize_spec(algebra.to_spec()), encoding="utf-8")
        for command in commands:
            yield label, command, stdout_of(command, str(path), env)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def search_digests(arg_lists) -> dict[str, str]:
    """sha256 of `search` stdout, keyed by the argument list."""
    digests = {}
    for args in arg_lists:
        result = CliRunner().invoke(main, list(args))
        assert result.exit_code == 0, result.output
        digests[" ".join(args)] = digest(result.stdout)
    return digests


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_stdout_matches_golden(name, command):
    expected = fixture_golden(name, command).read_text(encoding="utf-8")
    assert stdout_of(command, str(FIXTURE_DIR / f"{name}.pbci")) == expected


@pytest.mark.parametrize("command", TRANSCRIPTS)
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_transcript_matches_golden(name, command):
    expected = fixture_golden(name, command).read_text(encoding="utf-8")
    assert transcript(name, command) == expected


def test_product_stdout_matches_golden_digests(tmp_path):
    expected = json.loads(PRODUCT_DIGESTS.read_text(encoding="utf-8"))
    assert sorted(expected) == sorted(PRODUCT_LABELS)
    for label, command, text in product_stdouts(
            tmp_path, make_products(), PRODUCT_COMMANDS, PRODUCT_ENV):
        assert digest(text) == expected[label][command], (label, command)


def large_groups():
    """(algebras, commands, env) for each group of large.sha256.json."""
    return ((make_large_products(), LARGE_COMMANDS, LARGE_ENV),
            ({N90_LABEL: make_n90_product()}, N90_COMMANDS, N90_ENV))


def test_large_product_stdout_matches_golden_digests(tmp_path):
    expected = json.loads(LARGE_DIGESTS.read_text(encoding="utf-8"))
    assert sorted(expected) == sorted(LARGE_PRODUCT_LABELS + (N90_LABEL,))
    for algebras, commands, env in large_groups():
        for label, command, text in product_stdouts(tmp_path, algebras,
                                                    commands, env):
            assert digest(text) == expected[label][command], (label, command)


def test_search_stdout_matches_golden_digests():
    expected = json.loads(SEARCH_DIGESTS.read_text(encoding="utf-8"))
    assert search_digests(SEARCH_ARGS) == expected


def test_size5_search_stdout_matches_golden_digests():
    expected = json.loads(SEARCH5_DIGESTS.read_text(encoding="utf-8"))
    assert search_digests(SEARCH5_ARGS) == expected


def test_labelled_search_reads_no_translate_table(monkeypatch):
    # a labelled search expands each class by the plain transports alone
    def refuse(n):
        raise AssertionError("a labelled search read the translate tables")

    # the package exports the function ``search`` under the module's name
    monkeypatch.setattr(importlib.import_module("pbci.search"), "_transports",
                        refuse)
    expected = json.loads(SEARCH_DIGESTS.read_text(encoding="utf-8"))
    labelled = [args for args in SEARCH_ARGS
                if args[2] in ("3", "4") and "--modulo-iso" not in args]
    assert search_digests(labelled) == {
        " ".join(args): expected[" ".join(args)] for args in labelled}


@pytest.mark.parametrize("label", CORRUPTIONS)
def test_corrupted_check_stdout_matches_golden(label, tmp_path):
    expected = fixture_golden(label, "check").read_text(encoding="utf-8")
    assert corrupted_check_stdout(label, tmp_path) == expected


def write_digests(path: Path, groups) -> None:
    """One digest file for the (algebras, commands, env) groups."""
    digests: dict[str, dict[str, str]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for algebras, commands, env in groups:
            for label, command, text in product_stdouts(Path(tmp), algebras,
                                                        commands, env):
                digests.setdefault(label, {})[command] = digest(text)
    path.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")


def record() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in FIXTURE_NAMES:
        for command in COMMANDS:
            text = stdout_of(command, str(FIXTURE_DIR / f"{name}.pbci"))
            fixture_golden(name, command).write_text(text, encoding="utf-8")
        for command in TRANSCRIPTS:
            fixture_golden(name, command).write_text(transcript(name, command),
                                                     encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        for label in CORRUPTIONS:
            text = corrupted_check_stdout(label, Path(tmp))
            fixture_golden(label, "check").write_text(text, encoding="utf-8")
    write_digests(PRODUCT_DIGESTS, [(make_products(), PRODUCT_COMMANDS, PRODUCT_ENV)])
    write_digests(LARGE_DIGESTS, large_groups())
    for path, arg_lists in ((SEARCH_DIGESTS, SEARCH_ARGS),
                            (SEARCH5_DIGESTS, SEARCH5_ARGS)):
        path.write_text(json.dumps(search_digests(arg_lists), indent=2) + "\n",
                        encoding="utf-8")


if __name__ == "__main__":
    record()
