"""Golden outputs: CLI stdout compared byte for byte with recorded copies, so
a refactor that changes any output fails here.

- The five fixtures: `analyze --json`, `verify`, `check` and
  `quotient --by K` stdout, stored in full under ``tests/golden/``.
- The four products of ``conftest.PRODUCT_LABELS`` (n = 9 to 15):
  `analyze --json` and `verify` stdout as sha256 digests.
- The four products of ``conftest.LARGE_PRODUCT_LABELS`` (n = 25 to 36):
  `check` and `quotient --by K` stdout as sha256 digests.
- Three corrupted fixtures: `check` stdout in full, with exit code 1, which
  pins every violation line and its order.

After an intended output change, record them again with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

from pbci import serialize_spec
from pbci.cli import main

from conftest import (FIXTURE_DIR, FIXTURE_NAMES, LARGE_PRODUCT_LABELS,
                      PRODUCT_LABELS, fixture_text, make_large_products,
                      make_products)

GOLDEN_DIR = Path(__file__).parent / "golden"
PRODUCT_DIGESTS = GOLDEN_DIR / "products.sha256.json"
LARGE_DIGESTS = GOLDEN_DIR / "large.sha256.json"
COMMANDS = {"analyze": ("analyze", "--json"), "verify": ("verify",),
            "check": ("check",), "quotient": ("quotient", "--by", "K")}
SUFFIX = {"analyze": "analyze.json", "verify": "verify.txt",
          "check": "check.txt", "quotient": "quotient.txt"}
PRODUCT_COMMANDS = ("analyze", "verify")
LARGE_COMMANDS = ("check", "quotient")
PRODUCT_ENV = {"PBCI_MAX_SIZE": "16"}
LARGE_ENV = {"PBCI_MAX_SIZE": "36"}

# label: (fixture, text replaced once, replacement); each breaks the axioms
CORRUPTIONS = {
    # 1 -> a = b: psBCI3
    "proper5-unit-row": ("proper5", "a b c d 1\nsquig:", "b b c d 1\nsquig:"),
    # 0 -> a = 1 as well as a -> 0 = 1: psBCI5, and psBCI1 with it
    "bck5-antisymmetry": ("bck5", "arrow:\n1 1 1 1 1\n0 1 b 1 1",
                          "arrow:\n1 1 1 1 1\n1 1 b 1 1"),
    # a ~> b and a ~> c swapped: psBCI1 and psBCI2
    "group6-swapped-squig": ("group6", "squig:\n1 c b e d a",
                             "squig:\n1 b c e d a"),
}


def stdout_of(command: str, path: str, env=None) -> str:
    verb, *flags = COMMANDS[command]
    result = CliRunner().invoke(main, [verb, path, *flags], env=env)
    assert result.exit_code == 0, result.output
    return result.stdout


def corrupted_check_stdout(label: str, directory: Path) -> str:
    """`check` stdout on a corrupted fixture, written as <label>.pbci in
    directory and named by that relative path; exit code 1 is asserted."""
    name, old, new = CORRUPTIONS[label]
    text = fixture_text(name)
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


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_stdout_matches_golden(name, command):
    expected = fixture_golden(name, command).read_text(encoding="utf-8")
    assert stdout_of(command, str(FIXTURE_DIR / f"{name}.pbci")) == expected


def test_product_stdout_matches_golden_digests(tmp_path):
    expected = json.loads(PRODUCT_DIGESTS.read_text(encoding="utf-8"))
    assert sorted(expected) == sorted(PRODUCT_LABELS)
    for label, command, text in product_stdouts(
            tmp_path, make_products(), PRODUCT_COMMANDS, PRODUCT_ENV):
        assert digest(text) == expected[label][command], (label, command)


def test_large_product_stdout_matches_golden_digests(tmp_path):
    expected = json.loads(LARGE_DIGESTS.read_text(encoding="utf-8"))
    assert sorted(expected) == sorted(LARGE_PRODUCT_LABELS)
    for label, command, text in product_stdouts(
            tmp_path, make_large_products(), LARGE_COMMANDS, LARGE_ENV):
        assert digest(text) == expected[label][command], (label, command)


@pytest.mark.parametrize("label", CORRUPTIONS)
def test_corrupted_check_stdout_matches_golden(label, tmp_path):
    expected = fixture_golden(label, "check").read_text(encoding="utf-8")
    assert corrupted_check_stdout(label, tmp_path) == expected


def write_digests(path: Path, algebras, commands, env) -> None:
    digests: dict[str, dict[str, str]] = {}
    with tempfile.TemporaryDirectory() as tmp:
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
    with tempfile.TemporaryDirectory() as tmp:
        for label in CORRUPTIONS:
            text = corrupted_check_stdout(label, Path(tmp))
            fixture_golden(label, "check").write_text(text, encoding="utf-8")
    write_digests(PRODUCT_DIGESTS, make_products(), PRODUCT_COMMANDS, PRODUCT_ENV)
    write_digests(LARGE_DIGESTS, make_large_products(), LARGE_COMMANDS, LARGE_ENV)


if __name__ == "__main__":
    record()
