"""Golden outputs: `analyze --json` and `verify` stdout compared byte for byte
with recorded copies, so a refactor that changes any output fails here.

The five fixtures are stored in full under ``tests/golden/``; the four
products of ``conftest.PRODUCT_LABELS`` (n = 9 to 15) as sha256 digests of
their stdout.  After an intended output change, record them again with
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

from conftest import FIXTURE_DIR, FIXTURE_NAMES, PRODUCT_LABELS, make_products

GOLDEN_DIR = Path(__file__).parent / "golden"
PRODUCT_DIGESTS = GOLDEN_DIR / "products.sha256.json"
COMMANDS = {"analyze": ("analyze", "--json"), "verify": ("verify",)}
SUFFIX = {"analyze": "analyze.json", "verify": "verify.txt"}
PRODUCT_ENV = {"PBCI_MAX_SIZE": "16"}


def stdout_of(command: str, path: str, env=None) -> str:
    verb, *flags = COMMANDS[command]
    result = CliRunner().invoke(main, [verb, path, *flags], env=env)
    assert result.exit_code == 0, result.output
    return result.stdout


def fixture_golden(name: str, command: str) -> Path:
    return GOLDEN_DIR / f"{name}.{SUFFIX[command]}"


def product_stdouts(directory: Path):
    """(label, command, stdout) for every product, via a file in directory;
    the caps are raised to cover n = 15."""
    for label, algebra in make_products().items():
        path = directory / "product.pbci"
        path.write_text(serialize_spec(algebra.to_spec()), encoding="utf-8")
        for command in COMMANDS:
            yield label, command, stdout_of(command, str(path), PRODUCT_ENV)


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
    for label, command, text in product_stdouts(tmp_path):
        assert digest(text) == expected[label][command], (label, command)


def record() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in FIXTURE_NAMES:
        for command in COMMANDS:
            text = stdout_of(command, str(FIXTURE_DIR / f"{name}.pbci"))
            fixture_golden(name, command).write_text(text, encoding="utf-8")
    digests: dict[str, dict[str, str]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for label, command, text in product_stdouts(Path(tmp)):
            digests.setdefault(label, {})[command] = digest(text)
    PRODUCT_DIGESTS.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
