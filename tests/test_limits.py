"""The size caps: each row of ``limits.CAPS`` checked through the public
entry point it guards, with the one message every cap error carries."""

import time

import pytest
from click.testing import CliRunner

from pbci import (AlgebraSpec, EnumerationCapExceeded, SearchCapExceeded,
                  StructuralError, enumerate_ds, serialize_spec, validate)
from pbci.cli import main
from pbci.derivations import DerivationClass, enumerate_derivations
from pbci.limits import CAPS
from pbci.search import SearchQuery, search

from conftest import flat, flat_spec

# what: (default, exception, input of size n, the entry point on it)
ROWS = {
    "universe": (64, StructuralError, flat_spec, validate),
    "enumeration": (12, EnumerationCapExceeded, flat,
                    lambda A: enumerate_derivations(A, DerivationClass.IMPLICATIVE_I)),
    "subset-enumeration": (16, EnumerationCapExceeded, flat, enumerate_ds),
    "search": (6, SearchCapExceeded, lambda n: SearchQuery(size=n), search),
}


def message(n, what, cap):
    return f"size {n} exceeds {what} cap {cap}; set PBCI_MAX_SIZE to opt in"


def test_one_row_per_entry_point():
    assert sorted(CAPS) == sorted(ROWS)


@pytest.mark.parametrize("what", ROWS)
def test_cap_row(what, monkeypatch):
    default, error, make, run = ROWS[what]
    assert CAPS[what] == (default, error)
    # inputs are built before PBCI_MAX_SIZE is set, since flat() validates
    big, small = make(default + 1), make(3)
    monkeypatch.delenv("PBCI_MAX_SIZE", raising=False)
    with pytest.raises(error) as excinfo:
        run(big)
    assert str(excinfo.value) == message(default + 1, what, default)

    monkeypatch.setenv("PBCI_MAX_SIZE", "2")
    with pytest.raises(error) as excinfo:
        run(small)
    assert str(excinfo.value) == message(3, what, 2)
    monkeypatch.setenv("PBCI_MAX_SIZE", "3")
    run(small)


def test_max_size_wins_over_the_variable(monkeypatch):
    spec = flat_spec(3)
    monkeypatch.setenv("PBCI_MAX_SIZE", "2")
    assert validate(spec, max_size=3).size == 3
    monkeypatch.setenv("PBCI_MAX_SIZE", "3")
    with pytest.raises(StructuralError) as excinfo:
        validate(spec, max_size=2)
    assert str(excinfo.value) == message(3, "universe", 2)


# --- the element limit: bytes.translate tables have 256 entries -------------

LIMIT = "size 257 exceeds the limit of 256 elements, which no cap lifts"


def xor_spec(bits):
    """The bit strings of length bits under xor, as the BCI algebra
    x -> y = x ~> y = x xor y with unit 0: a group, so p-semisimple."""
    n = 1 << bits
    names = tuple(map(str, range(n)))
    table = tuple(tuple(names[x ^ y] for y in range(n)) for x in range(n))
    return AlgebraSpec(names=names, unit="0", arrow=table, squig=table)


def test_the_largest_algebra_validates_and_classifies():
    # 256 elements, the most the byte tables hold; every element is an
    # atom and the group is abelian, so no crosscheck stops early
    start = time.process_time()
    A = validate(xor_spec(8), max_size=256)
    report = A.classification
    elapsed = time.process_time() - start
    assert A.size == 256
    assert report.is_bci and report.is_p_semisimple
    assert report.is_medial_arrow and report.is_medial_squig
    assert elapsed < 2


def test_no_cap_lifts_the_element_limit(monkeypatch):
    spec = flat_spec(257)
    monkeypatch.setenv("PBCI_MAX_SIZE", "1000")
    for run in (validate, lambda s: validate(s, max_size=1000),
                AlgebraSpec.check_structure):
        with pytest.raises(StructuralError) as excinfo:
            run(spec)
        assert str(excinfo.value) == LIMIT


def test_cli_refuses_a_table_above_the_element_limit(tmp_path):
    path = tmp_path / "flat257.pbci"
    path.write_text(serialize_spec(flat_spec(257)))
    result = CliRunner().invoke(main, ["check", str(path)],
                                env={"PBCI_MAX_SIZE": "1000"})
    assert result.exit_code == 2
    assert result.output.splitlines() == [f"error: {path}: {LIMIT}"]
