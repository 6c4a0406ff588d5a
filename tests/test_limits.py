"""The size caps: each row of ``limits.CAPS`` checked through the public
entry point it guards, with the one message every cap error carries."""

import pytest

from pbci import (EnumerationCapExceeded, SearchCapExceeded, StructuralError,
                  enumerate_ds, validate)
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
