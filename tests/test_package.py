"""The package surface: its public names and the layers that run on first use."""

import importlib
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import pbci

SRC = str(Path(__file__).parent.parent / "src")
LAZY_LAYERS = ("derivations", "dsystems", "theorems", "report", "search")


def run_python(code: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter on this checkout."""
    result = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                            capture_output=True, text=True, timeout=120,
                            env={**os.environ, "PYTHONPATH": SRC})
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_every_public_name_is_one_object_by_every_route():
    for name in pbci.__all__:
        obj = getattr(pbci, name)
        namespace: dict = {}
        exec(f"from pbci import {name}", namespace)
        assert namespace[name] is obj, name
        home = getattr(obj, "__module__", None)
        if home and home.startswith("pbci."):
            assert getattr(sys.modules[home], name) is obj, name


def test_layers_are_modules_and_search_is_the_function():
    for layer in ("core", "errors", "formats", "limits", *LAZY_LAYERS):
        assert isinstance(sys.modules[f"pbci.{layer}"], types.ModuleType)
    for layer in ("core", "derivations", "dsystems", "theorems", "report"):
        assert getattr(pbci, layer) is sys.modules[f"pbci.{layer}"]
    module = importlib.import_module("pbci.search")
    assert isinstance(module, types.ModuleType)
    assert pbci.search is module.search
    assert callable(pbci.search)


def test_dir_covers_all_and_unknown_names_raise():
    assert set(pbci.__all__) <= set(dir(pbci))
    with pytest.raises(AttributeError):
        pbci.no_such_name
    with pytest.raises(ImportError):
        exec("from pbci import no_such_name", {})


# The race: 8 threads wait at a barrier and then read one layer that no
# thread has read yet, each by one of three routes.  The layers are raced in
# an order in which each is still unread when its turn comes (theorems
# imports derivations and dsystems, report imports theorems).
RACE = """
    import sys
    import threading

    sys.setswitchinterval(1e-6)
    import pbci

    ROUTE = {route!r}
    FIRST_READ = [("derivations", "enumerate_derivations"),
                  ("dsystems", "enumerate_ds"), ("search", "brute_force_search"),
                  ("theorems", "theorem_suite"), ("report", "build_report")]

    def read(layer, name):
        if ROUTE == "package":
            return getattr(pbci, name)
        if ROUTE == "from-import":
            namespace = {{}}
            exec(f"from pbci.{{layer}} import {{name}}", namespace)
            return namespace[name]
        return getattr(sys.modules[f"pbci.{{layer}}"], name)

    failures = []
    for layer, name in FIRST_READ:
        got = []
        barrier = threading.Barrier(8)

        def race():
            barrier.wait(timeout=60)
            try:
                got.append(read(layer, name))
            except BaseException as exc:
                failures.append(f"{{layer}}: {{type(exc).__name__}}: {{exc}}")

        threads = [threading.Thread(target=race) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads), layer
        if len(got) == 8 and any(value is not got[0] for value in got):
            failures.append(f"{{layer}}: threads read different objects")
    print(failures)
"""


@pytest.mark.parametrize("route", ["package", "from-import", "module"])
def test_first_use_of_a_layer_is_thread_safe(route):
    assert run_python(RACE.format(route=route)).strip() == "[]"
