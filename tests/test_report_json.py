"""The JSON renderer against stdlib json, and the per-map property records."""

import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from pbci import derivations, validate
from pbci.report import build_report, render_json
from pbci.search import SearchQuery, search

from conftest import FIXTURE_NAMES, load_algebra


def oracle(value) -> str:
    return json.dumps(value, indent=2) + "\n"


# quotes, backslashes, control characters, non-ASCII, astral code points and
# a lone surrogate among ASCII letters, or anything that text() draws
AWKWARD = 'ab "\\\n\t\x00\x1f\x7fé\uffff\U0001f600\U0010ffff\ud800'
strings = st.one_of(st.text(max_size=12), st.text(alphabet=AWKWARD, max_size=12))
ints = st.one_of(st.integers(),
                 st.integers(min_value=2**64, max_value=2**200),
                 st.integers(min_value=-2**200, max_value=-2**63 - 1))
scalars = st.one_of(strings, ints, st.booleans(), st.none())
values = st.recursive(
    scalars,
    lambda children: st.one_of(st.lists(children, max_size=6),
                               st.lists(strings, max_size=6),
                               st.dictionaries(strings, children, max_size=6)),
    max_leaves=30)


@given(values)
@settings(max_examples=300, deadline=None)
def test_render_json_matches_stdlib(value):
    assert render_json(value) == oracle(value)


@pytest.mark.parametrize("value", [
    1.5, {"a": 1.5}, [1, 2.0], ("a",), {"a": ("b",)}, ["a", ("b",)],
    ["a", "b", 3.0], {1: "a"}, {"a": {None: 1}}])
def test_render_json_rejects_other_types(value):
    with pytest.raises(TypeError):
        render_json(value)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_reports_render_as_stdlib(name):
    report = build_report(load_algebra(name))
    assert render_json(report) == oracle(report)


def test_size4_model_reports_render_as_stdlib():
    specs = search(SearchQuery(size=4))
    assert len(specs) == 119
    for spec in specs:
        report = build_report(validate(spec))
        assert render_json(report) == oracle(report)


def containers(value):
    """Every dict and list inside value, value included."""
    if isinstance(value, dict):
        yield value
        for item in value.values():
            yield from containers(item)
    elif isinstance(value, list):
        yield value
        for item in value:
            yield from containers(item)


def test_report_computes_one_record_per_distinct_map(monkeypatch):
    calls = []
    original = derivations.map_properties

    def counted(A, d):
        calls.append(d)
        return original(A, d)

    # map_properties is imported by name, so count it in every module holding it
    for module in [mod for name, mod in sys.modules.items()
                   if name.partition(".")[0] == "pbci"
                   and getattr(mod, "map_properties", None) is original]:
        monkeypatch.setattr(module, "map_properties", counted)
    report = build_report(load_algebra("proper5"))
    entries = [entry for block in report["derivations"] for entry in block["maps"]]
    distinct = {tuple(entry["images"]) for entry in entries}
    assert len(entries) > len(distinct)  # the classes share maps
    assert len(calls) == len(set(calls)) == len(distinct)
    held = [id(obj) for entry in entries for obj in containers(entry)]
    assert len(held) == len(set(held))
