import pytest
from hypothesis import given, settings, strategies as st

from pbci import (
    IncompleteMapError,
    ParseError,
    ShapeError,
    SymbolError,
    parse_algebra,
    parse_selfmap,
    serialize_spec,
    validate,
)
from pbci.formats import format_selfmap

from conftest import FIXTURE_NAMES, fixture_text


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_round_trip_on_fixtures(name):
    spec = parse_algebra(fixture_text(name))
    assert parse_algebra(serialize_spec(spec)) == spec


def test_serialize_is_stable(proper5):
    spec = proper5.to_spec()
    assert serialize_spec(spec) == serialize_spec(spec)


def test_squig_same_copies_arrow():
    spec = parse_algebra(fixture_text("cyclic3"))
    assert spec.squig == spec.arrow


def test_comments_and_blank_lines_ignored():
    text = (
        "# leading comment\n\npbci 1\n"
        "elements: x 1   # trailing comment\n"
        "unit: 1\n\narrow:\n1 1\nx 1\n"
        "squig: same\n# done\n"
    )
    spec = parse_algebra(text)
    assert spec.names == ("x", "1")
    assert validate(spec).size == 2


def test_header_required():
    with pytest.raises(ParseError) as excinfo:
        parse_algebra("elements: a 1\n")
    assert excinfo.value.line == 1


def test_shape_error_reports_line():
    text = fixture_text("proper5").replace("b 1 1 d 1", "b 1 1 d")
    with pytest.raises(ShapeError) as excinfo:
        parse_algebra(text)
    assert excinfo.value.line == 7


def test_symbol_error_in_table():
    text = fixture_text("proper5").replace("b b 1 d 1", "b z 1 d 1")
    with pytest.raises(SymbolError):
        parse_algebra(text)


def test_unknown_unit():
    with pytest.raises(SymbolError):
        parse_algebra("pbci 1\nelements: a 1\nunit: q\narrow:\n1 1\na 1\nsquig: same\n")


def test_duplicate_element_names():
    with pytest.raises(ParseError):
        parse_algebra("pbci 1\nelements: a a 1\nunit: 1\narrow:\n")


def test_missing_rows():
    with pytest.raises(ParseError):
        parse_algebra("pbci 1\nelements: a 1\nunit: 1\narrow:\n1 1\n")


def test_trailing_content_rejected():
    text = fixture_text("cyclic3") + "arrow:\n"
    with pytest.raises(ParseError):
        parse_algebra(text)


def test_selfmap_image_row(proper5):
    assert parse_selfmap("d d d 1 d", proper5) == (3, 3, 3, 4, 3)


def test_selfmap_pairs(proper5):
    assert parse_selfmap("a=a,b=b,c=c,d=d,1=1", proper5) == (0, 1, 2, 3, 4)
    assert parse_selfmap("1=1, d=d, c=1, b=1, a=1", proper5) == (4, 4, 4, 3, 4)


def test_selfmap_incomplete(proper5):
    with pytest.raises(IncompleteMapError):
        parse_selfmap("a=d,b=d", proper5)
    with pytest.raises(IncompleteMapError):
        parse_selfmap("d d d", proper5)
    with pytest.raises(IncompleteMapError):
        parse_selfmap("   ", proper5)


def test_selfmap_unknown_symbol(proper5):
    with pytest.raises(SymbolError):
        parse_selfmap("d d z 1 d", proper5)
    with pytest.raises(SymbolError):
        parse_selfmap("a=z,b=b,c=c,d=d,1=1", proper5)


def test_selfmap_duplicate_assignment(proper5):
    with pytest.raises(ParseError):
        parse_selfmap("a=d,a=b,b=b,c=c,d=d,1=1", proper5)


def test_format_selfmap_round_trip(proper5):
    d = (4, 4, 4, 3, 4)
    assert parse_selfmap(format_selfmap(d, proper5), proper5) == d


# Pieces of the file and map formats, so that generated text also reaches
# the parser's later states, not only its header check.
_FORMAT_TOKENS = ("pbci 1", "pbci", "elements:", "unit:", "arrow:", "squig:",
                  "same", "a", "b", "c", "d", "1", "=", ",", "#", " ", "\n",
                  "\t", "\r", "\x0b", "\u2028")


@st.composite
def _edited_fixture(draw):
    text = fixture_text(draw(st.sampled_from(FIXTURE_NAMES)))
    start = draw(st.integers(0, len(text)))
    stop = draw(st.integers(start, min(len(text), start + 40)))
    filler = draw(st.one_of(st.text(max_size=8),
                            st.sampled_from(_FORMAT_TOKENS)))
    return text[:start] + filler + text[stop:]


_format_texts = st.one_of(
    st.text(),
    st.lists(st.sampled_from(_FORMAT_TOKENS), max_size=60).map("".join),
    _edited_fixture(),
)


@given(_format_texts)
@settings(max_examples=300, deadline=None)
def test_parse_algebra_raises_only_parse_errors(text):
    try:
        parse_algebra(text)
    except ParseError:
        pass


@given(st.one_of(st.text(),
                 st.lists(st.sampled_from(_FORMAT_TOKENS), max_size=12).map("".join)))
@settings(max_examples=300, deadline=None)
def test_parse_selfmap_raises_only_parse_errors(proper5, text):
    try:
        parse_selfmap(text, proper5)
    except ParseError:
        pass
