import pytest
from hypothesis import given, settings, strategies as st

from pbci import (
    AlgebraSpec,
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


def test_squig_same_row_after_the_header_copies_arrow():
    header_form = "pbci 1\nelements: a 1\nunit: 1\narrow:\n1 1\na 1\nsquig: same\n"
    row_form = header_form.replace("squig: same", "squig:\nsame")
    assert parse_algebra(row_form) == parse_algebra(header_form)
    assert parse_algebra(row_form).squig == (("1", "1"), ("a", "1"))


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


@pytest.mark.parametrize("old, new, token, error, message", [
    # the column counts every character before the token, tabs included
    ("b b 1 d 1", "b \t b  z d 1", "z", SymbolError, "undeclared element 'z'"),
    ("unit: 1", "unit:\t  q", "q", SymbolError, "unit 'q' is not a declared element"),
    ("unit: 1", "  units: 1", "units:", ParseError, "expected 'unit: <element>' line"),
    ("elements: a b c d 1", " \telems: a b c d 1", "elems:", ParseError,
     "expected 'elements:' line"),
    ("squig:", "  squigs:", "squigs:", ParseError, "expected 'squig:' line"),
    ("arrow:", "arrow:  \t1 1", "1", ParseError, "unexpected tokens after 'arrow:'"),
])
def test_parse_errors_give_the_column_of_their_token(old, new, token, error, message):
    text = fixture_text("proper5").replace(old, new, 1)
    with pytest.raises(error, match=message) as excinfo:
        parse_algebra(text)
    assert excinfo.value.line == text.splitlines().index(new) + 1
    assert excinfo.value.column == new.index(token) + 1


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
    with pytest.raises(ParseError, match="unexpected tokens after 'arrow:'") as excinfo:
        parse_algebra("pbci 1\nelements: a 1\nunit: 1\narrow: 1 1\n")
    assert (excinfo.value.line, excinfo.value.column) == (4, 8)


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


def rename(algebra, renames):
    """algebra with each element in renames given its new name."""
    spec = algebra.to_spec()

    def swap(symbol):
        return renames.get(symbol, symbol)

    return validate(AlgebraSpec(
        names=tuple(map(swap, spec.names)), unit=swap(spec.unit),
        arrow=tuple(tuple(map(swap, row)) for row in spec.arrow),
        squig=tuple(tuple(map(swap, row)) for row in spec.squig)))


def test_selfmap_pairs_split_where_both_sides_are_names(proper5):
    # proper5 with a named "x", b named "y=1" and d named "x=y"
    renamed = rename(proper5, {"a": "x", "b": "y=1", "d": "x=y"})
    assert parse_selfmap("x=x=y y=1=1 c=x=y x=y=x 1=1", renamed) == (
        3, 4, 3, 0, 4)
    # "x=y=1" reads as x -> y=1 and as x=y -> 1
    with pytest.raises(ParseError, match="ambiguous pair 'x=y=1'"):
        parse_selfmap("x=y=1 y=1=1 c=c x=y=x=y 1=1", renamed)


def test_selfmap_pairs_with_a_name_holding_a_comma(proper5):
    # proper5 with d named "x,y": a whitespace token that '=' splits into
    # two declared names is one pair; other tokens are comma lists
    renamed = rename(proper5, {"d": "x,y"})
    expected = (3, 3, 3, 4, 3)
    assert parse_selfmap("a=x,y b=x,y c=x,y x,y=1 1=x,y", renamed) == expected
    assert parse_selfmap("x,y x,y x,y 1 x,y", renamed) == expected
    assert parse_selfmap("a=1,b=1,c=1 x,y=x,y 1=1", renamed) == (4, 4, 4, 3, 4)
    with pytest.raises(SymbolError, match="unknown element 'x'"):
        parse_selfmap("a=x,b=1,c=1 x,y=1 1=1", renamed)


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
