"""The canonical line-oriented algebra file format, plus self-map parsing.

Format (UTF-8, '#' starts a comment, blank lines ignored)::

    pbci 1
    elements: a b c d 1
    unit: 1
    arrow:
    1 1 1 d 1
    b 1 1 d 1
    b b 1 d 1
    d d d 1 d
    a b c d 1
    squig:
    ... n rows, or the single token "same" ...

Row i, column j of a table is e_i op e_j in declaration order (row = left
operand), matching how such tables are usually printed.
"""

from __future__ import annotations

import re

from .core import AlgebraSpec, PseudoBciAlgebra
from .errors import IncompleteMapError, ParseError, ShapeError, SymbolError

FORMAT_HEADER = "pbci 1"

_TOKEN = re.compile(r"\S+")


def _column(body: str, k: int) -> int:
    """The 1-based column of the k-th whitespace token of body; only error
    paths need it."""
    return list(_TOKEN.finditer(body))[k].start() + 1


def _significant_lines(text: str) -> list[tuple[int, str, list[str]]]:
    """(line number, text before any comment, its tokens) per line with
    tokens."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = body.split()
        if tokens:
            out.append((lineno, body, tokens))
    return out


def parse_algebra(text: str) -> AlgebraSpec:
    """Parse the canonical format into a raw (unvalidated) AlgebraSpec.

    Lines are split at whitespace and each table row is checked with one
    set test; a token's column is found only for the error that names it.
    """
    lines = _significant_lines(text)
    pos = 0

    def need_line(what: str) -> tuple[int, str, list[str]]:
        nonlocal pos
        if pos >= len(lines):
            last = lines[-1][0] if lines else 1
            raise ParseError(f"unexpected end of input, expected {what}", line=last)
        entry = lines[pos]
        pos += 1
        return entry

    lineno, body, _ = need_line("format header")
    if body.strip() != FORMAT_HEADER:
        raise ParseError(f"expected {FORMAT_HEADER!r} header, got {body.strip()!r}",
                         line=lineno)

    lineno, body, tokens = need_line("elements declaration")
    if tokens[0] != "elements:":
        raise ParseError("expected 'elements:' line", line=lineno, column=_column(body, 0))
    names = tuple(tokens[1:])
    if not names:
        raise ParseError("no elements declared", line=lineno)
    n = len(names)
    known = set(names)
    if len(known) != n:
        dupes = {t for t in names if names.count(t) > 1}
        raise ParseError(f"duplicate element name {sorted(dupes)[0]!r}", line=lineno)

    lineno, body, tokens = need_line("unit declaration")
    if tokens[0] != "unit:" or len(tokens) != 2:
        raise ParseError("expected 'unit: <element>' line", line=lineno,
                         column=_column(body, 0))
    unit = tokens[1]
    if unit not in known:
        raise SymbolError(f"unit {unit!r} is not a declared element",
                          line=lineno, column=_column(body, 1))

    def read_table(label: str, allow_same: bool):
        lineno, body, tokens = need_line(f"'{label}:' header")
        if tokens[0] != f"{label}:":
            raise ParseError(f"expected '{label}:' line", line=lineno,
                             column=_column(body, 0))
        if allow_same and tokens[1:] == ["same"]:
            return "same"
        if len(tokens) > 1:
            raise ParseError(f"unexpected tokens after '{label}:'",
                             line=lineno, column=_column(body, 1))
        rows = []
        for _ in range(n):
            lineno, body, tokens = need_line(f"{label} table row")
            if tokens == ["same"] and allow_same and not rows:
                return "same"
            if len(tokens) != n:
                raise ShapeError(
                    f"{label} row has {len(tokens)} entries, expected {n}", line=lineno)
            if not known.issuperset(tokens):
                k = next(k for k, tok in enumerate(tokens) if tok not in known)
                raise SymbolError(f"undeclared element {tokens[k]!r}",
                                  line=lineno, column=_column(body, k))
            rows.append(tuple(tokens))
        return tuple(rows)

    arrow = read_table("arrow", allow_same=False)
    squig = read_table("squig", allow_same=True)
    if squig == "same":
        squig = arrow
    if pos < len(lines):
        lineno, body, tokens = lines[pos]
        raise ParseError(f"unexpected trailing content {body.strip()!r}", line=lineno)
    return AlgebraSpec(names=names, unit=unit, arrow=arrow, squig=squig)


def serialize_spec(spec: AlgebraSpec) -> str:
    """Canonical text for a spec; parse_algebra(serialize_spec(s)) == s."""
    lines = [FORMAT_HEADER,
             "elements: " + " ".join(spec.names),
             "unit: " + spec.unit,
             "arrow:"]
    lines.extend(" ".join(row) for row in spec.arrow)
    lines.append("squig:")
    lines.extend(" ".join(row) for row in spec.squig)
    return "\n".join(lines) + "\n"


def _named_splits(part: str, index: dict[str, int]) -> list[tuple[str, str]]:
    """The splits of part at one '=' that leave a declared name on each side."""
    splits = [(part[:k], part[k + 1:]) for k, char in enumerate(part) if char == "="]
    return [pair for pair in splits if pair[0] in index and pair[1] in index]


def parse_selfmap(text: str, algebra: PseudoBciAlgebra) -> tuple[int, ...]:
    """Parse a self-map, either as an image row or as 'x=y' pairs.

    Image-row form lists one image per element in declaration order
    ("d d d 1 d"); pair form assigns images by name ("a=d,b=d,..."), comma
    or whitespace separated.  Every element must receive exactly one image.
    Text whose whitespace tokens are n declared names is an image row, even
    when a name holds '='; other text holding '=' is read as pairs.  A
    whitespace token that one '=' splits into two declared names is a pair
    even when a name holds a comma; other tokens are split at commas.
    """
    n = algebra.size
    names = algebra.names
    index = {name: i for i, name in enumerate(names)}
    stripped = text.strip()
    if not stripped:
        raise IncompleteMapError("empty self-map description", line=1)
    tokens = stripped.split()

    if "=" in stripped and not (len(tokens) == n
                                and all(tok in index for tok in tokens)):
        images: list[int | None] = [None] * n
        parts = [part for token in tokens
                 for part in ([token] if _named_splits(token, index)
                              else token.split(","))]
        for part in filter(None, parts):
            if "=" not in part:
                raise ParseError(f"expected 'name=image', got {part!r}", line=1)
            # a name may hold '=': split where both sides are names, else
            # report the first split
            named = _named_splits(part, index)
            if len(named) > 1:
                raise ParseError(f"ambiguous pair {part!r}: more than one '=' "
                                 "splits it into declared names", line=1)
            src, dst = named[0] if named else part.split("=", 1)
            if src not in index:
                raise SymbolError(f"unknown element {src!r}", line=1)
            if dst not in index:
                raise SymbolError(f"unknown element {dst!r}", line=1)
            if images[index[src]] is not None:
                raise ParseError(f"element {src!r} assigned twice", line=1)
            images[index[src]] = index[dst]
        missing = [names[i] for i, v in enumerate(images) if v is None]
        if missing:
            raise IncompleteMapError(
                "missing image for " + ", ".join(missing), line=1)
        return tuple(images)  # type: ignore[arg-type]

    if len(tokens) != n:
        raise IncompleteMapError(
            f"image row has {len(tokens)} entries, expected {n}", line=1)
    for tok in tokens:
        if tok not in index:
            raise SymbolError(f"unknown element {tok!r}", line=1)
    return tuple(index[tok] for tok in tokens)


def format_selfmap(d: tuple[int, ...], algebra: PseudoBciAlgebra) -> str:
    """Render a self-map as its image row in declaration order."""
    return " ".join(algebra.names[v] for v in d)
