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


def _significant_lines(text: str) -> list[tuple[int, str, list[tuple[int, str]]]]:
    """(line number, stripped text, [(column, token), ...]) per non-blank line."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = [(m.start() + 1, m.group()) for m in _TOKEN.finditer(body)]
        if tokens:
            out.append((lineno, body.strip(), tokens))
    return out


def parse_algebra(text: str) -> AlgebraSpec:
    """Parse the canonical format into a raw (unvalidated) AlgebraSpec."""
    lines = _significant_lines(text)
    pos = 0

    def need_line(what: str) -> tuple[int, str, list[tuple[int, str]]]:
        nonlocal pos
        if pos >= len(lines):
            last = lines[-1][0] if lines else 1
            raise ParseError(f"unexpected end of input, expected {what}", line=last)
        entry = lines[pos]
        pos += 1
        return entry

    lineno, body, _ = need_line("format header")
    if body != FORMAT_HEADER:
        raise ParseError(f"expected {FORMAT_HEADER!r} header, got {body!r}", line=lineno)

    lineno, body, tokens = need_line("elements declaration")
    if tokens[0][1] != "elements:":
        raise ParseError("expected 'elements:' line", line=lineno, column=tokens[0][0])
    names = tuple(t for _, t in tokens[1:])
    if not names:
        raise ParseError("no elements declared", line=lineno)
    dupes = {t for t in names if names.count(t) > 1}
    if dupes:
        raise ParseError(f"duplicate element name {sorted(dupes)[0]!r}", line=lineno)
    n = len(names)
    known = set(names)

    lineno, body, tokens = need_line("unit declaration")
    if tokens[0][1] != "unit:" or len(tokens) != 2:
        raise ParseError("expected 'unit: <element>' line", line=lineno, column=tokens[0][0])
    unit = tokens[1][1]
    if unit not in known:
        raise SymbolError(f"unit {unit!r} is not a declared element",
                          line=lineno, column=tokens[1][0])

    def read_table(label: str, allow_same: bool):
        lineno, body, tokens = need_line(f"'{label}:' header")
        if tokens[0][1] != f"{label}:":
            raise ParseError(f"expected '{label}:' line", line=lineno, column=tokens[0][0])
        rest = tokens[1:]
        if rest and allow_same and len(rest) == 1 and rest[0][1] == "same":
            return "same"
        if rest:
            raise ParseError(f"unexpected tokens after '{label}:'",
                             line=lineno, column=rest[0][0])
        rows = []
        for _ in range(n):
            lineno, body, tokens = need_line(f"{label} table row")
            if len(tokens) == 1 and tokens[0][1] == "same" and allow_same and not rows:
                return "same"
            if len(tokens) != n:
                raise ShapeError(
                    f"{label} row has {len(tokens)} entries, expected {n}", line=lineno)
            for col, tok in tokens:
                if tok not in known:
                    raise SymbolError(f"undeclared element {tok!r}",
                                      line=lineno, column=col)
            rows.append(tuple(t for _, t in tokens))
        return tuple(rows)

    arrow = read_table("arrow", allow_same=False)
    squig = read_table("squig", allow_same=True)
    if squig == "same":
        squig = arrow
    if pos < len(lines):
        lineno, body, tokens = lines[pos]
        raise ParseError(f"unexpected trailing content {body!r}", line=lineno)
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
