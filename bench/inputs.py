"""Benchmark inputs: fixture tables, their direct products, seeded orders.

The benchmark builds its own inputs so that they stay the same whatever the
program under test does: it reads the `pbci 1` tables in ``data/`` with a
reader of its own, forms direct products, and permutes the declaration
order of each table with a seeded generator.  Element names travel with
their rows and columns, so every order describes the same named algebra.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from math import factorial
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"


@dataclass(frozen=True)
class Table:
    """A named pseudo-BCI table pair in some declaration order."""

    names: tuple[str, ...]
    unit: str
    arrow: tuple[tuple[str, ...], ...]
    squig: tuple[tuple[str, ...], ...]

    @property
    def size(self) -> int:
        return len(self.names)

    def text(self) -> str:
        """The table in the program's file format, both tables written out."""
        lines = ["pbci 1", "elements: " + " ".join(self.names), "unit: " + self.unit,
                 "arrow:"]
        lines += [" ".join(row) for row in self.arrow]
        lines.append("squig:")
        lines += [" ".join(row) for row in self.squig]
        return "\n".join(lines) + "\n"

    def permuted(self, order: tuple[int, ...]) -> "Table":
        """The same algebra declared in the order names[order[0]], ..."""
        def perm(table):
            return tuple(tuple(table[i][j] for j in order) for i in order)
        return Table(tuple(self.names[i] for i in order), self.unit,
                     perm(self.arrow), perm(self.squig))


def parse_tables(text: str) -> list[Table]:
    """Every `pbci 1` block in text; `squig: same` copies the arrow table."""
    lines = [raw.split("#", 1)[0].split() for raw in text.splitlines()]
    lines = [tokens for tokens in lines if tokens]
    tables = []
    pos = 0
    while pos < len(lines):
        if lines[pos] != ["pbci", "1"]:
            raise ValueError(f"expected 'pbci 1', got {' '.join(lines[pos])!r}")
        names = tuple(lines[pos + 1][1:])
        unit = lines[pos + 2][1]
        n = len(names)
        arrow = tuple(tuple(row) for row in lines[pos + 4:pos + 4 + n])
        pos += 4 + n
        if lines[pos][1:] == ["same"]:
            squig = arrow
            pos += 1
        else:
            squig = tuple(tuple(row) for row in lines[pos + 1:pos + 1 + n])
            pos += 1 + n
        tables.append(Table(names, unit, arrow, squig))
    return tables


def load(name: str) -> Table:
    (table,) = parse_tables((DATA / f"{name}.pbci").read_text(encoding="utf-8"))
    return table


def product(*factors: Table) -> Table:
    """Direct product; element (x, y) is named "x.y", the unit is (1, 1)."""
    first, *rest = factors
    if not rest:
        return first
    a, b = first, product(*rest)

    def pair(u: str, v: str) -> str:
        return f"{u}.{v}"

    names = tuple(pair(x, y) for x in a.names for y in b.names)
    ia = {x: i for i, x in enumerate(a.names)}
    ib = {y: i for i, y in enumerate(b.names)}

    def table(ta, tb):
        return tuple(
            tuple(pair(ta[ia[x1]][ia[x2]], tb[ib[y1]][ib[y2]])
                  for x2 in a.names for y2 in b.names)
            for x1 in a.names for y1 in b.names)

    return Table(names, pair(a.unit, b.unit), table(a.arrow, b.arrow),
                 table(a.squig, b.squig))


def named(label: str) -> Table:
    """A table by label: a data file name, or factors joined by '*'."""
    return product(*(load(part) for part in label.split("*")))


@functools.cache
def pool_size4() -> tuple[tuple[str, Table], ...]:
    """The 119 labelled 4-element models, labelled size4-000 ... size4-118."""
    tables = parse_tables((DATA / "size4.pbci").read_text(encoding="utf-8"))
    return tuple((f"size4-{i:03d}", t) for i, t in enumerate(tables))


class OrderSource:
    """Seeded declaration orders that never repeat for one table.

    ``next(label, n)`` returns a fresh permutation of range(n) for that
    label, or None once all n! orders have been handed out.  The stream for
    a label depends only on the seed and the label.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._rngs: dict[str, random.Random] = {}
        self._used: dict[str, set[tuple[int, ...]]] = {}

    def next(self, label: str, n: int) -> tuple[int, ...] | None:
        used = self._used.setdefault(label, set())
        if len(used) == factorial(n):
            return None
        rng = self._rngs.setdefault(label, random.Random(f"{self.seed}/{label}"))
        while True:
            order = list(range(n))
            rng.shuffle(order)
            key = tuple(order)
            if key not in used:
                used.add(key)
                return key
