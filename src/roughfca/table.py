"""Information tables: loading, validation and partitions.

An information table is a finite universe of labelled objects, a list of
attribute declarations, and a total value assignment.  Numeric attributes
carry a declared admissible range [1, range_max]; nominal attributes hold
free tokens.  Partitions of the universe (from exact value agreement or from
similarity cuts, see :mod:`roughfca.approx`) are represented uniformly by
:class:`Partition`.
"""

from __future__ import annotations

import csv
import io
import sys
from dataclasses import dataclass, field
from numbers import Real
from typing import Iterable, Iterator, Mapping, Sequence


class TableError(ValueError):
    """Raised for malformed table definitions or data files."""


@dataclass(frozen=True)
class AttributeSpec:
    """Declaration of a single column.

    name is a string.  kind is "numeric" or "nominal".  Numeric columns
    require a finite range_max >= 1 (a number, not a bool) and every cell
    must lie in [1, range_max].  ladder optionally fixes the category order
    (best label first) used when the column is categorised.
    drop_if_indiscernible controls whether a column whose similarity
    partition has a single block is dropped from ordered tables.
    """

    name: str
    kind: str = "numeric"
    range_max: float | None = None
    ladder: tuple[str, ...] | None = None
    drop_if_indiscernible: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise TableError(f"attribute name must be a string, got {self.name!r}")
        if self.kind not in ("numeric", "nominal"):
            raise TableError(f"attribute {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == "numeric":
            if self.range_max is None:
                raise TableError(f"attribute {self.name!r}: numeric column needs range_max")
            if isinstance(self.range_max, bool) or not isinstance(self.range_max, Real):
                raise TableError(f"attribute {self.name!r}: range_max must be a number, "
                                 f"got {self.range_max!r}")
            if not self.range_max >= 1:  # also rejects NaN
                raise TableError(f"attribute {self.name!r}: range_max must be >= 1")
            if not self.range_max <= sys.float_info.max:  # inf, or an int past every float
                raise TableError(f"attribute {self.name!r}: range_max must be finite")
        if self.ladder is not None:
            object.__setattr__(self, "ladder", tuple(self.ladder))
            if len(set(self.ladder)) != len(self.ladder):
                raise TableError(f"attribute {self.name!r}: duplicate labels in ladder")

    @property
    def numeric(self) -> bool:
        return self.kind == "numeric"


@dataclass(frozen=True)
class InformationTable:
    """Immutable universe x attributes value table.

    objects keeps the universe order; values maps (object label, attribute
    name) to a float (numeric columns) or token string (nominal columns).
    A numeric cell must be a real number, not a bool, in [1, range_max]:
    the degree functions and the cut search's order proof hold there, so a
    table is refused, naming its first bad cell, unless every cell is.
    """

    objects: tuple[str, ...]
    attributes: tuple[AttributeSpec, ...]
    values: Mapping[tuple[str, str], float | str]

    def __post_init__(self) -> None:
        if len(set(self.objects)) != len(self.objects):
            raise TableError("duplicate object labels")
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise TableError("duplicate attribute names")
        for obj in self.objects:
            for attr in self.attributes:
                if (obj, attr.name) not in self.values:
                    raise TableError(f"missing cell ({obj}, {attr.name})")
                if attr.numeric:
                    value = self.values[(obj, attr.name)]
                    if type(value) is not float and (isinstance(value, bool)
                                                     or not isinstance(value, Real)):
                        raise TableError(f"row {obj!r}, column {attr.name!r}: "
                                         f"value {value!r} is not a number")
                    if not 1 <= value <= attr.range_max:  # also rejects NaN
                        raise TableError(f"row {obj!r}, column {attr.name!r}: value {value!r} "
                                         f"outside [1, {attr.range_max:g}]")

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def spec(self, name: str) -> AttributeSpec:
        for a in self.attributes:
            if a.name == name:
                return a
        raise TableError(f"unknown attribute {name!r}")

    def value(self, obj: str, attr: str) -> float | str:
        return self.values[(obj, attr)]

    def column(self, attr: str) -> list[float | str]:
        self.spec(attr)
        return [self.values[(obj, attr)] for obj in self.objects]


@dataclass(frozen=True)
class Partition:
    """Disjoint cover of a universe.

    Canonical form: members of each block follow universe order, blocks are
    sorted by their smallest member index.  block_of maps every object label
    to its block index in that canonical order.
    """

    blocks: tuple[tuple[str, ...], ...]
    block_of: Mapping[str, int] = field(compare=False)

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[str]], universe: Sequence[str]) -> "Partition":
        order = {obj: i for i, obj in enumerate(universe)}
        norm = []
        for block in blocks:
            members = tuple(sorted(block, key=lambda o: _position(order, o)))
            if not members:
                raise TableError("empty block in partition")
            norm.append(members)
        norm.sort(key=lambda b: order[b[0]])
        seen: dict[str, int] = {}
        for i, block in enumerate(norm):
            for obj in block:
                if obj in seen:
                    raise TableError(f"object {obj!r} appears in two blocks")
                seen[obj] = i
        if set(seen) != set(universe):
            missing = sorted(set(universe) - set(seen), key=order.get)
            raise TableError(f"partition does not cover the universe, missing {missing}")
        return cls(blocks=tuple(norm), block_of=seen)

    def as_sets(self) -> frozenset[frozenset[str]]:
        return frozenset(frozenset(b) for b in self.blocks)


def csv_field(text: str, alone: bool = False) -> str:
    """``text`` as one field of a record, quoted exactly where the standard
    library's CSV writer with ``lineterminator="\\n"`` quotes it: around a
    field holding a comma, a quote (doubled inside) or a newline.  On Python
    3.11 that writer leaves a lone carriage return bare, and so does this.
    An empty field is quoted only when it is the record's one field
    (``alone``), which would otherwise be a blank line.  The report renderers
    write their fixed layouts with it, since the writer holds a 128 KiB
    record buffer however short its text."""
    if '"' in text:
        return '"' + text.replace('"', '""') + '"'
    if "," in text or "\n" in text or (alone and not text):
        return '"' + text + '"'
    return text


def _position(order: Mapping[str, int], obj: str) -> int:
    if obj not in order:
        raise TableError(f"object {obj!r} not in the universe")
    return order[obj]


def _records(reader: Iterator[list[str]]) -> Iterator[tuple[int, list[str]]]:
    """Each record with the line it starts on: a quoted cell can span lines."""
    start = 1
    try:
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise TableError(f"line {reader.line_num}: {exc}") from None


def load_table(csv_text: str | io.TextIOBase, specs: Sequence[AttributeSpec]) -> InformationTable:
    """Read a comma-separated table: header row, one row per object, first
    column the object label.  Column names after the label column must match
    the declared attribute names in order.  Numeric cells are read as
    floats, which :class:`InformationTable` checks against [1, range_max].
    Errors name the offending row and column, the line a record starts on,
    or the line of a record the CSV reader refuses, such as an oversized
    cell.
    """
    stream = io.StringIO(csv_text) if isinstance(csv_text, str) else csv_text
    reader = _records(csv.reader(stream))
    _, header = next(reader, (1, None))
    if header is None:
        raise TableError("empty input")
    names = [s.name for s in specs]
    if [h.strip() for h in header[1:]] != names:
        raise TableError(f"header {header[1:]} does not match declared attributes {names}")

    objects: list[str] = []
    seen: set[str] = set()
    values: dict[tuple[str, str], float | str] = {}
    for lineno, row in reader:
        if not row or all(not c.strip() for c in row):
            continue
        label = row[0].strip()
        if not label:
            raise TableError(f"line {lineno}: missing object label")
        if label in seen:
            raise TableError(f"line {lineno}: duplicate object label {label!r}")
        if len(row) != len(specs) + 1:
            raise TableError(f"row {label!r}: expected {len(specs)} cells, got {len(row) - 1}")
        objects.append(label)
        seen.add(label)
        for spec, cell in zip(specs, row[1:]):
            token = cell.strip()
            if not token:
                raise TableError(f"row {label!r}, column {spec.name!r}: missing cell")
            if spec.numeric:
                try:
                    num = float(token)
                except ValueError:
                    raise TableError(
                        f"row {label!r}, column {spec.name!r}: non-numeric value {token!r}"
                    ) from None
                values[(label, spec.name)] = num
            else:
                values[(label, spec.name)] = token
    if not objects:
        raise TableError("no data rows")
    return InformationTable(tuple(objects), tuple(specs), values)

