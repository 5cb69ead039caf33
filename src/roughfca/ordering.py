"""Ordered information tables, ranking and rank clusters.

Each retained attribute of an ordered table maps objects to a label from a
ladder (an ordered label list, best first, with strictly decreasing integer
weights).  Blocks of a per-attribute partition receive the ladder's leading
labels; an attribute whose partition has a single block carries no
information and is dropped.  Objects are then scored by summing their label
weights and ranked densely, and rank ranges group them into clusters.

Two block-ordering strategies are provided:

* "appearance" (default): blocks ranked by their first appearance in the
  universe order.  This is the right choice for curated tables whose rows
  are already listed best first, and it is what the bundled institutions
  dataset requires to reproduce its published ordering.
* "mean": blocks ranked by descending arithmetic mean of the raw attribute
  values, ties broken by block maximum, then by first appearance.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .table import InformationTable, Partition, TableError, csv_field

BLOCK_ORDERS = ("appearance", "mean")

#: Ladders matching the usual grading vocabularies by category count.
DEFAULT_LADDERS = {
    3: (("Excellent", "Very good", "Good"), (5, 4, 3)),
    4: (("Very high", "High", "Moderate", "Low"), (4, 3, 2, 1)),
    6: (("Outstanding", "Excellent", "Very good", "Good", "Average", "Poor"),
        (6, 5, 4, 3, 2, 1)),
}


@dataclass(frozen=True)
class LabelLadder:
    """Ordered labels, best first, with strictly decreasing positive weights."""

    labels: tuple[str, ...]
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.weights):
            raise ValueError("ladder labels and weights differ in length")
        if not self.labels:
            raise ValueError("empty ladder")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate ladder labels")
        if any(isinstance(w, bool) or not isinstance(w, int) for w in self.weights):
            raise ValueError(f"ladder weights must be integers, got {list(self.weights)}")
        if any(w <= 0 for w in self.weights):
            raise ValueError("ladder weights must be positive")
        if any(a <= b for a, b in zip(self.weights, self.weights[1:])):
            raise ValueError("ladder weights must be strictly decreasing")

    def position(self, label: str) -> int:
        """1-based rank of a label, 1 being the best."""
        try:
            return self.labels.index(label) + 1
        except ValueError:
            raise KeyError(f"label {label!r} not in ladder {self.labels}") from None

    def weight(self, label: str) -> int:
        return self.weights[self.position(label) - 1]


def default_ladder(k: int) -> LabelLadder:
    """Ladder for k categories: a named vocabulary where one exists, generic
    L1..Lk (weights k..1) otherwise."""
    if k in DEFAULT_LADDERS:
        labels, weights = DEFAULT_LADDERS[k]
        return LabelLadder(labels, weights)
    return LabelLadder(tuple(f"L{i}" for i in range(1, k + 1)), tuple(range(k, 0, -1)))


@dataclass(frozen=True)
class OrderedColumn:
    """One categorised attribute: object -> label, plus its ladder and the
    1-based position of the source attribute in the original table."""

    attribute: str
    source_index: int
    ladder: LabelLadder
    labels: Mapping[str, str]

    def label(self, obj: str) -> str:
        try:
            return self.labels[obj]
        except KeyError:
            raise TableError(f"unknown object {obj!r}") from None


@dataclass(frozen=True)
class OrderedTable:
    objects: tuple[str, ...]
    columns: tuple[OrderedColumn, ...]
    dropped: tuple[str, ...] = ()

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(c.attribute for c in self.columns)


def _ordered_blocks(table: InformationTable, attribute: str,
                    partition: Partition, order_by: str) -> list[tuple[str, ...]]:
    if order_by not in BLOCK_ORDERS:
        raise ValueError(f"unknown block order {order_by!r}, expected one of {BLOCK_ORDERS}")
    blocks = list(partition.blocks)
    if order_by == "appearance":
        return blocks  # canonical partition order is first-appearance order
    values = {obj: float(table.value(obj, attribute)) for obj in table.objects}
    # list.sort is stable, so blocks tied on both keys keep first-appearance order
    blocks.sort(key=lambda b: (-sum(values[o] for o in b) / len(b), -max(values[o] for o in b)))
    return blocks


def categorize_partition(table: InformationTable, attribute: str, partition: Partition,
                         ladder: LabelLadder, order_by: str = "appearance") -> OrderedColumn:
    """Assign the ladder's first k labels to the k partition blocks, ordered
    by the chosen strategy.  All members of a block share its label."""
    spec = table.spec(attribute)
    if not spec.numeric:
        raise TableError(f"attribute {attribute!r} is nominal and cannot be categorised")
    if len(partition.block_of) != len(table.objects):
        raise TableError(f"partition for {attribute!r} does not match the universe")
    blocks = _ordered_blocks(table, attribute, partition, order_by)
    if len(ladder.labels) < len(blocks):
        raise TableError(
            f"ladder for {attribute!r} has {len(ladder.labels)} labels, "
            f"partition has {len(blocks)} blocks")
    labels = {}
    for label, block in zip(ladder.labels, blocks):
        for obj in block:
            labels[obj] = label
    src = table.attribute_names.index(attribute) + 1
    return OrderedColumn(attribute, src, ladder, labels)


def build_ordered_table(table: InformationTable, partitions: Mapping[str, Partition],
                        ladders: Mapping[str, LabelLadder] | None = None,
                        order_by: str = "appearance") -> OrderedTable:
    """Categorise every numeric attribute from its partition.  Attributes
    whose partition has one block are dropped (unless their spec opts out);
    ladders default by block count."""
    ladders = dict(ladders or {})
    columns = []
    dropped = []
    for spec in table.attributes:
        if not spec.numeric:
            continue
        if spec.name not in partitions:
            raise TableError(f"no partition supplied for attribute {spec.name!r}")
        part = partitions[spec.name]
        if len(part.blocks) == 1 and spec.drop_if_indiscernible:
            dropped.append(spec.name)
            continue
        ladder = ladders.get(spec.name)
        if ladder is None:
            ladder = LabelLadder(spec.ladder, tuple(range(len(spec.ladder), 0, -1))) \
                if spec.ladder else default_ladder(len(part.blocks))
        columns.append(categorize_partition(table, spec.name, part, ladder, order_by))
    return OrderedTable(table.objects, tuple(columns), tuple(dropped))


def induced_order(column: OrderedColumn, x: str, y: str) -> str:
    """"ahead" iff x's label strictly precedes y's in the ladder, "behind"
    for the converse, "tied" on equal labels."""
    px, py = column.ladder.position(column.label(x)), column.ladder.position(column.label(y))
    if px < py:
        return "ahead"
    if px > py:
        return "behind"
    return "tied"


def joint_order(columns: Iterable[OrderedColumn], x: str, y: str) -> bool:
    """True iff x is strictly ahead of y on every given column."""
    cols = list(columns)
    if not cols:
        raise TableError("attribute subset must be nonempty")
    return all(induced_order(col, x, y) == "ahead" for col in cols)


@dataclass(frozen=True)
class RankRow:
    object: str
    labels: tuple[str, ...]
    weights: tuple[int, ...]
    total: int
    rank: int


@dataclass(frozen=True)
class RankTable:
    attributes: tuple[str, ...]
    rows: tuple[RankRow, ...]


def score_and_rank(ordered: OrderedTable) -> RankTable:
    """Sum label weights per object and rank densely: equal totals share a
    rank, the next distinct total takes the next integer."""
    rows = []
    for obj in ordered.objects:
        labels = tuple(col.label(obj) for col in ordered.columns)
        weights = tuple(col.ladder.weight(lbl) for col, lbl in zip(ordered.columns, labels))
        rows.append((obj, labels, weights, sum(weights)))
    distinct = sorted({total for *_, total in rows}, reverse=True)
    rank_of = {total: i + 1 for i, total in enumerate(distinct)}
    return RankTable(
        attributes=ordered.attribute_names,
        rows=tuple(RankRow(obj, labels, weights, total, rank_of[total])
                   for obj, labels, weights, total in rows),
    )


@dataclass(frozen=True)
class RankCluster:
    cluster_id: int
    rank_range: tuple[int, int]
    members: tuple[str, ...]


def cluster_by_rank(ranks: RankTable, ranges: Sequence[tuple[int, int]]) -> list[RankCluster]:
    """Group objects whose rank falls in each inclusive range.  Ranges must
    be disjoint and jointly cover every occurring rank.  Coverage is checked
    on the range bounds, so the cost does not grow with the width of a range.
    """
    for lo, hi in ranges:
        if lo > hi:
            raise TableError(f"rank range [{lo}, {hi}] is empty")
    order = sorted(range(len(ranges)), key=lambda i: ranges[i][0])
    for prev, cur in zip(order, order[1:]):
        if ranges[cur][0] <= ranges[prev][1]:
            raise TableError(f"rank {ranges[cur][0]} covered by two ranges")
    lows = [ranges[i][0] for i in order]
    occurring = {row.rank for row in ranks.rows}
    home: dict[int, int] = {}
    for rank in occurring:
        pos = bisect.bisect_right(lows, rank) - 1
        if pos >= 0 and rank <= ranges[order[pos]][1]:
            home[rank] = order[pos]
    missing = sorted(occurring - home.keys())
    if missing:
        raise TableError(f"ranks {missing} not covered by any range")
    members: dict[int, list[str]] = {i: [] for i in range(len(ranges))}
    for row in ranks.rows:
        members[home[row.rank]].append(row.object)
    return [RankCluster(i + 1, tuple(ranges[i]), tuple(members[i]))
            for i in range(len(ranges))]


def ordered_table_to_csv(ordered: OrderedTable) -> str:
    columns = ordered.columns
    lines = [",".join(["object", *map(csv_field, ordered.attribute_names)])]
    for obj in ordered.objects:
        lines.append(",".join([csv_field(obj, not columns),
                               *(csv_field(col.label(obj)) for col in columns)]))
    lines.append("")
    return "\n".join(lines)


def rank_table_to_csv(ranks: RankTable) -> str:
    """Label plus weight per attribute, total sum and rank per row."""
    lines = [",".join(["object", *map(csv_field, ranks.attributes), "total_sum", "rank"])]
    for row in ranks.rows:
        cells = [csv_field(f"{lbl} ({w})") for lbl, w in zip(row.labels, row.weights)]
        lines.append(",".join([csv_field(row.object), *cells, str(row.total), str(row.rank)]))
    lines.append("")
    return "\n".join(lines)


def ordered_table_override(ordered: OrderedTable,
                           overrides: Mapping[str, Mapping[str, str]]) -> OrderedTable:
    """Replace the labels of selected columns with externally supplied
    object -> label maps; labels must come from the column's ladder."""
    unknown = sorted(set(overrides) - set(ordered.attribute_names))
    if unknown:
        raise TableError(f"override names unknown ordered columns: {unknown}")
    columns = []
    for col in ordered.columns:
        if col.attribute not in overrides:
            columns.append(col)
            continue
        new_labels = overrides[col.attribute]
        if not isinstance(new_labels, Mapping):
            raise TableError(f"override for {col.attribute!r} must map objects to labels")
        if set(new_labels) != set(ordered.objects):
            raise TableError(f"override for {col.attribute!r} must label every object")
        for obj, lbl in new_labels.items():
            if lbl not in col.ladder.labels:
                raise TableError(
                    f"override label {lbl!r} for {obj!r} not in the {col.attribute!r} ladder")
        columns.append(OrderedColumn(col.attribute, col.source_index, col.ladder, dict(new_labels)))
    return OrderedTable(ordered.objects, tuple(columns), ordered.dropped)
