"""Similarity cuts and rough approximations.

A cut (alpha, beta) of a proximity relation keeps the pairs with
mu >= alpha and nu <= beta.  The cut relation is reflexive and symmetric but
not transitive; its transitive closure is an equivalence relation whose
classes are exactly the connected components of the cut graph.  The graph
keeps one bitmask row per object, packed from the masks of the relation's
row blocks, and its components come from a breadth-first search that ORs in
each row once.
Rough lower/upper approximations are taken against any partition, whether
it came from a cut or from exact indiscernibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .proximity import IFProximityRelation, _row_spans
from .table import Partition, TableError


@dataclass(frozen=True)
class CutParams:
    """A point of the admissible parameter set: alpha, beta in [0, 1] with
    alpha + beta <= 1."""

    alpha: float
    beta: float
    #: Bound on alpha + beta, with slack so that pairs like (0.35, 0.65) survive float addition.
    SUM_BOUND = 1.0 + 1e-12

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.beta <= 1.0):
            raise ValueError(f"cut parameters must lie in [0, 1], got {self}")
        if self.alpha + self.beta > self.SUM_BOUND:
            raise ValueError(f"alpha + beta must not exceed 1, got {self}")


class SimilarityGraph(NamedTuple):
    """Undirected graph over the universe as bitmask rows: bit j of
    ``rows[i]`` is set iff objects i and j are linked.  Rows are symmetric; a
    self-loop is set only where the diagonal passes the cut."""

    objects: tuple[str, ...]
    rows: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.objects)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The links as index pairs (i, j) with i <= j."""
        out = []
        for i, row in enumerate(self.rows):
            row >>= i
            while row:
                low = row & -row
                out.append((i, i + low.bit_length() - 1))
                row ^= low
        return frozenset(out)


def cut_graph(rel: IFProximityRelation, params: CutParams) -> SimilarityGraph:
    """Pairs passing both threshold tests at full precision.  The degrees
    are computed a block of rows at a time, masked and packed, and never
    held.  The relation is symmetric, so the packed rows are too."""
    import numpy as np

    rows: list[int] = []
    for start, stop in _row_spans(rel.size):
        mu, nu = rel.rows(start, stop)
        packed = np.packbits((mu >= params.alpha) & (nu <= params.beta), axis=1, bitorder="little")
        data, width = packed.tobytes(), packed.shape[1]
        rows += [int.from_bytes(data[k:k + width], "little") for k in range(0, len(data), width)]
    return SimilarityGraph(rel.objects, tuple(rows))


def partition_from_cut(graph: SimilarityGraph) -> Partition:
    """Equivalence classes of the transitive closure of the cut: the
    connected components, found by a bitmask breadth-first search from the
    least unvisited object that ORs in each object's row once.  Members come
    out ascending and blocks in order of their least member, the canonical
    form of ``Partition``."""
    objects, rows = graph.objects, graph.rows
    blocks: list[tuple[str, ...]] = []
    block_of: dict[str, int] = {}
    unseen = (1 << graph.size) - 1
    while unseen:
        component = frontier = unseen & -unseen
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= rows[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~component
            component |= frontier
        unseen &= ~component
        members = []
        while component:
            low = component & -component
            members.append(objects[low.bit_length() - 1])
            component ^= low
        block_of.update(dict.fromkeys(members, len(blocks)))
        blocks.append(tuple(members))
    return Partition(blocks=tuple(blocks), block_of=block_of)


def _check_subset(partition: Partition, target: set[str] | frozenset[str]) -> None:
    unknown = sorted(o for o in target if o not in partition.block_of)
    if unknown:
        raise TableError(f"target contains objects outside the universe: {unknown}")


def lower_approx(partition: Partition, target: set[str] | frozenset[str]) -> frozenset[str]:
    """Union of the blocks wholly contained in the target set."""
    _check_subset(partition, target)
    out: set[str] = set()
    for block in partition.blocks:
        if set(block) <= set(target):
            out.update(block)
    return frozenset(out)


def upper_approx(partition: Partition, target: set[str] | frozenset[str]) -> frozenset[str]:
    """Union of the blocks meeting the target set."""
    _check_subset(partition, target)
    out: set[str] = set()
    for block in partition.blocks:
        if set(block) & set(target):
            out.update(block)
    return frozenset(out)


class RoughApproximation(NamedTuple):
    lower: frozenset[str]
    upper: frozenset[str]
    boundary: frozenset[str]
    definable: bool


def rough_approximation(partition: Partition, target: set[str] | frozenset[str]) -> RoughApproximation:
    """Bundle lower, upper, boundary and the definability flag."""
    lo = lower_approx(partition, target)
    up = upper_approx(partition, target)
    boundary = up - lo
    return RoughApproximation(lo, up, boundary, definable=not boundary)


def partition_to_json(partition: Partition, attribute: str, alpha: float, beta: float) -> dict:
    return {"attribute": attribute, "alpha": alpha, "beta": beta,
            "blocks": [list(b) for b in partition.blocks]}


def partition_from_json(doc: dict, universe: list[str] | tuple[str, ...]) -> tuple[str, Partition]:
    """Read one parsed {"attribute", "alpha", "beta", "blocks"} document, as
    ``json.loads`` returns it; alpha and beta are informative only, and
    blocks must be lists of object names, so a string is never split into
    objects.  Returns (attribute name, partition)."""
    if not isinstance(doc, dict):
        raise TableError(f"partition document must be a JSON object, got {doc!r}")
    try:
        attribute = doc["attribute"]
        blocks = doc["blocks"]
    except KeyError as exc:
        raise TableError(f"partition document missing key {exc}") from None
    if not isinstance(attribute, str):
        raise TableError(f"partition attribute must be a JSON string, got {attribute!r}")
    if not (isinstance(blocks, list)
            and all(isinstance(b, list) and all(isinstance(o, str) for o in b) for b in blocks)):
        raise TableError(f"blocks of {attribute!r} must be a JSON list of lists of object names")
    return attribute, Partition.from_blocks(blocks, universe)


def partitions_from_json(doc: dict | list, universe: list[str] | tuple[str, ...]) -> dict[str, Partition]:
    """Read one partition document or a list of them, each as
    :func:`partition_from_json` does, into {attribute: partition} in document
    order.  An attribute named twice is refused rather than one of its
    partitions dropped."""
    out: dict[str, Partition] = {}
    for entry in doc if isinstance(doc, list) else [doc]:
        attribute, partition = partition_from_json(entry, universe)
        if attribute in out:
            raise TableError(f"attribute {attribute!r} has more than one partition document")
        out[attribute] = partition
    return out
