"""Similarity cuts and rough approximations.

A cut (alpha, beta) of a proximity relation keeps the pairs with
mu >= alpha and nu <= beta.  The cut relation is reflexive and symmetric but
not transitive; its transitive closure is an equivalence relation whose
classes are exactly the connected components of the cut graph.  Rough
lower/upper approximations are taken against any partition, whether it came
from a cut or from exact indiscernibility.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .proximity import IFProximityRelation
from .table import Partition, TableError
from .unionfind import UnionFind


@dataclass(frozen=True)
class CutParams:
    """A point of the admissible parameter set: alpha, beta in [0, 1] with
    alpha + beta <= 1."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.beta <= 1.0):
            raise ValueError(f"cut parameters must lie in [0, 1], got {self}")
        # tiny slack so boundary pairs like (0.35, 0.65) survive float addition
        if self.alpha + self.beta > 1.0 + 1e-12:
            raise ValueError(f"alpha + beta must not exceed 1, got {self}")


@dataclass(frozen=True)
class SimilarityGraph:
    """Undirected graph over the universe; edges are stored as index pairs
    (i, j) with i <= j, self-loops included for every vertex."""

    objects: tuple[str, ...]
    edges: frozenset[tuple[int, int]]

    @property
    def size(self) -> int:
        return len(self.objects)

    def has_edge(self, x: str, y: str) -> bool:
        i, j = self.objects.index(x), self.objects.index(y)
        return (min(i, j), max(i, j)) in self.edges


def cut_graph(rel: IFProximityRelation, params: CutParams) -> SimilarityGraph:
    """Pairs passing both threshold tests at full precision.  The diagonal
    always passes since the relation is reflexive."""
    iu, ju = np.triu_indices(rel.size)
    keep = (rel.mu[iu, ju] >= params.alpha) & (rel.nu[iu, ju] <= params.beta)
    return SimilarityGraph(rel.objects, frozenset(zip(iu[keep].tolist(), ju[keep].tolist())))


def partition_from_cut(graph: SimilarityGraph) -> Partition:
    """Equivalence classes of the transitive closure of the cut, computed as
    connected components via disjoint-set union."""
    uf = UnionFind(graph.size)
    for i, j in graph.edges:
        uf.union(i, j)
    blocks = [[graph.objects[i] for i in grp] for grp in uf.groups()]
    return Partition.from_blocks(blocks, graph.objects)


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


@dataclass(frozen=True)
class RoughApproximation:
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


def partition_from_json(doc: dict | str, universe: list[str] | tuple[str, ...]) -> tuple[str, Partition]:
    """Read one {"attribute", "alpha", "beta", "blocks"} document; alpha and
    beta are informative only, and blocks must be lists of object names, so
    a string is never split into objects.  Returns (attribute name,
    partition)."""
    if isinstance(doc, str):
        doc = json.loads(doc)
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
