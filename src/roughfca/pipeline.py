"""End-to-end orchestration: load, proximity, cut, order, rank, cluster, FCA.

The pipeline is deterministic given a configuration: the same config and
data produce byte-identical report trees.  Any intermediate stage can be fed
an override (partitions, ordered-table labels) instead of its computed
value; overridden stages are recorded in the report's provenance block.

A non-empty proximity validation report (pairs with mu + nu > 1 are the
realistic case) stops :func:`partition_stage` unless ``force`` is set, in
which case the violations are carried into the provenance instead.
"""

from __future__ import annotations

import json
import math
import operator
from bisect import bisect_left, bisect_right
from pathlib import Path
from itertools import accumulate, chain, compress, groupby, repeat
from json.encoder import encode_basestring_ascii
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from . import fca
from .approx import CutParams, cut_graph, partition_from_cut, partition_to_json, partitions_from_json
from .ordering import (
    BLOCK_ORDERS,
    LabelLadder,
    OrderedTable,
    RankCluster,
    RankTable,
    build_ordered_table,
    cluster_by_rank,
    ordered_table_override,
    ordered_table_to_csv,
    rank_table_to_csv,
    score_and_rank,
)
from .proximity import (
    IFProximityRelation,
    build_proximity,
    membership_degree,
    nonmembership_degree,
    numeric_values,
    proximity_to_csv,
    validate_proximity,
)
from .table import AttributeSpec, InformationTable, Partition, load_table

if TYPE_CHECKING:
    import numpy as np


class UnionFind:
    """Empty placeholder that nothing instantiates: cut components come from
    a bitmask search in approx.py.  perfbench/spans.py still subclasses and
    patches this name to count instances, so it stays until the benchmark
    reads in-library stage stats (ROADMAP item 1), which deletes it."""


class StageError(RuntimeError):
    """A pipeline failure tagged with the stage it occurred in."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[stage:{stage}] {message}")
        self.stage = stage


class in_stage:
    """``with in_stage(stage, prefix, errors):`` runs a block as ``stage``:
    an exception of the classes ``errors`` leaving it becomes
    ``StageError(stage, prefix + str(exc))``, raised from None.  Every
    failure that becomes a StageError does so here; a direct refusal raises
    one itself.  A class: it is entered once per written file, and a
    generator context manager costs three times as much."""

    def __init__(self, stage: str, prefix: str = "", errors: type | tuple = ValueError):
        self.stage, self.prefix, self.errors = stage, prefix, errors

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, traceback) -> None:
        if kind is not None and issubclass(kind, self.errors):
            raise StageError(self.stage, self.prefix + str(exc)) from None


def read_input(path: str | Path, what: str, stage: str, parse: Callable = json.loads) -> object:
    """Parse an input file's UTF-8 text, JSON by default: the input twin of
    :func:`write_files`.  Failing to read, decode or parse it (JSON nested
    too deep included) is a StageError, and so is a JSON string that is not
    UTF-8 text: a ``\\ud800`` escape parses to a lone surrogate, and the
    message names the string's JSON path."""
    with in_stage(stage, f"cannot read {what} {path}: ", (OSError, ValueError, RecursionError)):
        doc = parse(Path(path).read_text(encoding="utf-8"))
        if parse is json.loads:
            _check_text(doc)
        return doc


def _check_text(doc: object) -> None:
    """Raise ValueError for the first string of a parsed JSON document, key
    or value in document order, that is not UTF-8 text, naming its JSON path
    (``ladders.SS.labels[0]``); a key is named by the path of its entry.
    The walk keeps its own stack, so no document that parsed is too deep."""
    stack = [(doc, "")]
    while stack:
        value, path = stack.pop()
        if isinstance(value, dict):
            for name, item in reversed(value.items()):
                plain = name.isascii() and name.isidentifier()
                entry = path + (f".{name}" if plain else f"[{json.dumps(name)}]")
                stack += (item, entry), (name, entry)
        elif isinstance(value, list):
            stack += ((item, f"{path}[{i}]") for i, item in reversed(list(enumerate(value))))
        elif isinstance(value, str) and not value.isascii():
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise ValueError(f"'utf-8' codec can't encode character {value[exc.start]!r} in "
                                 f"position {exc.start} of {path.lstrip('.') or 'the document'}: "
                                 f"{exc.reason}") from None


def _json_bool(value: object, what: str) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"{what} must be true or false, got {value!r}")
    return value


def _json_number(value: object, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer past the largest float
        raise ValueError(f"{what} must be a number, got an integer too large for a float") from None


def _known_keys(doc: dict, keys: str, where: str = "") -> None:
    """Refuse the keys of ``doc`` outside the space-separated ``keys``: a
    misspelt key would otherwise be read as absent."""
    unknown = sorted(set(doc) - set(keys.split()))
    if unknown:
        raise ValueError(f"unknown keys {unknown}{where}")


def _json_labels(value: object, what: str) -> tuple[str, ...]:
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise TypeError(f"{what} must be a list of strings, got {value!r}")
    return tuple(value)


class PipelineConfig(NamedTuple):
    data_path: Path
    attributes: tuple[AttributeSpec, ...]
    cut: CutParams
    rank_ranges: tuple[tuple[int, int], ...]
    ladders: Mapping[str, LabelLadder] = MappingProxyType({})
    block_order: str = "appearance"
    partitions_override: Path | None = None
    ordered_override: Path | None = None
    output_dir: Path | None = None
    force: bool = False

    @classmethod
    def from_dict(cls, doc: dict, base_dir: Path | None = None) -> "PipelineConfig":
        """Build a config from its JSON document.  A missing key, or a value
        of the wrong type or out of range, raises :class:`StageError`
        tagged ``load``: the data path must be a string, flags JSON booleans
        and rank bounds JSON integers, alpha and beta JSON numbers, labels
        lists of strings and ladder weights integers; ladders must name
        declared numeric attributes and block_order one of
        :data:`BLOCK_ORDERS`.  So does a key that no field is read from, at
        the top level or in an attribute, a ladder or ``overrides``."""
        base = Path(base_dir) if base_dir else Path.cwd()

        def resolve(p: str | None) -> Path | None:
            return None if p is None else base / Path(p)  # an absolute p replaces base

        with in_stage("load", "config missing key ", KeyError), \
                in_stage("load", "bad config: ", (TypeError, ValueError, AttributeError)):
            specs = tuple(
                AttributeSpec(
                    name=a["name"],
                    kind=a.get("kind", "numeric"),
                    range_max=a.get("range_max"),
                    ladder=_json_labels(a["ladder"], "ladder") if "ladder" in a else None,
                    drop_if_indiscernible=_json_bool(a.get("drop_if_indiscernible", True),
                                                     "drop_if_indiscernible"),
                )
                for a in doc["attributes"]
            )
            cut = CutParams(_json_number(doc["alpha"], "alpha"), _json_number(doc["beta"], "beta"))
            ranges = doc["rank_ranges"]
            # JSON reads 1e400 as inf and NaN as nan: every bound must be an int
            if not all(isinstance(pair, (list, tuple)) and len(pair) == 2
                       and all(type(bound) is int for bound in pair) for pair in ranges):
                raise TypeError(f"rank bounds must be integers, two per range, got {ranges!r}")
            ranges = tuple(map(tuple, ranges))
            ladders = {
                name: LabelLadder(_json_labels(spec["labels"], f"labels of ladder {name!r}"),
                                  tuple(spec["weights"]))
                for name, spec in doc.get("ladders", {}).items()
            }
            unknown = sorted(set(ladders) - {a.name for a in specs if a.numeric})
            if unknown:
                raise ValueError(f"ladders for undeclared or nominal attributes: {unknown}")
            block_order = doc.get("block_order", "appearance")
            if block_order not in BLOCK_ORDERS:
                raise ValueError(f"unknown block_order {block_order!r}, expected {BLOCK_ORDERS}")
            overrides = doc.get("overrides", {})
            if not isinstance(doc["data"], str):  # resolve would read null as no path
                raise TypeError(f"data must be a path string, got {doc['data']!r}")
            config = cls(
                data_path=resolve(doc["data"]),
                attributes=specs,
                cut=cut,
                rank_ranges=ranges,
                ladders=ladders,
                block_order=block_order,
                partitions_override=resolve(overrides.get("partitions")),
                ordered_override=resolve(overrides.get("ordered_table")),
                output_dir=resolve(doc.get("output_dir")),
                force=_json_bool(doc.get("force", False), "force"),
            )
            _known_keys(doc, "data alpha beta attributes rank_ranges ladders block_order "
                             "overrides output_dir force")
            for a in doc["attributes"]:
                _known_keys(a, "name kind range_max ladder drop_if_indiscernible",
                            f" in attribute {a['name']!r}")
            for name, spec in doc.get("ladders", {}).items():
                _known_keys(spec, "labels weights", f" in ladder {name!r}")
            _known_keys(overrides, "partitions ordered_table", " in overrides")
        return config

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        return cls.from_dict(read_input(path, "config", "load"), base_dir=Path(path).parent)

    def echo(self) -> dict:
        """Stable JSON-serialisable image of the configuration."""
        return {
            "data": str(self.data_path),
            "alpha": self.cut.alpha,
            "beta": self.cut.beta,
            "attributes": [vars(a) | {"ladder": a.ladder or None} for a in self.attributes],
            "rank_ranges": self.rank_ranges,
            "ladders": {name: vars(l).copy() for name, l in sorted(self.ladders.items())},
            "block_order": self.block_order,
            "overrides": {
                "partitions": str(self.partitions_override) if self.partitions_override else None,
                "ordered_table": str(self.ordered_override) if self.ordered_override else None,
            },
            "force": self.force,
        }


class ClusterAnalysis(NamedTuple):
    cluster: RankCluster
    context: fca.FormalContext
    concepts: list[fca.Concept]
    cover: list[tuple[int, int]]
    basis: list[fca.Implication]
    frequencies: fca.FrequencyTable
    chief: list[tuple[int, tuple[str, ...]]]


class PipelineReport(NamedTuple):
    """The results of the stages run so far.  :func:`proximity_stage` fills
    the first five fields.  Each later stage returns a new report with its
    own fields filled and its entry added to a new provenance, and writes
    nothing into the report it was given.  A stage not yet run leaves its
    fields read-only empties: an empty mapping, None or ()."""

    config: PipelineConfig
    table: InformationTable
    relations: dict[str, IFProximityRelation]
    violations: dict[str, np.ndarray]  # per attribute, the k x 2 pairs that break mu + nu <= 1
    provenance: dict
    partitions: Mapping[str, Partition] = MappingProxyType({})
    ordered: OrderedTable | None = None
    ranks: RankTable | None = None
    clusters: Sequence[RankCluster] = ()
    analyses: Sequence[ClusterAnalysis] = ()


def load_config_table(config: PipelineConfig) -> InformationTable:
    """Read and validate the configured data table (the load stage)."""
    csv_text = read_input(config.data_path, "data", "load", parse=str)
    with in_stage("load"):
        return load_table(csv_text, config.attributes)


def proximity_stage(config: PipelineConfig) -> PipelineReport:
    """Load the table, then build and validate each numeric attribute's relation."""
    table = load_config_table(config)
    with in_stage("proximity"):
        relations = {a.name: build_proximity(table, a.name) for a in table.attributes if a.numeric}
    violations = {name: validate_proximity(rel) for name, rel in relations.items()}
    flagged = {name: len(v) for name, v in sorted(violations.items()) if len(v)}
    validate = {"violations": flagged, "forced": bool(config.force and flagged)}
    return PipelineReport(config, table, relations, violations,
                          {"config": config.echo(), "stages": {"validate": validate}})


def partition_stage(report: PipelineReport) -> PipelineReport:
    """Refuse unforced proximity violations, then partition by the override or the cut."""
    config, relations = report.config, report.relations
    flagged = report.provenance["stages"]["validate"]["violations"]
    if flagged and not config.force:
        name = next(name for name, v in report.violations.items() if len(v))
        rel, (i, j) = relations[name], report.violations[name][0].tolist()
        x, y = rel.values[i].item(), rel.values[j].item()
        total = membership_degree(x, y, rel.range_max) + nonmembership_degree(x, y)
        pair = (rel.objects[i], rel.objects[j])
        raise StageError("validate", f"{sum(flagged.values())} proximity axiom violation(s), "
                         f"e.g. sum at {pair}: mu + nu = {total:.6g} > 1; pass force to proceed")

    override_parts: dict[str, Partition] = {}
    if config.partitions_override is not None:
        doc = read_input(config.partitions_override, "override", "partition")
        with in_stage("partition", "bad partition override: "):
            override_parts = partitions_from_json(doc, report.table.objects)
        for name in override_parts:
            if name not in relations:
                raise StageError("partition", f"override names unknown attribute {name!r}")
    partitions = {name: override_parts[name] if name in override_parts
                  else partition_from_cut(cut_graph(rel, config.cut))
                  for name, rel in relations.items()}
    stages = {**report.provenance["stages"], "partition": {
        name: "override" if name in override_parts else "computed" for name in relations}}
    return report._replace(partitions=partitions,
                           provenance={**report.provenance, "stages": stages})


def rank_stage(report: PipelineReport) -> PipelineReport:
    """Label the blocks, or take the ordered-table override, then rank and cluster."""
    config = report.config
    with in_stage("order"):
        ordered = build_ordered_table(report.table, report.partitions, config.ladders,
                                      config.block_order)
    doc = {}  # the ordered-table override, if any
    if config.ordered_override is not None:
        doc = read_input(config.ordered_override, "override", "order")
        if not isinstance(doc, dict):
            raise StageError("order", "ordered-table override must map attributes to label maps")
        with in_stage("order", "bad ordered-table override: "):
            ordered = ordered_table_override(ordered, doc)

    ranks = score_and_rank(ordered)
    with in_stage("cluster"):
        clusters = cluster_by_rank(ranks, config.rank_ranges)
    for cluster in clusters:
        if not cluster.members:
            lo, hi = cluster.rank_range
            raise StageError("cluster", f"rank range [{lo}, {hi}] holds no object")
    stages = {**report.provenance["stages"],
              "order": {"override": sorted(doc), "dropped": list(ordered.dropped)}}
    return report._replace(ordered=ordered, ranks=ranks, clusters=clusters,
                           provenance={**report.provenance, "stages": stages})


def fca_stage(report: PipelineReport) -> PipelineReport:
    """Analyse each cluster: context, concepts, cover, basis, frequencies."""
    analyses = []
    for cluster in report.clusters:
        with in_stage("fca", f"cluster {cluster.cluster_id}: "):
            context = fca.build_context(report.ordered, cluster.members)
            concepts = fca.enumerate_concepts(context)
            cover = fca.lattice_cover(concepts)
            basis = fca.canonical_basis(context)
            freqs = fca.implication_frequencies(basis)
            chief = fca.chief_attributes(freqs)
        analyses.append(ClusterAnalysis(cluster, context, concepts, cover, basis, freqs, chief))
    return report._replace(analyses=analyses)


def run_pipeline(config: PipelineConfig) -> PipelineReport:
    """Execute every stage in order, honouring overrides, and return the
    full report.  Raises :class:`StageError` with the failing stage name."""
    return fca_stage(rank_stage(partition_stage(proximity_stage(config))))


# ---------------------------------------------------------------------------
# cut parameter recovery


class CutSearchResult(NamedTuple):
    """Grid points of the admissible set reproducing every target partition,
    with the bounding box of the joint region and of each attribute's own
    feasible points."""

    step: float
    points: list[tuple[float, float]]
    hull: tuple[float, float, float, float] | None
    per_attribute: dict[str, tuple[float, float, float, float] | None]

    def to_json(self) -> str:
        """The document ``roughfca search-cut`` prints or writes: keys
        ``feasible_points``, ``hull``, ``per_attribute`` and ``step``, a
        missing hull written as null.

        The text is byte for byte ``json.dumps(doc, indent=2,
        sort_keys=True)`` plus a newline, written as its fixed layout (see
        :func:`fca.basis_to_json`) and joined once.
        Levels are floats; the step may be an int or a float.
        """
        level = float.__repr__
        step = int.__repr__(self.step) if isinstance(self.step, int) else level(self.step)
        hulls = ",\n".join(f"    {encode_basestring_ascii(name)}: "
                           f"{fca._json_list(h, level, 4) if h else 'null'}"
                           for name, h in sorted(self.per_attribute.items()))
        per_attribute = "{\n" + hulls + "\n  }" if hulls else "{}"
        hull = fca._json_list(self.hull, level, 2) if self.hull else "null"
        tail = f',\n  "hull": {hull},\n  "per_attribute": {per_attribute},\n  "step": {step}\n}}\n'
        if not self.points:
            return '{\n  "feasible_points": []' + tail
        # A grid repeats its levels, so each distinct level is written once
        # and every point that holds it refers to that text.  A zero is
        # written each time: 0.0 == -0.0, but their texts differ.
        texts: dict[float, str] = {}

        def text(value: float) -> str:
            known = texts.get(value)
            if known is None or not value:
                known = texts[value] = level(value)
            return known

        parts = ['{\n  "feasible_points": [\n    [\n      ']
        for alpha, beta in self.points:
            parts += (text(alpha), ",\n      ", text(beta), "\n    ],\n    [\n      ")
        parts[-1] = "\n    ]\n  ]" + tail
        return "".join(parts)


def _hull(lo: int, hi: list[int],
          levels: list[float]) -> tuple[float, float, float, float] | None:
    """(alpha min, alpha max, beta min, beta max) of a region held as the
    half-open interval [lo, hi[i]) of beta levels at each alpha level i."""
    first = next((i for i, high in enumerate(hi) if high > lo), None)
    if first is None:
        return None
    last = len(hi) - next(i for i, high in enumerate(reversed(hi), 1) if high > lo)
    return levels[first], levels[last], levels[lo], levels[max(hi) - 1]


def _admissible_prefix(levels: list[float]) -> list[int]:
    """For each alpha level, the number of beta levels in the admissible
    triangle, where ``alpha + beta <= SUM_BOUND`` as :class:`CutParams`
    tests it.  Float addition is monotone in each operand, so they are a
    prefix of the levels that shrinks as alpha grows: one pass moves its
    end down, testing each sum exactly."""
    bound, count, top = CutParams.SUM_BOUND, len(levels), []
    for alpha in levels:
        while count and alpha + levels[count - 1] > bound:
            count -= 1
        top.append(count)
    return top


#: Once a pair's nu clears the adjacent nu at its left end by this factor,
#: 1 + 8 machine epsilons, no wider pair from that end falls below it.
_ORDER_MARGIN = 1.0 + 2.0 ** -49


def _check_order(name: str, values: list[float]) -> None:
    """Raise ValueError if a pair of the sorted ``values`` has a float nu
    below that of an adjacent pair inside it, naming the first such pair
    in row-major order, in O(n log n) steps on the n distinct values u.

    - A pair of equal values has nu 0, and a pair of neighbouring distinct
      values has the same nu wherever its ends sit among repeats, so only
      pairs (u_i, u_j) with j >= i + 2 can break the order.
    - Float nu, (|x - y| / 4) / (x/2 + y/2), cannot fall as a pair's left
      end moves down: each rounded step is monotone.  So if (u_i, u_j)
      falls below the adjacent nu_k, i <= k < j, so does (u_k, u_j), a
      break at its own left end, and the left ends of the pairs to u_j
      that fall below nu_k are one run [i0, k], found by bisection.  Every
      break lies in such a run, so the least (i0, j) is the first break.
    - Exactly, nu(x, y) = (y - x) / (2 (x + y)) rises with y for
      0 < x < y.  The float nu is the exact one times (1 + d1)(1 + d3) /
      (1 + d2), each |d| <= r = 2**-53 (subtraction, addition, division),
      wherever no step overflows or underflows.  For 1 <= x < y <= the
      largest float, which :class:`InformationTable` guarantees, none
      does: x/2 + y/2 is at most the largest float; x/2 and y/2 are at
      least 1/2 and |x - y| / 4 at least 2**-54, so the scalings by 1/4
      and 1/2 are exact; and y - x is at least x 2**-53, so nu is at least
      about 2**-56, far above the subnormals.
    - So once fl nu(u_k, u_j) clears :data:`_ORDER_MARGIN` times nu_k,
      whose product rounds once, every wider pair from u_k has a float nu
      of at least nu_k (1 + 16 r)(1 - r)**4 / (1 + r)**3 > nu_k.  Each
      k's pairs are checked only until they clear it, which the two-step
      pair (u_k, u_k+2) almost always does."""
    u = [value for value, _ in groupby(values)]
    adjacent = list(map(nonmembership_degree, u, u[1:]))
    breaks = []
    for k, two_step in enumerate(map(nonmembership_degree, u, u[2:])):
        nu_k = adjacent[k]
        if two_step >= _ORDER_MARGIN * nu_k:
            continue
        for j in range(k + 2, len(u)):
            nu = nonmembership_degree(u[k], u[j])
            if nu >= _ORDER_MARGIN * nu_k:
                break
            if nu < nu_k:
                breaks.append((bisect_left(u, True, 0, k, key=lambda x: (
                    nonmembership_degree(x, u[j]) < nu_k)), j))
    if breaks:
        i, j = min(breaks)
        raise ValueError(f"cut search on {name!r}: nu is not monotone over the sorted "
                         f"values {[*map(float, u[i:j + 1])]}; near-duplicates break it by an ulp")


def _beta_intervals(table: InformationTable, name: str, target: Partition,
                    levels: list[float], top: list[int]) -> tuple[int, list[int]]:
    """The admissible cuts of ``name`` that give ``target``, as the half-open
    interval [lo, hi[i]) of beta level indices at each alpha level i (empty
    where lo >= hi[i]), hi cut to the admissible prefix ``top``.

    Along sorted values a pair's mu falls and its nu rises as it widens (in
    floats too: each step of mu rounds monotonically, and
    :func:`_check_order` makes sure of nu), so a cut's blocks are runs
    joined by the adjacent pairs that pass it, and each target block must
    be one run of the order by (value, target block).  An adjacent pair
    inside a run needs alpha <= mu and beta >= nu, so lo is one level for
    every alpha.  One at a boundary needs beta < nu wherever alpha <= mu,
    so beta stays below a staircase: the least nu among the boundary pairs
    with mu >= alpha.  With the boundary pairs sorted by mu, hi is one run
    of levels per step of that staircase, up to where the falling ``top``
    drops below it.  Adjacent degrees come from the degree functions, as
    :func:`build_proximity`'s cells do, and each bound is found by
    bisection under the comparison a mask over the levels would make."""
    values, range_max = numeric_values(table, name)
    pairs = sorted(zip(values, [target.block_of[o] for o in table.objects]))
    values, blocks = [value for value, _ in pairs], [block for _, block in pairs]
    _check_order(name, values)
    inner = list(map(operator.eq, blocks, blocks[1:]))
    if inner.count(False) >= len(target.blocks):  # a target block is not one run
        return 0, [0] * len(levels)
    mu = list(map(membership_degree, values, values[1:], repeat(range_max)))
    nu = list(map(nonmembership_degree, values, values[1:]))
    cross = sorted((mu[k], nu[k]) for k, same in enumerate(inner) if not same)
    edges = [edge for edge, _ in cross] + [math.inf]
    # the least nu among the boundary pairs from each one up in mu order
    stair = [*accumulate(reversed([least for _, least in cross]), min)][::-1] + [math.inf]
    cutoff = bisect_right(levels, min(compress(mu, inner), default=math.inf))  # alpha <= mu
    hi: list[int] = []
    for edge, least in zip(edges, stair):
        stop = min(bisect_right(levels, edge), cutoff)  # the alphas whose first mu >= alpha is edge
        high = bisect_left(levels, least)  # beta < nu
        cap = bisect_right(top, -high, len(hi), stop, key=operator.neg)  # top[cap] < high
        hi += [high] * (cap - len(hi))
        hi += top[cap:stop]
    hi += [0] * (len(levels) - len(hi))
    return bisect_left(levels, max(compress(nu, inner), default=-math.inf)), hi  # beta >= nu


def search_alpha_beta(table: InformationTable, targets: Mapping[str, Partition],
                      step: float = 0.005) -> CutSearchResult:
    """The points of the (alpha, beta) grid over the admissible set whose cut
    partitions reproduce every target (maybe none).  ``step`` must lie in
    (0, 1] and be at least 0.001: reports print three decimals.

    Each target attribute is sorted once, and its region is read from its
    adjacent degrees as one interval of beta levels per alpha level
    (:func:`_beta_intervals`), cut to the admissible prefix of that level.
    The joint region takes the largest low end over the targets and, per
    alpha level, the smallest high end.  It all runs on Python floats and
    lists, so the search imports no numpy and builds no n x n table.  One
    scan of each attribute's distinct sorted values (:func:`_check_order`)
    raises ValueError, naming the values, if near-duplicates among them
    break the order of nu."""
    if not 0.001 <= step <= 1:  # also rejects NaN
        raise ValueError(f"grid step must lie in (0, 1] and be at least 0.001, got {step}")
    if not targets:
        raise ValueError("at least one target partition is required")
    for name, part in targets.items():
        table.spec(name)
        if set(part.block_of) != set(table.objects):
            raise ValueError(f"target partition for {name!r} does not cover the universe")

    levels = [i * step for i in range(round(1.0 / step) + 1)]
    top = _admissible_prefix(levels)
    lo_all, his = 0, []
    per_attribute = {}
    for name, part in targets.items():
        lo, hi = _beta_intervals(table, name, part, levels, top)
        per_attribute[name] = _hull(lo, hi, levels)
        lo_all = max(lo_all, lo)
        his.append(hi)
    hi_all = list(map(min, zip(*his)))
    points = [(alpha, beta) for alpha, high in zip(levels, hi_all)
              for beta in levels[lo_all:high]]  # nothing where lo_all >= high
    return CutSearchResult(step=step, points=points, hull=_hull(lo_all, hi_all, levels),
                           per_attribute=per_attribute)


# ---------------------------------------------------------------------------
# report emission: each group yields the (file name, text) pairs of one
# stage's results, rendering a text only when its pair is reached, so a
# caller that writes one group renders no other.


def _json_text(doc: object) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _proximity_files(report: PipelineReport,
                     names: Iterable[str] = ()) -> Iterator[tuple[str, str]]:
    for name in sorted(set(names) or report.relations):
        yield f"proximity_{name}.csv", proximity_to_csv(report.relations[name])


def _partition_files(report: PipelineReport) -> Iterator[tuple[str, str]]:
    cut = report.config.cut
    yield "partitions.json", _json_text([
        partition_to_json(report.partitions[name], name, cut.alpha, cut.beta)
        for name in sorted(report.partitions)
    ])


def _rank_files(report: PipelineReport) -> Iterator[tuple[str, str]]:
    yield "ordered_table.csv", ordered_table_to_csv(report.ordered)
    yield "rank_table.csv", rank_table_to_csv(report.ranks)
    yield "clusters.json", _json_text([c._asdict() for c in report.clusters])


def _fca_files(report: PipelineReport) -> Iterator[tuple[str, str]]:
    for analysis in report.analyses:
        prefix = f"cluster_{analysis.cluster.cluster_id}"
        yield f"{prefix}_context.csv", fca.context_to_csv(analysis.context)
        yield f"{prefix}_lattice.dot", fca.lattice_to_dot(analysis.context, analysis.concepts,
                                                             analysis.cover)
        yield f"{prefix}_basis.txt", fca.basis_to_text(analysis.basis)
        yield f"{prefix}_basis.json", fca.basis_to_json(analysis.basis)
        yield f"{prefix}_frequencies.csv", fca.frequencies_to_csv(analysis.frequencies)


def _summary_files(report: PipelineReport) -> Iterator[tuple[str, str]]:
    chief_doc = {}
    for analysis in report.analyses:
        groups = [{"frequency": f, "attributes": attrs} for f, attrs in analysis.chief]
        chief_doc[f"cluster_{analysis.cluster.cluster_id}"] = {
            "groups": groups,
            "chief": groups[0]["attributes"] if groups else [],
            "next": groups[1]["attributes"] if len(groups) > 1 else [],
        }
    yield "chief_attributes.json", _json_text(chief_doc)
    yield "report.json", _json_text(report.provenance)


REPORT_GROUPS: dict[str, Callable[..., Iterable[tuple[str, str]]]] = {
    "proximity": _proximity_files,
    "partition": _partition_files,
    "rank": _rank_files,
    "fca": _fca_files,
}


def write_files(output_dir: str | Path, files: Iterable[tuple[str, str]]) -> list[dict]:
    """Create ``output_dir`` and write each (file name, text) pair into it.
    Returns one manifest entry per file with its content digest.  Any I/O
    failure, or a path that no file can have (one holding a NUL byte),
    raises :class:`StageError` tagged ``emit``.  ``hashlib`` is imported
    here: a command that writes nothing never loads it."""
    import hashlib

    out = Path(output_dir)
    with in_stage("emit", f"cannot create {out}: ", (OSError, ValueError)):
        out.mkdir(parents=True, exist_ok=True)
    entries = []
    for name, text in files:
        path = out / name
        data = text.encode("utf-8")
        del text
        with in_stage("emit", f"cannot write {path}: ", (OSError, ValueError)):
            path.write_bytes(data)  # untranslated newlines: the file is the hashed bytes
        entries.append({"path": name, "sha256": hashlib.sha256(data).hexdigest()})
        del data  # hold one rendered file at a time, not two, while the next renders
    return entries


def emit_reports(report: PipelineReport, output_dir: str | Path) -> list[dict]:
    """Write every artifact of a pipeline run into ``output_dir`` and return
    the manifest (also written as ``manifest.json``), one entry per file with
    its content digest."""
    groups = [files(report) for files in REPORT_GROUPS.values()]
    manifest = write_files(output_dir, chain(*groups, _summary_files(report)))
    manifest.sort(key=lambda e: e["path"])
    write_files(output_dir, [("manifest.json", _json_text({"files": manifest}))])
    return manifest
