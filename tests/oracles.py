"""Brute-force oracles, deliberately independent of the library's algorithms.

Each oracle recomputes a result by exhaustive definition-chasing (matrix
transitive closure, powerset enumeration, naive fixpoints) so the fast
implementations have something honest to be checked against.
"""

import csv
import io
import json
import math
from itertools import combinations

import numpy as np

from roughfca.approx import SimilarityGraph
from roughfca.fca import (
    FormalContext,
    FrequencyRow,
    FrequencyTable,
    Implication,
    _premise_notation,
    _resolve_scope,
    attribute_code,
)
from roughfca.ordering import OrderedColumn, OrderedTable, RankTable
from roughfca.pipeline import CutSearchResult
from roughfca.proximity import build_proximity, round_half_up
from roughfca.table import InformationTable, Partition, TableError


# --- lookups the library leaves to its callers --------------------------------

def attr_mask(context: FormalContext, names) -> int:
    """The mask of the named attributes."""
    mask = 0
    for name in names:
        mask |= 1 << context.attributes.index(name)
    return mask


def object_mask(context: FormalContext, names) -> int:
    """The mask of the named objects."""
    mask = 0
    for name in names:
        mask |= 1 << context.objects.index(name)
    return mask


def concept_names(context: FormalContext, concept) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """A concept's (object names, attribute names), read off its class mask
    and its attribute mask.  The classes are the context's distinct rows in
    order of first appearance."""
    classes = {row: k for k, row in enumerate(dict.fromkeys(context.rows))}
    return (tuple(o for o, row in zip(context.objects, context.rows)
                  if concept.extent >> classes[row] & 1),
            tuple(a for k, a in enumerate(context.attributes) if concept.intent >> k & 1))


def extent_of(context: FormalContext, mask: int) -> int:
    """Objects whose row holds every attribute of the mask (all objects for
    the empty mask), read off the context's rows."""
    out = 0
    for g, row in enumerate(context.rows):
        if row & mask == mask:
            out |= 1 << g
    return out


def intent_of(context: FormalContext, mask: int) -> int:
    """Attributes in the row of every object of the mask (all attributes for
    the empty mask), read off the context's rows."""
    out = (1 << len(context.attributes)) - 1
    for g, row in enumerate(context.rows):
        if mask >> g & 1:
            out &= row
    return out


def intent_closure(context: FormalContext, mask: int) -> int:
    """The closure of an attribute mask: the intent of its extent."""
    return intent_of(context, extent_of(context, mask))


def frequencies_by_attribute(freqs: FrequencyTable) -> dict[str, int]:
    return {row.attribute: row.frequency for row in freqs.rows}


def ordered_column(ordered: OrderedTable, attribute: str):
    """The ordered table's column for ``attribute``."""
    (column,) = (col for col in ordered.columns if col.attribute == attribute)
    return column


def ranks_by_object(ranks: RankTable) -> dict[str, int]:
    return {row.object: row.rank for row in ranks.rows}


# --- former library exports that no code outside the tests read ---------------

def derive_attributes(context: FormalContext, objects) -> tuple[str, ...]:
    """Attributes shared by every object of the set; all of M for the empty set."""
    return context.attr_names(intent_of(context, object_mask(context, objects)))


def derive_objects(context: FormalContext, attrs) -> tuple[str, ...]:
    """Objects possessing every attribute of the set; all of G for the empty set."""
    return context.object_names(extent_of(context, attr_mask(context, attrs)))


def indiscernibility(table: InformationTable, attrs) -> Partition:
    """Partition the universe by exact value agreement on every attribute in
    attrs.  Two objects share a block iff all their attrs values coincide.
    """
    names = list(attrs)
    if not names:
        raise TableError("attribute subset must be nonempty")
    for name in names:
        table.spec(name)
    key_order = sorted(set(names), key=table.attribute_names.index)
    groups: dict[tuple, list[str]] = {}
    for obj in table.objects:
        key = tuple(table.values[(obj, a)] for a in key_order)
        groups.setdefault(key, []).append(obj)
    return Partition.from_blocks(groups.values(), table.objects)


def induced_order(column: OrderedColumn, x: str, y: str) -> str:
    """"ahead" iff x's label strictly precedes y's in the ladder, "behind"
    for the converse, "tied" on equal labels."""
    px, py = column.ladder.position(column.label(x)), column.ladder.position(column.label(y))
    if px < py:
        return "ahead"
    if px > py:
        return "behind"
    return "tied"


def joint_order(columns, x: str, y: str) -> bool:
    """True iff x is strictly ahead of y on every given column."""
    cols = list(columns)
    if not cols:
        raise TableError("attribute subset must be nonempty")
    return all(induced_order(col, x, y) == "ahead" for col in cols)


# --- the proximity layer's former pair-by-pair loops --------------------------

def proximity_to_csv_reference(rel):
    """The library's former CSV renderer: every cell through ``Decimal``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([rel.attribute, *rel.objects])
    mu, nu = rel.mu, rel.nu  # each read computes the whole matrix
    for i, x in enumerate(rel.objects):
        cells = [
            f"{round_half_up(float(mu[i, j])):.3f},{round_half_up(float(nu[i, j])):.3f}"
            for j in range(rel.size)
        ]
        writer.writerow([x, *cells])
    return buf.getvalue()


def is_degree(x: float) -> bool:
    """A float of [0, 1]: -0.0 and NaN are not degrees."""
    return 0.0 <= x <= 1.0 and math.copysign(1.0, x) == 1.0


def validate_proximity_reference(rel):
    """The library's former axiom scan, one numpy scalar at a time: the
    pairs [i, j], i < j in row-major order, whose mu + nu exceeds 1."""
    n, mu, nu = rel.size, rel.mu, rel.nu
    return [[i, j] for i in range(n) for j in range(i + 1, n) if mu[i, j] + nu[i, j] > 1.0]


def is_reflexive_and_symmetric(rel) -> bool:
    """The former scan's other two axioms, one numpy scalar at a time: the
    diagonal is (1, 0) and each cell equals its mirror.  A relation of
    values keeps them by construction, which they check on the degrees
    that ``build_proximity``'s relations compute."""
    n, mu, nu = rel.size, rel.mu, rel.nu
    return (all(mu[i, i] == 1.0 and nu[i, i] == 0.0 for i in range(n))
            and all(mu[i, j] == mu[j, i] and nu[i, j] == nu[j, i]
                    for i in range(n) for j in range(i + 1, n)))


def cut_graph_reference(rel, params):
    """The library's former cut test, pair by pair over i <= j, each link
    set in both objects' rows."""
    n, mu, nu = rel.size, rel.mu, rel.nu
    rows = [0] * n
    for i in range(n):
        for j in range(i, n):
            if mu[i, j] >= params.alpha and nu[i, j] <= params.beta:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return SimilarityGraph(rel.objects, tuple(rows))


class UnionFind:
    """Disjoint-set union with path compression and union by rank, the
    library's former component search."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        if self.rank[rx] < self.rank[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        if self.rank[rx] == self.rank[ry]:
            self.rank[rx] += 1

    def groups(self) -> list[list[int]]:
        by_root: dict[int, list[int]] = {}
        for x in range(len(self.parent)):
            by_root.setdefault(self.find(x), []).append(x)
        return list(by_root.values())


def partition_from_cut_reference(graph):
    """The library's former component search: a disjoint-set union over the
    graph's edges, canonicalised by ``Partition.from_blocks``."""
    uf = UnionFind(graph.size)
    for i, j in graph.edges:
        uf.union(i, j)
    blocks = [[graph.objects[i] for i in grp] for grp in uf.groups()]
    return Partition.from_blocks(blocks, graph.objects)


# --- the report renderers' former csv.writer forms ----------------------------

def context_to_csv_reference(context: FormalContext) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["object", *context.attributes])
    for obj, row in zip(context.objects, context.rows):
        writer.writerow([obj, *("x" if row >> a & 1 else "" for a in range(len(context.attributes)))])
    return buf.getvalue()


def frequencies_to_csv_reference(freqs: FrequencyTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    attrs = [row.attribute for row in freqs.rows]
    writer.writerow(["superconcept", *attrs])
    writer.writerow(["subconcepts",
                     *("; ".join(_premise_notation(p, m) for p, m in row.contributors)
                       for row in freqs.rows)])
    writer.writerow(["frequency", *(row.frequency for row in freqs.rows)])
    return buf.getvalue()


def ordered_table_to_csv_reference(ordered: OrderedTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["object", *ordered.attribute_names])
    for obj in ordered.objects:
        writer.writerow([obj, *(col.label(obj) for col in ordered.columns)])
    return buf.getvalue()


def rank_table_to_csv_reference(ranks: RankTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["object", *ranks.attributes, "total_sum", "rank"])
    for row in ranks.rows:
        cells = [f"{lbl} ({w})" for lbl, w in zip(row.labels, row.weights)]
        writer.writerow([row.object, *cells, row.total, row.rank])
    return buf.getvalue()


# --- the cut search's former grid scan ---------------------------------------

def _points_hull(points):
    if not points:
        return None
    alphas = [p[0] for p in points]
    betas = [p[1] for p in points]
    return (min(alphas), max(alphas), min(betas), max(betas))


def search_alpha_beta_grid_reference(table, targets, step=0.005):
    """The library's former cut search: scan the (alpha, beta) grid of the
    admissible set for the points whose cut partitions reproduce every
    target exactly, closing each distinct edge set with a union-find."""
    if not 0 < step <= 1:  # also rejects NaN
        raise ValueError(f"grid step must lie in (0, 1], got {step}")
    if not targets:
        raise ValueError("at least one target partition is required")
    for name, part in targets.items():
        table.spec(name)
        if set(part.block_of) != set(table.objects):
            raise ValueError(f"target partition for {name!r} does not cover the universe")

    n = len(table.objects)
    pair_index = [(i, j) for i in range(n) for j in range(i + 1, n)]
    per_attr = {}
    for name in targets:
        rel = build_proximity(table, name)
        mu, nu = rel.mu, rel.nu
        per_attr[name] = (np.array([mu[i, j] for i, j in pair_index]),
                          np.array([nu[i, j] for i, j in pair_index]))

    steps = round(1.0 / step)
    levels = [i * step for i in range(steps + 1)]
    target_sets = {name: part.as_sets() for name, part in targets.items()}

    match_cache: dict[tuple[str, bytes], bool] = {}

    def matches(name, edge_mask):
        key = (name, edge_mask.tobytes())
        hit = match_cache.get(key)
        if hit is not None:
            return hit
        uf = UnionFind(n)
        for flag, (i, j) in zip(edge_mask, pair_index):
            if flag:
                uf.union(i, j)
        blocks = frozenset(
            frozenset(table.objects[i] for i in grp) for grp in uf.groups()
        )
        ok = blocks == target_sets[name]
        match_cache[key] = ok
        return ok

    feasible: list[tuple[float, float]] = []
    attr_points: dict[str, list[tuple[float, float]]] = {name: [] for name in targets}
    mu_ge = {name: {a: per_attr[name][0] >= a for a in levels} for name in targets}
    nu_le = {name: {b: per_attr[name][1] <= b for b in levels} for name in targets}
    for alpha in levels:
        for beta in levels:
            if alpha + beta > 1.0 + 1e-12:
                break
            ok_all = True
            for name in targets:
                edges = mu_ge[name][alpha] & nu_le[name][beta]
                if matches(name, edges):
                    attr_points[name].append((alpha, beta))
                else:
                    ok_all = False
            if ok_all:
                feasible.append((alpha, beta))

    return CutSearchResult(
        step=step,
        points=feasible,
        hull=_points_hull(feasible),
        per_attribute={name: _points_hull(pts) for name, pts in attr_points.items()},
    )


def first_nu_break(values):
    """The cut search's pairwise order check, as the library ran it on every
    attribute: the first pair (i, j), i < j, of the sorted ``values`` in
    row-major order whose nu lies below the largest adjacent nu between
    them; None if no pair does.  nu is the plain |x - y| / (2 (x + y)):
    for values in [1, the largest float], as every table holds, with
    2 (x + y) finite, it is the library's nu bit for bit, but not below
    the normal range, where the library's scalings round."""
    values = [float(v) for v in values]

    def nu(x, y):
        return abs(x - y) / (2.0 * (x + y))

    for i in range(len(values)):
        largest = -math.inf
        for j in range(i + 1, len(values)):
            largest = max(largest, nu(values[j - 1], values[j]))
            if nu(values[i], values[j]) < largest:
                return i, j
    return None


def closure_partition_bruteforce(objects, edge_pairs):
    """Reflexive-symmetric-transitive closure of a pair relation via boolean
    matrix squaring; returns the classes as a frozenset of frozensets."""
    n = len(objects)
    index = {o: i for i, o in enumerate(objects)}
    reach = [[i == j for j in range(n)] for i in range(n)]
    for x, y in edge_pairs:
        reach[index[x]][index[y]] = True
        reach[index[y]][index[x]] = True
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if not reach[i][j] and any(reach[i][k] and reach[k][j] for k in range(n)):
                    reach[i][j] = True
                    changed = True
    classes = {}
    for i in range(n):
        key = tuple(reach[i])
        classes.setdefault(key, []).append(objects[i])
    return frozenset(frozenset(c) for c in classes.values())


def _context_from_pairs(objects, attributes, pairs) -> FormalContext:
    """Context from its incidences given as (object, attribute) name pairs."""
    attr_index = {a: i for i, a in enumerate(attributes)}
    obj_index = {o: i for i, o in enumerate(objects)}
    rows = [0] * len(objects)
    for obj, attr in pairs:
        rows[obj_index[obj]] |= 1 << attr_index[attr]
    return FormalContext(tuple(objects), tuple(attributes), tuple(rows))


def build_context_reference(source, scope=None) -> FormalContext:
    """The library's former nominal scaling: every incidence as an (object,
    code) name pair, each ordered-table category found by re-reading every
    object's label, and the context built from those pairs.  Same contract
    as ``roughfca.fca.build_context``."""
    if not isinstance(source, OrderedTable):
        raise TypeError(f"cannot scale a {type(source).__name__}")
    objects = _resolve_scope(source.objects, scope)

    names: list[str] = []
    pairs: list[tuple[str, str]] = []
    for col in source.columns:
        levels = sorted({col.ladder.position(col.label(o)) for o in objects})
        for k in levels:
            code = attribute_code(col.source_index, k)
            names.append(code)
            for o in objects:
                if col.ladder.position(col.label(o)) == k:
                    pairs.append((o, code))
    return _context_from_pairs(objects, names, pairs)


def concepts_bruteforce(context: FormalContext):
    """All concepts as {(extent frozenset, intent frozenset)} by closing every
    attribute subset."""
    m = len(context.attributes)
    found = set()
    for r in range(m + 1):
        for combo in combinations(range(m), r):
            mask = 0
            for a in combo:
                mask |= 1 << a
            extent = extent_of(context, mask)
            intent = intent_of(context, extent)
            found.add((frozenset(context.object_names(extent)),
                       frozenset(context.attr_names(intent))))
    return found


def valid_implications_bruteforce(context: FormalContext, require_support=True):
    """Every implication premise -> closure(premise) \\ premise that holds in
    the context, optionally restricted to premises some object satisfies.
    Yields (premise frozenset, conclusion frozenset)."""
    m = len(context.attributes)
    for r in range(m + 1):
        for combo in combinations(range(m), r):
            mask = 0
            for a in combo:
                mask |= 1 << a
            extent = extent_of(context, mask)
            if require_support and extent == 0:
                continue
            closed = intent_of(context, extent)
            if closed != mask:
                yield (frozenset(context.attr_names(mask)),
                       frozenset(context.attr_names(closed & ~mask)))


def naive_rule_closure(rules, attrs):
    """Fixpoint closure of an attribute set under (premise, conclusion)
    pairs, written independently of the library helper."""
    closed = set(attrs)
    while True:
        additions = set()
        for premise, conclusion in rules:
            if set(premise) <= closed:
                additions |= set(conclusion) - closed
        if not additions:
            return frozenset(closed)
        closed |= additions


def rules_of(basis):
    return [(imp.premise, imp.conclusion) for imp in basis]


def implication_holds(context: FormalContext, premise, conclusion) -> bool:
    """True iff every object containing the premise contains the conclusion."""
    pm = attr_mask(context, premise)
    cm = attr_mask(context, conclusion)
    extent = extent_of(context, pm)
    return extent_of(context, cm) & extent == extent


def hasse_edges_bruteforce(extents):
    """Cover pairs (i, j) of the inclusion order on a list of distinct sets."""
    edges = set()
    for i, ei in enumerate(extents):
        for j, ej in enumerate(extents):
            if i == j or not ej < ei:
                continue
            if not any(ej < ek < ei for k, ek in enumerate(extents) if k not in (i, j)):
                edges.add((i, j))
    return edges


def lattice_cover_reference(concepts):
    """The library's former lattice cover, over named concepts (object
    names, attribute names).  Same contract as ``roughfca.fca.lattice_cover``:
    (parent, child) index pairs, sorted.  For each concept it scans the
    strict supersets of its extent by ascending size; one is minimal iff it
    strictly contains none of the parents already kept.  About C^2/2 pair
    tests for C concepts."""
    index: dict[str, int] = {}
    masks = []
    for extent, _ in concepts:
        mask = 0
        for obj in extent:
            mask |= 1 << index.setdefault(obj, len(index))
        masks.append(mask)
    by_size = sorted(range(len(masks)), key=lambda i: masks[i].bit_count())
    edges = []
    for pos, j in enumerate(by_size):
        child = masks[j]
        kept: list[int] = []
        for i in by_size[pos + 1:]:
            ext = masks[i]
            if child & ~ext or ext == child:
                continue
            if any(k & ~ext == 0 and k != ext for k in kept):
                continue
            kept.append(ext)
            edges.append((i, j))
    edges.sort()
    return edges


def lattice_to_dot_reference(concepts, cover):
    """The library's former DOT renderer, over named concepts (object names,
    attribute names): reduced labels from each concept's parents and
    children in the cover, the attributes in no parent's intent and the
    objects in no child's extent.  Same contract as
    ``roughfca.fca.lattice_to_dot`` for names that need no escaping."""
    parents: dict[int, list[int]] = {}
    children: dict[int, list[int]] = {}
    for p, c in cover:
        parents.setdefault(c, []).append(p)
        children.setdefault(p, []).append(c)

    lines = ["digraph concept_lattice {", "  rankdir=BT;", "  node [shape=record];"]
    for idx, (extent, intent) in enumerate(concepts):
        inherited_attrs = set()
        for p in parents.get(idx, []):
            inherited_attrs.update(concepts[p][1])
        passed_objs = set()
        for c in children.get(idx, []):
            passed_objs.update(concepts[c][0])
        own_attrs = [a for a in intent if a not in inherited_attrs]
        own_objs = [o for o in extent if o not in passed_objs]
        label = "{%s|%s}" % (" ".join(own_attrs), " ".join(own_objs))
        lines.append(f'  c{idx} [label="{label}"];')
    for p, c in cover:
        lines.append(f"  c{c} -> c{p};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def basis_to_json_reference(basis):
    """The library's former basis document: ``json.dumps`` of one dict per
    rule.  Same contract as ``roughfca.fca.basis_to_json``."""
    docs = [{"premise": list(imp.premise), "conclusion": list(imp.conclusion),
             "support": imp.support} for imp in basis]
    return json.dumps(docs, indent=2, sort_keys=True) + "\n"


def search_document_reference(result: CutSearchResult) -> str:
    """The library's former ``search-cut`` document: ``json.dumps`` of the
    result's fields.  Same contract as ``CutSearchResult.to_json``."""
    hulls = {name: list(h) if h else None for name, h in sorted(result.per_attribute.items())}
    return json.dumps({"step": result.step, "feasible_points": [list(p) for p in result.points],
                       "hull": list(result.hull) if result.hull else None, "per_attribute": hulls},
                      indent=2, sort_keys=True) + "\n"


def _next_closure_reference(mask: int, n: int, close) -> int | None:
    """Lectically smallest closed set after ``mask``, or None past the top."""
    for i in range(n - 1, -1, -1):
        bit = 1 << i
        if mask & bit:
            mask &= ~bit
        else:
            closed = close(mask | bit)
            if (closed & ~mask) & (bit - 1) == 0:
                return closed
    return None


def enumerate_concepts_reference(context: FormalContext):
    """The library's former concept enumeration: Next-Closure over the
    intents, closing each candidate from scratch.  Same contract as
    ``roughfca.fca.enumerate_concepts``, every concept once in lectic order
    of intents, each named: (object names, attribute names)."""
    n = len(context.attributes)
    concepts = []
    intent = intent_closure(context, 0)
    while intent is not None:
        extent = extent_of(context, intent)
        concepts.append((context.object_names(extent), context.attr_names(intent)))
        intent = _next_closure_reference(intent, n, lambda mask: intent_closure(context, mask))
    return concepts


def canonical_basis_reference(context: FormalContext, include_unsupported: bool = False):
    """The library's former canonical basis: Next-Closure over a logical
    closure that rescans every rule found so far until nothing changes.
    Same contract as ``roughfca.fca.canonical_basis``: rules by support
    descending, then lectic premise order."""
    n = len(context.attributes)
    rules: list[tuple[int, int]] = []  # (premise mask, full closure mask)

    def logical_closure(mask: int) -> int:
        changed = True
        while changed:
            changed = False
            for prem, concl in rules:
                if prem & ~mask == 0 and concl & ~mask:
                    mask |= concl
                    changed = True
        return mask

    mask = 0
    while mask is not None:
        closed = intent_closure(context, mask)
        if closed != mask:
            rules.append((mask, closed))
        mask = _next_closure_reference(mask, n, logical_closure)

    out = []
    for prem, closed in rules:
        support = extent_of(context, prem).bit_count()
        if support == 0 and not include_unsupported:
            continue
        out.append(Implication(
            premise=context.attr_names(prem),
            conclusion=context.attr_names(closed & ~prem),
            support=support,
        ))
    out.sort(key=lambda imp: -imp.support)  # stable: keeps lectic order within ties
    return out


def implication_frequencies_reference(basis):
    """The library's former frequency table: one scan of the whole basis per
    conclusion attribute."""
    attrs = sorted({a for imp in basis for a in imp.conclusion})
    rows = []
    for attr in attrs:
        contributing = [imp for imp in basis if attr in imp.conclusion]
        freq = sum(imp.support * len(imp.premise) for imp in contributing)
        rows.append(FrequencyRow(
            attribute=attr,
            frequency=freq,
            contributors=tuple((imp.premise, imp.support) for imp in contributing),
        ))
    return FrequencyTable(tuple(rows))


def is_valid_partition(blocks, universe) -> bool:
    seen = []
    for block in blocks:
        if not block:
            return False
        seen.extend(block)
    return len(seen) == len(set(seen)) and set(seen) == set(universe)


# --- bitmask variants, for the high-volume randomized suites -----------------

def concepts_bruteforce_masks(context: FormalContext):
    """All (extent mask, intent mask) pairs from closing every attribute subset."""
    m = len(context.attributes)
    found = set()
    for mask in range(1 << m):
        extent = extent_of(context, mask)
        found.add((extent, intent_of(context, extent)))
    return found


def mask_rules(basis, context: FormalContext):
    return [(attr_mask(context, imp.premise), attr_mask(context, imp.conclusion))
            for imp in basis]


def mask_closure(rules, mask: int) -> int:
    changed = True
    while changed:
        changed = False
        for premise, conclusion in rules:
            if premise & ~mask == 0 and conclusion & ~mask:
                mask |= conclusion
                changed = True
    return mask


def valid_implication_masks(context: FormalContext, require_support=True):
    """(premise mask, proper-conclusion mask) of every implication that holds."""
    m = len(context.attributes)
    for mask in range(1 << m):
        extent = extent_of(context, mask)
        if require_support and extent == 0:
            continue
        closed = intent_of(context, extent)
        if closed != mask:
            yield mask, closed & ~mask


def pseudo_intents_bruteforce(context: FormalContext):
    """Pseudo-closed attribute sets straight from the recursive definition:
    a non-closed set containing the closure of every pseudo-closed proper
    subset.  Scans the powerset in size order so smaller pseudo-closed sets
    are always known first."""
    m = len(context.attributes)
    pseudo: list[int] = []
    for mask in sorted(range(1 << m), key=lambda x: (x.bit_count(), x)):
        if intent_closure(context, mask) == mask:
            continue
        if all(q & ~mask or intent_closure(context, q) & ~mask == 0
               for q in pseudo if q != mask):
            pseudo.append(mask)
    return pseudo
