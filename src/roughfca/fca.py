"""Formal concept analysis: contexts, concepts, implications, frequencies.

A formal context is a binary incidence relation between objects and
attributes.  The derivation operators (common attributes of an object set,
common objects of an attribute set) form a Galois connection whose fixed
points are the formal concepts; concepts ordered by extent inclusion form a
complete lattice.

Concept enumeration and the canonical implication basis both use Ganter's
Next-Closure iteration.  Rows and columns are kept as integer bitmasks, so
closures are a handful of machine-word operations at the scale this package
targets (tens of objects and attributes).

The basis's Next-Closure runs over the logical closure under the rules found
so far.  A rule index makes that closure bit-parallel: ``uses[a]`` is a
bitmask over rule indices marking the rules whose premise contains attribute
``a``, so the rules that fire on a set X are all rules minus the OR of
``uses[a]`` over the attributes a outside X.  For each candidate of one
Next-Closure step, that OR is read off a prefix and a suffix computed once
per step.  A candidate's closure stops as soon as it gains an attribute
below the one added, since the canonicity test has then failed (Bazhanov &
Obiedkov 2014, "Optimizations in computing the Duquenne-Guigues basis of
implications").  The lattice cover finds each concept's upper neighbours as
the minimal strict supersets of its extent bitmask (after Lindig 2000,
"Fast Concept Analysis").

The canonical basis returned by default contains the rules whose premise is
satisfied by at least one object.  Premises satisfied by no object close to
the full attribute set and add only vacuous rules; they are available via
``include_unsupported=True`` for the textbook basis, and the default subset
remains sound, complete and minimal for all implications whose premise has
at least one supporting object.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .ordering import OrderedTable
from .table import InformationTable, cell_token


def attribute_code(source_index: int, level: int) -> str:
    """Compact code for one (attribute, category) pair, e.g. A51 for the
    fifth attribute's best category."""
    if source_index <= 9 and level <= 9:
        return f"A{source_index}{level}"
    return f"A{source_index}.{level}"


def _bit_indices(mask: int) -> list[int]:
    """Indices of the set bits, ascending; one step per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True, eq=False)
class FormalContext:
    """Objects, attributes and their incidence, with bitmask accessors."""

    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    rows: tuple[int, ...]  # per object, bitmask over attribute indices
    cols: tuple[int, ...] = field(init=False, repr=False)
    _obj_index: dict[str, int] = field(init=False, repr=False)
    _attr_index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.rows) != len(self.objects):
            raise ValueError("one incidence row per object required")
        cols = []
        for a in range(len(self.attributes)):
            mask = 0
            for g, row in enumerate(self.rows):
                if row >> a & 1:
                    mask |= 1 << g
            cols.append(mask)
        object.__setattr__(self, "cols", tuple(cols))
        object.__setattr__(self, "_obj_index", {o: i for i, o in enumerate(self.objects)})
        object.__setattr__(self, "_attr_index", {a: i for i, a in enumerate(self.attributes)})

    @classmethod
    def from_pairs(cls, objects: Sequence[str], attributes: Sequence[str],
                   pairs: Iterable[tuple[str, str]]) -> "FormalContext":
        attr_index = {a: i for i, a in enumerate(attributes)}
        obj_index = {o: i for i, o in enumerate(objects)}
        rows = [0] * len(objects)
        for obj, attr in pairs:
            rows[obj_index[obj]] |= 1 << attr_index[attr]
        return cls(tuple(objects), tuple(attributes), tuple(rows))

    def incidence(self, obj: str, attr: str) -> bool:
        return bool(self.rows[self._obj_index[obj]] >> self._attr_index[attr] & 1)

    def attr_mask(self, names: Iterable[str]) -> int:
        mask = 0
        for name in names:
            mask |= 1 << self._attr_index[name]
        return mask

    def object_mask(self, names: Iterable[str]) -> int:
        mask = 0
        for name in names:
            mask |= 1 << self._obj_index[name]
        return mask

    def attr_names(self, mask: int) -> tuple[str, ...]:
        return tuple(self.attributes[i] for i in _bit_indices(mask))

    def object_names(self, mask: int) -> tuple[str, ...]:
        return tuple(self.objects[i] for i in _bit_indices(mask))

    def extent_of(self, attr_mask: int) -> int:
        """Objects possessing every attribute of the mask (all objects for
        the empty mask)."""
        out = (1 << len(self.objects)) - 1
        for a in _bit_indices(attr_mask):
            out &= self.cols[a]
        return out

    def intent_of(self, object_mask: int) -> int:
        """Attributes shared by every object of the mask (all attributes for
        the empty mask)."""
        out = (1 << len(self.attributes)) - 1
        for g in _bit_indices(object_mask):
            out &= self.rows[g]
        return out

    def intent_closure(self, attr_mask: int) -> int:
        return self.intent_of(self.extent_of(attr_mask))


def derive_attributes(context: FormalContext, objects: Iterable[str]) -> tuple[str, ...]:
    """Attributes shared by every object of the set; all of M for the empty set."""
    return context.attr_names(context.intent_of(context.object_mask(objects)))


def derive_objects(context: FormalContext, attrs: Iterable[str]) -> tuple[str, ...]:
    """Objects possessing every attribute of the set; all of G for the empty set."""
    return context.object_names(context.extent_of(context.attr_mask(attrs)))


def build_context(source: OrderedTable | InformationTable,
                  scope: Iterable[str] | None = None) -> FormalContext:
    """Nominal scaling of an ordered or plain table restricted to a scope.

    Each (attribute, category) pair occurring in the scope becomes one
    binary context attribute; an object is incident with it iff its cell
    carries that category.  Ordered-table categories are coded
    ``A<position><ladder level>``; plain-table values are coded
    ``<attribute>=<value>``.
    """
    if isinstance(source, OrderedTable):
        universe = source.objects
    elif isinstance(source, InformationTable):
        universe = source.objects
    else:
        raise TypeError(f"cannot scale a {type(source).__name__}")
    objects = _resolve_scope(universe, scope)

    names: list[str] = []
    pairs: list[tuple[str, str]] = []
    if isinstance(source, OrderedTable):
        for col in source.columns:
            levels = sorted({col.ladder.position(col.label(o)) for o in objects})
            for k in levels:
                code = attribute_code(col.source_index, k)
                names.append(code)
                for o in objects:
                    if col.ladder.position(col.label(o)) == k:
                        pairs.append((o, code))
    else:
        for spec in source.attributes:
            tokens = [cell_token(source.value(o, spec.name)) for o in objects]
            if spec.ladder:
                order = [t for t in spec.ladder if t in set(tokens)]
                stray = sorted(set(tokens) - set(order))
                order += stray
            else:
                order = list(dict.fromkeys(tokens))
            for token in order:
                code = f"{spec.name}={token}"
                names.append(code)
                for o, t in zip(objects, tokens):
                    if t == token:
                        pairs.append((o, code))
    return FormalContext.from_pairs(objects, names, pairs)


def _resolve_scope(universe: tuple[str, ...], scope: Iterable[str] | None) -> tuple[str, ...]:
    if scope is None:
        return universe
    wanted = set(scope)
    unknown = sorted(wanted - set(universe))
    if unknown:
        raise ValueError(f"scope contains objects outside the universe: {unknown}")
    objects = tuple(o for o in universe if o in wanted)
    if not objects:
        raise ValueError("scope must contain at least one object")
    return objects


@dataclass(frozen=True)
class Concept:
    """An (extent, intent) pair fixed under mutual derivation."""

    extent: tuple[str, ...]
    intent: tuple[str, ...]


def _next_closure(mask: int, n: int, close) -> int | None:
    """Lectically smallest closed set after ``mask``, or None past the top.

    A candidate is the attributes of ``mask`` below some i plus i itself, so
    i is its highest attribute.  ``close(candidate, below)`` returns the
    candidate's closure, or None once it finds in it an attribute of
    ``below``, the attributes below i that ``mask`` lacks: such a closure
    fails the canonicity test, so the rest of it is not needed.
    """
    for i in range(n - 1, -1, -1):
        bit = 1 << i
        if mask & bit:
            mask &= ~bit
        else:
            closed = close(mask | bit, ~mask & (bit - 1))
            if closed is not None:
                return closed
    return None


def enumerate_concepts(context: FormalContext) -> list[Concept]:
    """All formal concepts, each exactly once, in lectic order of intents."""
    def close(mask: int, below: int) -> int | None:
        closed = context.intent_closure(mask)
        return None if closed & below else closed

    n = len(context.attributes)
    concepts = []
    intent = context.intent_closure(0)
    while intent is not None:
        extent = context.extent_of(intent)
        concepts.append(Concept(context.object_names(extent), context.attr_names(intent)))
        intent = _next_closure(intent, n, close)
    return concepts


def lattice_cover(concepts: Sequence[Concept]) -> list[tuple[int, int]]:
    """Hasse diagram of the extent-inclusion order: (parent, child) index
    pairs where the parent's extent covers the child's with nothing between.

    The parents of a concept are the minimal strict supersets of its extent.
    Scanning the strict supersets by ascending size, one is minimal iff it
    strictly contains none of the parents already kept.
    """
    index: dict[str, int] = {}
    masks = []
    for concept in concepts:
        mask = 0
        for obj in concept.extent:
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


@dataclass(frozen=True)
class Implication:
    """premise -> conclusion with support = number of objects satisfying the
    premise.  Premise and conclusion are disjoint attribute tuples."""

    premise: tuple[str, ...]
    conclusion: tuple[str, ...]
    support: int


def canonical_basis(context: FormalContext, include_unsupported: bool = False) -> list[Implication]:
    """Stem base of the context: one rule per pseudo-intent, conclusion the
    closure minus the premise, listed by support descending then lectic
    premise order.  Rules whose premise no object satisfies are omitted
    unless ``include_unsupported`` is set.
    """
    n = len(context.attributes)
    full = (1 << n) - 1
    premises: list[int] = []
    closures: list[int] = []  # full closure mask of each rule's premise
    uses = [0] * n  # per attribute, bitmask over the rules whose premise holds it
    first = [0] * n  # per attribute i, the rules blocked on the candidate for i

    def blocked_by(mask: int) -> int:
        """Rules whose premise holds an attribute outside ``mask``."""
        blocked = 0
        absent = full & ~mask
        while absent:
            low = absent & -absent
            blocked |= uses[low.bit_length() - 1]
            absent ^= low
        return blocked

    def logical_closure(mask: int, below: int) -> int | None:
        blocked = first[mask.bit_length() - 1]  # the candidate's top attribute
        fired = 0
        while fresh := ((1 << len(closures)) - 1) & ~blocked & ~fired:
            fired |= fresh
            while fresh:
                low = fresh & -fresh
                mask |= closures[low.bit_length() - 1]
                fresh ^= low
            if mask & below:
                return None
            blocked = blocked_by(mask)
        return mask

    mask = 0
    while mask is not None:
        closed = context.intent_closure(mask)
        if closed != mask:
            rule = 1 << len(closures)
            for a in _bit_indices(mask):
                uses[a] |= rule
            premises.append(mask)
            closures.append(closed)
        # The candidate for i lacks every attribute above i and those below i
        # that mask lacks: OR their rule sets once, as a prefix and a suffix.
        below_i = 0
        for a in range(n):
            first[a] = below_i
            if not mask >> a & 1:
                below_i |= uses[a]
        above_i = 0
        for a in range(n - 1, -1, -1):
            first[a] |= above_i
            above_i |= uses[a]
        mask = _next_closure(mask, n, logical_closure)

    out = []
    for prem, closed in zip(premises, closures):
        support = context.extent_of(prem).bit_count()
        if support == 0 and not include_unsupported:
            continue
        out.append(Implication(
            premise=context.attr_names(prem),
            conclusion=context.attr_names(closed & ~prem),
            support=support,
        ))
    out.sort(key=lambda imp: -imp.support)  # stable: keeps lectic order within ties
    return out


def implication_closure(basis: Iterable[Implication], attrs: Iterable[str]) -> frozenset[str]:
    """Syntactic closure of an attribute set under a rule list."""
    closed = set(attrs)
    rules = [(set(imp.premise), set(imp.conclusion)) for imp in basis]
    changed = True
    while changed:
        changed = False
        for premise, conclusion in rules:
            if premise <= closed and not conclusion <= closed:
                closed |= conclusion
                changed = True
    return frozenset(closed)


@dataclass(frozen=True)
class FrequencyRow:
    """Score of one attribute: the support-weighted premise sizes of every
    rule concluding it, with the contributing premises kept for reporting
    (multiplicity equals the rule's support)."""

    attribute: str
    frequency: int
    contributors: tuple[tuple[tuple[str, ...], int], ...]


@dataclass(frozen=True)
class FrequencyTable:
    rows: tuple[FrequencyRow, ...]

    def frequency(self, attr: str) -> int:
        for row in self.rows:
            if row.attribute == attr:
                return row.frequency
        raise KeyError(f"attribute {attr!r} occurs in no conclusion")

    def as_dict(self) -> dict[str, int]:
        return {row.attribute: row.frequency for row in self.rows}


def implication_frequencies(basis: Sequence[Implication]) -> FrequencyTable:
    """frequency(a) = sum of support * |premise| over the rules whose
    conclusion contains a.  One row per attribute occurring in at least one
    conclusion, sorted by attribute name."""
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


def chief_attributes(freqs: FrequencyTable) -> list[tuple[int, tuple[str, ...]]]:
    """Attributes grouped by distinct frequency, highest first.  The first
    group is the chief attribute set, the second the next influencing one."""
    by_freq: dict[int, list[str]] = {}
    for row in freqs.rows:
        by_freq.setdefault(row.frequency, []).append(row.attribute)
    return [(f, tuple(sorted(by_freq[f]))) for f in sorted(by_freq, reverse=True)]


# ---------------------------------------------------------------------------
# report renderers


def context_to_csv(context: FormalContext, label_column: str = "object") -> str:
    """Cross table: one row per object, "x" where the incidence holds."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([label_column, *context.attributes])
    for obj, row in zip(context.objects, context.rows):
        writer.writerow([obj, *("x" if row >> a & 1 else "" for a in range(len(context.attributes)))])
    return buf.getvalue()


def lattice_to_dot(concepts: Sequence[Concept], cover: Sequence[tuple[int, int]],
                   name: str = "concept_lattice") -> str:
    """DOT digraph with one node per concept and one edge per cover pair.
    Nodes carry reduced labels: the attributes and objects introduced at the
    concept (attributes not present in any parent, objects in no child)."""
    parents: dict[int, list[int]] = {}
    children: dict[int, list[int]] = {}
    for p, c in cover:
        parents.setdefault(c, []).append(p)
        children.setdefault(p, []).append(c)

    lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=record];"]
    for idx, concept in enumerate(concepts):
        inherited_attrs = set()
        for p in parents.get(idx, []):
            inherited_attrs.update(concepts[p].intent)
        passed_objs = set()
        for c in children.get(idx, []):
            passed_objs.update(concepts[c].extent)
        own_attrs = [a for a in concept.intent if a not in inherited_attrs]
        own_objs = [o for o in concept.extent if o not in passed_objs]
        label = "{%s|%s}" % (" ".join(own_attrs), " ".join(own_objs))
        lines.append(f'  c{idx} [label="{label}"];')
    for p, c in cover:
        lines.append(f"  c{c} -> c{p};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def format_implication(imp: Implication) -> str:
    premise = " ".join(imp.premise) if imp.premise else "{}"
    return f"<{imp.support}> {premise} => {' '.join(imp.conclusion)}"


def basis_to_text(basis: Sequence[Implication]) -> str:
    return "\n".join(format_implication(imp) for imp in basis) + "\n"


def basis_to_json(basis: Sequence[Implication]) -> str:
    docs = [{"premise": list(imp.premise), "conclusion": list(imp.conclusion),
             "support": imp.support} for imp in basis]
    return json.dumps(docs, indent=2, sort_keys=True) + "\n"


def _premise_notation(premise: tuple[str, ...], multiplicity: int) -> str:
    body = ", ".join(premise) if premise else "{}"
    return f"{body}*{multiplicity}" if multiplicity > 1 else body


def frequencies_to_csv(freqs: FrequencyTable) -> str:
    """Cross table with one column per scored attribute: the contributing
    premises (with multiplicities) and the frequency row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    attrs = [row.attribute for row in freqs.rows]
    writer.writerow(["superconcept", *attrs])
    writer.writerow(["subconcepts",
                     *("; ".join(_premise_notation(p, m) for p, m in row.contributors)
                       for row in freqs.rows)])
    writer.writerow(["frequency", *(row.frequency for row in freqs.rows)])
    return buf.getvalue()
