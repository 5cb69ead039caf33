"""Formal concept analysis: contexts, concepts, implications, frequencies.

A formal context is a binary incidence relation between objects and
attributes.  The derivation operators (common attributes of an object set,
common objects of an attribute set) form a Galois connection whose fixed
points are the formal concepts; concepts ordered by extent inclusion form a
complete lattice.

A context is kept as one bitmask per object over the attribute indices.
Nominal scaling gives each category of a column the next bit and ORs it
into the rows of the objects that carry it, so no name is looked up on the
way; the columns are then read off the rows' set bits.  One helper,
``_names``, reads the labels off a mask by clearing one bit per name, and
concepts and rules are named through it.  The loops that run once per node,
per candidate or per rule inside the two walks below stay inline: there a
call per step costs more than the loop it would replace (routing the basis's
per-rule marks through ``_bit_indices`` made it 4-15% slower).

Objects with equal rows are indiscernible: every extent holds all of them or
none.  So a context is clarified once, when it is made: its classes are its
distinct rows in order of first appearance, each with a member mask over the
objects and a multiplicity, and its class columns are bitmasks over the
classes.  The two walks, the cover and the DOT run over classes, so their
cost follows the distinct rows, not the objects (a ranked cluster repeats
label rows often: 25 distinct rows among 59 objects in the benchmark's
``tiered`` table).  A rule's support is the sum of the multiplicities of its
extent's classes, the same object count as before.  A concept from the walk
keeps its class extent and its intent as masks; the tuples of names that
``Concept.extent`` and ``Concept.intent`` give are built when first read, and
the report path reads none of them: the DOT expands to objects only the
classes each node introduces.  A concept list made by hand from names gets
its masks in one place, ``_lattice_masks``, each object a class of its own.

Concept enumeration and the canonical implication basis both walk a
Close-by-One tree (Kuznetsov 1993).  Rows and columns are kept as integer
bitmasks, so closures are a handful of machine-word operations at the scale
this package targets (tens of objects and attributes), and the walk keeps an
explicit stack, so a long chain of closed sets never meets the recursion
limit.  A node is a closed set B whose last added attribute is y - 1.  Child
i, for each i >= y outside B, is the closure of B + {i}; it is kept only if
the closure gains no attribute below i that B lacks, so every closed set has
exactly one parent.  Every set under child i agrees with B below i and holds
i, so it is lectically smaller than every set under a sibling j < i: visiting
children in descending attribute order lists the closed sets in lectic
order, the order of Ganter's Next-Closure.  Concept extents are carried down
the tree as class masks (a child's is its parent's AND the class column of
i), and each child's intent is the AND of its classes' rows.

The basis visits, in the same order, the sets closed under the rules found
so far.  A candidate is closed only after its earlier siblings' subtrees are
done, so every rule that can fire on it is known, as in Ganter's
Next-Closure basis; the closure reuse follows LinCbO (Janoštík, Konečný &
Krajča 2021).  ``uses[a]`` is a bitmask over rule indices marking the rules
whose premise holds attribute ``a``.  A pseudo-intent B records the rule
B -> B'' and its children start from B'' (it has none when B'' gains an
attribute below y), so a rule whose premise lies inside a node's set never
fires again below it.  Each node makes one pass over its absent attributes
to build two saturating counters over the rules: ``once`` holds the rules
missing at least one of them and ``twice`` those missing two or more.  Child
i fires ``uses[i] & ~twice``, the rules missing only i, at once; later rounds
fire the rules that no attribute still absent blocks.  A rule found under an
earlier child is classified into the counters by its own count of missing
attributes, and a candidate is dropped as soon as its closure gains an
attribute below i.

The basis walk also meets every concept with a non-empty extent, in the same
order, so one walk could return both.  The two stay apart while the
benchmark times ``enumerate_concepts`` as a layer of its own from outside
the library; merging them waits until the library records its own stage
times.

The lattice cover needs only the concept list.  Each class gets a bitmask
over the concepts whose extent holds it, so the supersets of an extent are
the AND of its classes' masks: one big-integer operation per class of each
extent.  A concept's upper neighbours are then taken smallest first from its
strict supersets, each one clearing its own supersets from the rest, one
step per cover edge.

The canonical basis keeps the rules whose premise some object satisfies.  A
premise that no object satisfies closes to the full attribute set, so its
rule is vacuous, and the supported rules remain sound, complete and minimal
for all implications whose premise has a supporting object.  The walk never
computes an unsupported set.  A subset of a set that some object satisfies
is satisfied by that object too, and each node's generator B + {i} is a
subset of the node, so the path to a supported set passes through supported
sets only, and every rule that fires while closing it has a supported
premise.  So a candidate whose extent is empty is dropped unexpanded, a node
tries only the attributes that some object of its extent holds, and its
counters leave out the rules that no object of its extent satisfies: such a
rule could fire only on a set with an empty extent.  ``satisfied[g]`` is a
bitmask over the rules whose premise the objects of class g satisfy; their
OR over a node's extent gives its live rules.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, Sequence

from .ordering import OrderedTable
from .table import InformationTable, cell_token, csv_field


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


def _names(labels: tuple[str, ...], mask: int) -> tuple[str, ...]:
    """The labels at the set bits of the mask, ascending; one step per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(labels[low.bit_length() - 1])
        mask ^= low
    return tuple(out)


@dataclass(frozen=True, eq=False)
class FormalContext:
    """Objects, attributes and their incidence, with bitmask accessors.
    Object names are unique, and so are attribute names.

    The objects fall into classes, one per distinct row, numbered by first
    appearance; the walks, the cover and the DOT run over the classes."""

    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    rows: tuple[int, ...]  # per object, bitmask over attribute indices
    cols: tuple[int, ...] = field(init=False, repr=False)
    _class_rows: tuple[int, ...] = field(init=False, repr=False)
    _class_members: tuple[int, ...] = field(init=False, repr=False)  # per class, an object mask
    _class_sizes: tuple[int, ...] = field(init=False, repr=False)
    _class_cols: tuple[int, ...] = field(init=False, repr=False)  # per attribute, a class mask
    _obj_index: dict[str, int] = field(init=False, repr=False)
    _attr_index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.rows) != len(self.objects):
            raise ValueError("one incidence row per object required")
        n = len(self.attributes)
        members: dict[int, int] = {}  # per distinct row, by first appearance, its objects
        for g, row in enumerate(self.rows):
            members[row] = members.get(row, 0) | 1 << g
        cols = [0] * n
        class_cols = [0] * n
        bit = 1  # the class's bit
        for row, objects in members.items():
            if row >> n:  # also a negative row
                first = self.objects[(objects & -objects).bit_length() - 1]
                raise ValueError(f"row of {first!r} has bits beyond its {n} attributes")
            for a in _bit_indices(row):
                cols[a] |= objects
                class_cols[a] |= bit
            bit <<= 1
        for slot, value in (("cols", cols), ("_class_rows", members.keys()),
                            ("_class_members", members.values()),
                            ("_class_sizes", map(int.bit_count, members.values())),
                            ("_class_cols", class_cols)):
            object.__setattr__(self, slot, tuple(value))
        for kind, names, slot in (("object", self.objects, "_obj_index"),
                                  ("attribute", self.attributes, "_attr_index")):
            index = {name: i for i, name in enumerate(names)}
            if len(index) < len(names):  # the index keeps a repeated name's last position
                duplicate = next(name for i, name in enumerate(names) if index[name] != i)
                raise ValueError(f"duplicate {kind} name {duplicate!r}")
            object.__setattr__(self, slot, index)

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
        return _names(self.attributes, mask)

    def object_names(self, mask: int) -> tuple[str, ...]:
        return _names(self.objects, mask)

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
    ``A<position><ladder level>`` and listed by ascending level; plain-table
    values are coded ``<attribute>=<value>`` and listed in ladder order, then
    sorted stray values, or by first appearance without a ladder.
    """
    if not isinstance(source, (OrderedTable, InformationTable)):
        raise TypeError(f"cannot scale a {type(source).__name__}")
    objects = _resolve_scope(source.objects, scope)

    columns = []  # per source column: each object's category, and each category's code
    if isinstance(source, OrderedTable):
        for col in source.columns:
            levels = [col.ladder.position(col.label(o)) for o in objects]
            columns.append((levels, {k: attribute_code(col.source_index, k)
                                     for k in sorted(set(levels))}))
    else:
        for spec in source.attributes:
            tokens = [cell_token(source.value(o, spec.name)) for o in objects]
            order = dict.fromkeys(tokens)
            if spec.ladder:
                order = [t for t in spec.ladder if t in order] + sorted(order.keys() - spec.ladder)
            columns.append((tokens, {t: f"{spec.name}={t}" for t in order}))
    names: list[str] = []
    rows = [0] * len(objects)
    for categories, codes in columns:
        bits = {key: 1 << (len(names) + i) for i, key in enumerate(codes)}
        names += codes.values()
        for g, key in enumerate(categories):
            rows[g] |= bits[key]
    return FormalContext(objects, tuple(names), tuple(rows))


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


class Concept:
    """An (extent, intent) pair fixed under mutual derivation.

    A concept from :func:`enumerate_concepts` keeps its extent as a mask over
    its context's object classes and its intent as an attribute mask; each
    tuple of names is built when first read.  Equality, hashing and repr go
    by the names, as for one built from them."""

    __slots__ = ("_extent", "_intent", "_context", "_classes", "_mask")

    def __init__(self, extent: tuple[str, ...], intent: tuple[str, ...]) -> None:
        self._extent, self._intent, self._context = extent, intent, None

    @property
    def extent(self) -> tuple[str, ...]:
        if self._extent is None:
            context = self._context
            self._extent = context.object_names(_class_objects(context._class_members,
                                                               self._classes))
        return self._extent

    @property
    def intent(self) -> tuple[str, ...]:
        if self._intent is None:
            self._intent = self._context.attr_names(self._mask)
        return self._intent

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Concept):
            return NotImplemented
        return self.extent == other.extent and self.intent == other.intent

    def __hash__(self) -> int:
        return hash((self.extent, self.intent))

    def __repr__(self) -> str:
        return f"Concept(extent={self.extent!r}, intent={self.intent!r})"


def _class_objects(members: Sequence[int], classes: int) -> int:
    """The object mask of a class mask: the OR of its classes' members."""
    out = 0
    while classes:
        low = classes & -classes
        out |= members[low.bit_length() - 1]
        classes ^= low
    return out


def _lattice_masks(concepts: Sequence[Concept]) -> tuple[list[int], list[int], Sequence[int],
                                                         Sequence[str], Sequence[str]]:
    """Extent and intent masks of a concept list, the object mask of each bit
    of an extent mask, and the names of the objects and of the attributes.

    Concepts that one walk made share its context: their extents are class
    masks.  Any other list is indexed by first appearance of each object and
    attribute name, each object a class of its own."""
    context = concepts[0]._context if concepts else None
    if context is not None and all(c._context is context for c in concepts):
        return ([c._classes for c in concepts], [c._mask for c in concepts],
                context._class_members, context.objects, context.attributes)
    objects: dict[str, int] = {}
    attributes: dict[str, int] = {}
    extents, intents = [], []
    for concept in concepts:
        for names, index, masks in ((concept.extent, objects, extents),
                                    (concept.intent, attributes, intents)):
            mask = 0
            for name in names:
                mask |= 1 << index.setdefault(name, len(index))
            masks.append(mask)
    members = [1 << g for g in range(len(objects))]
    return extents, intents, members, tuple(objects), tuple(attributes)


def enumerate_concepts(context: FormalContext) -> list[Concept]:
    """All formal concepts, each exactly once, in lectic order of intents."""
    n = len(context.attributes)
    top = (1 << n) - 1
    rows, cols = context._class_rows, context._class_cols
    concepts = []
    new = Concept.__new__
    extent = (1 << len(rows)) - 1
    intent = top
    for row in rows:
        intent &= row
    # flat (extent, intent, first attribute to try) triples: a stack of tuples
    # would leave its emptied tuples on the interpreter's free list
    stack = [extent, intent, 0]
    while stack:
        y = stack.pop()
        intent = stack.pop()
        extent = stack.pop()
        concept = new(Concept)
        concept._extent = concept._intent = None
        concept._context, concept._classes, concept._mask = context, extent, intent
        concepts.append(concept)
        for i in range(y, n):  # pushed ascending, so popped descending
            bit = 1 << i
            if intent & bit:
                continue
            child_extent = extent & cols[i]
            child = top  # the intent of child_extent, inlined: this is the hot loop
            rest = child_extent
            while rest:
                low = rest & -rest
                child &= rows[low.bit_length() - 1]
                rest ^= low
            if child & ~intent & (bit - 1) == 0:
                stack += child_extent, child, i + 1
    return concepts


def lattice_cover(concepts: Sequence[Concept]) -> list[tuple[int, int]]:
    """Hasse diagram of the extent-inclusion order: (parent, child) index
    pairs where the parent's extent covers the child's with nothing between.

    The parents of a concept are the minimal strict supersets of its extent.
    Extents are read as class masks (``_lattice_masks``); a strict superset
    holds strictly more classes.  Positions hold the concepts by ascending
    extent size and are visited downward; ``containing[g]`` is a bitmask over
    the positions visited so far whose extent holds class g.  The AND of
    ``containing`` over an extent's classes marks the extents above it that
    contain it; dropping those of equal size, which equal it, gives
    ``up[p]``, the strict supersets of position p.  The lowest candidate is a
    smallest one, so it is minimal: it is recorded as a parent and its own
    strict supersets leave the candidates.  A candidate that is left holds no
    parent found so far, so every candidate taken is minimal.
    """
    masks, _, members, _, _ = _lattice_masks(concepts)
    sizes = [mask.bit_count() for mask in masks]
    order = sorted(range(len(masks)), key=sizes.__getitem__)
    sizes.sort()  # now by position
    containing = [0] * len(members)
    above = 0  # the positions visited so far
    up = [0] * len(order)
    for p in range(len(order) - 1, -1, -1):
        classes = _bit_indices(masks[order[p]])
        supersets = above  # an empty extent lies in every extent above it
        for g in classes:
            supersets &= containing[g]
        larger = bisect_right(sizes, sizes[p])  # above p, an equal size is an equal extent
        up[p] = supersets >> larger << larger
        bit = 1 << p
        above |= bit
        for g in classes:
            containing[g] |= bit
    del masks, containing  # only ``up`` stays alive while the edges grow
    edges = []
    for p, candidates in enumerate(up):
        child = order[p]
        while candidates:
            low = candidates & -candidates
            q = low.bit_length() - 1
            edges.append((order[q], child))
            candidates &= ~(up[q] | low)
    edges.sort()
    return edges


@dataclass(frozen=True)
class Implication:
    """premise -> conclusion with support = number of objects satisfying the
    premise.  Premise and conclusion are disjoint attribute tuples."""

    premise: tuple[str, ...]
    conclusion: tuple[str, ...]
    support: int


def canonical_basis(context: FormalContext) -> list[Implication]:
    """Duquenne-Guigues basis of the implications with a supporting object:
    one rule per pseudo-intent that some object satisfies, conclusion the
    closure minus the premise, listed by support descending then lectic
    premise order.  The module docstring gives the walk and why it may skip
    unsupported sets; the test oracle ``canonical_basis_reference`` in
    ``tests/oracles.py`` gives the textbook stem base, vacuous rules and all.
    """
    n = len(context.attributes)
    full = (1 << n) - 1
    names, rows, cols = context.attributes, context._class_rows, context._class_cols
    sizes = context._class_sizes
    premises: list[int] = []
    closures: list[int] = []  # full closure mask of each rule's premise
    out: list[Implication] = []
    uses = [0] * n  # per attribute, bitmask over the rules whose premise holds it
    satisfied = [0] * len(rows)  # per class, bitmask over the rules its row satisfies

    def expand(extent: int, mask: int, y: int) -> list[int] | None:
        """Record the rule of ``mask`` if it is a pseudo-intent, and return
        the stack frame for its children: [base set, extent, attributes still
        to try, once, twice, rules classified, attributes held].  None when
        it has no children: its closure gains an attribute below y, so the
        closure's own subtree lies elsewhere."""
        closed = full  # the AND of the extent's rows
        held = 0  # their OR
        live = 0  # the rules some object of the extent satisfies
        rest = extent
        while rest:
            low = rest & -rest
            g = low.bit_length() - 1
            closed &= rows[g]
            held |= rows[g]
            live |= satisfied[g]
            rest ^= low
        if closed != mask:
            rule = 1 << len(premises)
            rest = mask
            while rest:
                low = rest & -rest
                uses[low.bit_length() - 1] |= rule
                rest ^= low
            premises.append(mask)
            closures.append(closed)
            live |= rule
            support = 0  # the objects of the extent's classes
            rest = extent
            while rest:
                low = rest & -rest
                g = low.bit_length() - 1
                satisfied[g] |= rule
                support += sizes[g]
                rest ^= low
            out.append(Implication(_names(names, mask), _names(names, closed & ~mask), support))
            if closed & ~mask & ((1 << y) - 1):
                return None
            mask = closed
        once = twice = 0
        absent = held & ~mask
        while absent:
            low = absent & -absent
            rules = uses[low.bit_length() - 1]
            twice |= once & rules
            once |= rules
            absent ^= low
        # a rule that no object of the extent satisfies could only fire on an
        # unsupported set: it never fires below this node
        once &= live
        twice |= ((1 << len(premises)) - 1) & ~live
        return [mask, extent, held & ~mask & -(1 << y), once, twice, len(premises), held]

    extent = (1 << len(rows)) - 1
    stack = [expand(extent, 0, 0)] if extent else []
    while stack:
        frame = stack[-1]
        base, extent, todo, once, twice, seen, held = frame
        if not todo:
            stack.pop()
            continue
        i = todo.bit_length() - 1
        bit = 1 << i
        frame[2] = todo ^ bit
        if len(premises) > seen:  # rules found under earlier children
            for r in range(seen, len(premises)):
                rule = 1 << r
                once |= rule  # its premise holds that child's absent attribute
                if (premises[r] & ~base).bit_count() > 1:
                    twice |= rule
            frame[3:6] = once, twice, len(premises)
        below = ~base & (bit - 1)
        mask = base | bit
        fired = fresh = uses[i] & ~twice
        while fresh:
            while fresh:
                low = fresh & -fresh
                mask |= closures[low.bit_length() - 1]
                fresh ^= low
            if mask & below:
                break
            blocked = 0
            absent = held & ~mask
            while absent:
                low = absent & -absent
                blocked |= uses[low.bit_length() - 1]
                absent ^= low
            fresh = once & ~blocked & ~fired
            fired |= fresh
        if mask & below:
            continue
        child_extent = extent  # its objects holding every attribute gained
        gained = mask & ~base
        while gained and child_extent:
            low = gained & -gained
            child_extent &= cols[low.bit_length() - 1]
            gained ^= low
        if child_extent:
            child = expand(child_extent, mask, i + 1)
            if child is not None:
                stack.append(child)

    out.sort(key=lambda imp: -imp.support)  # stable: keeps lectic order within ties
    return out


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


def implication_frequencies(basis: Sequence[Implication]) -> FrequencyTable:
    """frequency(a) = sum of support * |premise| over the rules whose
    conclusion contains a.  One row per attribute occurring in at least one
    conclusion, sorted by attribute name, with its contributors in basis
    order; one pass over the basis groups them."""
    contributors: dict[str, list[tuple[tuple[str, ...], int]]] = {}
    for imp in basis:
        pair = (imp.premise, imp.support)
        for attr in set(imp.conclusion):
            contributors.setdefault(attr, []).append(pair)
    return FrequencyTable(tuple(
        FrequencyRow(
            attribute=attr,
            frequency=sum(support * len(premise) for premise, support in contributors[attr]),
            contributors=tuple(contributors[attr]),
        )
        for attr in sorted(contributors)))


def chief_attributes(freqs: FrequencyTable) -> list[tuple[int, tuple[str, ...]]]:
    """Attributes grouped by distinct frequency, highest first.  The first
    group is the chief attribute set, the second the next influencing one."""
    by_freq: dict[int, list[str]] = {}
    for row in freqs.rows:
        by_freq.setdefault(row.frequency, []).append(row.attribute)
    return [(f, tuple(sorted(by_freq[f]))) for f in sorted(by_freq, reverse=True)]


# ---------------------------------------------------------------------------
# report renderers


def context_to_csv(context: FormalContext) -> str:
    """Cross table: one row per object, "x" where the incidence holds."""
    n = len(context.attributes)
    lines = [",".join(["object", *map(csv_field, context.attributes)])]
    for obj, row in zip(context.objects, context.rows):
        # the row's bits, the first attribute's (the lowest) first
        bits = format(row, f"0{n}b")[::-1] if n else ""
        lines.append(csv_field(obj, not n) + bits.replace("0", ",").replace("1", ",x"))
    lines.append("")
    return "\n".join(lines)


# record-label metacharacters, each escaped with a backslash
_DOT_ESCAPES = str.maketrans({c: "\\" + c for c in '\\"{}|<>'})


def lattice_to_dot(concepts: Sequence[Concept], cover: Sequence[tuple[int, int]]) -> str:
    """DOT digraph with one node per concept and one edge per cover pair.

    Nodes carry reduced labels: the attributes missing from every parent's
    intent and the objects missing from every child's extent.  In a lattice
    an attribute is introduced only at its attribute concept, the largest
    extent whose intent holds it, and an object only at its object concept,
    the smallest extent that holds it.  So a visit of the concepts by
    ascending extent size gives each class of objects to the first extent
    that holds it, and the reverse visit gives each attribute to the first
    intent that holds it; the cover is read only to draw the edges.  Only the
    classes a node introduces are expanded to their objects.  Names are
    backslash-escaped where DOT's record labels give a character a meaning.
    """
    extents, intents, members, objects, attributes = _lattice_masks(concepts)
    order = sorted(range(len(concepts)), key=lambda i: extents[i].bit_count())
    own_classes = [0] * len(concepts)
    seen = 0
    for idx in order:
        own_classes[idx] = extents[idx] & ~seen
        seen |= extents[idx]
    own_attrs = [0] * len(concepts)
    seen = 0
    for idx in reversed(order):
        own_attrs[idx] = intents[idx] & ~seen
        seen |= intents[idx]

    lines = ["digraph concept_lattice {", "  rankdir=BT;", "  node [shape=record];"]
    for idx in range(len(concepts)):
        attrs = " ".join(_names(attributes, own_attrs[idx]))
        objs = " ".join(_names(objects, _class_objects(members, own_classes[idx])))
        lines.append(f'  c{idx} [label="{{{attrs.translate(_DOT_ESCAPES)}|'
                     f'{objs.translate(_DOT_ESCAPES)}}}"];')
    for p, c in cover:
        lines.append(f"  c{c} -> c{p};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def format_implication(imp: Implication) -> str:
    premise = " ".join(imp.premise) if imp.premise else "{}"
    return f"<{imp.support}> {premise} => {' '.join(imp.conclusion)}"


def basis_to_text(basis: Sequence[Implication]) -> str:
    return "\n".join(format_implication(imp) for imp in basis) + "\n"


def _json_list(values: Sequence, encode: Callable[[object], str], indent: int) -> str:
    """A list nested ``indent`` spaces deep, laid out as ``json.dumps`` with
    ``indent=2`` lays it out, each value written by ``encode``."""
    if not values:
        return "[]"
    pad = "\n" + " " * (indent + 2)
    return f"[{pad}{(',' + pad).join(map(encode, values))}\n{' ' * indent}]"


def basis_to_json(basis: Sequence[Implication]) -> str:
    """One object per rule, keys ``conclusion``, ``premise`` and ``support``.

    The text is byte for byte ``json.dumps(docs, indent=2, sort_keys=True)``
    plus a newline, written as its fixed layout: names through the C escaper
    that ``json.dumps`` uses, one string per rule and one join.  With an
    indent ``json.dumps`` runs its pure-Python encoder, which holds every
    small chunk of the text until its final join.
    """
    def rules() -> Iterator[str]:
        yield "["
        sep, name = "\n", encode_basestring_ascii
        for imp in basis:
            yield (f'{sep}  {{\n    "conclusion": {_json_list(imp.conclusion, name, 4)},\n'
                   f'    "premise": {_json_list(imp.premise, name, 4)},\n'
                   f'    "support": {int.__repr__(imp.support)}\n  }}')
            sep = ",\n"
        yield "\n]\n" if basis else "]\n"

    return "".join(rules())


def _premise_notation(premise: tuple[str, ...], multiplicity: int) -> str:
    body = ", ".join(premise) if premise else "{}"
    return f"{body}*{multiplicity}" if multiplicity > 1 else body


def frequencies_to_csv(freqs: FrequencyTable) -> str:
    """Cross table with one column per scored attribute: the contributing
    premises (with multiplicities) and the frequency row."""
    rows = freqs.rows
    lines = [
        ",".join(["superconcept", *(csv_field(row.attribute) for row in rows)]),
        ",".join(["subconcepts",
                  *(csv_field("; ".join(_premise_notation(p, m) for p, m in row.contributors))
                    for row in rows)]),
        ",".join(["frequency", *(str(row.frequency) for row in rows)]),
        "",
    ]
    return "\n".join(lines)
