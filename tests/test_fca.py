import gc
import inspect
import sys
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roughfca import fca
from roughfca.fca import (
    Concept,
    FormalContext,
    FrequencyRow,
    FrequencyTable,
    Implication,
    attribute_code,
    basis_to_json,
    basis_to_text,
    build_context,
    canonical_basis,
    chief_attributes,
    context_to_csv,
    enumerate_concepts,
    format_implication,
    frequencies_to_csv,
    implication_frequencies,
    lattice_cover,
    lattice_to_dot,
)
from roughfca.ordering import (
    BLOCK_ORDERS,
    LabelLadder,
    build_ordered_table,
    ordered_table_override,
)
from roughfca.table import Partition

import golden
import oracles
from oracles import (
    attr_mask,
    concept_names,
    derive_attributes,
    derive_objects,
    extent_of,
    intent_of,
)
from relation_strategies import json_names, labels, numeric_tables


@pytest.fixture(scope="module")
def ordered(institutions, case_partitions):
    return build_ordered_table(institutions, case_partitions)


@pytest.fixture(scope="module")
def cluster_contexts(ordered):
    return {cid: build_context(ordered, members)
            for cid, members in golden.REFERENCE_CLUSTERS.items()}


def as_rule_set(basis):
    return {(frozenset(i.premise), frozenset(i.conclusion), i.support) for i in basis}


def reference_rules(cid):
    return {(frozenset(p), frozenset(c), s) for p, c, s in golden.REFERENCE_BASIS[cid]}


# --- scaling ----------------------------------------------------------------

def test_attribute_codes():
    from roughfca.fca import attribute_code

    assert attribute_code(5, 1) == "A51"
    assert attribute_code(6, 4) == "A64"
    assert attribute_code(12, 3) == "A12.3"  # stays unambiguous past one digit


def test_scaling_nominal_table(rnd_table):
    # the pipeline scales the clusters of the ordered table only
    with pytest.raises(TypeError, match="cannot scale a InformationTable"):
        build_context(rnd_table)


def test_scaling_cluster3_rows(cluster_contexts):
    ctx = cluster_contexts[3]
    rows = {o: set(derive_attributes(ctx, [o])) for o in ctx.objects}
    assert rows == {
        "i_8": {"A13", "A24", "A34", "A52", "A65"},
        "i_9": {"A14", "A24", "A34", "A52", "A66"},
        "i_10": {"A14", "A24", "A34", "A53", "A66"},
    }


def test_scaling_single_object(ordered):
    ctx = build_context(ordered, ["i_1"])
    assert ctx.objects == ("i_1",)
    assert set(ctx.attributes) == {"A11", "A21", "A31", "A51", "A61"}
    assert ctx.rows == ((1 << len(ctx.attributes)) - 1,)  # i_1 holds every attribute


def test_scaling_rejects_empty_or_unknown_scope(ordered):
    with pytest.raises(ValueError, match="at least one"):
        build_context(ordered, [])
    with pytest.raises(ValueError, match="outside the universe"):
        build_context(ordered, ["nope"])


@st.composite
def ordered_sources(draw):
    """An ordered table from random partitions of a numeric table: either
    block order, a ladder with spare labels for some columns, ordered-table
    overrides for some, and a scope (None, or objects in any order with
    repeats)."""
    table = draw(numeric_tables(max_objects=8, max_attributes=4))
    partitions, ladders = {}, {}
    for name in table.attribute_names:
        ids = draw(st.lists(st.integers(0, 3), min_size=len(table.objects),
                            max_size=len(table.objects)))
        blocks: dict[int, list[str]] = {}
        for obj, block in zip(table.objects, ids):
            blocks.setdefault(block, []).append(obj)
        partitions[name] = Partition.from_blocks(blocks.values(), table.objects)
        if draw(st.booleans()):
            k = len(blocks) + draw(st.integers(0, 2))
            ladders[name] = LabelLadder(tuple(f"{name}.{i}" for i in range(k)),
                                        tuple(range(2 * k, 0, -2)))
    ordered = build_ordered_table(table, partitions, ladders, draw(st.sampled_from(BLOCK_ORDERS)))
    overrides = {
        col.attribute: dict(zip(ordered.objects, draw(st.lists(
            st.sampled_from(col.ladder.labels), min_size=len(ordered.objects),
            max_size=len(ordered.objects)))))
        for col in ordered.columns if draw(st.booleans())}
    if overrides:
        ordered = ordered_table_override(ordered, overrides)
    scope = draw(st.none() | st.lists(st.sampled_from(ordered.objects), min_size=1))
    return ordered, scope


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=ordered_sources())
def test_scaling_matches_pair_based_reference(case):
    source, scope = case
    got = build_context(source, scope)
    want = oracles.build_context_reference(source, scope)
    assert got.objects == want.objects
    assert got.attributes == want.attributes
    assert got.rows == want.rows


@pytest.mark.parametrize("objects, attributes, duplicate", [
    (("g", "h", "g"), ("m",), "object name 'g'"),
    (("g", "h", "i"), ("m", "a=b=c", "n", "a=b=c"), "attribute name 'a=b=c'"),
    # the first name that occurs twice, not the first repeat met
    (("a", "b", "b", "a"), ("m",), "object name 'a'"),
], ids=["object", "attribute", "first-in-order"])
def test_context_rejects_duplicate_names(objects, attributes, duplicate):
    # two equal names would be one object, or one column, to every reader
    with pytest.raises(ValueError, match=f"duplicate {duplicate}"):
        FormalContext(objects, attributes, (0,) * len(objects))


@pytest.mark.parametrize("row", [0b10, 0b100, -1], ids=["next-bit", "far-bit", "negative"])
def test_context_rejects_row_bits_beyond_its_attributes(row):
    with pytest.raises(ValueError, match="beyond its 1 attributes"):
        FormalContext(("g",), ("m",), (row,))


# --- derivation -------------------------------------------------------------

def test_derive_attributes_examples(cluster_contexts):
    ctx = cluster_contexts[3]
    assert set(derive_attributes(ctx, ["i_9", "i_10"])) == {"A14", "A24", "A34", "A66"}
    assert derive_attributes(ctx, []) == ctx.attributes
    assert set(derive_attributes(ctx, ctx.objects)) == {"A24", "A34"}


def test_derive_objects_examples(cluster_contexts):
    assert derive_objects(cluster_contexts[3], ["A66"]) == ("i_9", "i_10")
    assert derive_objects(cluster_contexts[3], []) == ("i_8", "i_9", "i_10")
    assert derive_objects(cluster_contexts[1], ["A21", "A51"]) == ("i_1", "i_2", "i_3")


# --- concepts and lattice ---------------------------------------------------

def test_cluster3_concepts(cluster_contexts):
    ctx = cluster_contexts[3]
    concepts = [concept_names(ctx, c) for c in enumerate_concepts(ctx)]
    assert len(concepts) == 7
    extents = {frozenset(extent) for extent, _ in concepts}
    assert extents == {
        frozenset(), frozenset({"i_8"}), frozenset({"i_9"}), frozenset({"i_10"}),
        frozenset({"i_8", "i_9"}), frozenset({"i_9", "i_10"}),
        frozenset({"i_8", "i_9", "i_10"}),
    }
    top = next(intent for extent, intent in concepts if len(extent) == 3)
    assert set(top) == {"A24", "A34"}


def test_concepts_match_bruteforce_on_clusters(cluster_contexts):
    for ctx in cluster_contexts.values():
        fast = {tuple(map(frozenset, concept_names(ctx, c))) for c in enumerate_concepts(ctx)}
        assert fast == oracles.concepts_bruteforce(ctx)


def test_concepts_unique_and_fixed_points(cluster_contexts):
    for ctx in cluster_contexts.values():
        concepts = [concept_names(ctx, c) for c in enumerate_concepts(ctx)]
        assert len({intent for _, intent in concepts}) == len(concepts)
        for extent, intent in concepts:
            assert derive_attributes(ctx, extent) == intent
            assert derive_objects(ctx, intent) == extent


def test_empty_incidence_context():
    ctx = FormalContext(("g",), ("m",), (0,))
    concepts = enumerate_concepts(ctx)
    assert {concept_names(ctx, c) for c in concepts} == {(("g",), ()), ((), ("m",))}


def test_full_incidence_context():
    ctx = FormalContext(("g", "h"), ("m", "n"), (0b11, 0b11))
    concepts = enumerate_concepts(ctx)
    assert [concept_names(ctx, c) for c in concepts] == [(("g", "h"), ("m", "n"))]


def test_walk_concepts_are_mask_pairs():
    # g and k share a row, so they are class 0 and h is class 1
    ctx = FormalContext(("g", "h", "k"), ("m", "n"), (0b01, 0b11, 0b01))
    concepts = enumerate_concepts(ctx)
    assert concepts == [Concept(extent=0b11, intent=0b01), Concept(extent=0b10, intent=0b11)]
    assert [concept_names(ctx, c) for c in concepts] == [(("g", "h", "k"), ("m",)),
                                                         (("h",), ("m", "n"))]
    assert '  c0 [label="{m|g k}"];' in lattice_to_dot(ctx, concepts, lattice_cover(concepts))


def test_lattice_cover_cluster3(cluster_contexts):
    ctx = cluster_contexts[3]
    concepts = enumerate_concepts(ctx)
    cover = lattice_cover(concepts)
    exts = [frozenset(concept_names(ctx, c)[0]) for c in concepts]
    assert set(cover) == oracles.hasse_edges_bruteforce(exts)
    top = exts.index(frozenset({"i_8", "i_9", "i_10"}))
    children = {exts[c] for p, c in cover if p == top}
    # {i_10} sits below {i_9, i_10}, so the top covers only the two pairs
    assert children == {frozenset({"i_8", "i_9"}), frozenset({"i_9", "i_10"})}
    assert len(cover) == 9


def test_lattice_cover_chain():
    ctx = FormalContext(("a", "b", "c"), ("x", "y", "z"), (0b111, 0b110, 0b100))
    concepts = enumerate_concepts(ctx)
    cover = lattice_cover(concepts)
    # chain of three nested concepts: two edges
    assert [len(concept_names(ctx, c)[0]) for c in concepts] == [3, 2, 1]
    assert len(cover) == 2


def test_lattice_cover_single_concept():
    ctx = FormalContext(("g",), ("m",), (0b1,))
    assert lattice_cover(enumerate_concepts(ctx)) == []


# hand-built concept lists over the classes {a} (bit 0) and {b} (bit 1): the
# cover reads the extents alone, and its class count off the largest one
@pytest.mark.parametrize("extents, expected", [
    # two concepts share the extent {a}: both sit under {a, b}, neither
    # under the other, and both cover the empty extent
    ([("a", "b"), ("a",), ("a",), ()], [(0, 1), (0, 2), (1, 3), (2, 3)]),
    # the empty extent lies in every extent, listed first
    ([(), ("b",), ("a", "b"), ("a",)], [(1, 0), (2, 1), (2, 3), (3, 0)]),
    ([("a", "b")], []),
    ([()], []),
    ([], []),
], ids=["duplicated-extent", "empty-extent", "one-concept", "one-empty-concept", "none"])
def test_lattice_cover_hand_built_concepts(extents, expected):
    bits = {"a": 0b01, "b": 0b10}
    concepts = [Concept(sum(map(bits.__getitem__, extent)), 0) for extent in extents]
    assert lattice_cover(concepts) == expected
    assert oracles.lattice_cover_reference([(extent, ()) for extent in extents]) == expected


def test_galois_laws_on_cluster_contexts(cluster_contexts):
    ctx = cluster_contexts[1]
    for xs in (["i_1"], ["i_1", "i_5"], list(ctx.objects), []):
        intent = derive_attributes(ctx, xs)
        assert set(xs) <= set(derive_objects(ctx, intent))
        assert derive_attributes(ctx, derive_objects(ctx, intent)) == intent
    a = set(derive_attributes(ctx, ["i_1", "i_2"]))
    b = set(derive_attributes(ctx, ["i_1"]))
    assert a <= b  # antitone on nested extents


# --- canonical basis --------------------------------------------------------

def test_cluster3_basis_exact(cluster_contexts):
    basis = canonical_basis(cluster_contexts[3])
    assert as_rule_set(basis) == reference_rules(3)
    assert [imp.support for imp in basis] == [3, 2, 2, 1, 1, 1]


def test_cluster1_and_2_bases_exact(cluster_contexts):
    assert as_rule_set(canonical_basis(cluster_contexts[1])) == reference_rules(1)
    assert as_rule_set(canonical_basis(cluster_contexts[2])) == reference_rules(2)


def test_basis_sorted_by_support(cluster_contexts):
    for ctx in cluster_contexts.values():
        supports = [imp.support for imp in canonical_basis(ctx)]
        assert supports == sorted(supports, reverse=True)


def test_basis_soundness(cluster_contexts):
    for ctx in cluster_contexts.values():
        for imp in canonical_basis(ctx):
            assert oracles.implication_holds(ctx, imp.premise, imp.conclusion)
            assert not set(imp.premise) & set(imp.conclusion)


def test_basis_completeness_bruteforce(cluster_contexts):
    for ctx in cluster_contexts.values():
        basis = canonical_basis(ctx)
        rules = oracles.rules_of(basis)
        for premise, conclusion in oracles.valid_implications_bruteforce(ctx):
            assert conclusion <= oracles.naive_rule_closure(rules, premise)


def test_basis_minimality(cluster_contexts):
    for ctx in cluster_contexts.values():
        basis = canonical_basis(ctx)
        for skip in range(len(basis)):
            rest = oracles.rules_of(basis[:skip] + basis[skip + 1:])
            closed = oracles.naive_rule_closure(rest, basis[skip].premise)
            assert not set(basis[skip].conclusion) <= closed


def test_basis_premises_are_exactly_the_pseudo_closed_sets(cluster_contexts):
    # definition-chasing oracle: enumerate pseudo-closed sets directly; the
    # basis keeps those that some object satisfies
    for ctx in cluster_contexts.values():
        expected = {
            (mask, intent_of(ctx, extent_of(ctx, mask)) & ~mask)
            for mask in oracles.pseudo_intents_bruteforce(ctx) if extent_of(ctx, mask)
        }
        got = {
            (attr_mask(ctx, imp.premise), attr_mask(ctx, imp.conclusion))
            for imp in canonical_basis(ctx)
        }
        assert got == expected


def test_unsupported_rules_close_contradictions(cluster_contexts):
    # the textbook basis adds two vacuous rules to the library's supported one
    ctx = cluster_contexts[3]
    full = oracles.canonical_basis_reference(ctx, include_unsupported=True)
    assert full[:-2] == canonical_basis(ctx)
    assert all(imp.support == 0 for imp in full[-2:])
    closed = oracles.naive_rule_closure(oracles.rules_of(full), {"A52", "A53"})  # no object has both
    assert closed == frozenset(ctx.attributes)


def test_full_incidence_basis():
    ctx = FormalContext(("g", "h"), ("m", "n"), (0b11, 0b11))
    basis = canonical_basis(ctx)
    assert len(basis) == 1
    assert basis[0] == Implication((), ("m", "n"), 2)


def _nominal_scale(size):
    # object g_i has only m_i: every pair of attributes has no object
    return FormalContext(tuple(f"g{i}" for i in range(size)), tuple(f"m{i}" for i in range(size)),
                         tuple(1 << i for i in range(size)))


EDGE_CONTEXTS = {  # context, basis, textbook basis of the oracle (None: not written out)
    "no objects": (FormalContext((), ("m", "n"), ()),
                   [], [Implication((), ("m", "n"), 0)]),
    "an attribute no object has": (
        FormalContext(("g", "h"), ("m", "n", "o"), (0b001, 0b011)),
        [Implication((), ("m",), 2)],
        [Implication((), ("m",), 2), Implication(("m", "o"), ("n",), 0)]),
    "one object with every attribute": (
        FormalContext(("g",), ("m", "n", "o"), (0b111,)),
        [Implication((), ("m", "n", "o"), 1)], [Implication((), ("m", "n", "o"), 1)]),
    "no attributes": (FormalContext(("g", "h"), (), (0, 0)), [], []),
    "nominal scale of 12": (_nominal_scale(12), [], None),
}


@pytest.mark.parametrize("name", sorted(EDGE_CONTEXTS))
def test_basis_of_edge_contexts(name):
    ctx, default, textbook = EDGE_CONTEXTS[name]
    assert canonical_basis(ctx) == default == oracles.canonical_basis_reference(ctx)
    full = oracles.canonical_basis_reference(ctx, include_unsupported=True)
    assert default == [imp for imp in full if imp.support]
    assert textbook is None or full == textbook


@pytest.mark.parametrize("name", sorted(EDGE_CONTEXTS))
def test_concept_walk_of_edge_contexts(name):
    ctx = EDGE_CONTEXTS[name][0]
    concepts = enumerate_concepts(ctx)
    named = [concept_names(ctx, c) for c in concepts]
    assert named == oracles.enumerate_concepts_reference(ctx)
    cover = lattice_cover(concepts)
    assert cover == oracles.lattice_cover_reference(named)
    assert lattice_to_dot(ctx, concepts, cover) == oracles.lattice_to_dot_reference(named, cover)
    # the walk tries only attributes some object holds; the bottom (empty
    # extent, every attribute) comes last, and only when no object holds
    # every attribute ("no objects" is that bottom alone)
    bottom_last = {"no objects": True, "an attribute no object has": True,
                   "one object with every attribute": False, "no attributes": False,
                   "nominal scale of 12": True}[name]
    assert [i for i, c in enumerate(concepts) if not c.extent] == \
        ([len(concepts) - 1] if bottom_last else [])
    assert named[-1][1] == ctx.attributes


def test_basis_of_nominal_scale_has_one_unsupported_rule_per_pair():
    # the oracle's textbook basis; the library's holds none of these rules
    ctx = EDGE_CONTEXTS["nominal scale of 12"][0]
    assert canonical_basis(ctx) == []
    textbook = oracles.canonical_basis_reference(ctx, include_unsupported=True)
    assert len(textbook) == 12 * 11 // 2
    for imp in textbook:
        assert len(imp.premise) == 2 and imp.support == 0
        assert set(imp.premise) | set(imp.conclusion) == set(ctx.attributes)
    assert len({imp.premise for imp in textbook}) == len(textbook)


def test_implication_closure(cluster_contexts):
    rules = oracles.rules_of(canonical_basis(cluster_contexts[3]))
    assert oracles.naive_rule_closure(rules, set()) == {"A24", "A34"}
    assert oracles.naive_rule_closure(rules, {"A66"}) == {"A14", "A24", "A34", "A66"}


# --- frequencies and chief attributes ---------------------------------------

def test_frequencies_formula_cluster2(cluster_contexts):
    freqs = implication_frequencies(canonical_basis(cluster_contexts[2]))
    assert oracles.frequencies_by_attribute(freqs) == golden.REFERENCE_FREQUENCIES[2]


def test_frequencies_formula_cluster1(cluster_contexts):
    # A31 and A32 both come out at 6 by the formula; see golden for why the
    # reference tabulation prints different numbers for them
    freqs = implication_frequencies(canonical_basis(cluster_contexts[1]))
    expected = dict(golden.REFERENCE_FREQUENCIES[1], A31=6, A32=6)
    assert oracles.frequencies_by_attribute(freqs) == expected


def test_frequencies_formula_cluster3(cluster_contexts):
    freqs = implication_frequencies(canonical_basis(cluster_contexts[3]))
    expected = dict(golden.REFERENCE_FREQUENCIES[3], A52=6)
    assert oracles.frequencies_by_attribute(freqs) == expected


def test_frequencies_contributors(cluster_contexts):
    freqs = implication_frequencies(canonical_basis(cluster_contexts[3]))
    a14 = next(r for r in freqs.rows if r.attribute == "A14")
    assert {(p, m) for p, m in a14.contributors} == {
        (("A24", "A34", "A66"), 2), (("A24", "A34", "A53"), 1)}


def test_frequency_zero_iff_only_empty_premises(cluster_contexts):
    freqs = implication_frequencies(canonical_basis(cluster_contexts[3]))
    for row in freqs.rows:
        empty_only = all(not premise for premise, _ in row.contributors)
        assert (row.frequency == 0) == empty_only


def test_chief_attributes_reference(cluster_contexts):
    for cid, ctx in cluster_contexts.items():
        groups = chief_attributes(implication_frequencies(canonical_basis(ctx)))
        assert groups[0][1] == golden.REFERENCE_CHIEF[cid], cid
    groups2 = chief_attributes(implication_frequencies(canonical_basis(cluster_contexts[2])))
    assert groups2[1][1] == golden.REFERENCE_NEXT_CLUSTER2


_rule_names = st.lists(labels, max_size=3).map(tuple)  # a small alphabet: names repeat


@st.composite
def _hand_built_bases(draw):
    """Rules with empty premises, names repeated in one conclusion and whole
    rules repeated: a list drawn from a small pool of rules."""
    pool = draw(st.lists(st.builds(Implication, _rule_names, _rule_names, st.integers(0, 5)),
                         min_size=1, max_size=4))
    return draw(st.lists(st.sampled_from(pool), max_size=8))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(basis=_hand_built_bases())
@example(basis=[Implication(("a",), ("b", "b"), 2)])
@example(basis=[Implication((), ("a",), 3), Implication((), ("a",), 3)])
def test_frequencies_of_hand_built_rules_match_reference(basis):
    freqs = implication_frequencies(basis)
    assert freqs == oracles.implication_frequencies_reference(basis)
    assert frequencies_to_csv(freqs) == oracles.frequencies_to_csv_reference(freqs)
    for imp in basis:
        for field in Implication._fields:
            with pytest.raises(AttributeError):
                setattr(imp, field, getattr(imp, field))


def test_walk_rules_compare_hash_and_print_as_built_by_hand(cluster_contexts):
    basis = canonical_basis(cluster_contexts[3])
    by_hand = [Implication(premise=imp.premise, conclusion=imp.conclusion, support=imp.support)
               for imp in basis]
    assert basis == by_hand and by_hand == basis
    assert [hash(imp) for imp in basis] == [hash(imp) for imp in by_hand]
    assert list(map(repr, basis)) == list(map(repr, by_hand))
    assert repr(basis[0]) == "Implication(premise=(), conclusion=('A24', 'A34'), support=3)"
    assert basis_to_text(basis) == basis_to_text(by_hand)
    assert basis_to_json(basis) == basis_to_json(by_hand)
    assert basis[0] != Implication((), ("A24", "A34"), 2)
    with pytest.raises(AttributeError):
        basis[0].support = 4
    assert basis[0].support == 3


# --- renderers ---------------------------------------------------------------

def test_context_csv(cluster_contexts):
    text = context_to_csv(cluster_contexts[3])
    lines = text.strip().splitlines()
    assert lines[0] == "object,A13,A14,A24,A34,A52,A53,A65,A66"
    assert lines[1] == "i_8,x,,x,x,x,,x,"


def test_basis_text_and_json(cluster_contexts):
    basis = canonical_basis(cluster_contexts[3])
    text = basis_to_text(basis)
    assert text.splitlines()[0] == "<3> {} => A24 A34"
    assert "<2> A14 A24 A34 => A66" in text
    import json

    docs = json.loads(basis_to_json(basis))
    assert docs[0] == {"premise": [], "conclusion": ["A24", "A34"], "support": 3}
    assert format_implication(basis[1]).startswith("<2>")


_name_tuples = st.lists(json_names, max_size=4).map(tuple)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(basis=st.lists(st.builds(Implication, _name_tuples, _name_tuples,
                                st.integers(0, 2**40)), max_size=6))
@example(basis=[])
@example(basis=[Implication((), (), 0)])
def test_basis_json_matches_json_dumps(basis):
    assert basis_to_json(basis) == oracles.basis_to_json_reference(basis)


def test_basis_json_peak_memory_stays_near_its_text():
    # json.dumps(indent=2) held about 10x the text at its peak, every small
    # chunk until its final join; one string per rule holds about 2.5x
    names = [attribute_code(s, level) for s in range(1, 9) for level in range(1, 6)]
    basis = [Implication(tuple(names[i % 37:i % 37 + i % 5]),
                         tuple(names[i % 11 + 20:i % 11 + 21 + i % 3]), 30 - i % 29)
             for i in range(400)]
    basis_to_json(basis)
    tracemalloc.start()
    try:
        text = basis_to_json(basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == oracles.basis_to_json_reference(basis)
    assert peak <= 3 * len(text)


def test_lattice_dot(cluster_contexts):
    ctx = cluster_contexts[3]
    concepts = enumerate_concepts(ctx)
    cover = lattice_cover(concepts)
    dot = lattice_to_dot(ctx, concepts, cover)
    assert dot.startswith("digraph concept_lattice {")
    assert dot.count("->") == len(cover)
    assert dot.count("label=") == len(concepts)


def test_lattice_dot_escapes_record_label_characters():
    # object names come verbatim from the data CSV's first column
    ctx = FormalContext(('a"b', "c|d", "e{f}"), ("m<1>",), (1, 0, 1))
    concepts = enumerate_concepts(ctx)
    lines = lattice_to_dot(ctx, concepts, lattice_cover(concepts)).splitlines()
    assert lines[3:] == [
        '  c0 [label="{|c\\|d}"];',
        '  c1 [label="{m\\<1\\>|a\\"b e\\{f\\}}"];',
        "  c1 -> c0;",
        "}",
    ]
    ctx = FormalContext(("g\\h",), ("m",), (1,))
    assert '[label="{m|g\\\\h}"]' in lattice_to_dot(ctx, enumerate_concepts(ctx), [])


def test_frequencies_csv(cluster_contexts):
    freqs = implication_frequencies(canonical_basis(cluster_contexts[3]))
    lines = frequencies_to_csv(freqs).strip().splitlines()
    assert lines[0] == "superconcept,A13,A14,A24,A34,A52,A65,A66"
    assert lines[2].startswith("frequency,")
    assert "{}*3" in lines[1]


@st.composite
def _named_tables(draw):
    """A context and a frequency table over names that need quoting or not;
    with no attributes every object row is one field."""
    attrs = tuple(draw(st.lists(labels, max_size=3, unique=True)))
    objects = tuple(draw(st.lists(labels, max_size=3, unique=True)))
    rows = draw(st.lists(st.integers(0, (1 << len(attrs)) - 1),
                         min_size=len(objects), max_size=len(objects)))
    premises = st.tuples(st.lists(labels, max_size=2).map(tuple), st.integers(1, 3))
    freqs = FrequencyTable(tuple(
        FrequencyRow(a, draw(st.integers(0, 20)), tuple(draw(st.lists(premises, max_size=2))))
        for a in attrs))
    return FormalContext(objects, attrs, tuple(rows)), freqs


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tables=_named_tables())
def test_csv_renderers_match_the_csv_writer_forms(tables):
    context, freqs = tables
    assert context_to_csv(context) == oracles.context_to_csv_reference(context)
    assert frequencies_to_csv(freqs) == oracles.frequencies_to_csv_reference(freqs)


# --- kernel guards ------------------------------------------------------------

def _chain_context(size):
    # object g_k has m_0..m_k: the lattice and the closed-set tree are chains
    return FormalContext(tuple(f"g{k}" for k in range(size)), tuple(f"m{k}" for k in range(size)),
                         tuple((1 << (k + 1)) - 1 for k in range(size)))


def test_kernels_walk_chains_deeper_than_the_recursion_limit():
    ctx = _chain_context(100)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        concepts = enumerate_concepts(ctx)
        basis = canonical_basis(ctx)
    finally:
        sys.setrecursionlimit(limit)
    assert [concept_names(ctx, c) for c in concepts] == oracles.enumerate_concepts_reference(ctx)
    assert len(concepts) == 100
    assert basis == oracles.canonical_basis_reference(ctx)


def test_kernels_leave_no_reference_cycles(cluster_contexts):
    # cycles would keep every intermediate list alive until the cyclic GC runs
    ctx = cluster_contexts[3]
    gc.collect()
    gc.disable()
    try:
        for kernel in (enumerate_concepts, canonical_basis):
            kernel(ctx)
            assert gc.collect() == 0, kernel.__name__
    finally:
        gc.enable()


def test_lattice_cover_of_contranominal_scale_13_in_bounded_time():
    # g_i has every attribute but m_i: every object set is an extent, 2^13
    # concepts whose cover is the hypercube's 13 * 2^12 edges; the former
    # pairwise superset scan took about 5 s
    n = 13
    full = (1 << n) - 1
    ctx = FormalContext(tuple(f"g{i}" for i in range(n)), tuple(f"m{i}" for i in range(n)),
                        tuple(full & ~(1 << i) for i in range(n)))
    concepts = enumerate_concepts(ctx)
    assert len(concepts) == 1 << n
    start = time.perf_counter()
    cover = lattice_cover(concepts)
    assert time.perf_counter() - start < 2.0
    assert len(cover) == n << (n - 1)
    for parent, child in cover:  # the rows are distinct: a class is one object
        above, below = concepts[parent].extent, concepts[child].extent
        assert below & ~above == 0 and (above & ~below).bit_count() == 1


@pytest.mark.parametrize("n, budget", [(13, 1 << 13), (13, (1 << 13) - 1), (14, None)])
def test_concept_walk_stops_past_the_budget(monkeypatch, n, budget):
    # the contranominal scale has 2^n concepts: the walk refuses the first
    # concept past the budget, before the cover and the basis meet them all
    if budget is not None:
        monkeypatch.setattr(fca, "MAX_CONCEPTS", budget)
    full = (1 << n) - 1
    ctx = FormalContext(tuple(f"g{i}" for i in range(n)), tuple(f"m{i}" for i in range(n)),
                        tuple(full & ~(1 << i) for i in range(n)))
    start = time.perf_counter()
    if 1 << n <= fca.MAX_CONCEPTS:
        assert len(enumerate_concepts(ctx)) == 1 << n
    else:
        with pytest.raises(ValueError, match=f"^more than {fca.MAX_CONCEPTS} concepts$"):
            enumerate_concepts(ctx)
    assert time.perf_counter() - start < 1.0

# the 25 distinct rows of the largest cluster of the benchmark's tiered
# table, each a ladder level per attribute (digit k of a row is A<k><level>)
TIERED_CLUSTER_ROWS = (
    "222222", "444424", "222212", "444444", "333333", "232222", "332333", "333334", "444431",
    "433333", "444441", "222224", "444244", "444234", "222432", "334333", "442442", "313333",
    "333133", "322222", "344444", "442444", "444434", "222422", "444442",
)


def test_fca_on_20k_objects_of_25_distinct_rows_in_bounded_time():
    # every kernel runs over the distinct rows: the per-object walks, cover
    # and basis took about 5 s on concepts, cover and basis alone
    patterns = [sum(1 << (4 * k + int(level) - 1) for k, level in enumerate(row))
                for row in TIERED_CLUSTER_ROWS]
    attrs = tuple(f"A{k + 1}{level}" for k in range(6) for level in range(1, 5))
    n = 20_000
    rows = tuple(patterns[g * 7 % 25] for g in range(n))  # each row 800 times, interleaved
    start = time.perf_counter()
    ctx = FormalContext(tuple(f"g{g}" for g in range(n)), attrs, rows)
    concepts = enumerate_concepts(ctx)
    cover = lattice_cover(concepts)
    basis = canonical_basis(ctx)
    dot = lattice_to_dot(ctx, concepts, cover)
    assert time.perf_counter() - start < 2.0
    # the clarified context: one object per row, the same lattice and rules
    small = FormalContext(tuple(f"r{r}" for r in range(25)), attrs, tuple(patterns))
    small_concepts = enumerate_concepts(small)
    assert [c.intent for c in concepts] == [c.intent for c in small_concepts]
    assert cover == lattice_cover(small_concepts)
    assert [(r.premise, r.conclusion, r.support) for r in basis] == [
        (r.premise, r.conclusion, 800 * r.support) for r in canonical_basis(small)]
    # every object is introduced at exactly one node of the DOT
    labels = [line.split("|", 1)[1][:-4] for line in dot.splitlines() if "[label=" in line]
    assert sorted(" ".join(labels).split()) == sorted(ctx.objects)
