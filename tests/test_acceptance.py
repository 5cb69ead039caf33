"""Acceptance suite.

Every numbered criterion of the build contract runs here at its stated
tolerance; the conftest summary hook prints one PASS/FAIL line per
criterion.  Three frequency cells of the reference tabulation are misprints:
the declared formula (support times premise size) over the published
implication lists cannot produce them.  Those cells are checked against the
value the printed rules give, summed here by hand, not against the printed
totals (see tests/golden.py).
"""

import dataclasses
import hashlib
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from roughfca.approx import (
    CutParams,
    cut_graph,
    lower_approx,
    partition_from_cut,
    partition_from_json,
    partition_to_json,
    rough_approximation,
    upper_approx,
)
from roughfca.fca import (
    FormalContext,
    build_context,
    canonical_basis,
    chief_attributes,
    enumerate_concepts,
    implication_frequencies,
    lattice_cover,
    lattice_to_dot,
)
from roughfca.ordering import build_ordered_table, cluster_by_rank, score_and_rank
from roughfca.pipeline import PipelineConfig, emit_reports, run_pipeline, search_alpha_beta
from roughfca.proximity import build_proximity, round_half_up
from roughfca.table import AttributeSpec, InformationTable, Partition, indiscernibility

import golden
import oracles
from conftest import DATA_DIR

ACCEPTANCE = settings(max_examples=200, deadline=None, derandomize=True,
                      suppress_health_check=[HealthCheck.too_slow])


# --- criterion 1: proximity fidelity -----------------------------------------

def test_c1_matrices_match_reference_tables(relations):
    checked = 0
    for attr, cells in golden.REFERENCE_PROXIMITY.items():
        rel = relations[attr]
        for (x, y), (mu_ref, nu_ref) in cells.items():
            i, j = rel.objects.index(x), rel.objects.index(y)
            mu, nu = float(rel.mu[i, j]), float(rel.nu[i, j])
            assert abs(mu - mu_ref) <= golden.PROXIMITY_TOL, (attr, x, y, mu, mu_ref)
            assert abs(nu - nu_ref) <= golden.PROXIMITY_TOL, (attr, x, y, nu, nu_ref)
            checked += 1
    assert checked >= 240  # all cells of five attributes plus the legible sixth


def test_c1_exact_three_decimal_pins(relations):
    for (attr, x, y), (mu_ref, nu_ref) in golden.PROXIMITY_EXACT.items():
        rel = relations[attr]
        i, j = rel.objects.index(x), rel.objects.index(y)
        mu, nu = float(rel.mu[i, j]), float(rel.nu[i, j])
        assert round_half_up(mu) == mu_ref, (attr, x, y)
        assert round_half_up(nu) == nu_ref, (attr, x, y)


# --- criterion 2: cut recovery ------------------------------------------------

def test_c2_search_region_and_reproduction(institutions, reference_partitions):
    targets = {name: reference_partitions[name] for name in golden.REPRODUCIBLE_ATTRIBUTES}
    result = search_alpha_beta(institutions, targets, step=0.005)
    assert result.points, "no feasible grid point found"
    rounded = {(round(a, 3), round(b, 3)) for a, b in result.points}
    assert golden.REFERENCE_CUT in rounded
    # independent re-verification at every feasible point
    for alpha, beta in result.points:
        cut = CutParams(alpha, beta)
        for name in golden.REPRODUCIBLE_ATTRIBUTES:
            rel = build_proximity(institutions, name)
            part = partition_from_cut(cut_graph(rel, cut))
            assert part.as_sets() == targets[name].as_sets(), (name, alpha, beta)
        rs = partition_from_cut(cut_graph(build_proximity(institutions, "RS"), cut))
        assert len(rs.blocks) == 1, "RS must stay a single block"


# --- criterion 3: ECA divergence and override ---------------------------------

def test_c3_eca_recomputes_to_seven_blocks(relations, cut_partitions):
    part = cut_partitions["ECA"]
    assert len(part.blocks) == 7
    assert part.block_of["i_9"] != part.block_of["i_10"]
    assert part.as_sets() == frozenset(frozenset(b) for b in golden.ECA_RECOMPUTED_BLOCKS)
    eca = relations["ECA"]
    mu = eca.mu[eca.objects.index("i_9"), eca.objects.index("i_10")]
    assert mu == pytest.approx(0.60, abs=1e-12)
    printed = frozenset(frozenset(b) for b in golden.REFERENCE_PARTITIONS["ECA"])
    assert part.as_sets() != printed  # the divergence itself


def test_c3_override_restores_printed_partition():
    config = PipelineConfig.from_file(DATA_DIR / "institutions_config.json")
    report = run_pipeline(config)
    printed = frozenset(frozenset(b) for b in golden.REFERENCE_PARTITIONS["ECA"])
    assert report.partitions["ECA"].as_sets() == printed
    assert report.provenance["stages"]["partition"]["ECA"] == "override"


# --- criterion 4: ordered table ------------------------------------------------

def test_c4_ordered_table_cell_for_cell(institutions, case_partitions):
    ordered = build_ordered_table(institutions, case_partitions)
    assert ordered.dropped == ("RS",)
    assert ordered.attribute_names == ("IC", "IF", "PP", "SS", "ECA")
    for obj, labels in golden.REFERENCE_ORDERED.items():
        got = tuple(col.label(obj) for col in ordered.columns)
        assert got == labels, (obj, got, labels)


# --- criterion 5: ranking and clusters ------------------------------------------

def test_c5_totals_ranks_clusters(institutions, case_partitions):
    ranks = score_and_rank(build_ordered_table(institutions, case_partitions))
    total_of = {r.object: r.total for r in ranks.rows}
    totals = [total_of[f"i_{k}"] for k in range(1, 11)]
    assert totals == [23, 22, 20, 18, 20, 14, 12, 10, 8, 7]
    rank_of = oracles.ranks_by_object(ranks)
    dense = [rank_of[f"i_{k}"] for k in range(1, 11)]
    assert dense == [1, 2, 3, 4, 3, 5, 6, 7, 8, 9]
    clusters = cluster_by_rank(ranks, [(1, 3), (4, 6), (7, 9)])
    assert {c.cluster_id: c.members for c in clusters} == golden.REFERENCE_CLUSTERS


# --- criterion 6: implication bases ---------------------------------------------

@pytest.fixture(scope="module")
def cluster_contexts(institutions, case_partitions):
    ordered = build_ordered_table(institutions, case_partitions)
    return {cid: build_context(ordered, members)
            for cid, members in golden.REFERENCE_CLUSTERS.items()}


def test_c6_cluster3_basis_syntactic(cluster_contexts):
    basis = canonical_basis(cluster_contexts[3])
    computed = {(frozenset(i.premise), frozenset(i.conclusion), i.support) for i in basis}
    printed = {(frozenset(p), frozenset(c), s) for p, c, s in golden.REFERENCE_BASIS[3]}
    assert computed == printed
    assert sorted((i.support for i in basis), reverse=True) == [3, 2, 2, 1, 1, 1]


@pytest.mark.parametrize("cid", [1, 2])
def test_c6_cluster_bases_semantic(cluster_contexts, cid):
    ctx = cluster_contexts[cid]
    basis = canonical_basis(ctx)
    # every computed rule holds in the context
    for imp in basis:
        assert oracles.implication_holds(ctx, imp.premise, imp.conclusion)
    for premise, conclusion, support in golden.REFERENCE_BASIS[cid]:
        # every printed rule holds and is derivable from the computed basis
        assert oracles.implication_holds(ctx, premise, conclusion)
        assert set(conclusion) <= oracles.naive_rule_closure(oracles.rules_of(basis), premise)
        # and its support matches the computed extent size
        extent = ctx.extent_of(ctx.attr_mask(premise))
        assert extent.bit_count() == support, (cid, premise)


# --- criterion 7: frequencies and chief attributes --------------------------------

@pytest.fixture(scope="module")
def cluster_frequencies(cluster_contexts):
    return {cid: implication_frequencies(canonical_basis(ctx))
            for cid, ctx in cluster_contexts.items()}


def assert_misprinted_cell(cluster_frequencies, cid, attr, printed):
    """Golden records the printed total of a misprinted cell; the declared
    formula summed by hand (not by roughfca.fca) over the printed rules
    concluding `attr` gives another value, which golden also records; the
    computed cell equals that value and its contributors are those rules."""
    assert golden.REFERENCE_FREQUENCIES[cid][attr] == printed
    pairs = sorted((premise, support) for premise, conclusion, support
                   in golden.REFERENCE_BASIS[cid] if attr in conclusion)
    from_rules = sum(support * len(premise) for premise, support in pairs)
    assert from_rules != printed
    assert (cid, attr, printed, from_rules) in golden.DISPUTED_FREQUENCY_CELLS
    row = next(r for r in cluster_frequencies[cid].rows if r.attribute == attr)
    assert row.frequency == from_rules
    assert sorted(row.contributors) == pairs


def test_c7_cluster2_frequency_table_exact(cluster_frequencies):
    assert oracles.frequencies_by_attribute(cluster_frequencies[2]) == golden.REFERENCE_FREQUENCIES[2]


def test_c7_cluster3_frequency_table_except_disputed(cluster_frequencies):
    got = oracles.frequencies_by_attribute(cluster_frequencies[3])
    for attr, printed in golden.REFERENCE_FREQUENCIES[3].items():
        if attr == "A52":
            continue
        assert got[attr] == printed, attr


def test_c7_cluster3_a52_as_printed(cluster_frequencies):
    """The printed total 3 is a misprint: the printed implication list has
    two support-1 rules with three-element premises concluding A52, which
    the declared formula scores 3 + 3 = 6.  The cell is checked against that
    sum over the printed rules, and its contributors against those rules."""
    assert_misprinted_cell(cluster_frequencies, 3, "A52", printed=3)


def test_c7_cluster1_frequency_table_except_disputed(cluster_frequencies):
    got = oracles.frequencies_by_attribute(cluster_frequencies[1])
    for attr, printed in golden.REFERENCE_FREQUENCIES[1].items():
        if attr in ("A31", "A32"):
            continue
        assert got[attr] == printed, attr


def test_c7_cluster1_a31_recomputed(cluster_frequencies):
    # the print of 9 is a recognised misprint; the formula value is pinned
    got = oracles.frequencies_by_attribute(cluster_frequencies[1])
    assert got["A31"] == golden.CLUSTER1_A31_COMPUTED


def test_c7_cluster1_a32_as_printed(cluster_frequencies):
    """The printed total 4 is a misprint: the printed implication list has
    three support-1 rules with two-element premises concluding A32, which
    the declared formula scores 2 + 2 + 2 = 6.  The cell is checked against
    that sum over the printed rules, and its contributors against those
    rules."""
    assert_misprinted_cell(cluster_frequencies, 1, "A32", printed=4)


def test_c7_chief_attributes(cluster_frequencies):
    for cid, freqs in cluster_frequencies.items():
        groups = chief_attributes(freqs)
        assert groups[0][1] == golden.REFERENCE_CHIEF[cid], cid
    assert chief_attributes(cluster_frequencies[2])[1][1] == golden.REFERENCE_NEXT_CLUSTER2


# --- criterion 8: randomized property suites ---------------------------------------

@st.composite
def random_partitions(draw):
    n = draw(st.integers(1, 8))
    universe = tuple(f"o{i}" for i in range(1, n + 1))
    assignment = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks: dict[int, list[str]] = {}
    for obj, bucket in zip(universe, assignment):
        blocks.setdefault(bucket, []).append(obj)
    return Partition.from_blocks(blocks.values(), universe), universe


@st.composite
def random_tables(draw):
    n_obj = draw(st.integers(1, 8))
    n_attr = draw(st.integers(1, 3))
    specs = tuple(AttributeSpec(f"a{j}", range_max=draw(st.integers(4, 40)))
                  for j in range(1, n_attr + 1))
    objects = tuple(f"o{i}" for i in range(1, n_obj + 1))
    values = {(o, s.name): float(draw(st.integers(1, int(s.range_max))))
              for o in objects for s in specs}
    return InformationTable(objects, specs, values)


@st.composite
def random_contexts(draw):
    n_obj = draw(st.integers(1, 8))
    n_attr = draw(st.integers(1, 10))
    objects = tuple(f"g{i}" for i in range(n_obj))
    attrs = tuple(f"m{j}" for j in range(n_attr))
    rows = tuple(draw(st.integers(0, (1 << n_attr) - 1)) for _ in range(n_obj))
    return FormalContext(objects, attrs, rows)


@st.composite
def scaled_contexts(draw):
    # nominally scaled, as by build_context: one-hot groups of levels, each
    # object in exactly one level of every group (a level may go unused);
    # up to 24 objects x 6 groups x 4 levels
    n_obj = draw(st.integers(1, 24))
    levels = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    return _scaled_context(n_obj, levels,
                           lambda size: draw(st.integers(0, size - 1)))


@st.composite
def sparse_contexts(draw):
    # one-hot like scaled_contexts, but few objects over many levels: 1-8
    # objects x 2-8 groups of 3-8 levels, so most pairs of levels have no
    # object and most pseudo-intents are unsupported
    n_obj = draw(st.integers(1, 8))
    levels = draw(st.lists(st.integers(3, 8), min_size=2, max_size=8))
    return _scaled_context(n_obj, levels,
                           lambda size: draw(st.integers(0, size - 1)))


def _scaled_context(n_obj, levels, pick):
    attrs = tuple(f"A{g + 1}{k + 1}" for g, size in enumerate(levels) for k in range(size))
    offsets = [sum(levels[:g]) for g in range(len(levels))]
    rows = tuple(sum(1 << (offset + pick(size)) for offset, size in zip(offsets, levels))
                 for _ in range(n_obj))
    return FormalContext(tuple(f"g{i}" for i in range(n_obj)), attrs, rows)


@st.composite
def repeated_contexts(draw):
    # 1-12 objects drawn from a pool of 1-4 rows over 1-8 attributes, repeats
    # interleaved, so objects share classes; in a sample of 200 derandomized
    # draws about 40 had every row equal and about 40 a repeated empty row
    n_attr = draw(st.integers(1, 8))
    pool = draw(st.lists(st.integers(0, (1 << n_attr) - 1), min_size=1, max_size=4, unique=True))
    rows = tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12)))
    return FormalContext(tuple(f"g{i}" for i in range(len(rows))),
                         tuple(f"m{j}" for j in range(n_attr)), rows)


CONTEXT_KINDS = {"random": random_contexts(), "scaled": scaled_contexts(),
                 "sparse": sparse_contexts(), "repeated": repeated_contexts()}


@st.composite
def admissible_cut_pairs(draw):
    # a nested pair of admissible cuts: the second is at least as strict
    ai = draw(st.integers(0, 20))
    bi = draw(st.integers(0, 20 - ai))
    b2i = draw(st.integers(0, bi))
    a2i = draw(st.integers(ai, 20 - b2i))  # stricter cut stays admissible
    return CutParams(ai / 20, bi / 20), CutParams(a2i / 20, b2i / 20)


@ACCEPTANCE
@given(data=st.data(), parts=random_partitions())
def test_c8_sandwich_duality_monotonicity(data, parts):
    partition, universe = parts
    x = data.draw(st.sets(st.sampled_from(universe)), label="X")
    extra = data.draw(st.sets(st.sampled_from(universe)), label="extra")
    y = x | extra
    full = set(universe)

    lo, up = lower_approx(partition, x), upper_approx(partition, x)
    assert lo <= x <= up
    assert lo == full - upper_approx(partition, full - x)          # duality
    assert lo <= lower_approx(partition, y)                        # monotone
    assert up <= upper_approx(partition, y)
    rough = rough_approximation(partition, x)
    assert rough.boundary == up - lo
    assert rough.definable == (lo == up)


@ACCEPTANCE
@given(table=random_tables(), cuts=admissible_cut_pairs())
def test_c8_cut_monotonicity_and_refinement(table, cuts):
    loose, strict = cuts
    for name in table.attribute_names:
        rel = build_proximity(table, name)
        loose_graph = cut_graph(rel, loose)
        strict_graph = cut_graph(rel, strict)
        assert strict_graph.edges <= loose_graph.edges
        fine = partition_from_cut(strict_graph)
        coarse = partition_from_cut(loose_graph)
        for block in fine.blocks:
            assert any(set(block) <= set(cb) for cb in coarse.blocks)


@ACCEPTANCE
@given(table=random_tables())
def test_c8_one_zero_cut_is_indiscernibility(table):
    for name in table.attribute_names:
        rel = build_proximity(table, name)
        part = partition_from_cut(cut_graph(rel, CutParams(1.0, 0.0)))
        assert part == indiscernibility(table, [name])


@ACCEPTANCE
@given(ctx=random_contexts(), data=st.data())
def test_c8_galois_connection_laws(ctx, data):
    xs = data.draw(st.sets(st.sampled_from(ctx.objects)) if ctx.objects else st.just(set()))
    ys = data.draw(st.sets(st.sampled_from(ctx.attributes)) if ctx.attributes else st.just(set()))
    xm, ym = ctx.object_mask(xs), ctx.attr_mask(ys)

    assert xm & ctx.extent_of(ctx.intent_of(xm)) == xm          # X <= X''
    assert ym & ctx.intent_of(ctx.extent_of(ym)) == ym          # Y <= Y''
    prime = ctx.intent_of(xm)
    assert ctx.intent_of(ctx.extent_of(prime)) == prime          # X' = X'''
    x2 = xm | ctx.object_mask(data.draw(st.sets(st.sampled_from(ctx.objects))))
    assert ctx.intent_of(x2) & ~ctx.intent_of(xm) == 0           # antitone


@ACCEPTANCE
@given(ctx=random_contexts())
def test_c8_concepts_equal_bruteforce(ctx):
    fast = {(ctx.object_mask(c.extent), ctx.attr_mask(c.intent))
            for c in enumerate_concepts(ctx)}
    assert fast == oracles.concepts_bruteforce_masks(ctx)
    assert len(fast) == len(enumerate_concepts(ctx))  # no duplicates


@pytest.mark.parametrize("kind", sorted(CONTEXT_KINDS))
@ACCEPTANCE
@given(data=st.data())
def test_c8_concepts_match_reference_in_order(kind, data):
    # list equality: concept indices name the lattice's nodes and cover pairs
    ctx = data.draw(CONTEXT_KINDS[kind])
    assert enumerate_concepts(ctx) == oracles.enumerate_concepts_reference(ctx)


@ACCEPTANCE
@given(ctx=random_contexts())
def test_c8_basis_premises_match_definition_oracle(ctx):
    pseudo = {(m, ctx.intent_of(ctx.extent_of(m)) & ~m, ctx.extent_of(m) != 0)
              for m in oracles.pseudo_intents_bruteforce(ctx)}
    got = {(ctx.attr_mask(i.premise), ctx.attr_mask(i.conclusion))
           for i in canonical_basis(ctx)}
    assert got == {(m, c) for m, c, supported in pseudo if supported}
    # the oracle's textbook basis keeps every pseudo-intent, supported or not
    textbook = {(ctx.attr_mask(i.premise), ctx.attr_mask(i.conclusion))
                for i in oracles.canonical_basis_reference(ctx, include_unsupported=True)}
    assert textbook == {(m, c) for m, c, _ in pseudo}


@ACCEPTANCE
@given(ctx=random_contexts())
def test_c8_canonical_basis_sound_complete_minimal(ctx):
    basis = canonical_basis(ctx)

    for imp in basis:  # soundness
        assert oracles.implication_holds(ctx, imp.premise, imp.conclusion)
        assert not set(imp.premise) & set(imp.conclusion)

    rules = oracles.mask_rules(basis, ctx)
    for premise, conclusion in oracles.valid_implication_masks(ctx):
        assert conclusion & ~oracles.mask_closure(rules, premise) == 0

    for skip in range(len(basis)):  # minimality
        rest = oracles.mask_rules(basis[:skip] + basis[skip + 1:], ctx)
        closed = oracles.mask_closure(rest, ctx.attr_mask(basis[skip].premise))
        assert ctx.attr_mask(basis[skip].conclusion) & ~closed != 0


@pytest.mark.parametrize("kind", sorted(CONTEXT_KINDS))
@ACCEPTANCE
@given(data=st.data())
def test_c8_canonical_basis_matches_reference(kind, data):
    ctx = data.draw(CONTEXT_KINDS[kind])
    assert canonical_basis(ctx) == oracles.canonical_basis_reference(ctx)


@pytest.mark.parametrize("kind", sorted(CONTEXT_KINDS))
@ACCEPTANCE
@given(data=st.data())
def test_c8_default_basis_is_the_supported_part_of_the_textbook_basis(kind, data):
    # the walk skips unsupported sets; what it returns must be the textbook
    # basis with the unsupported rules filtered out, in order
    ctx = data.draw(CONTEXT_KINDS[kind])
    textbook = oracles.canonical_basis_reference(ctx, include_unsupported=True)
    assert canonical_basis(ctx) == [r for r in textbook if r.support]


@pytest.mark.parametrize("kind", sorted(CONTEXT_KINDS))
@ACCEPTANCE
@given(data=st.data())
def test_c8_frequencies_match_reference(kind, data):
    ctx = data.draw(CONTEXT_KINDS[kind])
    basis = canonical_basis(ctx)
    assert implication_frequencies(basis) == oracles.implication_frequencies_reference(basis)


def test_c8_canonical_basis_matches_reference_past_one_word():
    # the rule index of a basis with more than 64 rules spans several words
    rnd = random.Random(0)
    ctx = _scaled_context(24, [4] * 6, rnd.randrange)
    basis = canonical_basis(ctx)
    assert len(basis) > 64
    assert basis == oracles.canonical_basis_reference(ctx)


def test_c8_fca_matches_references_at_independent_workload_shape():
    # 28 objects in 8 one-hot groups of 4 levels: the largest cluster shape
    # of the benchmark's independent workload, hundreds of concepts and rules
    ctx = _scaled_context(28, [4] * 8, random.Random(0).randrange)
    concepts = enumerate_concepts(ctx)
    assert len(concepts) > 200
    assert concepts == oracles.enumerate_concepts_reference(ctx)
    basis = canonical_basis(ctx)
    assert len(basis) > 200
    assert basis == oracles.canonical_basis_reference(ctx)
    assert lattice_cover(concepts) == oracles.lattice_cover_reference(concepts)


@pytest.mark.parametrize("kind", sorted(CONTEXT_KINDS))
@ACCEPTANCE
@given(data=st.data())
def test_c8_lattice_cover_matches_bruteforce(kind, data):
    ctx = data.draw(CONTEXT_KINDS[kind])
    concepts = enumerate_concepts(ctx)
    extents = [frozenset(c.extent) for c in concepts]
    assert lattice_cover(concepts) == sorted(oracles.hasse_edges_bruteforce(extents))


@st.composite
def wide_random_contexts(draw):
    # uniform rows from a drawn seed, 10-16 objects x 8-12 attributes: tens
    # to hundreds of concepts, where the cubic Hasse oracle takes seconds
    n_obj = draw(st.integers(10, 16))
    n_attr = draw(st.integers(8, 12))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    return FormalContext(tuple(f"g{i}" for i in range(n_obj)),
                         tuple(f"m{j}" for j in range(n_attr)),
                         tuple(rnd.getrandbits(n_attr) for _ in range(n_obj)))


COVER_CONTEXT_KINDS = dict(CONTEXT_KINDS, wide=wide_random_contexts())


@pytest.mark.parametrize("kind", sorted(COVER_CONTEXT_KINDS))
@ACCEPTANCE
@given(data=st.data())
def test_c8_lattice_cover_matches_reference(kind, data):
    # list equality: lattice_to_dot and the report digests read the pairs in order
    ctx = data.draw(COVER_CONTEXT_KINDS[kind])
    concepts = enumerate_concepts(ctx)
    assert lattice_cover(concepts) == oracles.lattice_cover_reference(concepts)


@pytest.mark.parametrize("kind", sorted(CONTEXT_KINDS))
@ACCEPTANCE
@given(data=st.data())
def test_c8_lattice_dot_matches_reference(kind, data):
    # reduced labels from attribute and object concepts equal those found
    # through each concept's parents and children in the cover; the oracle
    # reads the reference concepts, so names built wrong on read show too
    ctx = data.draw(CONTEXT_KINDS[kind])
    concepts = enumerate_concepts(ctx)
    reference = oracles.enumerate_concepts_reference(ctx)
    expected = oracles.lattice_to_dot_reference(reference,
                                                oracles.lattice_cover_reference(reference))
    assert lattice_to_dot(concepts, lattice_cover(concepts)) == expected


@ACCEPTANCE
@given(table=random_tables(), data=st.data())
def test_c8_partition_validity_after_every_construction(table, data):
    name = data.draw(st.sampled_from(table.attribute_names))
    by_value = indiscernibility(table, [name])
    assert oracles.is_valid_partition(by_value.blocks, table.objects)

    rel = build_proximity(table, name)
    ai = data.draw(st.integers(0, 10))
    bi = data.draw(st.integers(0, 10 - ai))
    alpha, beta = ai / 10, bi / 10
    graph = cut_graph(rel, CutParams(alpha, beta))
    part = partition_from_cut(graph)
    assert oracles.is_valid_partition(part.blocks, table.objects)
    for block in part.blocks:  # block_of consistent with blocks
        for obj in block:
            assert part.blocks[part.block_of[obj]] == block

    # components agree with the matrix transitive-closure oracle
    edges = [(table.objects[i], table.objects[j]) for i, j in graph.edges if i != j]
    assert part.as_sets() == oracles.closure_partition_bruteforce(table.objects, edges)

    doc = partition_to_json(part, name, alpha, beta)
    _, back = partition_from_json(json.loads(json.dumps(doc)), table.objects)
    assert back == part
    assert oracles.is_valid_partition(back.blocks, table.objects)


# --- criterion 9: determinism -------------------------------------------------------

def test_c9_identical_runs_byte_identical_trees(tmp_path):
    config = PipelineConfig.from_file(DATA_DIR / "institutions_config.json")
    for sub in ("first", "second"):
        report = run_pipeline(dataclasses.replace(config))
        emit_reports(report, tmp_path / sub)
    first = sorted(p.name for p in (tmp_path / "first").iterdir())
    second = sorted(p.name for p in (tmp_path / "second").iterdir())
    assert first == second
    for name in first:
        a = (tmp_path / "first" / name).read_bytes()
        b = (tmp_path / "second" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def test_c9_report_tree_matches_recorded_digests(tmp_path):
    # pins the bytes across commits, where the test above compares two runs
    # of the same code; report.json and manifest.json echo checkout paths
    config = PipelineConfig.from_file(DATA_DIR / "institutions_config.json")
    emit_reports(run_pipeline(config), tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir() if p.name not in ("report.json", "manifest.json")}
    assert digests == golden.REPORT_TREE_SHA256
