import json
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from roughfca.proximity import IFProximityRelation
from roughfca.table import Partition, TableError

import golden
import oracles
from relation_strategies import (
    hand_built_relations,
    perturbed_relations,
    spread_relation,
    table_relations,
)


def test_cut_params_admissible_set():
    CutParams(0.92, 0.05)
    CutParams(0.0, 1.0)
    CutParams(1.0, 0.0)
    with pytest.raises(ValueError):
        CutParams(0.6, 0.6)
    with pytest.raises(ValueError):
        CutParams(-0.1, 0.0)
    with pytest.raises(ValueError):
        CutParams(0.0, 1.1)


def test_cut_graph_reference_edges(relations):
    graph = cut_graph(relations["IC"], CutParams(0.92, 0.05))
    pos = {x: k for k, x in enumerate(graph.objects)}
    assert graph.rows[pos["i_1"]] >> pos["i_2"] & 1   # mu 0.992, nu ~0.002
    assert not graph.rows[pos["i_3"]] >> pos["i_4"] & 1  # mu 0.86 below alpha
    assert graph.rows[pos["i_6"]] >> pos["i_7"] & 1   # mu 0.932 at the bracket edge
    for k in range(graph.size):
        assert graph.rows[k] >> k & 1


def test_cut_graph_beta_half_connects_everything(relations):
    # nu stays strictly below 1/2, so (0, 0.5) keeps every pair
    graph = cut_graph(relations["IC"], CutParams(0.0, 0.5))
    n = graph.size
    assert len(graph.edges) == n * (n + 1) // 2


def test_cut_graph_one_zero_is_exact_equality(institutions, relations):
    from roughfca.table import indiscernibility

    for name in institutions.attribute_names:
        part = partition_from_cut(cut_graph(relations[name], CutParams(1.0, 0.0)))
        assert part == indiscernibility(institutions, [name])


def test_partitions_at_reference_cut(cut_partitions):
    for name in golden.REPRODUCIBLE_ATTRIBUTES:
        expected = frozenset(frozenset(b) for b in golden.REFERENCE_PARTITIONS[name])
        assert cut_partitions[name].as_sets() == expected, name


def test_rs_universe_indiscernible(cut_partitions):
    assert len(cut_partitions["RS"].blocks) == 1


def test_eca_recomputes_to_seven_blocks(cut_partitions, relations):
    expected = frozenset(frozenset(b) for b in golden.ECA_RECOMPUTED_BLOCKS)
    assert cut_partitions["ECA"].as_sets() == expected
    eca = relations["ECA"]
    mu = eca.mu[eca.objects.index("i_9"), eca.objects.index("i_10")]
    assert mu == pytest.approx(0.60, abs=1e-12)


def test_edgeless_graph_gives_singletons(relations):
    # alpha 1, beta 0 on ECA: no two institutions share a score
    part = partition_from_cut(cut_graph(relations["ECA"], CutParams(1.0, 0.0)))
    assert all(len(b) == 1 for b in part.blocks)


def test_zero_nonmembership_cut_depends_on_alpha_alone(relations):
    # with the non-membership side identically zero the relation degrades to
    # a plain fuzzy proximity relation: beta stops mattering
    rel = relations["ECA"]
    fuzzy = IFProximityRelation(rel.attribute, rel.objects,
                                np.array(rel.mu), np.zeros_like(rel.nu))
    for alpha in (0.0, 0.6, 0.92, 1.0):
        admissible = (0.0, (1.0 - alpha) / 2, 1.0 - alpha)
        edge_sets = [cut_graph(fuzzy, CutParams(alpha, b)).edges for b in admissible]
        assert edge_sets[0] == edge_sets[1] == edge_sets[2]


def _one_ulp_around(values, low, high):
    """Each value in [low, high] and its neighbours one ulp either side,
    kept inside [low, high]."""
    out = set()
    for v in values:
        if low <= v <= high:
            out.update(min(max(w, low), high)
                       for w in (v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)))
    return sorted(out)


#: A relation over the empty universe.
EMPTY_RELATION = IFProximityRelation("a", (), np.zeros((0, 0)), np.zeros((0, 0)))


@st.composite
def boundary_cuts(draw):
    """A relation, symmetric or not, reflexive or not, with a cut whose
    thresholds lie on a cell's mu or nu or one ulp either side of it."""
    rel = draw(st.one_of(table_relations(), hand_built_relations(), perturbed_relations(),
                         st.just(EMPTY_RELATION)))
    alphas = _one_ulp_around(np.asarray(rel.mu).ravel().tolist(), 0.0, 1.0)
    alpha = draw(st.sampled_from(alphas) if alphas else st.floats(0.0, 1.0), label="alpha")
    betas = _one_ulp_around(np.asarray(rel.nu).ravel().tolist(), 0.0, 1.0 - alpha)
    beta = draw(st.sampled_from(betas) if betas else st.floats(0.0, 1.0 - alpha), label="beta")
    return rel, CutParams(alpha, beta)


BOUNDARY = settings(max_examples=200, deadline=None, derandomize=True)


@BOUNDARY
@given(case=boundary_cuts())
def test_cut_graph_matches_oracle_at_cell_boundaries(case):
    rel, params = case
    graph, reference = cut_graph(rel, params), oracles.cut_graph_reference(rel, params)
    assert graph.rows == reference.rows
    assert graph.edges == reference.edges


@BOUNDARY
@given(case=boundary_cuts())
def test_cut_graph_rows_are_symmetric(case):
    rel, params = case
    graph = cut_graph(rel, params)
    edges = oracles.cut_graph_reference(rel, params).edges
    n = graph.size
    assert len(graph.rows) == n and all(0 <= row < 1 << n for row in graph.rows)
    for i in range(n):
        for j in range(n):
            assert graph.rows[i] >> j & 1 == graph.rows[j] >> i & 1 == ((min(i, j), max(i, j)) in edges)


@BOUNDARY
@given(case=boundary_cuts())
@example(case=(IFProximityRelation("a", ("x",), np.array([[0.0]]), np.array([[1.0]])),
               CutParams(0.5, 0.5)))  # no self-loop, still a block
def test_partition_from_cut_matches_oracles(case):
    graph = cut_graph(*case)
    part = partition_from_cut(graph)
    reference = oracles.partition_from_cut_reference(graph)
    assert part.blocks == reference.blocks
    assert part.block_of == reference.block_of
    links = [(graph.objects[i], graph.objects[j]) for i, j in graph.edges]
    assert part.as_sets() == oracles.closure_partition_bruteforce(graph.objects, links)


def test_cut_and_partition_1000_objects_in_time():
    # values a permutation of 1-1000: at (0.9, 0.05) the 1000 objects fall
    # into 5 blocks over 73,300 links, self-loops included.  Whole-array
    # masks and a bitmask search take about 0.005-0.016 s on a 2-vCPU host;
    # the pair-by-pair cut of tests/oracles.py alone takes about 0.2 s.
    rel = spread_relation(1000)
    start = time.perf_counter()
    part = partition_from_cut(cut_graph(rel, CutParams(0.9, 0.05)))
    assert time.perf_counter() - start < 0.1
    assert len(part.blocks) == 5


TOY_UNIVERSE = ("i_1", "i_2", "i_3", "i_4", "i_5")
TOY_BLOCKS = [["i_1", "i_2", "i_3"], ["i_4", "i_5"]]


@pytest.fixture
def toy_partition():
    return Partition.from_blocks(TOY_BLOCKS, TOY_UNIVERSE)


def test_lower_approx(toy_partition):
    assert lower_approx(toy_partition, {"i_1", "i_2", "i_3", "i_4"}) == {"i_1", "i_2", "i_3"}
    assert lower_approx(toy_partition, {"i_1", "i_2", "i_3"}) == {"i_1", "i_2", "i_3"}
    assert lower_approx(toy_partition, set()) == frozenset()


def test_upper_approx(toy_partition):
    assert upper_approx(toy_partition, {"i_1", "i_2", "i_3", "i_4"}) == set(TOY_UNIVERSE)
    assert upper_approx(toy_partition, {"i_4", "i_5"}) == {"i_4", "i_5"}
    assert upper_approx(toy_partition, set(TOY_UNIVERSE)) == set(TOY_UNIVERSE)


def test_rough_approximation_bundle(toy_partition):
    rough = rough_approximation(toy_partition, {"i_1", "i_2", "i_3", "i_4"})
    assert rough.boundary == {"i_4", "i_5"}
    assert not rough.definable

    exact = rough_approximation(toy_partition, {"i_4", "i_5"})
    assert exact.definable and exact.boundary == frozenset()


def test_rough_approximation_singleton_partition():
    part = Partition.from_blocks([[o] for o in TOY_UNIVERSE], TOY_UNIVERSE)
    rough = rough_approximation(part, {"i_2", "i_4"})
    assert rough.lower == rough.upper == {"i_2", "i_4"}
    assert rough.definable


def test_unknown_target_label_is_an_error(toy_partition):
    with pytest.raises(TableError, match="outside the universe"):
        lower_approx(toy_partition, {"i_1", "zz"})


def test_partition_json_roundtrip(cut_partitions, institutions):
    doc = partition_to_json(cut_partitions["IC"], "IC", 0.92, 0.05)
    assert doc["attribute"] == "IC" and doc["alpha"] == 0.92
    name, back = partition_from_json(json.loads(json.dumps(doc)), institutions.objects)
    assert name == "IC"
    assert back == cut_partitions["IC"]


def test_partition_json_rejects_missing_keys(institutions):
    with pytest.raises(TableError, match="missing key"):
        partition_from_json({"blocks": []}, institutions.objects)
