import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
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
from roughfca.table import Partition, TableError

import golden
import oracles
from relation_strategies import hand_built_relations, table_relations


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
    assert graph.has_edge("i_1", "i_2")   # mu 0.992, nu ~0.002
    assert not graph.has_edge("i_3", "i_4")  # mu 0.86 below alpha
    assert graph.has_edge("i_6", "i_7")   # mu 0.932 at the bracket edge
    for x in graph.objects:
        assert graph.has_edge(x, x)


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
    mu, _ = relations["ECA"].degree("i_9", "i_10")
    assert mu == pytest.approx(0.60, abs=1e-12)


def test_edgeless_graph_gives_singletons(relations):
    # alpha 1, beta 0 on ECA: no two institutions share a score
    part = partition_from_cut(cut_graph(relations["ECA"], CutParams(1.0, 0.0)))
    assert all(len(b) == 1 for b in part.blocks)


def test_zero_nonmembership_cut_depends_on_alpha_alone(relations):
    # with the non-membership side identically zero the relation degrades to
    # a plain fuzzy proximity relation: beta stops mattering
    import numpy as np

    from roughfca.proximity import IFProximityRelation

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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rel=st.one_of(table_relations(), hand_built_relations()), data=st.data())
def test_cut_graph_matches_oracle_at_cell_boundaries(rel, data):
    # thresholds on a cell's mu or nu, or one ulp either side of it
    alphas = _one_ulp_around(np.asarray(rel.mu).ravel().tolist(), 0.0, 1.0)
    alpha = data.draw(st.sampled_from(alphas) if alphas else st.floats(0.0, 1.0), label="alpha")
    betas = _one_ulp_around(np.asarray(rel.nu).ravel().tolist(), 0.0, 1.0 - alpha)
    beta = data.draw(st.sampled_from(betas) if betas else st.floats(0.0, 1.0 - alpha), label="beta")
    params = CutParams(alpha, beta)
    assert cut_graph(rel, params).edges == oracles.cut_graph_reference(rel, params).edges


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
    name, back = partition_from_json(json.dumps(doc), institutions.objects)
    assert name == "IC"
    assert back == cut_partitions["IC"]


def test_partition_json_rejects_missing_keys(institutions):
    with pytest.raises(TableError, match="missing key"):
        partition_from_json({"blocks": []}, institutions.objects)
