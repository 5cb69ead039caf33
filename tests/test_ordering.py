import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughfca.ordering import (
    LabelLadder,
    OrderedColumn,
    OrderedTable,
    RankRow,
    RankTable,
    build_ordered_table,
    categorize_partition,
    cluster_by_rank,
    default_ladder,
    induced_order,
    joint_order,
    ordered_table_override,
    ordered_table_to_csv,
    rank_table_to_csv,
    score_and_rank,
)
from roughfca.table import Partition, TableError, cell_token

import golden
import oracles
from relation_strategies import labels


def test_ladder_validation():
    LabelLadder(("High", "Low"), (2, 1))
    with pytest.raises(ValueError, match="strictly decreasing"):
        LabelLadder(("High", "Low"), (1, 1))
    with pytest.raises(ValueError, match="positive"):
        LabelLadder(("High", "Low"), (1, 0))
    with pytest.raises(ValueError, match="duplicate"):
        LabelLadder(("High", "High"), (2, 1))


def test_default_ladders():
    assert default_ladder(3).labels == ("Excellent", "Very good", "Good")
    assert default_ladder(3).weights == (5, 4, 3)
    assert default_ladder(4).labels == ("Very high", "High", "Moderate", "Low")
    assert default_ladder(6).weights == (6, 5, 4, 3, 2, 1)
    assert default_ladder(2).labels == ("L1", "L2")


def test_categorize_ic_column(institutions, cut_partitions):
    col = categorize_partition(institutions, "IC", cut_partitions["IC"], default_ladder(4))
    expected = {o: labels[0] for o, labels in golden.REFERENCE_ORDERED.items()}
    assert {o: col.label(o) for o in institutions.objects} == expected


def test_categorize_ss_column(institutions, cut_partitions):
    col = categorize_partition(institutions, "SS", cut_partitions["SS"], default_ladder(3))
    expected = {o: labels[3] for o, labels in golden.REFERENCE_ORDERED.items()}
    assert {o: col.label(o) for o in institutions.objects} == expected


def test_categorize_single_block(institutions, cut_partitions):
    col = categorize_partition(institutions, "RS", cut_partitions["RS"], default_ladder(4))
    assert {col.label(o) for o in institutions.objects} == {"Very high"}


def test_categorize_mean_order_differs_on_eca(institutions, reference_partitions):
    # first-appearance order follows the table's curated row order; ordering
    # the blocks by mean value instead promotes the lone top scorer i_2
    appearance = categorize_partition(
        institutions, "ECA", reference_partitions["ECA"], default_ladder(6))
    mean = categorize_partition(
        institutions, "ECA", reference_partitions["ECA"], default_ladder(6), order_by="mean")
    assert appearance.label("i_1") == "Outstanding"
    assert mean.label("i_2") == "Outstanding"
    assert mean.label("i_1") == "Very good"


def test_categorize_mean_ties_keep_first_appearance_order():
    from roughfca.table import AttributeSpec, load_table

    # {x, y, z} and {u, v, w} tie on mean 4 and maximum 6; {t} leads on mean
    table = load_table("object,a\nx,1\ny,6\nz,5\nu,6\nv,3\nw,3\nt,9\n",
                       [AttributeSpec("a", range_max=10)])
    part = Partition.from_blocks([["t"], ["w", "v", "u"], ["z", "y", "x"]], table.objects)
    col = categorize_partition(table, "a", part, default_ladder(3), order_by="mean")
    assert {o: col.label(o) for o in table.objects} == {
        "t": "Excellent", "x": "Very good", "y": "Very good", "z": "Very good",
        "u": "Good", "v": "Good", "w": "Good"}


def test_categorize_ladder_too_short(institutions, cut_partitions):
    with pytest.raises(TableError, match="ladder"):
        categorize_partition(institutions, "IC", cut_partitions["IC"],
                             LabelLadder(("High", "Low"), (2, 1)))


def test_categorize_rejects_nominal(rnd_table):
    part = Partition.from_blocks([rnd_table.objects], rnd_table.objects)
    with pytest.raises(TableError, match="nominal"):
        categorize_partition(rnd_table, "rd", part, default_ladder(1))


def test_ordered_table_matches_reference(institutions, case_partitions):
    ordered = build_ordered_table(institutions, case_partitions)
    assert ordered.dropped == ("RS",)
    assert ordered.attribute_names == ("IC", "IF", "PP", "SS", "ECA")
    for obj, labels in golden.REFERENCE_ORDERED.items():
        assert tuple(col.label(obj) for col in ordered.columns) == labels, obj


def test_ordered_table_source_positions(institutions, case_partitions):
    ordered = build_ordered_table(institutions, case_partitions)
    assert [c.source_index for c in ordered.columns] == [1, 2, 3, 5, 6]


def test_all_single_block_drops_everything(institutions):
    single = {name: Partition.from_blocks([institutions.objects], institutions.objects)
              for name in institutions.attribute_names}
    ordered = build_ordered_table(institutions, single)
    assert ordered.columns == ()
    assert set(ordered.dropped) == set(institutions.attribute_names)


def test_drop_can_be_disabled():
    from roughfca.table import AttributeSpec, load_table

    table = load_table("object,a\nx,5\ny,5\n",
                       [AttributeSpec("a", range_max=10, drop_if_indiscernible=False)])
    part = Partition.from_blocks([["x", "y"]], table.objects)
    ordered = build_ordered_table(table, {"a": part})
    assert ordered.attribute_names == ("a",)
    assert ordered.dropped == ()


def test_two_block_binary_column():
    from roughfca.table import AttributeSpec, load_table

    table = load_table("object,a\nx,9\ny,2\n", [AttributeSpec("a", range_max=10)])
    part = Partition.from_blocks([["x"], ["y"]], table.objects)
    ordered = build_ordered_table(table, {"a": part},
                                  ladders={"a": LabelLadder(("High", "Low"), (2, 1))})
    col = oracles.ordered_column(ordered, "a")
    assert col.label("x") == "High" and col.label("y") == "Low"


def test_induced_order_labels(institutions, case_partitions):
    ordered = build_ordered_table(institutions, case_partitions)
    eca = oracles.ordered_column(ordered, "ECA")
    assert induced_order(eca, "i_1", "i_2") == "ahead"      # Outstanding vs Excellent
    assert induced_order(eca, "i_2", "i_1") == "behind"
    assert induced_order(eca, "i_1", "i_1") == "tied"


def test_induced_order_raw_values(rnd_table):
    labels = {o: cell_token(rnd_table.value(o, "profit")) for o in rnd_table.objects}
    col = OrderedColumn("profit", 4, LabelLadder(("300", "250", "200"), (3, 2, 1)), labels)
    assert induced_order(col, "o_2", "o_1") == "ahead"      # 300 ahead of 200
    assert induced_order(col, "o_4", "o_6") == "tied"


def test_joint_order(institutions, case_partitions):
    ordered = build_ordered_table(institutions, case_partitions)
    ic, pp, eca = (oracles.ordered_column(ordered, name) for name in ("IC", "PP", "ECA"))
    # equal IC labels break strictness
    assert not joint_order([ic, eca], "i_1", "i_3")
    assert joint_order([pp, eca], "i_1", "i_3")
    assert not joint_order([pp, eca], "i_1", "i_1")
    with pytest.raises(TableError, match="nonempty"):
        joint_order([], "i_1", "i_3")


def test_joint_order_singleton_matches_induced(institutions, case_partitions):
    ordered = build_ordered_table(institutions, case_partitions)
    col = oracles.ordered_column(ordered, "IC")
    for x in institutions.objects:
        for y in institutions.objects:
            assert joint_order([col], x, y) == (induced_order(col, x, y) == "ahead")


def test_score_and_rank_reference(institutions, case_partitions):
    ranks = score_and_rank(build_ordered_table(institutions, case_partitions))
    assert {r.object: r.total for r in ranks.rows} == golden.REFERENCE_TOTALS
    assert oracles.ranks_by_object(ranks) == golden.REFERENCE_RANKS


def test_score_and_rank_all_tied():
    from roughfca.table import AttributeSpec, load_table

    table = load_table("object,a\nx,5\ny,5\n",
                       [AttributeSpec("a", range_max=10, drop_if_indiscernible=False)])
    part = Partition.from_blocks([["x", "y"]], table.objects)
    ranks = score_and_rank(build_ordered_table(table, {"a": part}))
    assert [r.rank for r in ranks.rows] == [1, 1]


def test_score_and_rank_two_levels():
    from roughfca.table import AttributeSpec, load_table

    table = load_table("object,a\nx,9\ny,2\n", [AttributeSpec("a", range_max=10)])
    part = Partition.from_blocks([["x"], ["y"]], table.objects)
    ranks = score_and_rank(build_ordered_table(table, {"a": part}))
    assert [(r.total, r.rank) for r in ranks.rows] == [(2, 1), (1, 2)]


def test_cluster_by_rank_reference(institutions, case_partitions):
    ranks = score_and_rank(build_ordered_table(institutions, case_partitions))
    clusters = cluster_by_rank(ranks, [(1, 3), (4, 6), (7, 9)])
    assert {c.cluster_id: c.members for c in clusters} == golden.REFERENCE_CLUSTERS


def test_cluster_single_range(institutions, case_partitions):
    ranks = score_and_rank(build_ordered_table(institutions, case_partitions))
    (only,) = cluster_by_rank(ranks, [(1, 9)])
    assert set(only.members) == set(institutions.objects)


def test_cluster_split_top(institutions, case_partitions):
    ranks = score_and_rank(build_ordered_table(institutions, case_partitions))
    top, rest = cluster_by_rank(ranks, [(1, 1), (2, 9)])
    assert top.members == ("i_1",)
    assert len(rest.members) == 9


def test_cluster_rejects_uncovered_rank(institutions, case_partitions):
    ranks = score_and_rank(build_ordered_table(institutions, case_partitions))
    with pytest.raises(TableError, match="not covered"):
        cluster_by_rank(ranks, [(1, 3)])


def test_cluster_rejects_overlap(institutions, case_partitions):
    ranks = score_and_rank(build_ordered_table(institutions, case_partitions))
    with pytest.raises(TableError, match="two ranges"):
        cluster_by_rank(ranks, [(1, 4), (4, 9)])


def test_cluster_huge_range_is_interval_arithmetic(institutions, case_partitions):
    # one dict entry per rank in the range would exhaust memory here
    ranks = score_and_rank(build_ordered_table(institutions, case_partitions))
    start = time.perf_counter()
    (only,) = cluster_by_rank(ranks, [(1, 10**12)])
    assert time.perf_counter() - start < 1.0
    assert only.rank_range == (1, 10**12)
    assert only.members == tuple(row.object for row in ranks.rows)


def test_cluster_overlap_with_huge_range_names_first_shared_rank(institutions, case_partitions):
    ranks = score_and_rank(build_ordered_table(institutions, case_partitions))
    with pytest.raises(TableError, match=r"^rank 3 covered by two ranges$"):
        cluster_by_rank(ranks, [(1, 5), (3, 10**12)])


def test_cluster_ranges_out_of_order_keep_their_ids(institutions, case_partitions):
    ranks = score_and_rank(build_ordered_table(institutions, case_partitions))
    clusters = cluster_by_rank(ranks, [(7, 9), (1, 3), (4, 6)])
    assert [c.rank_range for c in clusters] == [(7, 9), (1, 3), (4, 6)]
    by_range = {c.rank_range: c.members for c in clusters}
    assert {1: by_range[(1, 3)], 2: by_range[(4, 6)], 3: by_range[(7, 9)]} == \
        golden.REFERENCE_CLUSTERS


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ranges=st.lists(st.tuples(st.integers(1, 12), st.integers(0, 4))
                       .map(lambda t: (t[0], t[0] + t[1])), min_size=1, max_size=5))
def test_cluster_by_rank_matches_rank_by_rank_scan(institutions, case_partitions, ranges):
    ranks = score_and_rank(build_ordered_table(institutions, case_partitions))
    owners: dict[int, list[int]] = {}  # rank -> the ranges covering it
    for idx, (lo, hi) in enumerate(ranges):
        for r in range(lo, hi + 1):
            owners.setdefault(r, []).append(idx)
    shared = sorted(r for r, idx in owners.items() if len(idx) > 1)
    missing = sorted({row.rank for row in ranks.rows} - owners.keys())
    if shared:
        with pytest.raises(TableError, match=rf"^rank {shared[0]} covered by two ranges$"):
            cluster_by_rank(ranks, ranges)
    elif missing:
        with pytest.raises(TableError, match=re.escape(f"ranks {missing} not covered")):
            cluster_by_rank(ranks, ranges)
    else:
        clusters = cluster_by_rank(ranks, ranges)
        assert [c.members for c in clusters] == [
            tuple(row.object for row in ranks.rows if owners[row.rank] == [idx])
            for idx in range(len(ranges))]


def test_ordered_table_override(institutions, case_partitions):
    ordered = build_ordered_table(institutions, case_partitions)
    swapped = dict.fromkeys(institutions.objects, "Poor")
    swapped["i_1"] = "Outstanding"
    replaced = ordered_table_override(ordered, {"ECA": swapped})
    assert oracles.ordered_column(replaced, "ECA").label("i_5") == "Poor"
    assert oracles.ordered_column(replaced, "IC").label("i_5") == "High"  # untouched column
    with pytest.raises(TableError, match="unknown ordered columns"):
        ordered_table_override(ordered, {"RS": swapped})
    with pytest.raises(TableError, match="not in the"):
        ordered_table_override(ordered, {"ECA": dict.fromkeys(institutions.objects, "zz")})


def test_labels_respect_partition_blocks(institutions, case_partitions):
    ordered = build_ordered_table(institutions, case_partitions)
    for col in ordered.columns:
        part = case_partitions[col.attribute]
        for block in part.blocks:
            assert len({col.label(o) for o in block}) == 1, (col.attribute, block)


def test_raising_one_label_never_lowers_rank(institutions, case_partitions):
    ordered = build_ordered_table(institutions, case_partitions)
    base = oracles.ranks_by_object(score_and_rank(ordered))
    for col in ordered.columns:
        for obj in institutions.objects:
            pos = col.ladder.position(col.label(obj))
            if pos == 1:
                continue
            raised = {o: col.label(o) for o in institutions.objects}
            raised[obj] = col.ladder.labels[pos - 2]  # one step up
            bumped = score_and_rank(ordered_table_override(ordered, {col.attribute: raised}))
            assert oracles.ranks_by_object(bumped)[obj] <= base[obj], (col.attribute, obj)


def test_csv_renderers(institutions, case_partitions):
    ordered = build_ordered_table(institutions, case_partitions)
    table_csv = ordered_table_to_csv(ordered)
    assert table_csv.splitlines()[0] == "object,IC,IF,PP,SS,ECA"
    assert "i_1,Very high,Very high,Very high,Excellent,Outstanding" in table_csv
    rank_csv = rank_table_to_csv(score_and_rank(ordered))
    assert "i_1,Very high (4),Very high (4),Very high (4),Excellent (5),Outstanding (6),23,1" \
        in rank_csv


@st.composite
def _labelled_tables(draw):
    """An ordered and a rank table over names and labels that need quoting or
    not; with no columns every object row is one field."""
    attrs = draw(st.lists(labels, max_size=3, unique=True))
    objects = tuple(draw(st.lists(labels, max_size=3, unique=True)))
    columns = tuple(
        OrderedColumn(a, k + 1, default_ladder(2), {o: draw(labels) for o in objects})
        for k, a in enumerate(attrs))
    rows = tuple(
        RankRow(o, tuple(draw(st.lists(labels, min_size=len(attrs), max_size=len(attrs)))),
                tuple(draw(st.lists(st.integers(1, 6), min_size=len(attrs), max_size=len(attrs)))),
                draw(st.integers(0, 40)), draw(st.integers(1, 5)))
        for o in objects)
    return OrderedTable(objects, columns), RankTable(tuple(attrs), rows)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tables=_labelled_tables())
def test_csv_renderers_match_the_csv_writer_forms(tables):
    ordered, ranks = tables
    assert ordered_table_to_csv(ordered) == oracles.ordered_table_to_csv_reference(ordered)
    assert rank_table_to_csv(ranks) == oracles.rank_table_to_csv_reference(ranks)
