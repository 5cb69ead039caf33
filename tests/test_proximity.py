import csv
import io
import math
import re
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from roughfca import proximity
from roughfca.approx import CutParams, cut_graph
from roughfca.proximity import (
    IFProximityRelation,
    build_proximity,
    membership_degree,
    nonmembership_degree,
    proximity_to_csv,
    round_half_up,
    validate_proximity,
)
from roughfca.table import AttributeSpec, load_table

import golden
import oracles
from relation_strategies import (
    ODD_CELLS,
    DenseRelation,
    boundary_cuts,
    cell_values,
    hand_built_relations,
    json_names,
    near_tie,
    numeric_tables,
    perturbed_relations,
    spread_relation,
    table_relations,
)

DIFFERENTIAL = settings(max_examples=200, deadline=None, derandomize=True)


def test_membership_reference_values():
    assert round_half_up(membership_degree(229, 227, 250)) == 0.992
    assert round_half_up(membership_degree(229, 191, 250)) == 0.848
    assert membership_degree(229, 227, 250) == pytest.approx(float(1 - Fraction(2, 250)), abs=1e-12)


def test_membership_identity():
    for x, r in [(1, 250), (125, 250), (60, 60)]:
        assert membership_degree(x, x, r) == 1.0


def test_nonmembership_reference_values():
    assert round_half_up(nonmembership_degree(229, 227)) == 0.002
    assert nonmembership_degree(229, 227) == pytest.approx(2 / 912, abs=1e-15)
    assert round_half_up(nonmembership_degree(56, 53)) == 0.014
    assert nonmembership_degree(56, 53) == pytest.approx(3 / 218, abs=1e-15)


def test_nonmembership_identity_and_bound():
    assert nonmembership_degree(7, 7) == 0.0
    for x, y in [(1, 2), (1, 1000), (40, 41)]:
        assert 0 < nonmembership_degree(x, y) < 0.5


def test_symmetry():
    assert membership_degree(3, 9, 20) == membership_degree(9, 3, 20)
    assert nonmembership_degree(3, 9) == nonmembership_degree(9, 3)


def test_monotonicity():
    # larger gap, same anchor: membership strictly falls
    assert membership_degree(10, 15, 100) > membership_degree(10, 20, 100)
    # same gap, larger values: non-membership strictly falls
    assert nonmembership_degree(10, 15) > nonmembership_degree(100, 105)


def test_build_proximity_diagonal_and_symmetry(relations):
    rel = relations["IC"]
    mu, nu = rel.mu, rel.nu
    for i in range(rel.size):
        assert (mu[i, i], nu[i, i]) == (1.0, 0.0)
    i, j = rel.objects.index("i_1"), rel.objects.index("i_4")
    assert (mu[i, j], nu[i, j]) == (mu[j, i], nu[j, i])


def test_build_proximity_spot_values(relations):
    rel = relations["SS"]
    i, j = rel.objects.index("i_4"), rel.objects.index("i_9")
    mu, nu = rel.mu.item(i, j), rel.nu.item(i, j)
    assert round_half_up(mu) == 0.983
    assert nu == pytest.approx(1 / 162, abs=1e-15)


def test_build_proximity_single_object():
    table = load_table("object,a\nx,5\n", [AttributeSpec("a", range_max=10)])
    rel = build_proximity(table, "a")
    assert rel.size == 1
    assert (rel.mu.item(0, 0), rel.nu.item(0, 0)) == (1.0, 0.0)


def test_build_proximity_holds_its_value_column_alone():
    # 100,000 values: their two dense degree matrices would take 160 GB.
    # The relation holds one float64 per object, and the build's peak is a
    # few more, from the column it reads
    n = 100_000
    table = load_table("object,a\n" + "".join(f"o{i},{i % 1000 + 1}\n" for i in range(n)),
                       [AttributeSpec("a", range_max=1000)])
    build_proximity(table, "a")  # a first build loads what it needs
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rel = build_proximity(table, "a")
        held, peak = (size - before for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert rel.values.shape == (n,) and rel.values[-1] == 1000.0
    assert held < 9 * n
    assert peak < 32 * n


def test_relation_copies_its_value_column():
    # a view or an owner: a later write to the caller's array does not
    # reach the relation, whose column is read-only
    values = np.array([1.0, 5.0, 9.0])
    for given in (values, values[:]):
        rel = IFProximityRelation("a", ("x", "y", "z"), given, 10)
        values[1] = 2.0
        assert rel.values.tolist() == [1.0, 5.0, 9.0]
        assert not rel.values.flags.writeable
        values[1] = 5.0


@pytest.mark.parametrize("values", [[0.5, 2.0], [1.0, 10.5], [1.0, math.nan], [1.0, math.inf],
                                    [-0.0, 1.0], [1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]])
def test_relation_refuses_a_column_that_is_not_one_value_in_range_per_object(values):
    with pytest.raises(ValueError, match=re.escape("one value in [1, range_max] per object")):
        IFProximityRelation("a", ("x", "y"), values, 10)


def test_build_proximity_rejects_nominal(rnd_table):
    with pytest.raises(ValueError, match="nominal"):
        build_proximity(rnd_table, "rd")


def test_validation_clean_attributes(relations):
    for name in ("IC", "IF", "PP", "RS", "SS"):
        assert validate_proximity(relations[name]).shape == (0, 2)


def test_validation_flags_low_value_sums(relations):
    # mu + nu exceeds 1 exactly when the two values differ and their sum is
    # below half the range; ECA is the only column with such pairs
    rel = relations["ECA"]
    assert {(rel.objects[i], rel.objects[j]) for i, j in validate_proximity(rel).tolist()} == {
        ("i_6", "i_8"), ("i_6", "i_10"), ("i_7", "i_8"),
        ("i_7", "i_10"), ("i_8", "i_10"), ("i_9", "i_10"),
    }


def test_validation_flags_broken_reflexivity(relations):
    # a relation checks its diagonal when it is built, before any validation
    rel = relations["IC"]
    mu = rel.mu
    mu[0, 0] = 0.9
    with pytest.raises(ValueError, match=re.escape("mu[0, 0] = 0.9: ")):
        DenseRelation(rel.attribute, rel.objects, mu, rel.nu)


def test_validation_sum_violation_example():
    table = load_table("object,a\nx,1\ny,3\n", [AttributeSpec("a", range_max=250)])
    rel = build_proximity(table, "a")
    mu, nu = rel.mu.item(0, 1), rel.nu.item(0, 1)  # objects x, y
    assert round_half_up(mu) == 0.992
    assert nu == 0.25
    assert validate_proximity(rel).tolist() == [[0, 1]]


def test_round_half_up():
    assert round_half_up(0.0015) == 0.002
    assert round_half_up(0.0025) == 0.003
    assert round_half_up(0.9169) == 0.917


def test_csv_export_shape_and_cells(relations):
    text = proximity_to_csv(relations["IC"])
    lines = text.strip().splitlines()
    assert len(lines) == 11
    assert lines[0].startswith("IC,i_1,")
    assert '"0.992,0.002"' in lines[1]
    assert '"1.000,0.000"' in lines[1]


def test_reference_table_cells_within_tolerance(relations):
    total = 0
    for attr, cells in golden.REFERENCE_PROXIMITY.items():
        rel = relations[attr]
        mus, nus = rel.mu, rel.nu
        for (x, y), (mu_ref, nu_ref) in cells.items():
            i, j = rel.objects.index(x), rel.objects.index(y)
            mu, nu = mus.item(i, j), nus.item(i, j)
            assert abs(mu - mu_ref) <= golden.PROXIMITY_TOL, (attr, x, y)
            assert abs(nu - nu_ref) <= golden.PROXIMITY_TOL, (attr, x, y)
            total += 1
    assert total >= 240


# --- the vectorised kernels against their former loops in tests/oracles.py ---

@DIFFERENTIAL
@given(rel=table_relations())
def test_csv_and_validation_match_oracles_on_tables(rel):
    assert proximity_to_csv(rel) == oracles.proximity_to_csv_reference(rel)
    assert validate_proximity(rel).tolist() == oracles.validate_proximity_reference(rel)


@DIFFERENTIAL
@given(rel=hand_built_relations())
def test_csv_matches_oracle_on_hand_built_cells(rel):
    assert proximity_to_csv(rel) == oracles.proximity_to_csv_reference(rel)


@DIFFERENTIAL
@given(rel=st.one_of(hand_built_relations(), perturbed_relations()))
def test_validation_matches_oracle_on_broken_axioms(rel):
    assert validate_proximity(rel).tolist() == oracles.validate_proximity_reference(rel)


@DIFFERENTIAL
@given(rel=st.one_of(table_relations(), hand_built_relations()))
def test_violations_read_as_the_oracle_list(rel):
    # a k x 2 integer array, also when empty
    got, want = validate_proximity(rel), oracles.validate_proximity_reference(rel)
    assert got.shape == (len(want), 2) and got.dtype.kind == "i"
    assert got.tolist() == want


def test_relation_on_views_ignores_later_writes():
    # marking a view read-only leaves its base writeable, so the relation
    # would read a write to the base, and records built later would too
    mu = np.array([[1.0, 0.9], [0.9, 1.0]])
    nu = np.array([[0.0, 0.1], [0.1, 0.0]])
    rel = DenseRelation("a", ("x", "y"), mu[:], nu[:])
    before = validate_proximity(rel)
    mu[0, 1] = 0.95
    nu[1, 0] = 0.3
    assert rel.mu[0, 1] == 0.9 and rel.nu[1, 0] == 0.1
    assert len(before) == len(validate_proximity(rel)) == 0
    assert not rel.mu.flags.writeable and not rel.nu.flags.writeable


def test_relation_copies_matrices_that_own_their_data():
    # marking an owner read-only leaves the views already taken of it
    # writeable, so the relation keeps copies of the matrices it is given
    mu = np.array([[1.0, 0.9], [0.9, 1.0]])
    nu = np.array([[0.0, 0.1], [0.1, 0.0]])
    mu_view, nu_view = mu[:], nu[:]
    rel = DenseRelation("a", ("x", "y"), mu, nu)
    mu_view[0, 1] = 0.95
    nu_view[1, 0] = 0.3
    assert rel.mu[0, 1] == 0.9 and rel.nu[1, 0] == 0.1
    assert len(validate_proximity(rel)) == 0
    assert not rel.mu.flags.writeable and not rel.nu.flags.writeable


@pytest.mark.parametrize("value, text", [
    (0.0015, "0.002"), (0.0025, "0.003"), (0.0125, "0.013"), (0.0005, "0.001"),
    (0.0045, "0.005"),  # its double lies below the tie: round(0.0045, 3) == 0.004
    (math.nextafter(0.0015, 0.0), "0.001"), (math.nextafter(0.0015, 1.0), "0.002"),
    (near_tie(999, 0), "1.000"), (near_tie(999, -1), "0.999"),
    (1.0, "1.000"), (0.0, "0.000"),
])
def test_csv_cell_text_at_ties_and_outside_unit_interval(value, text):
    rel = DenseRelation("a", ("x", "y"), np.array([[1.0, value], [value, 1.0]]),
                        np.array([[0.0, 0.5], [0.5, 0.0]]))
    assert proximity_to_csv(rel) == (f'a,x,y\nx,"1.000,0.000","{text},0.500"\n'
                                     f'y,"{text},0.500","1.000,0.000"\n')
    assert proximity_to_csv(rel) == oracles.proximity_to_csv_reference(rel)


def _pair_relation(mu, nu):
    return DenseRelation("a", ("x", "y"), mu, nu)


def test_relation_refuses_broken_matrices():
    # the one cell, or the pair, outside [0, 1] in either matrix
    for value in ODD_CELLS:
        for field, i, j in (("mu", 0, 1), ("nu", 0, 1), ("mu", 1, 1), ("nu", 0, 0)):
            matrices = {"mu": np.eye(2), "nu": np.zeros((2, 2))}
            matrices[field][i, j] = matrices[field][j, i] = value
            with pytest.raises(ValueError, match=re.escape(f"{field}[{i}, {j}] = {value!r}:")):
                _pair_relation(**matrices)
    with pytest.raises(ValueError, match=re.escape("mu[0, 1] = 0.9: a degree matrix is symmetric")):
        _pair_relation([[1.0, 0.9], [0.8, 1.0]], [[0.0, 0.1], [0.1, 0.0]])
    with pytest.raises(ValueError, match=re.escape("nu[1, 1] = 0.25:")):
        _pair_relation([[1.0, 0.9], [0.9, 1.0]], [[0.0, 0.1], [0.1, 0.25]])
    with pytest.raises(ValueError, match=r"\|U\| x \|U\|"):
        _pair_relation(np.eye(3), np.zeros((3, 3)))
    # integer matrices are copied as float64 and accepted
    rel = _pair_relation(np.eye(2, dtype=np.int64), np.zeros((2, 2), dtype=np.int32))
    assert rel.mu.dtype == rel.nu.dtype == np.float64
    assert proximity_to_csv(rel) == proximity_to_csv(_pair_relation(np.eye(2), np.zeros((2, 2))))


#: Tables at the ends of float range: at R = 1e300, R - 1 rounds to R, so mu
#: of 1 and R is exactly 0.0; near the largest float 2(x + y) would overflow
#: to infinity, which x/2 + y/2 does not.
HUGE_RANGE = load_table(f"object,a\nx,1\ny,{1e300!r}\n", [AttributeSpec("a", range_max=1e300)])
TOP = sys.float_info.max
NEAR_TOP = load_table(f"object,a\nx,{TOP!r}\ny,{math.nextafter(TOP, 0)!r}\nz,{TOP / 2!r}\n",
                      [AttributeSpec("a", range_max=TOP)])


def test_extreme_tables_reach_the_ends_of_the_degrees():
    assert build_proximity(HUGE_RANGE, "a").mu[0, 1] == 0.0
    with np.errstate(over="raise"):
        nu = build_proximity(NEAR_TOP, "a").nu
    # x = TOP, z = TOP / 2: nu = (TOP / 2) / (3 TOP) = 1/6
    assert nu[0, 2] == nu[2, 0] == pytest.approx(1 / 6, rel=1e-15)
    assert 0.0 < nu[0, 1] < 1e-15


@st.composite
def value_pairs(draw):
    """Two values of [1, TOP]: independent, or the second a few ulps from
    the first, where nu rounds furthest from its exact value."""
    x = draw(st.floats(1.0, TOP))
    y = draw(st.floats(1.0, TOP) | st.integers(-3, 3).map(
        lambda k: min(max(x + k * math.ulp(x), 1.0), TOP)))
    return x, y


@DIFFERENTIAL
@given(pair=value_pairs())
@example(pair=(TOP, TOP / 2))
@example(pair=(TOP, math.nextafter(TOP, 0.0)))
@example(pair=(1.0, TOP))
def test_nonmembership_is_the_doubled_expression_wherever_that_is_finite(pair):
    # (|x-y| / 4) / (x/2 + y/2) rounds as |x-y| / (2(x+y)) does, and where
    # 2(x+y) overflows it stays within its three roundings of the exact nu
    x, y = pair
    nu = nonmembership_degree(x, y)
    doubled = 2.0 * (x + y)
    if math.isfinite(doubled):
        assert nu.hex() == (abs(x - y) / doubled).hex()
    exact = Fraction(abs(Fraction(x) - Fraction(y))) / (2 * (Fraction(x) + Fraction(y)))
    assert abs(Fraction(nu) - exact) <= exact * Fraction(1, 2**51)


@st.composite
def value_relations(draw):
    """The relation of a table column; of near-duplicates, a few ulps
    apart; of values up to the largest float; or of values under an
    integer range_max above 2**53, which the division rounds."""
    kind = draw(st.sampled_from(["table", "near-duplicates", "largest", "integer range"]))
    if kind == "table":
        return draw(table_relations())
    n = draw(st.integers(1, 8))
    if kind == "near-duplicates":
        base = draw(st.floats(1.0, 1000.0))
        values = [max(base + k * math.ulp(base), 1.0)
                  for k in draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))]
        range_max = draw(st.floats(1001.0, 1e6))
    elif kind == "largest":
        values = draw(st.lists(st.floats(1.0, TOP), min_size=n, max_size=n))
        range_max = TOP
    else:
        values = draw(st.lists(st.floats(1.0, 2.0**53), min_size=n, max_size=n))
        range_max = draw(st.integers(2**53 + 1, 2**70))
    return IFProximityRelation("a", tuple(f"o{i}" for i in range(n)), values, range_max)


@DIFFERENTIAL
@given(rel=value_relations())
@example(rel=build_proximity(NEAR_TOP, "a"))
@example(rel=build_proximity(HUGE_RANGE, "a"))
def test_row_blocks_are_the_degree_functions_bit_for_bit(rel):
    # the blocks on each side of every split, against the degree functions
    # on the whole matrices and on Python floats, as the cut search calls them
    n, values = rel.size, rel.values.tolist()
    with np.errstate(over="raise"):
        mu, nu = rel.mu, rel.nu
    assert mu.tobytes() == np.array([membership_degree(x, y, rel.range_max)
                                     for x in values for y in values]).tobytes()
    assert nu.tobytes() == np.array([nonmembership_degree(x, y)
                                     for x in values for y in values]).tobytes()
    for split in range(n + 1):
        for start, stop in ((0, split), (split, n)):
            with np.errstate(over="raise"):
                blocks = rel.rows(start, stop)
            for block, whole in zip(blocks, (mu, nu)):
                assert block.shape == (stop - start, n)
                assert block.tobytes() == whole[start:stop].tobytes()


@DIFFERENTIAL
@given(table=numeric_tables())
@example(table=HUGE_RANGE)
@example(table=NEAR_TOP)
def test_build_proximity_makes_only_relations_that_pass_the_check(table):
    # a relation holds no matrix to check: the degrees it computes keep the
    # axioms that the dense test double checks
    for name in table.attribute_names:
        rel = build_proximity(table, name)
        with np.errstate(over="raise"):
            mu, nu = rel.mu, rel.nu
        assert oracles.is_reflexive_and_symmetric(rel)
        assert all(map(oracles.is_degree, [*mu.ravel().tolist(), *nu.ravel().tolist()]))
        DenseRelation(rel.attribute, rel.objects, mu, nu)


def test_render_and_validate_1000_objects_in_time():
    # 10^6 cells: rounding each through Decimal takes about 7 s
    rel = spread_relation(1000)
    start = time.perf_counter()
    text = proximity_to_csv(rel)
    violations = validate_proximity(rel)
    assert time.perf_counter() - start < 3.0
    assert text.count("\n") == 1001
    assert len(violations) == 62_001


def test_validate_1000_objects_in_one_masked_pass():
    # the values are a permutation of 1-1000: every pair x != y with
    # x + y < 500 fails mu + nu <= 1.  The masks take about 0.02 s on a
    # 2-vCPU host, and the pair-by-pair scan of tests/oracles.py about 1 s.
    rel = spread_relation(1000)
    start = time.perf_counter()
    violations = validate_proximity(rel)
    assert time.perf_counter() - start < 0.75
    assert len(violations) == 62_001
    assert (violations[:, 0] < violations[:, 1]).all()


def test_violation_count_and_first_pair_of_1000_objects():
    # what the pipeline reads: the count and the first pair, whose sum it prints
    rel = spread_relation(1000)
    start = time.perf_counter()
    violations = validate_proximity(rel)
    count, (i, j) = len(violations), violations[0].tolist()
    assert time.perf_counter() - start < 0.1
    assert count == 62_001
    assert (rel.objects[i], rel.objects[j]) == ("o0", "o7")
    mu, nu = rel.rows(i, i + 1)
    assert f"{mu.item(0, j) + nu.item(0, j):.6g}" == "1.0647"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        violations = validate_proximity(rel)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 2 * 2**20


# --- row blocks: degrees are computed, and rows rendered, _BLOCK_CELLS cells at a time ---


@pytest.mark.parametrize("block_cells", [1, 5, 7, "n - 1", "n", "n + 1"])
@DIFFERENTIAL
@given(case=boundary_cuts())
def test_csv_matches_oracle_across_block_boundaries(block_cells, case):
    # one-row blocks, several-row blocks and a partial last block; blocks
    # of one cell short of a row, one row and one cell past it.  The CSV,
    # the validation and the cut each read the relation block by block
    rel, params = case
    n = rel.size
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(proximity, "_BLOCK_CELLS",
                      {"n - 1": n - 1, "n": n, "n + 1": n + 1}.get(block_cells, block_cells))
        assert proximity_to_csv(rel) == oracles.proximity_to_csv_reference(rel)
        assert validate_proximity(rel).tolist() == oracles.validate_proximity_reference(rel)
        assert cut_graph(rel, params).rows == oracles.cut_graph_reference(rel, params).rows


def test_empty_and_one_object_relations_keep_their_shapes():
    empty = IFProximityRelation("a", (), (), 1.0)
    one = build_proximity(load_table("object,a\nx,5\n", [AttributeSpec("a", range_max=10)]), "a")
    cut = CutParams(0.9, 0.05)
    assert validate_proximity(empty).shape == validate_proximity(one).shape == (0, 2)
    assert cut_graph(empty, cut).rows == () and cut_graph(one, cut).rows == (1,)
    assert empty.mu.shape == empty.rows(0, 0)[1].shape == (0, 0)
    assert one.nu.shape == one.rows(0, 1)[0].shape == (1, 1)
    for rel in (empty, one):
        assert proximity_to_csv(rel) == oracles.proximity_to_csv_reference(rel)


def test_csv_matches_oracle_with_odd_cells_in_first_and_last_block():
    # near-ties, which go through Decimal, in the end rows of both end blocks
    rel = spread_relation(97)
    rows = proximity._BLOCK_CELLS // 97
    last = 96 // rows * rows  # the first row of the last block
    assert 1 < rows <= last < 96  # two or more blocks, each end block two rows or more
    mu, nu = rel.mu, rel.nu
    cells = ((mu, 3, 0.0015, "0.002,"), (nu, 5, near_tie(4, 1), ",0.005"),
             (mu, 40, near_tie(499, -1), "0.499,"), (nu, 90, 0.0125, ",0.013"))
    for row in (0, rows - 1, last, 96):
        for matrix, col, value, _ in cells:
            matrix[row, col] = matrix[col, row] = value
    odd = DenseRelation(rel.attribute, rel.objects, mu, nu)
    text = proximity_to_csv(odd)
    assert text == oracles.proximity_to_csv_reference(odd)
    table = list(csv.reader(io.StringIO(text)))
    for row in (0, rows - 1, last, 96):
        for _, col, _, part in cells:
            assert part in table[1 + row][1 + col]
            assert table[1 + row][1 + col] == table[1 + col][1 + row]


@st.composite
def block_spanning_relations(draw):
    """A relation of three or more real _BLOCK_CELLS blocks, whose labels
    and attribute name need escaping, quoting or non-ASCII bytes, with one
    pair of hard-to-round degrees in a row of the middle block and its
    mirror."""
    n = next(n for n in range(2, 10_000) if n > 2 * max(1, proximity._BLOCK_CELLS // n))
    n = draw(st.integers(n, n + 20))
    rows = max(1, proximity._BLOCK_CELLS // n)
    rel = spread_relation(n)
    mu, nu = rel.mu, rel.nu
    matrix = mu if draw(st.booleans()) else nu
    i = draw(st.integers(rows, 2 * rows - 1))
    j = draw(st.integers(0, n - 1).filter(lambda j: j != i))
    matrix[i, j] = matrix[j, i] = draw(cell_values)
    labels = draw(st.lists(json_names, min_size=n, max_size=n))
    return DenseRelation(draw(json_names), tuple(labels), mu, nu)


# a failure reports its first relation unshrunk: shrinking a hundred labels
# against the Decimal oracle takes minutes
@settings(max_examples=30, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(rel=block_spanning_relations())
def test_csv_matches_oracle_across_real_blocks_with_escaped_labels(rel):
    assert proximity_to_csv(rel) == oracles.proximity_to_csv_reference(rel)


def test_csv_peak_memory_stays_near_its_text():
    # whole-matrix passes hold about 6x the text at the peak, one-row or
    # _BLOCK_CELLS passes about 2x: the joined bytes and their decoded text
    rel = spread_relation(200)
    proximity_to_csv(rel)
    tracemalloc.start()
    try:
        text = proximity_to_csv(rel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text)
