import math
import time
import tracemalloc
from decimal import InvalidOperation
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughfca import proximity
from roughfca.proximity import (
    IFProximityRelation,
    build_proximity,
    membership_degree,
    nonmembership_degree,
    proximity_to_csv,
    round_half_up,
    validate_proximity,
)

import golden
import oracles
from relation_strategies import (
    hand_built_relations,
    near_tie,
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
    for x in rel.objects:
        assert rel.degree(x, x) == (1.0, 0.0)
    assert rel.degree("i_1", "i_4") == rel.degree("i_4", "i_1")


def test_build_proximity_spot_values(relations):
    mu, nu = relations["SS"].degree("i_4", "i_9")
    assert round_half_up(mu) == 0.983
    assert nu == pytest.approx(1 / 162, abs=1e-15)


def test_build_proximity_single_object():
    from roughfca.table import AttributeSpec, load_table

    table = load_table("object,a\nx,5\n", [AttributeSpec("a", range_max=10)])
    rel = build_proximity(table, "a")
    assert rel.size == 1
    assert rel.degree("x", "x") == (1.0, 0.0)


def test_build_proximity_rejects_nominal(rnd_table):
    with pytest.raises(ValueError, match="nominal"):
        build_proximity(rnd_table, "rd")


def test_validation_clean_attributes(relations):
    for name in ("IC", "IF", "PP", "RS", "SS"):
        assert validate_proximity(relations[name]) == []


def test_validation_flags_low_value_sums(relations):
    # mu + nu exceeds 1 exactly when the two values differ and their sum is
    # below half the range; ECA is the only column with such pairs
    violations = validate_proximity(relations["ECA"])
    assert {v.kind for v in violations} == {"sum"}
    assert {v.pair for v in violations} == {
        ("i_6", "i_8"), ("i_6", "i_10"), ("i_7", "i_8"),
        ("i_7", "i_10"), ("i_8", "i_10"), ("i_9", "i_10"),
    }


def test_validation_flags_broken_reflexivity(relations):
    import numpy as np

    from roughfca.proximity import IFProximityRelation

    rel = relations["IC"]
    mu = np.array(rel.mu)
    mu[0, 0] = 0.9
    broken = IFProximityRelation(rel.attribute, rel.objects, mu, np.array(rel.nu))
    kinds = [(v.kind, v.pair) for v in validate_proximity(broken)]
    assert ("reflexivity", ("i_1", "i_1")) in kinds


def test_validation_sum_violation_example():
    from roughfca.table import AttributeSpec, load_table

    table = load_table("object,a\nx,1\ny,3\n", [AttributeSpec("a", range_max=250)])
    rel = build_proximity(table, "a")
    mu, nu = rel.degree("x", "y")
    assert round_half_up(mu) == 0.992
    assert nu == 0.25
    violations = validate_proximity(rel)
    assert len(violations) == 1 and violations[0].kind == "sum"


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
        for (x, y), (mu_ref, nu_ref) in cells.items():
            mu, nu = rel.degree(x, y)
            assert abs(mu - mu_ref) <= golden.PROXIMITY_TOL, (attr, x, y)
            assert abs(nu - nu_ref) <= golden.PROXIMITY_TOL, (attr, x, y)
            total += 1
    assert total >= 240


# --- the vectorised kernels against their former loops in tests/oracles.py ---

def _outcome(render, rel):
    """The rendered text, or the type of the exception rendering raised."""
    try:
        return render(rel)
    except InvalidOperation as exc:  # Decimal cannot quantize an infinity
        return type(exc)


@DIFFERENTIAL
@given(rel=table_relations())
def test_csv_and_validation_match_oracles_on_tables(rel):
    assert proximity_to_csv(rel) == oracles.proximity_to_csv_reference(rel)
    assert validate_proximity(rel) == oracles.validate_proximity_reference(rel)


@DIFFERENTIAL
@given(rel=hand_built_relations())
def test_csv_matches_oracle_on_hand_built_cells(rel):
    assert _outcome(proximity_to_csv, rel) == _outcome(oracles.proximity_to_csv_reference, rel)


@DIFFERENTIAL
@given(rel=st.one_of(hand_built_relations(), perturbed_relations()))
def test_validation_matches_oracle_on_broken_axioms(rel):
    with np.errstate(invalid="ignore"):  # mu + nu of inf and -inf
        assert validate_proximity(rel) == oracles.validate_proximity_reference(rel)


def _one_cell(value):
    return IFProximityRelation("a", ("x",), np.array([[value]]), np.array([[0.5]]))


@pytest.mark.parametrize("value, text", [
    (0.0015, "0.002"), (0.0025, "0.003"), (0.0125, "0.013"), (0.0005, "0.001"),
    (0.0045, "0.005"),  # its double lies below the tie: round(0.0045, 3) == 0.004
    (math.nextafter(0.0015, 0.0), "0.001"), (math.nextafter(0.0015, 1.0), "0.002"),
    (near_tie(999, 0), "1.000"), (near_tie(999, -1), "0.999"),
    (1.0, "1.000"), (0.0, "0.000"), (-0.0, "-0.000"), (-0.0015, "-0.002"),
    (1.0005, "1.001"), (12.0, "12.000"), (math.nan, "nan"),
])
def test_csv_cell_text_at_ties_and_outside_unit_interval(value, text):
    rel = _one_cell(value)
    assert proximity_to_csv(rel) == f'a,x\nx,"{text},0.500"\n'
    assert proximity_to_csv(rel) == oracles.proximity_to_csv_reference(rel)


def test_csv_infinite_cell_raises_as_decimal_does():
    with pytest.raises(InvalidOperation):
        proximity_to_csv(_one_cell(math.inf))


def test_render_and_validate_1000_objects_in_time():
    # 10^6 cells: rounding each through Decimal takes about 7 s
    rel = spread_relation(1000)
    start = time.perf_counter()
    text = proximity_to_csv(rel)
    violations = validate_proximity(rel)
    assert time.perf_counter() - start < 3.0
    assert text.count("\n") == 1001
    assert {v.kind for v in violations} == {"sum"}


def test_validate_1000_objects_in_one_masked_pass():
    # the values are a permutation of 1-1000: every pair x != y with
    # x + y < 500 fails mu + nu <= 1.  The masks take about 0.02 s; building
    # and formatting the 62,001 records takes the rest (0.15-0.25 s in all on
    # a 2-vCPU host), and the pair-by-pair scan of tests/oracles.py about 1 s.
    rel = spread_relation(1000)
    start = time.perf_counter()
    violations = validate_proximity(rel)
    assert time.perf_counter() - start < 0.75
    assert len(violations) == 62_001
    assert {v.kind for v in violations} == {"sum"}


# --- block rendering: rows are rendered _BLOCK_CELLS cells per numpy pass ---


@pytest.mark.parametrize("block_cells", [1, 5, 7])
@DIFFERENTIAL
@given(rel=st.one_of(table_relations(), hand_built_relations()))
def test_csv_matches_oracle_across_block_boundaries(block_cells, rel):
    # one-row blocks, several-row blocks and a partial last block
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(proximity, "_BLOCK_CELLS", block_cells)
        assert _outcome(proximity_to_csv, rel) == _outcome(oracles.proximity_to_csv_reference, rel)


def test_csv_matches_oracle_with_odd_cells_in_first_and_last_block():
    rel = spread_relation(97)
    assert proximity._BLOCK_CELLS // 97 == 10  # nine full blocks, then 7 rows
    mu, nu = np.array(rel.mu), np.array(rel.nu)
    for row in (0, 9, 90, 96):
        mu[row, 3], nu[row, 5], mu[row, 40], nu[row, 96] = 0.0015, -0.0, math.nan, 1.5
    odd = IFProximityRelation(rel.attribute, rel.objects, mu, nu)
    text = proximity_to_csv(odd)
    assert text == oracles.proximity_to_csv_reference(odd)
    assert text.count('"0.002,') == 4 and text.count(',-0.000"') == 4


def test_csv_peak_memory_stays_near_its_text():
    # whole-matrix passes hold about 6x the text at the peak, one-row or
    # _BLOCK_CELLS passes about 2x: the rendered rows and their join
    rel = spread_relation(200)
    proximity_to_csv(rel)
    tracemalloc.start()
    try:
        text = proximity_to_csv(rel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(text)
