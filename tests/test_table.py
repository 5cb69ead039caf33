import time

import pytest

from roughfca.table import (
    AttributeSpec,
    Partition,
    TableError,
    csv_field,
    indiscernibility,
    load_table,
)


def test_load_institutions(institutions):
    assert len(institutions.objects) == 10
    assert len(institutions.attributes) == 6
    assert institutions.value("i_1", "IC") == 229
    assert institutions.value("i_10", "ECA") == 2


def test_load_single_cell_at_range_max():
    table = load_table("object,a\nx,250\n", [AttributeSpec("a", range_max=250)])
    assert table.objects == ("x",)
    assert table.value("x", "a") == 250


def test_load_accepts_file_objects():
    import io

    table = load_table(io.StringIO("object,a\nx,3\n"), [AttributeSpec("a", range_max=9)])
    assert table.value("x", "a") == 3


def test_load_rejects_out_of_range_naming_row_and_column():
    with pytest.raises(TableError, match=r"i_3.*IC|IC.*i_3"):
        load_table("object,IC\ni_1,200\ni_3,251\n", [AttributeSpec("IC", range_max=250)])


def test_load_rejects_below_one():
    with pytest.raises(TableError, match="outside"):
        load_table("object,a\nx,0.5\n", [AttributeSpec("a", range_max=10)])


def test_load_rejects_non_numeric_token():
    with pytest.raises(TableError, match="non-numeric"):
        load_table("object,a\nx,high\n", [AttributeSpec("a", range_max=10)])


def test_load_rejects_duplicate_labels():
    with pytest.raises(TableError, match="duplicate object label"):
        load_table("object,a\nx,1\nx,2\n", [AttributeSpec("a", range_max=10)])


def test_load_duplicate_label_names_its_line():
    with pytest.raises(TableError, match=r"^line 4: duplicate object label 'x'$"):
        load_table("object,a\nx,1\ny,2\nx,3\n", [AttributeSpec("a", range_max=10)])


def test_load_names_a_record_by_the_line_it_starts_on():
    # a quoted cell spans lines 2 and 3, so the unlabelled record is on line 4
    specs = [AttributeSpec("a", range_max=10), AttributeSpec("c", kind="nominal")]
    with pytest.raises(TableError, match=r"^line 4: missing object label$"):
        load_table('object,a,c\no1,3,"x\ny"\n,4,z\n', specs)
    with pytest.raises(TableError, match=r"^line 5: duplicate object label 'o1'$"):
        load_table('object,a,c\n\no1,3,"x\ny"\no1,4,z\n', specs)


def test_load_40k_rows_in_linear_time():
    # a duplicate-label scan over a list made this take about 15 s
    rows = "".join(f"o{i},{i % 9 + 1}\n" for i in range(40_000))
    start = time.perf_counter()
    table = load_table("object,a\n" + rows, [AttributeSpec("a", range_max=10)])
    assert time.perf_counter() - start < 5.0
    assert len(table.objects) == 40_000
    assert table.value("o39999", "a") == 39_999 % 9 + 1


def test_load_rejects_missing_cell():
    with pytest.raises(TableError, match="missing cell|expected"):
        load_table("object,a,b\nx,1,\n",
                   [AttributeSpec("a", range_max=10), AttributeSpec("b", range_max=10)])


def test_load_rejects_header_mismatch():
    with pytest.raises(TableError, match="header"):
        load_table("object,b\nx,1\n", [AttributeSpec("a", range_max=10)])


def test_nominal_columns_skip_range_validation(rnd_table):
    assert rnd_table.value("o_1", "rd") == "No"
    assert rnd_table.value("o_2", "profit") == 300


@pytest.mark.parametrize("range_max", [0, 0.5, -3, float("nan")])
def test_spec_rejects_range_max_below_one_or_nan(range_max):
    # NaN fails every comparison, so a NaN bound would reject every cell
    with pytest.raises(TableError, match="range_max must be >= 1"):
        AttributeSpec("a", range_max=range_max)


@pytest.mark.parametrize("range_max", [float("inf"), 10**400],
                         ids=["inf", "int-past-every-float"])
def test_spec_rejects_range_max_with_no_finite_float(range_max):
    with pytest.raises(TableError, match="range_max must be finite"):
        AttributeSpec("a", range_max=range_max)


def test_indiscernibility_three_attributes(rnd_table):
    part = indiscernibility(rnd_table, ["rd", "art", "marketing"])
    assert part.as_sets() == frozenset({
        frozenset({"o_1"}), frozenset({"o_2", "o_5"}),
        frozenset({"o_3"}), frozenset({"o_4", "o_6"}),
    })


def test_indiscernibility_all_attributes_distinct_rows(institutions):
    part = indiscernibility(institutions, institutions.attribute_names)
    assert all(len(b) == 1 for b in part.blocks)
    assert len(part.blocks) == 10


def test_indiscernibility_single_object():
    table = load_table("object,a\nx,1\n", [AttributeSpec("a", range_max=10)])
    part = indiscernibility(table, ["a"])
    assert part.blocks == (("x",),)


def test_indiscernibility_rejects_unknown_attribute(rnd_table):
    with pytest.raises(TableError, match="unknown attribute"):
        indiscernibility(rnd_table, ["nope"])


def test_indiscernibility_rejects_empty_subset(rnd_table):
    with pytest.raises(TableError, match="nonempty"):
        indiscernibility(rnd_table, [])


def test_union_refines_factors(rnd_table):
    both = indiscernibility(rnd_table, ["rd", "marketing"])
    for factor in (indiscernibility(rnd_table, ["rd"]),
                   indiscernibility(rnd_table, ["marketing"])):
        for block in both.blocks:
            assert any(set(block) <= set(fb) for fb in factor.blocks)


def test_indiscernibility_order_insensitive(rnd_table):
    a = indiscernibility(rnd_table, ["rd", "art", "marketing"])
    b = indiscernibility(rnd_table, ["marketing", "rd", "art"])
    assert a == b


def test_partition_canonical_order(institutions):
    part = Partition.from_blocks([["i_5", "i_4"], ["i_2", "i_1", "i_3"],
                                  [f"i_{k}" for k in range(6, 11)]], institutions.objects)
    assert part.blocks[0] == ("i_1", "i_2", "i_3")
    assert part.blocks[1] == ("i_4", "i_5")
    assert part.block_of["i_7"] == 2


def test_partition_rejects_overlap(institutions):
    blocks = [["i_1", "i_2"], ["i_2", "i_3"]] + [[f"i_{k}"] for k in range(4, 11)]
    with pytest.raises(TableError, match="two blocks"):
        Partition.from_blocks(blocks, institutions.objects)


def test_partition_rejects_partial_cover(institutions):
    with pytest.raises(TableError, match="missing"):
        Partition.from_blocks([["i_1"]], institutions.objects)


def test_attribute_spec_validation():
    with pytest.raises(TableError):
        AttributeSpec("a", range_max=0.5)
    with pytest.raises(TableError):
        AttributeSpec("a", kind="numeric")
    with pytest.raises(TableError):
        AttributeSpec("a", kind="nominal", ladder=("x", "x"))


@pytest.mark.parametrize("text, alone, field", [
    ("a", False, "a"), (" a ", False, " a "), ("", False, ""), ("", True, '""'),
    ("a,b", False, '"a,b"'), ('a"b', False, '"a""b"'), ("a\nb", False, '"a\nb"'),
    ("\r\n", False, '"\r\n"'),
    ("a\rb", False, "a\rb"), ("\r", True, "\r"),  # the 3.11 writer leaves a lone \r bare
])
def test_csv_field_quotes_where_the_csv_writer_does(text, alone, field):
    assert csv_field(text, alone) == field
