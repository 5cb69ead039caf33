"""Input row order as a contract: permuting the rows of the bundled data
changes no partition and no violation count, whatever the block order, and
under ``block_order: "mean"`` no rank, cluster, concept, rule or chief
group either.  ``appearance`` labels blocks by their first row, so its
ranks may follow the row order, and some orders leave a rank range empty;
its labels change only as the new first-appearance order of the blocks
implies.
A table from the benchmark's generator, whose clusters repeat label rows,
pins that the FCA results do not follow the first-appearance order of the
context's classes either.  Object names are a contract too: giving every
object a fresh name, rows in place, changes each result only by that
renaming, whatever the block order.  So is column order: permuting the
columns and the config's attribute list together moves each context code
``A<position><level>`` to its attribute's new position and changes nothing
else."""

import dataclasses
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, REPO_ROOT
from roughfca.approx import cut_graph, partition_from_cut
from roughfca.ordering import BLOCK_ORDERS
from roughfca.pipeline import PipelineConfig, load_config_table, run_pipeline
from roughfca.proximity import build_proximity, validate_proximity

from oracles import concept_names

sys.path.insert(0, str(REPO_ROOT / "perfbench"))  # the benchmark's table generator
import gen  # noqa: E402

CONFIG = PipelineConfig.from_file(DATA_DIR / "institutions_config.json")
HEADER, *ROWS = (DATA_DIR / "institutions.csv").read_text(encoding="utf-8").splitlines()
OBJECTS = [row.split(",", 1)[0] for row in ROWS]


def _blocks(partition, name=lambda label: label):
    return frozenset(frozenset(map(name, block)) for block in partition.blocks)


def preprocess(config):
    """Each numeric attribute's cut partition, as a set of sets, and its
    violation count, computed by the library calls that precede the block
    order."""
    table = load_config_table(config)
    relations = {a.name: build_proximity(table, a.name) for a in table.attributes if a.numeric}
    return ({name: _blocks(partition_from_cut(cut_graph(rel, config.cut)))
             for name, rel in relations.items()},
            {name: len(validate_proximity(rel)) for name, rel in relations.items()})


def outcome(report, name=lambda label: label, code=lambda attribute: attribute):
    """What a run must keep when only the row order changes, under
    ``mean``, or only the object names or the column order: partitions,
    violation counts, ranks per object and, per cluster, its members,
    concepts, basis rules and chief groups.  ``name`` maps each object label
    first, and ``code`` each context attribute."""
    def codes(names):
        return frozenset(map(code, names))

    return {
        "partitions": {attr: _blocks(part, name) for attr, part in report.partitions.items()},
        "violations": {attr: len(v) for attr, v in report.violations.items()},
        "ranks": {name(row.object): row.rank for row in report.ranks.rows},
        "clusters": [frozenset(map(name, cluster.members)) for cluster in report.clusters],
        "concepts": [frozenset((frozenset(map(name, extent)), codes(intent))
                               for extent, intent in (concept_names(a.context, c)
                                                      for c in a.concepts))
                     for a in report.analyses],
        "rules": [frozenset((codes(r.premise), codes(r.conclusion), r.support)
                            for r in a.basis) for a in report.analyses],
        "chief": [[(frequency, codes(names)) for frequency, names in a.chief]
                  for a in report.analyses],
    }


@pytest.fixture(scope="module")
def shuffled_config(tmp_path_factory):
    """Write the rows in the given order and return the bundled config
    reading them."""
    path = tmp_path_factory.mktemp("rows") / "institutions.csv"

    def config_for(rows, block_order):
        path.write_text("".join(line + "\n" for line in (HEADER, *rows)), encoding="utf-8")
        return dataclasses.replace(CONFIG, data_path=path, block_order=block_order)

    return config_for


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rows=st.permutations(ROWS))
def test_row_order_changes_no_partition_or_violation_count(shuffled_config, rows):
    assert preprocess(shuffled_config(rows, "appearance")) == preprocess(CONFIG)


@pytest.fixture(scope="module")
def mean_outcome():
    return outcome(run_pipeline(dataclasses.replace(CONFIG, block_order="mean")))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rows=st.permutations(ROWS))
def test_row_order_changes_nothing_under_mean_block_order(shuffled_config, mean_outcome, rows):
    assert outcome(run_pipeline(shuffled_config(rows, "mean"))) == mean_outcome


# the shape of the benchmark's search workload: 30 objects x 6 tiered attributes
GENERATED = gen.Profile(30, 6, True, ((1, 2), (3, 5), (6, 1000)))


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """The seed-1 rows, a config (block order ``mean``) that reads them in
    the order given, and the outcome of the rows as generated."""
    directory = tmp_path_factory.mktemp("generated")
    (directory / "config.json").write_text(
        json.dumps(gen.config_doc(GENERATED, "table.csv")), encoding="utf-8")
    rows = gen.generate_rows(GENERATED, 1)

    def config_for(order):
        (directory / "table.csv").write_text(gen.table_csv(GENERATED, order), encoding="utf-8")
        return PipelineConfig.from_file(directory / "config.json")

    return rows, config_for, outcome(run_pipeline(config_for(rows)))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_row_order_changes_nothing_on_a_generated_table_with_repeated_rows(generated, data):
    rows, config_for, expected = generated
    report = run_pipeline(config_for(data.draw(st.permutations(rows))))
    assert any(len(set(a.context.rows)) < len(a.context.rows) for a in report.analyses)
    assert outcome(report) == expected


@pytest.fixture(scope="module")
def bundled_outcomes():
    return {order: outcome(run_pipeline(dataclasses.replace(CONFIG, block_order=order)))
            for order in BLOCK_ORDERS}


@pytest.fixture(scope="module")
def renamed_config(tmp_path_factory):
    """Write the bundled rows, each object under the given new name, and the
    partition override with the same names, and return a config reading
    them."""
    directory = tmp_path_factory.mktemp("renamed")
    data, override = directory / "institutions.csv", directory / "override.json"
    override_doc = json.loads(CONFIG.partitions_override.read_text(encoding="utf-8"))

    def config_for(names, block_order):
        new = dict(zip(OBJECTS, names))
        rows = [new[label] + "," + rest for label, rest in (row.split(",", 1) for row in ROWS)]
        data.write_text("".join(line + "\n" for line in (HEADER, *rows)), encoding="utf-8")
        override.write_text(json.dumps([{**doc, "blocks": [[new[o] for o in block]
                                                           for block in doc["blocks"]]}
                                        for doc in override_doc]), encoding="utf-8")
        return dataclasses.replace(CONFIG, data_path=data, partitions_override=override,
                                   block_order=block_order)

    return config_for


# fresh names: no bundled label ("i_1" to "i_10") can be drawn, and drawn
# names sort in any order against each other
_fresh_names = st.lists(st.text("abyz019-.", min_size=1, max_size=3),
                        min_size=len(ROWS), max_size=len(ROWS), unique=True)


@pytest.mark.parametrize("block_order", BLOCK_ORDERS)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(names=_fresh_names)
def test_renamed_objects_change_nothing_but_the_names(renamed_config, bundled_outcomes,
                                                      block_order, names):
    report = run_pipeline(renamed_config(names, block_order))
    assert outcome(report, dict(zip(names, OBJECTS)).__getitem__) == bundled_outcomes[block_order]


ATTRIBUTES = HEADER.split(",")[1:]


@pytest.fixture(scope="module")
def permuted_config(tmp_path_factory):
    """Write the bundled table with its attribute columns in the given order
    and return the bundled config with its attribute list in that order."""
    path = tmp_path_factory.mktemp("columns") / "institutions.csv"
    specs = {spec.name: spec for spec in CONFIG.attributes}

    def config_for(order):
        columns = [0, *(ATTRIBUTES.index(attribute) + 1 for attribute in order)]
        lines = [line.split(",") for line in (HEADER, *ROWS)]
        path.write_text("".join(",".join(cells[i] for i in columns) + "\n" for cells in lines),
                        encoding="utf-8")
        return dataclasses.replace(CONFIG, data_path=path,
                                   attributes=tuple(specs[attribute] for attribute in order))

    return config_for


def column_outcome(report, code=lambda attribute: attribute):
    """What a run must keep when only the column order changes, beyond
    :func:`outcome`: each object's label and weight per attribute and its
    total, and per cluster its context's incidences and its frequency rows,
    contributors as a multiset."""
    return {
        **outcome(report, code=code),
        "contexts": [{(g, code(m)) for g, row in zip(a.context.objects, a.context.rows)
                      for m in a.context.attr_names(row)} for a in report.analyses],
        "rank_table": {row.object: (dict(zip(report.ranks.attributes,
                                             zip(row.labels, row.weights))), row.total)
                       for row in report.ranks.rows},
        "frequencies": [{code(row.attribute): (row.frequency, sorted(
                            (sorted(map(code, premise)), support)
                            for premise, support in row.contributors))
                         for row in a.frequencies.rows} for a in report.analyses],
    }


@pytest.fixture(scope="module")
def bundled_report():
    return run_pipeline(CONFIG)


@pytest.mark.parametrize("seed", range(20))
def test_row_order_relabels_blocks_by_first_appearance(shuffled_config, bundled_report, seed):
    # under appearance, shuffled rows keep every partition and give each
    # block the ladder label of its place in the new first-appearance order;
    # one rank range, since some orders leave a bundled range empty
    rows = random.Random(seed).sample(ROWS, len(ROWS))
    config = dataclasses.replace(shuffled_config(rows, "appearance"),
                                 rank_ranges=((1, len(ROWS)),))
    report = run_pipeline(config)
    position = {row.split(",", 1)[0]: k for k, row in enumerate(rows)}
    assert {attr: _blocks(part) for attr, part in report.partitions.items()} == \
        {attr: _blocks(part) for attr, part in bundled_report.partitions.items()}
    assert report.ordered.attribute_names == bundled_report.ordered.attribute_names
    for column, bundled in zip(report.ordered.columns, bundled_report.ordered.columns):
        blocks = sorted(_blocks(report.partitions[column.attribute]),
                        key=lambda block: min(map(position.__getitem__, block)))
        assert dict(column.labels) == {obj: label for label, block in
                                       zip(bundled.ladder.labels, blocks) for obj in block}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(order=st.permutations(ATTRIBUTES))
def test_permuted_columns_move_the_codes_and_nothing_else(permuted_config, bundled_report, order):
    report = run_pipeline(permuted_config(order))
    position = {attribute: i + 1 for i, attribute in enumerate(order)}
    assert {col.attribute: col.source_index for col in report.ordered.columns} == {
        attribute: position[attribute] for attribute in report.ordered.attribute_names}
    # A<position><level> names the attribute at that position of the new order
    back = {f"A{position[attribute]}": f"A{ATTRIBUTES.index(attribute) + 1}"
            for attribute in ATTRIBUTES}

    def code(name):
        return back[name[:2]] + name[2:]

    assert column_outcome(report, code) == column_outcome(bundled_report)
