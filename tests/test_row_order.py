"""Input row order as a contract: permuting the rows of the bundled data
changes no partition and no violation count, whatever the block order, and
under ``block_order: "mean"`` no rank, cluster, concept, rule or chief
group either.  ``appearance`` labels blocks by their first row, so its
ranks may follow the row order, and some orders leave a rank range empty.
A table from the benchmark's generator, whose clusters repeat label rows,
pins that the FCA results do not follow the first-appearance order of the
context's classes either."""

import dataclasses
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, REPO_ROOT
from roughfca.approx import cut_graph, partition_from_cut
from roughfca.pipeline import PipelineConfig, load_config_table, run_pipeline
from roughfca.proximity import build_proximity, validate_proximity

sys.path.insert(0, str(REPO_ROOT / "perfbench"))  # the benchmark's table generator
import gen  # noqa: E402

CONFIG = PipelineConfig.from_file(DATA_DIR / "institutions_config.json")
HEADER, *ROWS = (DATA_DIR / "institutions.csv").read_text(encoding="utf-8").splitlines()


def _blocks(partition):
    return frozenset(map(frozenset, partition.blocks))


def preprocess(config):
    """Each numeric attribute's cut partition, as a set of sets, and its
    violation count, computed by the library calls that precede the block
    order."""
    table = load_config_table(config)
    relations = {a.name: build_proximity(table, a.name) for a in table.attributes if a.numeric}
    return ({name: _blocks(partition_from_cut(cut_graph(rel, config.cut)))
             for name, rel in relations.items()},
            {name: len(validate_proximity(rel)) for name, rel in relations.items()})


def outcome(report):
    """What a run under ``mean`` must keep: partitions, violation counts,
    ranks per object and, per cluster, its members, concepts, basis rules
    and chief groups, each free of the row order."""
    return {
        "partitions": {name: _blocks(part) for name, part in report.partitions.items()},
        "violations": {name: len(v) for name, v in report.violations.items()},
        "ranks": {row.object: row.rank for row in report.ranks.rows},
        "clusters": [frozenset(cluster.members) for cluster in report.clusters],
        "concepts": [frozenset((frozenset(c.extent), frozenset(c.intent)) for c in a.concepts)
                     for a in report.analyses],
        "rules": [frozenset((frozenset(r.premise), frozenset(r.conclusion), r.support)
                            for r in a.basis) for a in report.analyses],
        "chief": [[(frequency, frozenset(names)) for frequency, names in a.chief]
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
