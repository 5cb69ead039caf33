import copy
import copyreg
import dataclasses
import hashlib
import json
import math
import re
import sys
import time
import tracemalloc
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roughfca.approx import CutParams, cut_graph, partition_from_cut, partition_from_json
from roughfca.cli import main
from roughfca.pipeline import (
    CutSearchResult,
    PipelineConfig,
    StageError,
    _admissible_prefix,
    _check_order,
    emit_reports,
    fca_stage,
    load_config_table,
    partition_stage,
    proximity_stage,
    rank_stage,
    run_pipeline,
    search_alpha_beta,
    write_files,
)
from roughfca.proximity import build_proximity
from roughfca.table import AttributeSpec, InformationTable, Partition, load_table

import golden
import oracles
from conftest import DATA_DIR, RISE_THEN_BREAK
from relation_strategies import json_names, numeric_tables

CONFIG_PATH = DATA_DIR / "institutions_config.json"


@pytest.fixture(scope="module")
def config() -> PipelineConfig:
    return PipelineConfig.from_file(CONFIG_PATH)


@pytest.fixture(scope="module")
def report(config):
    return run_pipeline(config)


def test_config_resolves_paths_against_config_dir(config):
    assert config.data_path == DATA_DIR / "institutions.csv"
    assert config.partitions_override == DATA_DIR / "eca_partition_override.json"
    assert config.cut == CutParams(0.92, 0.05)
    assert config.force


def test_run_reproduces_case_study(report):
    assert report.ordered.dropped == ("RS",)
    for obj, labels in golden.REFERENCE_ORDERED.items():
        assert tuple(col.label(obj) for col in report.ordered.columns) == labels
    assert {r.object: r.total for r in report.ranks.rows} == golden.REFERENCE_TOTALS
    assert {c.cluster_id: c.members for c in report.clusters} == golden.REFERENCE_CLUSTERS
    for analysis in report.analyses:
        chief = analysis.chief[0][1]
        assert chief == golden.REFERENCE_CHIEF[analysis.cluster.cluster_id]


def test_provenance_records_override_and_force(report):
    stages = report.provenance["stages"]
    assert stages["partition"]["ECA"] == "override"
    assert stages["partition"]["IC"] == "computed"
    assert stages["validate"]["forced"] is True
    assert stages["validate"]["violations"] == {"ECA": 6}
    assert stages["order"]["dropped"] == ["RS"]


def _same(a, b) -> bool:
    """Whether ``a`` and ``b`` hold the same values all the way down:
    arrays element by element, and records and containers entry by entry,
    a relation or a context too, which compare by identity."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return _same(vars(a), vars(b))
    if isinstance(a, Mapping):
        return a.keys() == b.keys() and all(_same(a[key], b[key]) for key in a)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def test_a_stage_leaves_the_report_it_was_given_unchanged(config, monkeypatch):
    # one proximity result partitioned with the ECA override, then without:
    # the first result still says that it used the override
    shared = proximity_stage(config)
    with_override = partition_stage(shared)
    without = partition_stage(shared._replace(config=config._replace(partitions_override=None)))
    assert with_override.provenance["stages"]["partition"]["ECA"] == "override"
    assert without.provenance["stages"]["partition"]["ECA"] == "computed"
    assert "partition" not in shared.provenance["stages"]

    # a read-only mapping cannot be pickled, so a deep copy copies its items
    monkeypatch.setitem(copyreg.dispatch_table, MappingProxyType,
                        lambda proxy: (MappingProxyType, (dict(proxy),)))
    report = proximity_stage(config)
    for stage in (partition_stage, rank_stage, fca_stage):
        given = copy.deepcopy(report)
        result = stage(report)
        assert _same(report, given), stage.__name__
        report = result
    assert _same(report, run_pipeline(config))


def test_run_without_force_refuses(config):
    bare = config._replace(force=False)
    with pytest.raises(StageError, match=r"\[stage:validate\].*force") as refusal:
        run_pipeline(bare)
    assert str(refusal.value) == (
        "[stage:validate] 6 proximity axiom violation(s), e.g. sum at ('i_6', 'i_8'): "
        "mu + nu = 1.025 > 1; pass force to proceed")


def test_run_without_override_splits_eca(config):
    no_override = config._replace(partitions_override=None)
    report = run_pipeline(no_override)
    expected = frozenset(frozenset(b) for b in golden.ECA_RECOMPUTED_BLOCKS)
    assert report.partitions["ECA"].as_sets() == expected
    assert len(oracles.ordered_column(report.ordered, "ECA").ladder.labels) == 7


def test_override_transparency(config, report):
    """Feeding a stage its own computed output changes nothing downstream."""
    parts_doc = [
        {"attribute": name, "blocks": [list(b) for b in part.blocks]}
        for name, part in report.partitions.items()
    ]
    with_parts = config._replace(partitions_override=None)
    direct = run_pipeline(with_parts)

    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        override_file = Path(tmp) / "parts.json"
        computed_doc = [
            {"attribute": name, "blocks": [list(b) for b in part.blocks]}
            for name, part in direct.partitions.items()
        ]
        override_file.write_text(json.dumps(computed_doc), encoding="utf-8")
        echoed = run_pipeline(config._replace(partitions_override=override_file))
    assert {r.object: r.total for r in echoed.ranks.rows} == \
        {r.object: r.total for r in direct.ranks.rows}
    assert [a.basis for a in echoed.analyses] == [a.basis for a in direct.analyses]
    del parts_doc


def test_ordered_table_override_path(config, tmp_path):
    doc = {"ECA": {obj: "Poor" for obj in golden.REFERENCE_ORDERED}}
    doc["ECA"]["i_1"] = "Outstanding"
    path = tmp_path / "ordered.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    report = run_pipeline(config._replace(ordered_override=path))
    assert oracles.ordered_column(report.ordered, "ECA").label("i_2") == "Poor"
    assert report.provenance["stages"]["order"]["override"] == ["ECA"]


def test_stage_errors_are_tagged(config, tmp_path):
    bad_data = tmp_path / "bad.csv"
    bad_data.write_text("object,IC\nx,999\n", encoding="utf-8")
    broken = config._replace(data_path=bad_data)
    with pytest.raises(StageError, match=r"\[stage:load\]"):
        run_pipeline(broken)

    missing = config._replace(data_path=tmp_path / "nope.csv")
    with pytest.raises(StageError, match=r"\[stage:load\]"):
        run_pipeline(missing)

    bad_override = tmp_path / "parts.json"
    bad_override.write_text(json.dumps([{"attribute": "XX", "blocks": []}]), encoding="utf-8")
    with pytest.raises(StageError, match=r"\[stage:partition\]"):
        run_pipeline(config._replace(partitions_override=bad_override))

    unreached = config._replace(rank_ranges=(*config.rank_ranges, (10, 12)))
    with pytest.raises(StageError,
                       match=r"^\[stage:cluster\] rank range \[10, 12\] holds no object$"):
        run_pipeline(unreached)


def test_single_object_universe(tmp_path):
    data = tmp_path / "one.csv"
    data.write_text("object,a\nonly,5\n", encoding="utf-8")
    config = PipelineConfig.from_dict({
        "data": str(data),
        "alpha": 0.9, "beta": 0.1,
        "attributes": [{"name": "a", "range_max": 10, "drop_if_indiscernible": False}],
        "rank_ranges": [[1, 1]],
    }, base_dir=tmp_path)
    report = run_pipeline(config)
    assert report.ranks.rows[0].rank == 1
    assert len(report.clusters) == 1
    assert len(report.analyses) == 1
    assert len(report.analyses[0].concepts) == 1
    manifest = emit_reports(report, tmp_path / "out")
    names = [entry["path"] for entry in manifest]
    assert sum(n.startswith("cluster_") and n.endswith("_basis.txt") for n in names) == 1


def test_pipeline_fuzz_random_tables(tmp_path):
    """Random small tables and cuts: the pipeline either completes with a
    coherent report or refuses with a tagged validation error."""
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    @settings(max_examples=50, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def run_one(data):
        n_obj = data.draw(st.integers(1, 6))
        n_attr = data.draw(st.integers(1, 3))
        rng_max = data.draw(st.integers(4, 30))
        header = "object," + ",".join(f"a{j}" for j in range(n_attr))
        rows = [
            f"x{i}," + ",".join(str(data.draw(st.integers(1, rng_max)))
                                for _ in range(n_attr))
            for i in range(n_obj)
        ]
        path = tmp_path / "fuzz.csv"
        path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        ai = data.draw(st.integers(0, 10))
        bi = data.draw(st.integers(0, 10 - ai))
        config = PipelineConfig.from_dict({
            "data": str(path),
            "alpha": ai / 10, "beta": bi / 10,
            "attributes": [{"name": f"a{j}", "range_max": rng_max} for j in range(n_attr)],
            "rank_ranges": [[1, n_obj]],
            "force": True,
        }, base_dir=tmp_path)
        report = run_pipeline(config)
        assert set(r.object for r in report.ranks.rows) == {f"x{i}" for i in range(n_obj)}
        assert report.clusters[0].members == tuple(f"x{i}" for i in range(n_obj))
        for analysis in report.analyses:
            for imp in analysis.basis:
                assert imp.support >= 1
        emit_reports(report, tmp_path / "fuzz_out")

    run_one()


def test_all_attributes_indiscernible(tmp_path):
    data = tmp_path / "flat.csv"
    data.write_text("object,a\nx,5\ny,5\nz,5\n", encoding="utf-8")
    config = PipelineConfig.from_dict({
        "data": str(data),
        "alpha": 0.5, "beta": 0.5,
        "attributes": [{"name": "a", "range_max": 10}],
        "rank_ranges": [[1, 1]],
    }, base_dir=tmp_path)
    report = run_pipeline(config)
    assert report.ordered.dropped == ("a",)
    assert report.ordered.columns == ()
    assert all(r.rank == 1 for r in report.ranks.rows)
    (analysis,) = report.analyses
    assert analysis.basis == []
    assert analysis.chief == []
    emit_reports(report, tmp_path / "out")  # degenerate tree still writes


def test_emit_reports_manifest(report, tmp_path):
    manifest = emit_reports(report, tmp_path / "out")
    names = [entry["path"] for entry in manifest]
    assert sum(n.startswith("proximity_") for n in names) == 6
    for cid in (1, 2, 3):
        for suffix in ("context.csv", "lattice.dot", "basis.txt", "basis.json",
                       "frequencies.csv"):
            assert f"cluster_{cid}_{suffix}" in names
    assert "partitions.json" in names and "rank_table.csv" in names
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["files"] == manifest
    partitions = json.loads((tmp_path / "out" / "partitions.json").read_text())
    assert len(partitions) == 6


def test_manifest_digests_are_of_the_written_bytes(report, tmp_path):
    out = tmp_path / "out"
    emit_reports(report, out)
    manifest = json.loads((out / "manifest.json").read_bytes())["files"]
    assert {e["path"] for e in manifest} == {p.name for p in out.iterdir()} - {"manifest.json"}
    for entry in manifest:
        assert hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest() == entry["sha256"]
    # newlines reach the file untranslated, on every platform
    (entry,) = write_files(tmp_path / "raw", [("lines.txt", "a\nb\r\nc\u00e9\n")])
    data = (tmp_path / "raw" / "lines.txt").read_bytes()
    assert data == "a\nb\r\nc\u00e9\n".encode("utf-8")
    assert entry == {"path": "lines.txt", "sha256": hashlib.sha256(data).hexdigest()}


def test_emit_reports_deterministic(report, tmp_path):
    emit_reports(report, tmp_path / "a")
    emit_reports(report, tmp_path / "b")
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# --- cut parameter search ----------------------------------------------------

def test_search_finds_reference_cut(institutions, reference_partitions):
    targets = {name: reference_partitions[name] for name in golden.REPRODUCIBLE_ATTRIBUTES}
    result = search_alpha_beta(institutions, targets, step=0.005)
    assert result.points
    assert (0.92, 0.05) in {(round(a, 3), round(b, 3)) for a, b in result.points}
    assert result.hull is not None


def test_search_exact_equality_targets(institutions):
    from oracles import indiscernibility

    targets = {name: indiscernibility(institutions, [name])
               for name in institutions.attribute_names}
    result = search_alpha_beta(institutions, targets, step=0.25)
    assert (1.0, 0.0) in {(round(a, 3), round(b, 3)) for a, b in result.points}


def test_search_with_printed_eca_is_empty(institutions, reference_partitions):
    result = search_alpha_beta(institutions, reference_partitions, step=0.01)
    assert result.points == []
    assert result.hull is None


def test_search_rejects_bad_targets(institutions):
    with pytest.raises(ValueError, match="at least one"):
        search_alpha_beta(institutions, {})
    half = Partition.from_blocks([["i_1"]], ["i_1"])
    with pytest.raises(ValueError, match="does not cover"):
        search_alpha_beta(institutions, {"IC": half})


@st.composite
def search_cases(draw):
    """A table, targets for some of its columns and a grid step.  Each target
    is the partition at a random cut, at the cut on one cell's (mu, nu) or
    one ulp stricter, or an arbitrary partition; the step is 0.01, 0.005 or
    one cell's nu of at least 0.01, so that grid levels fall on a degree."""
    table = draw(numeric_tables())
    names = draw(st.lists(st.sampled_from(table.attribute_names), min_size=1, unique=True))
    targets, steps = {}, [0.01, 0.005]
    for name in names:
        rel = build_proximity(table, name)
        i, j = (draw(st.integers(0, rel.size - 1)) for _ in range(2))
        mu, nu = rel.mu[i, j].item(), rel.nu[i, j].item()
        if nu >= 0.01:
            steps.append(nu)
        kind = draw(st.sampled_from(["random cut", "cell cut", "cell cut one ulp off",
                                     "arbitrary"]))
        if kind == "arbitrary":
            labels = draw(st.lists(st.integers(0, rel.size - 1),
                                   min_size=rel.size, max_size=rel.size))
            blocks = {}
            for obj, label in zip(table.objects, labels):
                blocks.setdefault(label, []).append(obj)
            targets[name] = Partition.from_blocks(blocks.values(), table.objects)
            continue
        if kind == "random cut":
            alpha = draw(st.floats(0, 1))
            beta = draw(st.floats(0, 1 - alpha))
        else:
            alpha, beta = mu, min(nu, 1 - mu)
            if kind == "cell cut one ulp off":
                if draw(st.booleans()):
                    alpha = min(math.nextafter(alpha, 2), 1.0)
                else:
                    beta = max(math.nextafter(beta, -1), 0.0)
        targets[name] = partition_from_cut(cut_graph(rel, CutParams(alpha, beta)))
    return table, targets, draw(st.sampled_from(steps))


def _two_object_case():
    """Values 1 and 3 with R = 8 give the pair (mu, nu) = (0.75, 0.25), both
    on the grid of step 0.25: the split target is infeasible exactly where
    alpha <= 0.75 and beta >= 0.25."""
    table = load_table("object,a\no0,1\no1,3\n", [AttributeSpec("a", range_max=8)])
    return table, {"a": Partition.from_blocks([["o0"], ["o1"]], table.objects)}, 0.25


def _cell_cut_case(values, range_max, i, j):
    """The table of ``values`` under ``range_max`` and, as the target, the
    cut on cell (i, j)'s (mu, nu), searched at a step of that nu."""
    text = "object,a\n" + "".join(f"o{k},{v!r}\n" for k, v in enumerate(values))
    table = load_table(text, [AttributeSpec("a", range_max=range_max)])
    rel = build_proximity(table, "a")
    mu, nu = rel.mu.item(i, j), rel.nu.item(i, j)
    target = partition_from_cut(cut_graph(rel, CutParams(mu, min(nu, 1 - mu))))
    return table, {"a": target}, max(nu, 0.01)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(search_cases())
@example(_two_object_case())
# an integer range_max above 2**53, which the degrees divide by as a float
@example(_cell_cut_case([2**57, 2**58, 3 * 2**57, 2**59, 3 * 2**58 + 1, 2**60], 2**60 + 1, 3, 4))
# values in [2**500, the largest float], where the O(n) order test decides
@example(_cell_cut_case([1e300, 1.3e300, 1.7e300, 2.2e300, 1e307, sys.float_info.max],
                        sys.float_info.max, 4, 5))
def test_search_matches_grid_oracle(case):
    table, targets, step = case
    result = search_alpha_beta(table, targets, step=step)
    expected = oracles.search_alpha_beta_grid_reference(table, targets, step=step)
    assert result.points == expected.points
    assert result.hull == expected.hull
    assert result.per_attribute == expected.per_attribute


#: nu of the outer pair rounds one ulp below nu of the inner pair
#: (13.88..., 56.64...73), so the cut's blocks are not runs of sorted values
#: at every grid point: the grid oracle finds 6 points, a region derived
#: from runs without the monotonicity check finds 3.
NEAR_DUPLICATES = ("13.885933829828321", "56.64749629608073", "56.64749629608074")
NEAR_DUPLICATE_STEP = 0.3031297527280245


def test_search_refuses_near_duplicate_values():
    text = "object,a\n" + "".join(f"o{i},{v}\n" for i, v in enumerate(NEAR_DUPLICATES))
    table = load_table(text, [AttributeSpec("a", range_max=1000)])
    targets = {"a": Partition.from_blocks([table.objects], table.objects)}
    grid = oracles.search_alpha_beta_grid_reference(table, targets, step=NEAR_DUPLICATE_STEP)
    assert len(grid.points) == 6
    with pytest.raises(ValueError, match=r"'a'.*13\.885933829828321.*56\.6474962960807"):
        search_alpha_beta(table, targets, step=NEAR_DUPLICATE_STEP)


def test_cli_search_cut_refuses_near_duplicate_values(tmp_path, capsys):
    (tmp_path / "table.csv").write_text(
        "object,a\n" + "".join(f"o{i},{v}\n" for i, v in enumerate(NEAR_DUPLICATES)),
        encoding="utf-8")
    config = {"data": "table.csv", "alpha": 0.9, "beta": 0.05, "rank_ranges": [[1, 3]],
              "attributes": [{"name": "a", "range_max": 1000}]}
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    (tmp_path / "targets.json").write_text(
        json.dumps([{"attribute": "a", "blocks": [["o0", "o1", "o2"]]}]), encoding="utf-8")
    code = run_cli("search-cut", "--config", tmp_path / "config.json",
                   "--targets", tmp_path / "targets.json", "--step", NEAR_DUPLICATE_STEP)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error [stage:partition]") and "'a'" in captured.err
    assert "56.64749629608074" in captured.err
    assert captured.out == ""


def test_search_refuses_a_nominal_target(tmp_path, capsys):
    table = load_table("object,a,c\no0,1,x\no1,2,y\n",
                       [AttributeSpec("a", range_max=10), AttributeSpec("c", kind="nominal")])
    targets = {"c": Partition.from_blocks([table.objects], table.objects)}
    with pytest.raises(ValueError, match="^attribute 'c' is nominal, proximity needs numeric "
                                         "values$"):
        search_alpha_beta(table, targets)
    (tmp_path / "table.csv").write_text("object,a,c\no0,1,x\no1,2,y\n", encoding="utf-8")
    config = {"data": "table.csv", "alpha": 0.9, "beta": 0.05, "rank_ranges": [[1, 2]],
              "attributes": [{"name": "a", "range_max": 10}, {"name": "c", "kind": "nominal"}]}
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    (tmp_path / "targets.json").write_text(
        json.dumps([{"attribute": "c", "blocks": [["o0", "o1"]]}]), encoding="utf-8")
    code = run_cli("search-cut", "--config", tmp_path / "config.json",
                   "--targets", tmp_path / "targets.json")
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error [stage:partition] attribute 'c' is nominal")


#: 98 and the next double up: the two-step nu from 2 beats the adjacent one
#: by less than the order check's margin, so the check walks on from 2, and
#: finds no break.
FALLBACK_ACCEPTED = (2.0, 98.0, math.nextafter(98.0, math.inf))

#: Two breaks against the adjacent pair at 37.00000000000001: the pair to
#: the fourth value breaks first along that row, but the pair from 37.0 to
#: the last value breaks too, and comes first in row-major order.
WIDER_BREAK_FIRST = (37.0, 37.00000000000001, 506.0, 506.00000000000006, 506.0000000000001,
                     506.00000000000017)


@st.composite
def sorted_values(draw):
    """Sorted attribute values with repeats, neighbours a few doubles apart
    and the near-duplicate triple, at their size or scaled by a power of
    two up to 2**1000, as a list of floats or a numpy array: the degree
    functions round alike on both."""
    start = st.one_of(st.integers(1, 1000).map(float), st.floats(1, 1000),
                      st.sampled_from([float(v) for v in NEAR_DUPLICATES]))
    scale = draw(st.sampled_from((1.0, 2.0**500, 2.0**1000)))
    values = []
    for value in draw(st.lists(start, min_size=1, max_size=8)):
        value *= scale
        values += [value] * draw(st.integers(1, 3))
        for _ in range(draw(st.integers(0, 3))):
            value = math.nextafter(value, draw(st.sampled_from((0.0, math.inf))))
            values.append(value)
    return draw(st.sampled_from((list, np.array)))(sorted(values))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(values=sorted_values())
@example(values=np.array(FALLBACK_ACCEPTED))
@example(values=list(FALLBACK_ACCEPTED))
@example(values=np.array([float(v) for v in NEAR_DUPLICATES]))
@example(values=[float(v) for v in NEAR_DUPLICATES])
@example(values=np.array([1.0, 1.0, 2.0, 2.0, 2.0, 3.0]))
@example(values=list(RISE_THEN_BREAK))
@example(values=list(WIDER_BREAK_FIRST))
def test_order_check_refuses_exactly_the_values_that_break_the_order(values):
    distinct = np.unique(values)
    found = oracles.first_nu_break(distinct)
    if found is None:
        _check_order("a", values)
    else:
        i, j = found
        with pytest.raises(ValueError, match=re.escape(str(distinct[i:j + 1].tolist()))):
            _check_order("a", values)


def test_search_decides_by_the_pairwise_check_where_the_order_test_cannot():
    assert oracles.first_nu_break(FALLBACK_ACCEPTED) is None
    table = load_table("object,a\n" + "".join(f"o{i},{v!r}\n"
                                               for i, v in enumerate(FALLBACK_ACCEPTED)),
                       [AttributeSpec("a", range_max=1000)])
    targets = {"a": Partition.from_blocks([["o0"], ["o1", "o2"]], table.objects)}
    result = search_alpha_beta(table, targets, step=0.01)
    expected = oracles.search_alpha_beta_grid_reference(table, targets, step=0.01)
    assert result.points and result.points == expected.points
    assert (result.hull, result.per_attribute) == (expected.hull, expected.per_attribute)


def _one_attribute_table(values, range_max=1000):
    objects = tuple(f"o{i}" for i in range(len(values)))
    return InformationTable(objects, (AttributeSpec("a", range_max=range_max),),
                            {(o, "a"): v for o, v in zip(objects, values)})


def test_pairwise_check_is_sized_by_the_distinct_values():
    # the two-step pairs of FALLBACK_ACCEPTED do not clear the order
    # check's margin; on all 2003 values a pairwise check held three n x n
    # float arrays, about 96 MiB
    values = [*FALLBACK_ACCEPTED, *[100.0] * 2000]
    table = _one_attribute_table(values)
    objects = table.objects
    targets = {"a": Partition.from_blocks([objects[:1], objects[1:3], objects[3:]], objects)}
    tracemalloc.start()
    try:
        result = search_alpha_beta(table, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    # repeats of 100 inside one block move no bound of the region
    distinct = _one_attribute_table(values[:4])
    assert result == search_alpha_beta(distinct, {"a": Partition.from_blocks(
        [distinct.objects[:1], distinct.objects[1:3], distinct.objects[3:]], distinct.objects)})
    assert result.points
    # a break among repeated values is still found and named
    repeated = _one_attribute_table([float(v) for v in NEAR_DUPLICATES for _ in range(50)])
    with pytest.raises(ValueError, match=r"13\.885933829828321.*56\.64749629608074"):
        search_alpha_beta(repeated, {"a": Partition.from_blocks([repeated.objects],
                                                                 repeated.objects)})


def test_pairwise_check_stays_near_the_undecided_values():
    # 2, 98 and the next double up do not clear the order check's margin
    # among 2,000 distinct values; a pairwise check over all of them held
    # three n x n float arrays, about 95 MiB
    n = 2000
    values = [*FALLBACK_ACCEPTED, *map(float, range(100, n + 97))]
    table = _one_attribute_table(values, range_max=n + 96)
    targets = {"a": Partition.from_blocks([table.objects], table.objects)}
    tracemalloc.start()
    try:
        result = search_alpha_beta(table, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert result.points


@settings(max_examples=200, deadline=None, derandomize=True)
@given(step=st.floats(0.001, 1) | st.sampled_from((0.001, 0.005, 0.01, 0.3, 0.6,
                                                     NEAR_DUPLICATE_STEP)))
def test_admissible_prefix_is_the_triangle_mask(step):
    levels = [i * step for i in range(round(1.0 / step) + 1)]
    mask = np.add.outer(levels, levels) <= 1.0 + 1e-12
    assert _admissible_prefix(levels) == mask.sum(axis=1).tolist()


def test_search_100k_objects_in_linear_time_and_memory():
    # two tiers of repeated integers: the dense region needed two n x n
    # matrices (80 GB each), and an order test on raw sorted values, which
    # repeats defeat, would fall back to the pairwise check on them
    n = 100_000
    values = np.random.default_rng(0).integers((1, 900), (101, 1001), (n // 2, 2)).ravel()
    objects = tuple(f"o{i}" for i in range(n))
    table = InformationTable(objects, (AttributeSpec("a", range_max=1000),),
                             {(o, "a"): v for o, v in zip(objects, values.tolist())})
    targets = {"a": Partition.from_blocks([objects[0::2], objects[1::2]], objects)}
    start = time.perf_counter()
    search_alpha_beta(table, targets)
    assert time.perf_counter() - start < 2.0
    tracemalloc.start()
    try:
        result = search_alpha_beta(table, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    # beta >= nu(1, 2) = 1/6 inside the low tier; beta < nu(100, 900) = 0.4
    # wherever alpha <= mu(100, 900), which rounds just below 0.2
    levels = (np.arange(201) * 0.005).tolist()
    assert result.hull == (levels[0], levels[166], levels[34], levels[160])


# --- the search-cut document --------------------------------------------------

_levels = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    (5e-324, 1e16, 0.1 + 0.2, 0.0, -0.0, 0.005, 0.95))
_hulls = st.none() | st.tuples(_levels, _levels, _levels, _levels)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(result=st.builds(CutSearchResult, step=st.integers(1, 3) | _levels,
                        points=st.lists(st.tuples(_levels, _levels), max_size=8),
                        hull=_hulls, per_attribute=st.dictionaries(json_names, _hulls, max_size=3)))
@example(result=CutSearchResult(1, [], None, {}))
@example(result=CutSearchResult(0.005, [(0.0, -0.0), (0.5, 0.0), (-0.0, 0.5), (0.5, -0.0)],
                                (-0.0, 0.5, -0.0, 0.5), {"IC": ()}))
def test_search_document_matches_json_dumps(result):
    assert result.to_json() == oracles.search_document_reference(result)


def test_search_document_peak_memory_stays_near_its_text():
    # json.dumps(indent=2) held about 9x the text at its peak; the fixed
    # layout holds each distinct level's text once, about 2x
    levels = (np.arange(201) * 0.005).tolist()  # the default step's grid
    points = [(a, b) for a in levels[120:] for b in levels[:30] if a + b <= 1.0 + 1e-12]
    result = CutSearchResult(0.005, points, (0.6, 1.0, 0.0, 0.145),
                             {"IC": (0.6, 1.0, 0.0, 0.145), "SS": None})
    result.to_json()
    tracemalloc.start()
    try:
        text = result.to_json()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(points) == 1995
    assert text == oracles.search_document_reference(result)
    assert peak <= 3 * len(text)


# --- command line ------------------------------------------------------------

def run_cli(*argv):
    return main([str(a) for a in argv])


def test_cli_run(tmp_path, capsys):
    code = run_cli("run", "--config", CONFIG_PATH, "--out", tmp_path / "out")
    out = capsys.readouterr().out
    assert code == 0
    assert "cluster 1 (ranks 1-3): chief attributes A11, A21" in out
    assert (tmp_path / "out" / "manifest.json").exists()


def test_cli_run_is_deterministic(tmp_path):
    run_cli("run", "--config", CONFIG_PATH, "--out", tmp_path / "a")
    run_cli("run", "--config", CONFIG_PATH, "--out", tmp_path / "b")
    for path in sorted((tmp_path / "a").iterdir()):
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


def test_cli_flag_overrides_beat_config(tmp_path, capsys):
    code = run_cli("partition", "--config", CONFIG_PATH, "--alpha", "1.0", "--beta", "0.0",
                   "--out", tmp_path)
    assert code == 0
    docs = json.loads((tmp_path / "partitions.json").read_text())
    assert all(doc["alpha"] == 1.0 for doc in docs)
    ic = next(d for d in docs if d["attribute"] == "IC")
    assert len(ic["blocks"]) == 10  # exact equality: all values distinct
    eca = next(d for d in docs if d["attribute"] == "ECA")
    assert len(eca["blocks"]) == 6  # the config's override still wins
    capsys.readouterr()


def test_cli_validation_refusal_exit_code(tmp_path, capsys):
    config = json.loads(CONFIG_PATH.read_text())
    config["force"] = False
    config["data"] = str(DATA_DIR / "institutions.csv")
    config["overrides"]["partitions"] = str(DATA_DIR / "eca_partition_override.json")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = run_cli("run", "--config", path, "--out", tmp_path / "out")
    err = capsys.readouterr().err
    assert code == 2
    assert "[stage:validate]" in err
    # same config forced from the command line succeeds
    assert run_cli("run", "--config", path, "--out", tmp_path / "out", "--force") == 0
    capsys.readouterr()


def test_cli_proximity_and_rank_and_fca(tmp_path, capsys):
    assert run_cli("proximity", "--config", CONFIG_PATH, "--out", tmp_path,
                   "--attribute", "SS") == 0
    assert (tmp_path / "proximity_SS.csv").exists()
    assert run_cli("rank", "--config", CONFIG_PATH, "--out", tmp_path) == 0
    assert (tmp_path / "rank_table.csv").exists()
    assert run_cli("fca", "--config", CONFIG_PATH, "--out", tmp_path) == 0
    assert (tmp_path / "cluster_3_basis.txt").exists()
    out = capsys.readouterr().out
    assert "i_1: total 23, rank 1" in out


def test_cli_search_cut(tmp_path, capsys):
    code = run_cli("search-cut", "--config", CONFIG_PATH,
                   "--targets", DATA_DIR / "target_partitions.json",
                   "--step", "0.01", "--out", tmp_path / "region.json")
    assert code == 0
    doc = json.loads((tmp_path / "region.json").read_text())
    assert [0.92, 0.05] in doc["feasible_points"]
    capsys.readouterr()


def test_cli_search_cut_document_matches_json_dumps(tmp_path, capsys):
    targets_path = DATA_DIR / "target_partitions.json"
    config = PipelineConfig.from_file(CONFIG_PATH)
    table = load_config_table(config)
    targets = dict(partition_from_json(doc, table.objects)
                   for doc in json.loads(targets_path.read_text(encoding="utf-8")))
    expected = oracles.search_document_reference(search_alpha_beta(table, targets))
    assert run_cli("search-cut", "--config", CONFIG_PATH, "--targets", targets_path) == 0
    assert capsys.readouterr().out == expected
    out = tmp_path / "region.json"
    assert run_cli("search-cut", "--config", CONFIG_PATH, "--targets", targets_path,
                   "--out", out) == 0
    assert out.read_bytes() == expected.encode("ascii")
    capsys.readouterr()


def test_cli_bad_override_spec(capsys):
    assert run_cli("run", "--config", CONFIG_PATH, "--override", "bogus") == 2
    assert "bad override" in capsys.readouterr().err
