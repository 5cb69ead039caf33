"""Command-line behaviour shared by every subcommand: each per-stage command
writes exactly its own group of report files, byte-identical to what
``roughfca run`` writes; write failures and bad arguments exit 2; the README
documents the registered subcommands."""

import argparse
import json
import re

import pytest

from conftest import DATA_DIR, REPO_ROOT
from roughfca.cli import build_parser, main

CONFIG_PATH = DATA_DIR / "institutions_config.json"
TARGETS_PATH = DATA_DIR / "target_partitions.json"

PROXIMITY_FILES = {f"proximity_{a}.csv" for a in ("IC", "IF", "PP", "RS", "SS", "ECA")}
FCA_FILES = {f"cluster_{k}_{suffix}" for k in (1, 2, 3)
             for suffix in ("context.csv", "lattice.dot", "basis.txt", "basis.json",
                            "frequencies.csv")}


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def run_tree(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert run_cli("run", "--config", CONFIG_PATH, "--out", out) == 0
    return out


@pytest.mark.parametrize("argv, expected", [
    (["proximity"], PROXIMITY_FILES),
    (["proximity", "--attribute", "SS"], {"proximity_SS.csv"}),
    (["partition"], {"partitions.json"}),
    (["rank"], {"ordered_table.csv", "rank_table.csv", "clusters.json"}),
    (["fca"], FCA_FILES),
], ids=["proximity", "proximity-SS", "partition", "rank", "fca"])
def test_stage_command_writes_its_group_as_run_does(run_tree, tmp_path, capsys, argv, expected):
    out = tmp_path / "out"
    assert run_cli(*argv, "--config", CONFIG_PATH, "--out", out) == 0
    capsys.readouterr()
    assert {p.name for p in out.iterdir()} == expected
    for name in expected:
        assert (out / name).read_bytes() == (run_tree / name).read_bytes(), name


def test_run_prints_the_cluster_summary(tmp_path, capsys):
    assert run_cli("run", "--config", CONFIG_PATH, "--out", tmp_path) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "forced past proximity violations: {'ECA': 6}" in lines
    assert "dropped as indiscernible: RS" in lines
    at = lines.index("cluster 3 (ranks 7-9): chief attributes A14, A66")
    assert lines[at + 1:at + 4] == [
        "  members: i_8, i_9, i_10",
        "  concepts: 7, implications: 6",
        "  next: A52",
    ]


def _existing_file(path):
    path.write_text("occupied", encoding="utf-8")
    return path


def _existing_dir(path):
    path.mkdir()
    return path


def _manifest_dir(path):
    (path / "manifest.json").mkdir(parents=True)
    return path


@pytest.mark.parametrize("argv, make_out", [
    (["partition"], _existing_file),
    (["search-cut", "--targets", TARGETS_PATH, "--step", "0.05"], _existing_dir),
    (["run"], _manifest_dir),
], ids=["partition-out-is-file", "search-cut-out-is-dir", "run-manifest-is-dir"])
def test_unwritable_output_is_an_emit_error(tmp_path, capsys, argv, make_out):
    out = make_out(tmp_path / "out")
    assert run_cli(*argv, "--config", CONFIG_PATH, "--out", out) == 2
    assert "error [stage:emit]" in capsys.readouterr().err


@pytest.mark.parametrize("step", ["0", "-0.005", "2", "nan", "0.0005", "1e-300"])
def test_search_cut_rejects_step_outside_unit_interval(capsys, step):
    code = run_cli("search-cut", "--config", CONFIG_PATH, "--targets", TARGETS_PATH,
                   f"--step={step}")
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error [stage:partition]") and "(0, 1]" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("doc", [{"attribute": "IC", "blocks": [["nope"]]}, ["nope"]],
                         ids=["unknown-object", "not-an-object"])
def test_malformed_search_cut_target_is_a_partition_error(tmp_path, capsys, doc):
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps([doc]), encoding="utf-8")
    code = run_cli("search-cut", "--config", CONFIG_PATH, "--targets", targets)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error [stage:partition]") and "nope" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("doc, message", [
    ({"attribute": "IC", "blocks": "nope"}, "list of lists"),
    ({"attribute": "IC", "blocks": ["i_1"]}, "list of lists"),
    ({"attribute": ["IC"], "blocks": [["i_1"]]}, "JSON string"),
], ids=["string-blocks", "string-block", "list-attribute"])
def test_search_cut_target_shapes_are_checked(tmp_path, capsys, doc, message):
    # a string must not be read as a block of one-character object names
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps([doc]), encoding="utf-8")
    code = run_cli("search-cut", "--config", CONFIG_PATH, "--targets", targets)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error [stage:partition]") and message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command, option", [
    ("search-cut", "--targets"),
    ("run", "--override=partitions"),
], ids=["search-cut-targets", "partitions-override"])
def test_partition_documents_naming_an_attribute_twice_are_refused(tmp_path, capsys, command,
                                                                   option):
    # either IC document would otherwise be dropped without a word
    docs = json.loads(TARGETS_PATH.read_text(encoding="utf-8"))
    docs.append({"attribute": "IC", "blocks": [[f"i_{k}" for k in range(1, 11)]]})
    path = tmp_path / "parts.json"
    path.write_text(json.dumps(docs), encoding="utf-8")
    code = run_cli(command, "--config", CONFIG_PATH, f"{option}={path}", "--out", tmp_path / "out")
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error [stage:partition]") and "'IC'" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("labels", [[1, 2], 5], ids=["list", "number"])
def test_ordered_table_override_that_is_not_a_label_map_is_an_order_error(tmp_path, capsys,
                                                                           labels):
    path = tmp_path / "ordered.json"
    path.write_text(json.dumps({"IC": labels}), encoding="utf-8")
    code = run_cli("rank", "--config", CONFIG_PATH, "--override", f"ordered_table={path}",
                   "--out", tmp_path / "out")
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error [stage:order]") and "'IC'" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags, message", [
    (["--alpha", "2"], "[0, 1]"),
    (["--alpha", "nan"], "[0, 1]"),
    (["--beta", "nan"], "[0, 1]"),
    (["--alpha", "0.8", "--beta", "0.5"], "must not exceed 1"),
], ids=["alpha-2", "alpha-nan", "beta-nan", "sum-over-1"])
def test_cut_flags_outside_the_admissible_set_are_a_load_error(tmp_path, capsys, flags, message):
    code = run_cli("run", "--config", CONFIG_PATH, *flags, "--out", tmp_path / "out")
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error [stage:load]") and message in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["search-cut", "--targets", TARGETS_PATH, "--alpha", "0.5"],
    ["search-cut", "--targets", TARGETS_PATH, "--force"],
    ["proximity", "--force"],
], ids=["search-cut-alpha", "search-cut-force", "proximity-force"])
def test_flags_a_subcommand_would_ignore_are_usage_errors(tmp_path, capsys, argv):
    # search-cut reads only the data and its attributes; proximity always forces
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--config", CONFIG_PATH, "--out", tmp_path / "out")
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_readme_command_block_names_every_subcommand():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1]
    block = section.split("```", 2)[1]
    documented = [line.split()[1] for line in block.splitlines()
                  if re.match(r"roughfca\s", line)]
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert sorted(documented) == sorted(subparsers.choices)
    assert len(documented) == len(set(documented))


def test_readme_library_surface_is_exported():
    import inspect
    import types

    import roughfca

    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library surface\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ")][1:]
    documented = [name for row in rows for name in re.findall(r"`(\w+)`", row.split("|")[2])]
    assert len(documented) > 30
    assert not set(documented) - set(roughfca.__all__)
    functions = [name for name in roughfca.__all__ if inspect.isfunction(getattr(roughfca, name))]
    assert not set(functions) - set(documented)
    assert not [name for name in roughfca.__all__
                if isinstance(getattr(roughfca, name), types.ModuleType)]


def _config_with(tmp_path, **changes):
    """The bundled config without its override, top-level keys replaced,
    reading the bundled data."""
    doc = json.loads(CONFIG_PATH.read_text(encoding="utf-8"))
    doc.pop("overrides")
    doc.update(changes)
    doc["data"] = str(DATA_DIR / "institutions.csv")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _ic_range(value):
    doc = json.loads(CONFIG_PATH.read_text(encoding="utf-8"))
    attributes = doc["attributes"]
    attributes[0] = dict(attributes[0], range_max=value)
    return attributes


def _ic_ladder(value):
    doc = json.loads(CONFIG_PATH.read_text(encoding="utf-8"))
    attributes = doc["attributes"]
    attributes[0] = dict(attributes[0], ladder=value)
    return attributes


def _ss_ladder(name="SS", labels=("Excellent", "Very good", "Good"), weights=(5, 4, 3)):
    return {name: {"labels": labels if isinstance(labels, str) else list(labels),
                   "weights": list(weights)}}


def _ic_flag(value):
    doc = json.loads(CONFIG_PATH.read_text(encoding="utf-8"))
    attributes = doc["attributes"]
    attributes[0] = dict(attributes[0], drop_if_indiscernible=value)
    return attributes


@pytest.mark.parametrize("changes, message", [
    ({"attributes": _ic_range("250")}, "attribute 'IC': range_max must be a number"),
    ({"attributes": _ic_range(True)}, "attribute 'IC': range_max must be a number"),
    ({"attributes": _ic_range(float("inf"))}, "attribute 'IC': range_max must be finite"),
    ({"attributes": _ic_range(10**400)}, "attribute 'IC': range_max must be finite"),
    ({"attributes": 5}, "not iterable"),
    ({"attributes": _ic_range(float("nan"))}, "range_max must be >= 1"),
    ({"attributes": [5]}, "not subscriptable"),
    ({"rank_ranges": [[1, "three"]]}, "rank bounds must be integers"),
    ({"overrides": 5}, "has no attribute"),
    ({"force": "false"}, "force must be true or false"),
    ({"attributes": _ic_flag("false")}, "drop_if_indiscernible must be true or false"),
    ({"rank_ranges": [[1, 3.9], [4, 6], [7, 9]]}, "rank bounds must be integers"),
    ({"rank_ranges": [[float("inf"), 2]]},
     "rank bounds must be integers, two per range, got [[inf, 2]]"),
    ({"rank_ranges": [[-float("inf"), 2]]}, "rank bounds must be integers"),
    ({"rank_ranges": [[1, float("nan")]]}, "rank bounds must be integers"),
    ({"rank_ranges": [[1.0, 3], [4, 6], [7, 9]]}, "rank bounds must be integers"),
    ({"rank_ranges": [[1, 3, 5]]}, "rank bounds must be integers, two per range"),
    ({"alpha": "0.9"}, "alpha must be a number"),
    ({"alpha": True}, "alpha must be a number"),
    ({"beta": None}, "beta must be a number"),
    ({"alpha": 10**400}, "alpha must be a number, got an integer too large for a float"),
    ({"beta": 10**400}, "beta must be a number, got an integer too large for a float"),
    ({"ladders": _ss_ladder(labels="abc")}, "labels of ladder 'SS' must be a list of strings"),
    ({"ladders": _ss_ladder(labels=("Excellent", 4, "Good"))}, "must be a list of strings"),
    ({"attributes": _ic_ladder("abc")}, "ladder must be a list of strings"),
    ({"ladders": _ss_ladder(weights=(6.5, 4, 3))}, "ladder weights must be integers"),
    ({"ladders": _ss_ladder(weights=(True, False, False))}, "ladder weights must be integers"),
    ({"ladders": _ss_ladder(name="XX")}, "ladders for undeclared or nominal attributes: ['XX']"),
    ({"block_order": "bogus", "alpha": 0, "beta": 1}, "unknown block_order 'bogus'"),
], ids=["range-max-string", "range-max-true", "range-max-infinity", "range-max-huge-int",
        "attributes-int", "range-max-nan", "attribute-int", "rank-range-word", "overrides-int",
        "force-string", "drop-string", "rank-bound-float", "rank-inf", "rank-neg-inf", "rank-nan",
        "rank-float", "rank-triple", "alpha-string", "alpha-true", "beta-null", "alpha-huge-int",
        "beta-huge-int",
        "labels-string", "labels-int", "attribute-ladder-string", "weights-float",
        "weights-bool", "ladder-undeclared", "block-order-bogus"])
def test_malformed_config_is_a_load_error(tmp_path, capsys, changes, message):
    config = _config_with(tmp_path, **changes)
    code = run_cli("run", "--config", config, "--out", tmp_path / "out")
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error [stage:load]") and message in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("changes", [
    {"alpha": 10**400}, {"beta": 10**400}, {"attributes": _ic_range(10**400)},
], ids=["alpha", "beta", "range-max"])
def test_config_number_too_large_for_a_float_stops_search_cut_at_load(tmp_path, capsys, changes):
    config = _config_with(tmp_path, **changes)
    code = run_cli("search-cut", "--config", config, "--targets", TARGETS_PATH)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error [stage:load] bad config: ")
