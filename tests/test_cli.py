"""Command-line behaviour shared by every subcommand: each per-stage command
writes exactly its own group of report files, byte-identical to what
``roughfca run`` writes; write failures and bad arguments exit 2; the README
documents the registered subcommands."""

import argparse
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from conftest import DATA_DIR, REPO_ROOT
from roughfca import fca, pipeline
from roughfca.cli import build_parser, main
from roughfca.ordering import BLOCK_ORDERS

CONFIG_PATH = DATA_DIR / "institutions_config.json"
TARGETS_PATH = DATA_DIR / "target_partitions.json"

PROXIMITY_FILES = {f"proximity_{a}.csv" for a in ("IC", "IF", "PP", "RS", "SS", "ECA")}
FCA_FILES = {f"cluster_{k}_{suffix}" for k in (1, 2, 3)
             for suffix in ("context.csv", "lattice.dot", "basis.txt", "basis.json",
                            "frequencies.csv")}


#: The environment of a child interpreter that imports the package from
#: this checkout.
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))


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


def test_values_near_the_largest_float_warn_nothing(tmp_path):
    # 2(x + y) overflows here, so nu must be computed without it: 1/6, and
    # nothing on stderr.  A subprocess, since pytest captures the warnings
    # that numpy would print
    top = sys.float_info.max
    (tmp_path / "two.csv").write_text(f"object,a\nx,{top!r}\ny,{top / 2!r}\n", encoding="utf-8")
    (tmp_path / "config.json").write_text(json.dumps({
        "data": "two.csv", "alpha": 0.9, "beta": 0.05, "force": False,
        "attributes": [{"name": "a", "kind": "numeric", "range_max": top}],
        "rank_ranges": [[1, 2]]}), encoding="utf-8")
    for command in ("partition", "proximity"):
        done = subprocess.run([sys.executable, "-m", "roughfca.cli", command, "--config",
                               tmp_path / "config.json", "--out", tmp_path / "out"],
                              capture_output=True, text=True, env=CHILD_ENV, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
    assert (tmp_path / "out" / "proximity_a.csv").read_text(encoding="utf-8") == (
        'a,x,y\nx,"1.000,0.000","0.500,0.167"\ny,"0.500,0.167","1.000,0.000"\n')


#: Modules that no command loads unless it builds a dense artifact
#: (numpy), writes a file (hashlib) or renders a near-tie (decimal).
DEFERRED = ("numpy", "hashlib", "decimal")

#: Imports the package, or runs ``roughfca`` with the arguments it is
#: given, then prints which of :data:`DEFERRED` are loaded and exits with
#: the status.
DEFERRED_PROBE = f"""\
import sys
if sys.argv[1:]:
    from roughfca.cli import main
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:  # --help
        code = exc.code
else:
    import roughfca
    code = 0
print(sorted(name for name in {DEFERRED!r} if name in sys.modules))
sys.exit(code)
"""


@pytest.mark.parametrize("argv, code", [
    ([], 0),
    (["--help"], 0),
    (["run", "--config", CONFIG_PATH, "--alpha", "2"], 2),
    (["search-cut", "--config", CONFIG_PATH, "--targets", TARGETS_PATH], 0),
], ids=["import", "help", "load-refusal", "search-cut"])
def test_commands_that_build_no_dense_artifact_never_load_numpy(argv, code):
    """Nor do they load hashlib or decimal: none of them writes a file or
    renders a degree."""
    done = subprocess.run([sys.executable, "-c", DEFERRED_PROBE, *map(str, argv)],
                          capture_output=True, text=True, env=CHILD_ENV, timeout=60)
    assert done.returncode == code, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert done.stderr.startswith("error [stage:load]") if code else not done.stderr


def test_run_in_a_fresh_interpreter_writes_the_bundled_tree(tmp_path):
    done = subprocess.run([sys.executable, "-m", "roughfca.cli", "run", "--config", CONFIG_PATH,
                           "--out", tmp_path], capture_output=True, text=True, env=CHILD_ENV,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()
               if p.name not in ("report.json", "manifest.json")}
    assert digests == golden.REPORT_TREE_SHA256


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


@pytest.mark.parametrize("argv, value, stage", [
    (["search-cut", "--targets", TARGETS_PATH], "--step -1e-3", "partition"),
    (["search-cut", "--targets", TARGETS_PATH], "--step -inf", "partition"),
    (["search-cut", "--targets", TARGETS_PATH], "--st -1e-3", "partition"),
    (["run"], "--alpha -1e-3", "load"),
    (["run"], "--beta -1e-3", "load"),
], ids=["step-exponent", "step-minus-inf", "step-prefix", "alpha-exponent", "beta-exponent"])
def test_negative_number_after_its_option_is_read_as_its_value(tmp_path, capsys, argv, value,
                                                               stage):
    # argparse reads a separate "-1e-3" or "-inf" as an option, not a value,
    # unless the CLI attaches it to its option as --name=value does
    option, number = value.split()
    results = []
    for flag in ([option, number], [f"{option}={number}"]):
        code = run_cli(*argv, "--config", CONFIG_PATH, *flag, "--out", tmp_path / "out")
        results.append((code, capsys.readouterr()))
    (code, captured), attached = results
    assert (code, captured) == attached
    assert code == 2 and captured.err.startswith(f"error [stage:{stage}]")
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["search-cut", "--targets", TARGETS_PATH, "--alpha", "0.5"],
    ["search-cut", "--targets", TARGETS_PATH, "--force"],
    ["proximity", "--force"],
    ["proximity", "--alpha", "0.5"],
    ["proximity", "--beta", "0.1"],
    ["proximity", "--override", f"partitions={DATA_DIR / 'eca_partition_override.json'}"],
], ids=["search-cut-alpha", "search-cut-force", "proximity-force", "proximity-alpha",
        "proximity-beta", "proximity-override"])
def test_flags_a_subcommand_would_ignore_are_usage_errors(tmp_path, capsys, argv):
    # search-cut reads only the data and its attributes; proximity stops
    # before the cut and the validation refusal
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


def _config_with(tmp_path, omit=(), **changes):
    """The bundled config without its override, reading the bundled data,
    top-level keys replaced and those in ``omit`` removed."""
    doc = json.loads(CONFIG_PATH.read_text(encoding="utf-8"))
    doc.pop("overrides")
    doc["data"] = str(DATA_DIR / "institutions.csv")
    doc.update(changes)
    for key in omit:
        del doc[key]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _ic_with(**fields):
    """The bundled config's attributes, IC's entry with ``fields`` set."""
    doc = json.loads(CONFIG_PATH.read_text(encoding="utf-8"))
    attributes = doc["attributes"]
    attributes[0] = dict(attributes[0], **fields)
    return attributes


def _ss_ladder(name="SS", labels=("Excellent", "Very good", "Good"), weights=(5, 4, 3)):
    return {name: {"labels": labels if isinstance(labels, str) else list(labels),
                   "weights": list(weights)}}


#: A JSON ``\ud800`` escape parses to a lone surrogate, which no report can
#: hold: the config is refused as it is read (REFUSALS pins the whole line).
SURROGATE = "config.json: 'utf-8' codec can't encode character '\\ud800'"


@pytest.mark.parametrize("changes, message", [
    ({"attributes": _ic_with(range_max="250")}, "attribute 'IC': range_max must be a number"),
    ({"attributes": _ic_with(range_max=True)}, "attribute 'IC': range_max must be a number"),
    ({"attributes": _ic_with(range_max=float("inf"))}, "attribute 'IC': range_max must be finite"),
    ({"attributes": _ic_with(range_max=10**400)}, "attribute 'IC': range_max must be finite"),
    ({"attributes": 5}, "not iterable"),
    ({"attributes": _ic_with(range_max=float("nan"))}, "range_max must be >= 1"),
    ({"attributes": [5]}, "not subscriptable"),
    ({"rank_ranges": [[1, "three"]]}, "rank bounds must be integers"),
    ({"overrides": 5}, "has no attribute"),
    ({"force": "false"}, "force must be true or false"),
    ({"attributes": _ic_with(drop_if_indiscernible="false")},
     "drop_if_indiscernible must be true or false"),
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
    ({"attributes": _ic_with(ladder="abc")}, "ladder must be a list of strings"),
    ({"ladders": _ss_ladder(weights=(6.5, 4, 3))}, "ladder weights must be integers"),
    ({"ladders": _ss_ladder(weights=(True, False, False))}, "ladder weights must be integers"),
    ({"ladders": _ss_ladder(name="XX")}, "ladders for undeclared or nominal attributes: ['XX']"),
    ({"block_order": "bogus", "alpha": 0, "beta": 1}, "unknown block_order 'bogus'"),
    ({"data": None}, "data must be a path string, got None"),
    ({"ladders": _ss_ladder(labels=("Top\ud800", "Very good", "Good"))}, SURROGATE),
    ({"output_dir": "out\ud800"}, SURROGATE),
], ids=["range-max-string", "range-max-true", "range-max-infinity", "range-max-huge-int",
        "attributes-int", "range-max-nan", "attribute-int", "rank-range-word", "overrides-int",
        "force-string", "drop-string", "rank-bound-float", "rank-inf", "rank-neg-inf", "rank-nan",
        "rank-float", "rank-triple", "alpha-string", "alpha-true", "beta-null", "alpha-huge-int",
        "beta-huge-int",
        "labels-string", "labels-int", "attribute-ladder-string", "weights-float",
        "weights-bool", "ladder-undeclared", "block-order-bogus", "data-null",
        "label-surrogate", "output-dir-surrogate"])
def test_malformed_config_is_a_load_error(tmp_path, capsys, changes, message):
    config = _config_with(tmp_path, **changes)
    code = run_cli("run", "--config", config, "--out", tmp_path / "out")
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error [stage:load]") and message in captured.err
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]  # no report file


@pytest.mark.parametrize("command, written", [
    ("proximity", PROXIMITY_FILES),
    ("partition", {"partitions.json"}),
    ("rank", None),
    ("fca", None),
    ("run", None),
], ids=["proximity", "partition", "rank", "fca", "run"])
def test_a_rank_range_no_rank_reaches_is_a_cluster_error(tmp_path, capsys, command, written):
    # only the commands that reach the cluster stage fail in it
    config = _config_with(tmp_path, rank_ranges=[[1, 3], [4, 6], [7, 9], [10, 12]],
                          overrides={"partitions": str(DATA_DIR / "eca_partition_override.json")})
    code = run_cli(command, "--config", config, "--out", tmp_path / "out")
    captured = capsys.readouterr()
    if written:
        assert (code, captured.err) == (0, "")
        assert {p.name for p in (tmp_path / "out").iterdir()} == written
        return
    assert code == 2 and captured.out == ""
    assert captured.err == "error [stage:cluster] rank range [10, 12] holds no object\n"
    assert not (tmp_path / "out").exists()


def test_proximity_prints_the_violations_that_stop_the_later_stages(tmp_path, capsys):
    # REFUSALS pins the validate line of run, partition, rank and fca
    config = _config_with(tmp_path, force=False)
    assert run_cli("proximity", "--config", config, "--out", tmp_path / "out") == 0
    assert "validation violations: {'ECA': 6}" in capsys.readouterr().out.splitlines()


#: The files of each stage command's group, by name.
GROUP_OF = {"proximity": lambda name: name.startswith("proximity_"),
            "partition": lambda name: name == "partitions.json",
            "rank": lambda name: name in ("ordered_table.csv", "rank_table.csv", "clusters.json"),
            "fca": lambda name: name.startswith("cluster_")}


@st.composite
def small_configs(draw):
    """A config document and its CSV: at most 12 objects, some rows
    repeated, and 1 to 4 numeric attributes; either block order, a cut and
    force drawn, and contiguous rank ranges from 1 that may leave a rank
    uncovered or hold no object."""
    width = draw(st.integers(1, 4))
    row = st.lists(st.integers(1, 60), min_size=width, max_size=width)
    distinct = draw(st.lists(row, min_size=1, max_size=6))
    rows = draw(st.lists(st.sampled_from(distinct), min_size=2, max_size=12))
    names = [f"a{k}" for k in range(width)]
    csv = "".join(",".join(map(str, [f"o{i}", *values])) + "\n" for i, values in enumerate(rows))
    bounds = [0, *accumulate(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))]
    alpha, beta = draw(st.sampled_from([(0.9, 0.05), (0.8, 0.1), (0.95, 0.02), (0.5, 0.5)]))
    return {"data": "data.csv", "alpha": alpha, "beta": beta, "force": draw(st.booleans()),
            "block_order": draw(st.sampled_from(BLOCK_ORDERS)),
            "attributes": [{"name": name, "range_max": 60} for name in names],
            "rank_ranges": [[lo + 1, hi] for lo, hi in zip(bounds, bounds[1:])],
            "output_dir": "out"}, ",".join(["object", *names]) + "\n" + csv


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("stages")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=small_configs())
def test_each_stage_command_writes_what_run_writes_or_fails_as_run_does(scratch, case):
    doc, csv = case
    shutil.rmtree(scratch)
    scratch.mkdir()
    (scratch / "data.csv").write_text(csv, encoding="utf-8")
    (scratch / "config.json").write_text(json.dumps(doc), encoding="utf-8")
    results = {}
    for command in ("run", *GROUP_OF):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run_cli(command, "--config", scratch / "config.json",
                           "--out", scratch / command)
        results[command] = code, err.getvalue()
    run_code, run_err = results["run"]
    for command, in_group in GROUP_OF.items():
        code, err = results[command]
        if run_code == 0:
            assert (code, err) == (0, ""), command
            expected = {p.name for p in (scratch / "run").iterdir() if in_group(p.name)}
            assert {p.name for p in (scratch / command).iterdir()} == expected, command
            for name in expected:
                assert ((scratch / command / name).read_bytes()
                        == (scratch / "run" / name).read_bytes()), name
        elif code:
            assert (run_code, run_err) == (code, err), command


@pytest.mark.parametrize("changes", [
    {"alpha": 10**400}, {"beta": 10**400}, {"attributes": _ic_with(range_max=10**400)},
], ids=["alpha", "beta", "range-max"])
def test_config_number_too_large_for_a_float_stops_search_cut_at_load(tmp_path, capsys, changes):
    config = _config_with(tmp_path, **changes)
    code = run_cli("search-cut", "--config", config, "--targets", TARGETS_PATH)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error [stage:load] bad config: ")


ALL_OBJECTS = [f"i_{k}" for k in range(1, 11)]
RUN = ["run", "--config", "{d}/config.json", "--out", "{d}/out"]


def _refusal(stage, message, argv=RUN, config=None, files=None, patch=None, id=None):
    return pytest.param(stage, message, argv, config or {}, files or {}, patch, id=id)


#: Each place a failure becomes a stage-tagged exit 2, and the direct
#: refusals beside them: the stage, the message after its tag, the CLI
#: arguments, config changes (``omit`` names keys to remove), files written
#: into the run directory {d} (JSON unless text; None makes a directory) and
#: a library call patched to raise ValueError("patched").
REFUSALS = [
    _refusal("load", "cannot read config {d}/none.json: "
                     "[Errno 2] No such file or directory: '{d}/none.json'",
             argv=["run", "--config", "{d}/none.json"], id="config-unreadable"),
    _refusal("load", "config missing key 'alpha'", config={"omit": ["alpha"]},
             id="config-missing-key"),
    _refusal("load", "bad config: alpha must be a number, got '0.9'", config={"alpha": "0.9"},
             id="bad-config"),
    _refusal("load", "bad config: attribute name must be a string, got 5",
             config={"attributes": _ic_with(name=5)}, id="attribute-name-number"),
    _refusal("load", "bad config: attribute name must be a string, got None",
             config={"attributes": _ic_with(name=None)}, id="attribute-name-null"),
    _refusal("load", "bad config: unknown keys ['block_ordr']", config={"block_ordr": "mean"},
             id="unknown-key"),
    _refusal("load", "bad config: unknown keys ['partition'] in overrides",
             config={"overrides": {"partition": str(DATA_DIR / "eca_partition_override.json")}},
             id="unknown-override-key"),
    _refusal("load", "bad config: unknown keys ['rangemax'] in attribute 'IC'",
             config={"attributes": _ic_with(rangemax=250)}, id="unknown-attribute-key"),
    _refusal("load", "bad config: unknown keys ['weight'] in ladder 'SS'",
             config={"ladders": {"SS": {**_ss_ladder()["SS"], "weight": [5]}}},
             id="unknown-ladder-key"),
    _refusal("load", "header ['IC'] does not match declared attributes "
                     "['IC', 'IF', 'PP', 'RS', 'SS', 'ECA']",
             config={"data": "data.csv"}, files={"data.csv": "institution,IC\ni_1,1\n"},
             id="data-table"),
    _refusal("load", "cut parameters must lie in [0, 1], got CutParams(alpha=2.0, beta=0.05)",
             argv=RUN + ["--alpha", "2"], id="cut-flags"),
    _refusal("load", "bad override 'bogus=x', expected STAGE=FILE with "
                     "STAGE in ('partitions', 'ordered_table')",
             argv=RUN + ["--override", "bogus=x"], id="override-spec"),
    _refusal("load", "bad override 'ordered_table={d}/ordered.json', expected STAGE=FILE with "
                     "STAGE in ('partitions',)",
             argv=["partition", "--config", "{d}/config.json", "--out", "{d}/out",
                   "--override", "ordered_table={d}/ordered.json"],
             files={"ordered.json": {}}, id="partition-ordered-override"),
    _refusal("proximity", "patched", patch=(pipeline, "build_proximity"), id="proximity"),
    _refusal("proximity", "unknown attribute 'XX'",
             argv=["proximity", "--config", "{d}/config.json", "--out", "{d}/out",
                   "--attribute", "XX"], id="proximity-attribute"),
    *(_refusal("validate", "6 proximity axiom violation(s), e.g. sum at ('i_6', 'i_8'): "
                           "mu + nu = 1.025 > 1; pass force to proceed",
               argv=[command, *RUN[1:]], config={"force": False},
               id="validate" if command == "run" else f"validate-{command}")
      for command in ("run", "partition", "rank", "fca")),
    _refusal("partition", "bad partition override: object 'nope' not in the universe",
             argv=RUN + ["--override", "partitions={d}/parts.json"],
             files={"parts.json": [{"attribute": "IC", "blocks": [["nope"]]}]},
             id="partition-override"),
    _refusal("partition", "override names unknown attribute 'XX'",
             argv=RUN + ["--override", "partitions={d}/parts.json"],
             files={"parts.json": [{"attribute": "XX", "blocks": [ALL_OBJECTS]}]},
             id="partition-override-attribute"),
    _refusal("order", "ladder for 'SS' has 1 labels, partition has 3 blocks",
             config={"ladders": {"SS": {"labels": ["Top"], "weights": [5]}}}, id="order"),
    _refusal("order", "ordered-table override must map attributes to label maps",
             argv=RUN + ["--override", "ordered_table={d}/ordered.json"],
             files={"ordered.json": [1]}, id="ordered-override-shape"),
    _refusal("order", "bad ordered-table override: override for 'IC' must map objects to labels",
             argv=RUN + ["--override", "ordered_table={d}/ordered.json"],
             files={"ordered.json": {"IC": [1, 2]}}, id="ordered-override"),
    _refusal("cluster", "rank 3 covered by two ranges",
             config={"rank_ranges": [[1, 3], [3, 6], [7, 9]]}, id="cluster"),
    _refusal("cluster", "rank range [5, 3] is empty", config={"rank_ranges": [[5, 3]]},
             id="cluster-empty-range"),
    _refusal("fca", "cluster 1: patched", patch=(fca, "build_context"), id="fca"),
    _refusal("emit", "cannot create {d}/config.json: [Errno 17] File exists: '{d}/config.json'",
             argv=["partition", "--config", "{d}/config.json", "--out", "{d}/config.json"],
             id="emit-create"),
    _refusal("emit", "cannot write {d}/partitions.json: "
                     "[Errno 21] Is a directory: '{d}/partitions.json'",
             argv=["partition", "--config", "{d}/config.json", "--out", "{d}"],
             files={"partitions.json": None}, id="emit-write"),
    _refusal("emit", "no output directory: set output_dir in the config or pass --out",
             argv=["partition", "--config", "{d}/config.json"], config={"omit": ["output_dir"]},
             id="emit-no-directory"),
    # no path holds a NUL byte, in the output directory or a file name
    *(_refusal("emit", "cannot create {d}/o\0ut: embedded null byte",
               argv=[command, "--config", "{d}/config.json"], config={"output_dir": "o\0ut"},
               id=f"emit-create-nul-{command}") for command in ("run", "partition")),
    *(_refusal("emit", "cannot write {d}/out/proximity_a\0b.csv: embedded null byte",
               argv=[command, *RUN[1:]], files={"data.csv": "object,a\0b\ni_1,3\ni_2,5\n"},
               config={"data": "data.csv", "attributes": [{"name": "a\0b", "range_max": 10}],
                       "rank_ranges": [[1, 2]]},
               id=f"emit-write-nul-{command}") for command in ("run", "proximity")),
    _refusal("partition", "grid step must lie in (0, 1] and be at least 0.001, got 0.0",
             argv=["search-cut", "--config", "{d}/config.json", "--targets", TARGETS_PATH,
                   "--step=0"], id="search-step"),
    _refusal("partition", "object 'nope' not in the universe",
             argv=["search-cut", "--config", "{d}/config.json", "--targets", "{d}/targets.json"],
             files={"targets.json": [{"attribute": "IC", "blocks": [["nope"]]}]},
             id="search-targets"),
    _refusal("load", "cannot read config {d}/config.json: 'utf-8' codec can't encode character "
                     "'\\ud800' in position 3 of ladders.SS.labels[0]: surrogates not allowed",
             config={"ladders": _ss_ladder(labels=("Top\ud800", "Very good", "Good"))},
             id="label-surrogate"),
    _refusal("load", "cannot read config {d}/config.json: 'utf-8' codec can't encode character "
                     "'\\ud800' in position 3 of output_dir: surrogates not allowed",
             config={"output_dir": "out\ud800"}, id="output-dir-surrogate"),
    _refusal("partition", "cannot read targets {d}/targets.json: 'utf-8' codec can't encode "
                          "character '\\udfff' in position 1 of [0].blocks[0][1]: "
                          "surrogates not allowed",
             argv=["search-cut", "--config", "{d}/config.json", "--targets", "{d}/targets.json"],
             files={"targets.json": [{"attribute": "IC", "blocks": [["i_1", "i\udfff"]]}]},
             id="targets-surrogate"),
]


@pytest.mark.parametrize("stage, message, argv, config, files, patch", REFUSALS)
def test_every_refusal_prints_its_exact_line(tmp_path, capsys, monkeypatch, stage, message, argv,
                                             config, files, patch):
    def fill(text):
        return str(text).replace("{d}", str(tmp_path))

    config = dict(config)
    _config_with(tmp_path, config.pop("omit", ()), **config)
    for name, content in files.items():
        if content is None:
            (tmp_path / name).mkdir()
        else:
            text = content if isinstance(content, str) else json.dumps(content)
            (tmp_path / name).write_text(text, encoding="utf-8")
    if patch:
        def refuse(*args, **kwargs):
            raise ValueError("patched")
        monkeypatch.setattr(*patch, refuse)
    code = run_cli(*map(fill, argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error [stage:{stage}] {fill(message)}\n"
