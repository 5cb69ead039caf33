"""Hostile input as a property: the bundled config, data, partition override,
an ordered-table override and the search-cut targets, one or two of them
corrupted at a time, and any search-cut step, must end every CLI run in
exit 0 or in a stage-tagged exit 2 within a time bound, never in a
traceback or an untagged ``error:``."""

import copy
import json
import math
import os
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, REPO_ROOT, RISE_THEN_BREAK
from roughfca import fca
from roughfca.cli import main

CONFIG = json.loads((DATA_DIR / "institutions_config.json").read_text(encoding="utf-8"))
CONFIG.pop("output_dir")  # every run passes --out, or prints to stdout
# SS's default ladder for its three blocks, written out so that its labels can be corrupted
CONFIG["ladders"] = {"SS": {"labels": ["Excellent", "Very good", "Good"], "weights": [5, 4, 3]}}
DATA = (DATA_DIR / "institutions.csv").read_text(encoding="utf-8")
PARTITIONS = json.loads((DATA_DIR / "eca_partition_override.json").read_text(encoding="utf-8"))
TARGETS = json.loads((DATA_DIR / "target_partitions.json").read_text(encoding="utf-8"))
ORDERED = {"SS": {"i_1": "Excellent", "i_2": "Excellent", "i_3": "Excellent", "i_4": "Very good",
                  "i_5": "Excellent", "i_6": "Very good", "i_7": "Very good", "i_8": "Very good",
                  "i_9": "Good", "i_10": "Good"}}

#: File name in the run directory, and its intact text, of each input.
INPUTS = {
    "config": ("config.json", json.dumps(CONFIG)),
    "data": (CONFIG["data"], DATA),
    "partitions": (CONFIG["overrides"]["partitions"], json.dumps(PARTITIONS)),
    "ordered": ("ordered.json", json.dumps(ORDERED)),
    "targets": ("targets.json", json.dumps(TARGETS)),
}
COMMANDS = ("run", "partition", "rank", "fca", "proximity", "search-cut")
SECONDS = 10.0  # an intact run takes well under 0.1 s

NON_UTF8 = b"\xff\xfe\x00"
DEEP = b"[" * 200_000
OVERSIZED = "9" * 200_000

#: Text that may hold lone surrogates, which json.dumps writes as \udXXX
#: escapes: no report file can hold them.
TEXT = st.text(st.characters() | st.characters(categories=["Cs"]), max_size=3)
HOSTILE = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12),
    st.sampled_from((10**30, 2**63, 10**400, -(10**9))),
    st.floats(), TEXT,
    st.lists(st.integers(0, 3) | st.text("i_1x", max_size=3), max_size=3),
    st.dictionaries(st.text("ab", max_size=2), st.integers(0, 3), max_size=2),
)
CELLS = st.one_of(
    st.sampled_from(("", "x", "nan", "inf", "-inf", "0", "-5", "1e400", "1e-400", "99999",
                     " 7 ", '"', '"1,2"', "i_1", OVERSIZED)),
    st.text(max_size=3),
)


def whole_file(text: str):
    """The file's text as other bytes: undecodable, truncated, deeply
    nested or empty."""
    return st.one_of(
        st.just(NON_UTF8 + text.encode("utf-8")),
        st.integers(0, len(text) - 1).map(lambda k: text[:k].encode("utf-8")),
        st.just(DEEP),
    )


@st.composite
def mutated_json(draw, doc):
    """``doc`` with one value, at any depth, replaced by a hostile one or
    deleted (a missing key, a shorter list)."""
    root = [copy.deepcopy(doc)]
    holder, key = root, 0
    while isinstance(holder[key], (dict, list)) and holder[key] and draw(st.booleans()):
        node = holder[key]
        holder, key = node, draw(st.sampled_from(list(node) if isinstance(node, dict)
                                                 else range(len(node))))
    if draw(st.booleans()):
        holder[key] = draw(HOSTILE)
    else:
        del holder[key]
    return json.dumps(root[0]).encode("utf-8") if root else b""


@st.composite
def mutated_csv(draw):
    """The bundled data with one cell replaced, or one row a cell short or
    long."""
    rows = [line.split(",") for line in DATA.splitlines()]
    row = draw(st.integers(0, len(rows) - 1))
    change = draw(st.sampled_from(("cell", "short", "long")))
    if change == "cell":
        rows[row][draw(st.integers(0, len(rows[row]) - 1))] = draw(CELLS)
    elif change == "short":
        rows[row].pop()
    else:
        rows[row].append(draw(CELLS))
    return "".join(",".join(cells) + "\n" for cells in rows).encode("utf-8")


DOCS = {"config": CONFIG, "partitions": PARTITIONS, "ordered": ORDERED, "targets": TARGETS}


def corrupted(which: str):
    """Bytes for input ``which``: three times in four one value or cell
    changed, else the whole file spoilt."""
    changed = mutated_csv() if which == "data" else mutated_json(DOCS[which])
    spoilt = whole_file(INPUTS[which][1])
    return st.integers(0, 3).flatmap(lambda k: changed if k else spoilt)


#: search-cut steps: the intact one, the edges of (0, 1] and of the 0.001
#: floor, and whatever a float can be.
STEPS = st.one_of(
    st.just(0.05),
    st.sampled_from((math.nan, math.inf, -math.inf, 0.0, -0.05, 1e-300,
                     math.nextafter(0.001, 0), math.nextafter(0.001, 1),
                     math.nextafter(1.0, 0), math.nextafter(1.0, 2))),
    st.floats(),
)


@st.composite
def cases(draw):
    """One or two inputs corrupted, a command and a search-cut step."""
    names = draw(st.lists(st.sampled_from(sorted(INPUTS)), min_size=1, max_size=2, unique=True))
    return ({which: draw(corrupted(which)) for which in names},
            draw(st.sampled_from(COMMANDS)), draw(STEPS))


def run_with(directory, contents: dict[str, bytes], command: str, capsys, step=0.05):
    """Write every input intact but those in ``contents``, run ``command``
    on them and return its exit status and stderr."""
    for key, (name, text) in INPUTS.items():
        (directory / name).write_bytes(contents.get(key, text.encode("utf-8")))
    argv = [command, "--config", str(directory / "config.json")]
    if command == "search-cut":
        argv += ["--targets", str(directory / "targets.json"), f"--step={step!r}"]
    else:  # only the commands that reach the order stage take its override
        argv += ["--out", str(directory / "out")]
        if command in ("run", "rank", "fca"):
            argv += ["--override", f"ordered_table={directory / 'ordered.json'}"]
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    assert elapsed < SECONDS
    return code, capsys.readouterr().err


# capsys is read, and so emptied, after every run
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=cases())
@example(case=({"config": DEEP}, "run", 0.05))
@example(case=({"data": f"institution,IC\ni_1,{OVERSIZED}\n".encode("utf-8")}, "run", 0.05))
@example(case=({"targets": NON_UTF8}, "search-cut", 0.05))
@example(case=({"data": NON_UTF8, "targets": DEEP}, "search-cut", -math.inf))
@example(case=({}, "search-cut", math.nextafter(0.001, 1)))
@example(case=({"config": json.dumps(dict(CONFIG, ladders={"SS": {
    "labels": ["Top\ud800", "Very good", "Good"], "weights": [5, 4, 3]}})).encode("utf-8")},
    "rank", 0.05))
def test_corrupted_input_ends_in_exit_0_or_a_tagged_exit_2(tmp_path_factory, capsys, case):
    contents, command, step = case
    code, err = run_with(tmp_path_factory.mktemp("hostile"), contents, command, capsys, step)
    assert code in (0, 2)
    assert (err.startswith("error [stage:") if code else not err.startswith("error"))
    assert "error:" not in err


STAGES = {"config": "load", "data": "load", "partitions": "partition", "ordered": "order",
          "targets": "partition"}


@pytest.mark.parametrize("which, content", [
    *((which, NON_UTF8) for which in STAGES),
    *((which, DEEP) for which in STAGES if which != "data"),
], ids=[*(f"{which}-non-utf8" for which in STAGES),
        *(f"{which}-deep" for which in STAGES if which != "data")])
def test_unreadable_input_names_its_file_and_stage(tmp_path, capsys, which, content):
    command = "search-cut" if which == "targets" else "run"
    code, err = run_with(tmp_path, {which: content}, command, capsys)
    what = "override" if which in ("partitions", "ordered") else which
    assert code == 2
    assert err.startswith(f"error [stage:{STAGES[which]}] cannot read {what} {tmp_path}")


def test_oversized_csv_cell_is_a_load_error_naming_its_line(tmp_path, capsys):
    rows = DATA.splitlines()
    rows[2] = rows[2].replace(",", f",{OVERSIZED}", 1)
    code, err = run_with(tmp_path, {"data": "\n".join(rows).encode("utf-8")}, "run", capsys)
    assert code == 2
    assert err.startswith("error [stage:load] line 3: field larger than field limit")


def contranominal_table(k: int) -> tuple[dict, str]:
    """A config and its data: k objects x k attributes, R = 250, object i
    at 10 on attribute i and 200 on the others.  Each attribute has two
    blocks and every object the same rank, so the one cluster's context
    has 2^k concepts."""
    config = {"data": "table.csv", "alpha": 0.92, "beta": 0.05, "block_order": "mean",
              "rank_ranges": [[1, 1]],
              "attributes": [{"name": f"a{j}", "range_max": 250} for j in range(k)]}
    rows = "".join(f"o{i}," + ",".join("10" if i == j else "200" for j in range(k)) + "\n"
                   for i in range(k))
    return config, "object," + ",".join(f"a{j}" for j in range(k)) + "\n" + rows


@pytest.mark.parametrize("k", range(2, 21))
def test_exponential_lattice_is_refused_past_the_concept_budget(tmp_path, capsys, k):
    config, data = contranominal_table(k)
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    (tmp_path / "table.csv").write_text(data, encoding="utf-8")
    start = time.perf_counter()
    code = main(["fca", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert elapsed < SECONDS
    if 2**k <= fca.MAX_CONCEPTS:
        assert code == 0 and not err.startswith("error")
    else:
        assert code == 2
        assert err == f"error [stage:fca] cluster 1: more than {fca.MAX_CONCEPTS} concepts\n"


#: Runs ``roughfca`` with the arguments it is given and prints its exit
#: status, wall time and tracemalloc peak.  The address space is capped at
#: 1 GiB, so that an n x n float table of many rows fails at once with a
#: MemoryError rather than filling the machine's memory.
MEASURED_CLI = """\
import resource, sys, time, tracemalloc
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from roughfca.cli import main
tracemalloc.start()
start = time.perf_counter()
code = main(sys.argv[1:])
print(code, time.perf_counter() - start, tracemalloc.get_traced_memory()[1])
"""


def test_search_cut_on_20000_values_near_1e200_takes_linear_time_and_memory(tmp_path):
    # nu = (|x-y|/4) / (x/2 + y/2) neither overflows nor underflows on
    # [1, the largest float], so the order check's margin decides these
    # values at each two-step pair; a pairwise check on all 20,000 would
    # hold n x n float tables of 3.2 GB each
    n = 20_000
    values = [1e200 * (1 + i / n / 8) for i in range(n // 2)]  # two tiers in [1e200, 2e200]
    values += [1e200 * (2 - i / n / 8) for i in range(n // 2)]
    (tmp_path / "table.csv").write_text(
        "object,a\n" + "".join(f"o{i},{v!r}\n" for i, v in enumerate(values)), encoding="utf-8")
    (tmp_path / "config.json").write_text(json.dumps({
        "data": "table.csv", "alpha": 0.9, "beta": 0.05, "rank_ranges": [[1, 1]],
        "attributes": [{"name": "a", "range_max": 1e300}]}), encoding="utf-8")
    (tmp_path / "targets.json").write_text(json.dumps([
        {"attribute": "a", "blocks": [[f"o{i}" for i in range(n // 2)],
                                      [f"o{i}" for i in range(n // 2, n)]]}]), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", MEASURED_CLI, "search-cut",
                           "--config", tmp_path / "config.json",
                           "--targets", tmp_path / "targets.json", "--step", "0.01",
                           "--out", tmp_path / "cuts.json"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    code, seconds, peak = done.stdout.splitlines()[-1].split()
    assert code == "0"
    assert float(seconds) < SECONDS
    assert int(peak) < 32 * 2**20
    assert json.loads((tmp_path / "cuts.json").read_text(encoding="utf-8"))["feasible_points"]


#: Runs ``roughfca`` with the arguments it is given and prints its exit
#: status and wall time.  Its address space is capped at 256 MiB above what
#: the interpreter, numpy and the library take at start (Linux ``statm``).
CAPPED_CLI = """\
import os, resource, sys, time
import numpy
from roughfca.cli import main
with open("/proc/self/statm") as statm:
    cap = int(statm.read().split()[0]) * os.sysconf("SC_PAGE_SIZE") + 2**28
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
start = time.perf_counter()
code = main(sys.argv[1:])
print(code, time.perf_counter() - start)
"""


def test_partition_of_4000_objects_holds_no_dense_degree_matrix(tmp_path):
    # 4,000 objects x 2 attributes, every value in [R/4, R], so that no pair
    # breaks mu + nu <= 1 and the partition stage runs without force.  Dense
    # (mu, nu) matrices of both attributes would hold 512 MB; a relation
    # holds its value column, and validation and the cut compute the
    # degrees a block of rows at a time
    n = 4000
    (tmp_path / "table.csv").write_text("object,a,b\n" + "".join(
        f"o{i},{250 + i * 7919 % 751},{250 + i * 104729 % 751}\n" for i in range(n)),
        encoding="utf-8")
    (tmp_path / "config.json").write_text(json.dumps({
        "data": "table.csv", "alpha": 0.9, "beta": 0.05, "rank_ranges": [[1, 1]],
        "attributes": [{"name": "a", "range_max": 1000}, {"name": "b", "range_max": 1000}]}),
        encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", CAPPED_CLI, "partition",
                           "--config", tmp_path / "config.json", "--out", tmp_path / "out"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    code, seconds = done.stdout.splitlines()[-1].split()
    assert code == "0"
    assert float(seconds) < SECONDS
    docs = json.loads((tmp_path / "out" / "partitions.json").read_text(encoding="utf-8"))
    assert [(doc["attribute"], sum(map(len, doc["blocks"]))) for doc in docs] == [("a", n), ("b", n)]


def test_search_cut_on_a_ladder_of_near_duplicates_takes_linear_time(tmp_path):
    # 1.2**k and the next double up for k = 0 .. 3889: 7,780 values in
    # [1, the largest float], every other one with a two-step pair that
    # does not clear the order check's margin.  A row-by-row check of all
    # pairs took 10 s; each value's pairs need checking only until they
    # clear the margin
    values = [v for k in range(3890) for v in (1.2**k, math.nextafter(1.2**k, math.inf))]
    (tmp_path / "table.csv").write_text(
        "object,a\n" + "".join(f"o{i},{v!r}\n" for i, v in enumerate(values)), encoding="utf-8")
    (tmp_path / "config.json").write_text(json.dumps({
        "data": "table.csv", "alpha": 0.9, "beta": 0.05, "rank_ranges": [[1, 1]],
        "attributes": [{"name": "a", "range_max": sys.float_info.max}]}), encoding="utf-8")
    (tmp_path / "targets.json").write_text(json.dumps([
        {"attribute": "a", "blocks": [[f"o{i}" for i in range(len(values))]]}]),
        encoding="utf-8")
    start = time.perf_counter()
    code = main(["search-cut", "--config", str(tmp_path / "config.json"),
                 "--targets", str(tmp_path / "targets.json"), "--out", str(tmp_path / "cuts.json")])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 2.0
    assert json.loads((tmp_path / "cuts.json").read_text(encoding="utf-8"))["feasible_points"]


def test_search_cut_names_a_break_above_a_ladder_of_near_duplicates_in_n_log_n_time(
        tmp_path, capsys):
    # 1.2**k and the next double up for k < 3000, then five values that
    # break the order, scaled by 2**800 above the ladder: 6,005 values.  A
    # row-major scan of every pair to name the first break took 6 s; one
    # scan of each value's own pairs, bisecting each break's least left
    # end, names it without one
    ladder = [v for k in range(3000) for v in (1.2**k, math.nextafter(1.2**k, math.inf))]
    breaking = [v * 2.0**800 for v in RISE_THEN_BREAK]
    values = ladder + breaking
    (tmp_path / "table.csv").write_text(
        "object,a\n" + "".join(f"o{i},{v!r}\n" for i, v in enumerate(values)), encoding="utf-8")
    (tmp_path / "config.json").write_text(json.dumps({
        "data": "table.csv", "alpha": 0.9, "beta": 0.05, "rank_ranges": [[1, 1]],
        "attributes": [{"name": "a", "range_max": sys.float_info.max}]}), encoding="utf-8")
    (tmp_path / "targets.json").write_text(json.dumps([
        {"attribute": "a", "blocks": [[f"o{i}" for i in range(len(values))]]}]),
        encoding="utf-8")
    start = time.perf_counter()
    code = main(["search-cut", "--config", str(tmp_path / "config.json"),
                 "--targets", str(tmp_path / "targets.json")])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error [stage:partition] cut search on 'a': ")
    assert f"sorted values {breaking}" in captured.err
    assert elapsed < 2.0
