"""Hostile input as a property: the bundled config, data, partition override,
an ordered-table override and the search-cut targets, each corrupted in
turn, must end every CLI run in exit 0 or in a stage-tagged exit 2 within a
time bound, never in a traceback or an untagged ``error:``."""

import copy
import json
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR
from roughfca.cli import main

CONFIG = json.loads((DATA_DIR / "institutions_config.json").read_text(encoding="utf-8"))
CONFIG.pop("output_dir")  # every run passes --out, or prints to stdout
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

HOSTILE = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12),
    st.sampled_from((10**30, 2**63, 10**400, -(10**9))),
    st.floats(), st.text(max_size=3),
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


CASES = st.sampled_from(sorted(INPUTS)).flatmap(
    lambda which: st.tuples(st.just(which), corrupted(which), st.sampled_from(COMMANDS)))


def run_with(directory, which: str, content: bytes, command: str, capsys):
    """Write every input intact but ``which``, run ``command`` on them and
    return its exit status and stderr."""
    for key, (name, text) in INPUTS.items():
        (directory / name).write_bytes(content if key == which else text.encode("utf-8"))
    argv = [command, "--config", str(directory / "config.json")]
    if command == "search-cut":
        argv += ["--targets", str(directory / "targets.json"), "--step", "0.05"]
    else:
        argv += ["--out", str(directory / "out"),
                 "--override", f"ordered_table={directory / 'ordered.json'}"]
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    assert elapsed < SECONDS
    return code, capsys.readouterr().err


# capsys is read, and so emptied, after every run
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=CASES)
@example(case=("config", DEEP, "run"))
@example(case=("data", f"institution,IC\ni_1,{OVERSIZED}\n".encode("utf-8"), "run"))
@example(case=("targets", NON_UTF8, "search-cut"))
def test_corrupted_input_ends_in_exit_0_or_a_tagged_exit_2(tmp_path_factory, capsys, case):
    which, content, command = case
    code, err = run_with(tmp_path_factory.mktemp("hostile"), which, content, command, capsys)
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
    code, err = run_with(tmp_path, which, content, command, capsys)
    what = "override" if which in ("partitions", "ordered") else which
    assert code == 2
    assert err.startswith(f"error [stage:{STAGES[which]}] cannot read {what} {tmp_path}")


def test_oversized_csv_cell_is_a_load_error_naming_its_line(tmp_path, capsys):
    rows = DATA.splitlines()
    rows[2] = rows[2].replace(",", f",{OVERSIZED}", 1)
    code, err = run_with(tmp_path, "data", "\n".join(rows).encode("utf-8"), "run", capsys)
    assert code == 2
    assert err.startswith("error [stage:load] line 3: field larger than field limit")
