import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # golden / oracles helpers

CRITERIA = {
    1: "proximity fidelity",
    2: "cut recovery for the five reproducible partitions",
    3: "documented ECA divergence and override",
    4: "ordered table",
    5: "ranking and clusters",
    6: "implication bases",
    7: "frequencies and chief attributes",
    8: "randomized property suites",
    9: "determinism",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    outcomes: dict[int, bool] = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            match = re.search(r"test_acceptance\.py::test_c(\d+)", getattr(report, "nodeid", ""))
            if match:
                crit = int(match.group(1))
                outcomes[crit] = outcomes.get(crit, True) and status == "passed"
    if outcomes:
        terminalreporter.write_sep("-", "acceptance criteria")
        for crit in sorted(outcomes):
            verdict = "PASS" if outcomes[crit] else "FAIL"
            terminalreporter.write_line(f"criterion {crit} ({CRITERIA[crit]}): {verdict}")

from roughfca.approx import CutParams, cut_graph, partition_from_cut
from roughfca.proximity import build_proximity
from roughfca.table import AttributeSpec, InformationTable, Partition, load_table

REPO_ROOT = Path(__file__).resolve().parents[1]
DATA_DIR = REPO_ROOT / "data"

INSTITUTION_SPECS = (
    AttributeSpec("IC", range_max=250),
    AttributeSpec("IF", range_max=200),
    AttributeSpec("PP", range_max=385),
    AttributeSpec("RS", range_max=200),
    AttributeSpec("SS", range_max=60),
    AttributeSpec("ECA", range_max=80),
)

#: Sorted values that break the order of nu: nu from the first value rises
#: above the first adjacent nu at the next double up, falls back to it and
#: then below it, so a check of each value's pairs may stop only once they
#: clear the margin, not on the first rise.
RISE_THEN_BREAK = (137.33858426173856, 1912.103823763307, 1912.1038237633072,
                   1912.1038237633074, 1912.1038237633077)

# six-object nominal/numeric example used by the scaling and ordering tests
RND_CSV = """\
object,rd,art,marketing,profit
o_1,No,Yes,High,200
o_2,Yes,No,High,300
o_3,Yes,Yes,Average,200
o_4,No,Yes,Very high,250
o_5,Yes,No,High,300
o_6,No,Yes,Very high,250
"""
RND_SPECS = (
    AttributeSpec("rd", kind="nominal", ladder=("Yes", "No")),
    AttributeSpec("art", kind="nominal", ladder=("Yes", "No")),
    AttributeSpec("marketing", kind="nominal", ladder=("Very high", "High", "Average")),
    AttributeSpec("profit", kind="numeric", range_max=1000),
)


@pytest.fixture(scope="session")
def institutions() -> InformationTable:
    return load_table((DATA_DIR / "institutions.csv").read_text(), INSTITUTION_SPECS)


@pytest.fixture(scope="session")
def relations(institutions):
    return {name: build_proximity(institutions, name)
            for name in institutions.attribute_names}


@pytest.fixture(scope="session")
def cut_partitions(institutions, relations):
    """Partitions computed from the raw data at the reference cut."""
    cut = CutParams(0.92, 0.05)
    return {name: partition_from_cut(cut_graph(rel, cut))
            for name, rel in relations.items()}


@pytest.fixture(scope="session")
def reference_partitions(institutions):
    """Partitions as published, including the irreproducible ECA one."""
    import golden

    return {name: Partition.from_blocks(blocks, institutions.objects)
            for name, blocks in golden.REFERENCE_PARTITIONS.items()}


@pytest.fixture(scope="session")
def case_partitions(cut_partitions, reference_partitions):
    """The published analysis inputs: computed cuts with ECA overridden."""
    parts = dict(cut_partitions)
    parts["ECA"] = reference_partitions["ECA"]
    return parts


@pytest.fixture(scope="session")
def rnd_table() -> InformationTable:
    return load_table(RND_CSV, RND_SPECS)
