"""Seeded input generators for the benchmark workloads.

Every table is a function of (profile, seed) alone, drawn with
``random.Random`` so the same seed gives the same bytes on every platform.
The program under test only ever sees the files written by
:func:`write_inputs`: a data CSV, a pipeline config and, for the cut
search, a list of target partitions.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from reference import partition_docs, table_blocks

RANGE_MAX = 1000
CENTRES = (200, 420, 640, 860)  # tiers 220 apart: no cut edge at alpha 0.9 joins two tiers
NOISE = 20
SHAPE_SEED = 20110809  # any fixed value; changing it changes every recorded digest
KEEP_TIER = 0.9
ALPHA, BETA = 0.9, 0.05
SEARCH_STEP = 0.005  # the search-cut default


@dataclass(frozen=True)
class Profile:
    """A table shape: objects, attributes, whether attributes share a tier,
    and the dense-rank ranges that cut the ranking into clusters."""

    objects: int
    attributes: int
    tiered: bool
    rank_ranges: tuple[tuple[int, int], ...]


def shape(profile: Profile) -> list[list[tuple[int, int]]]:
    """(centre index, value) of every cell, drawn once per profile from
    SHAPE_SEED.  A tiered object has a latent tier, balanced over the four
    centres, that each attribute keeps with probability 0.9; otherwise every
    attribute draws its centre independently.  Values lie within +-20 of
    their centre."""
    rng = random.Random(SHAPE_SEED)
    tiers = [i % len(CENTRES) for i in range(profile.objects)]
    rng.shuffle(tiers)
    cells = []
    for tier in tiers:
        row = []
        for _ in range(profile.attributes):
            if not profile.tiered:
                centre = rng.randrange(len(CENTRES))
            elif rng.random() < KEEP_TIER:
                centre = tier
            else:
                centre = rng.choice([t for t in range(len(CENTRES)) if t != tier])
            row.append((centre, CENTRES[centre] + rng.randint(-NOISE, NOISE)))
        cells.append(row)
    return cells


def generate_rows(profile: Profile, seed: int) -> list[tuple[str, list[int]]]:
    """Rows of (label, values) for one seed.  The seed shuffles the objects
    and, within each attribute, deals each centre's values out anew among
    the objects at that centre.

    So every seed keeps each attribute's multiset of values and each
    object's centres: the partitions, the formal contexts (up to object
    order) and the number of distinct edge masks of the cut search are the
    same for every seed, and so is the work.  Which values share a row, the
    proximity matrices and every report byte change with the seed.  Random
    centre patterns moved the FCA cost by 50% between seeds and random
    values the search cost by 10%, drowning the regressions this benchmark
    looks for."""
    rng = random.Random(seed)
    cells = shape(profile)
    rng.shuffle(cells)
    for k in range(profile.attributes):
        for centre in range(len(CENTRES)):
            rows = [row for row in cells if row[k][0] == centre]
            values = [row[k][1] for row in rows]
            rng.shuffle(values)
            for row, value in zip(rows, values):
                row[k] = (centre, value)
    width = len(str(profile.objects))
    return [(f"o_{i + 1:0{width}d}", [value for _, value in row])
            for i, row in enumerate(cells)]


def attribute_names(profile: Profile) -> list[str]:
    return [f"X{k + 1}" for k in range(profile.attributes)]


def table_csv(profile: Profile, rows: list[tuple[str, list[int]]]) -> str:
    lines = [",".join(["object", *attribute_names(profile)])]
    lines += [",".join([label, *map(str, values)]) for label, values in rows]
    return "\n".join(lines) + "\n"


def config_doc(profile: Profile, data_name: str) -> dict:
    return {
        "data": data_name,
        "alpha": ALPHA,
        "beta": BETA,
        "force": True,  # the low tier has mu + nu > 1 pairs, like the bundled table
        "block_order": "mean",
        "attributes": [{"name": name, "kind": "numeric", "range_max": RANGE_MAX}
                       for name in attribute_names(profile)],
        "rank_ranges": [list(r) for r in profile.rank_ranges],
    }


@dataclass(frozen=True)
class Inputs:
    """Files written for one generated table, paths relative to the checkout,
    and the reference partitions at the configured cut."""

    config: Path
    targets: Path
    blocks: dict[str, frozenset[frozenset[str]]]


def write_inputs(profile: Profile, seed: int, directory: Path) -> Inputs:
    """Write data, config and target partitions (the reference partitions of
    every attribute) under ``directory``.  Paths stay relative so that report
    trees, which echo them, do not depend on where the checkout lives."""
    directory.mkdir(parents=True, exist_ok=True)
    rows = generate_rows(profile, seed)
    blocks = table_blocks(attribute_names(profile), rows, RANGE_MAX, ALPHA, BETA)
    (directory / "table.csv").write_text(table_csv(profile, rows), encoding="utf-8")
    config = directory / "config.json"
    config.write_text(json.dumps(config_doc(profile, "table.csv"), indent=2) + "\n",
                      encoding="utf-8")
    targets = directory / "targets.json"
    docs = partition_docs(blocks, [label for label, _ in rows])
    targets.write_text(json.dumps(docs, indent=2) + "\n", encoding="utf-8")
    return Inputs(config, targets, blocks)
