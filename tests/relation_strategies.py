"""Hypothesis strategies for intuitionistic fuzzy proximity relations.

``table_relations`` builds the relation of one numeric column read through
``load_table``, as a pipeline run does, and ``numeric_tables`` a table of
a few such columns.  ``hand_built_relations`` fills both
matrices cell by cell with values that are hard to round or to compare:
exact decimal ties, ties one ulp off, -0.0, values outside [0, 1], NaN and
infinities.  ``perturbed_relations`` breaks a few cells of a table relation,
so that most pairs pass validation and a few fail.  ``json_names`` draws
the attribute and object names that the JSON documents must escape.
``spread_relation`` is the fixed relation of the scale guards.
"""

import math

import numpy as np
from hypothesis import strategies as st

from roughfca.proximity import IFProximityRelation, build_proximity
from roughfca.table import AttributeSpec, InformationTable, load_table

#: Cells whose shortest repr lies exactly half-way between two three-decimal
#: values.  The double of 0.0045 lies below its tie: rounding the double
#: itself gives 0.004, the repr rounds half up to 0.005.
DECIMAL_TIES = (0.0015, 0.0025, 0.0045, 0.0125)

#: Cells outside the ordinary range of a degree.
ODD_CELLS = (0.0, -0.0, 1.0, -0.25, 1.0005, 1.5, 12.0, math.nan, math.inf, -math.inf)


def near_tie(k: int, side: int) -> float:
    """The double nearest (k + 0.5) / 1000, or its neighbour one ulp below
    (side -1) or above (side 1)."""
    tie = (k + 0.5) / 1000
    return tie if side == 0 else math.nextafter(tie, side * math.inf)


cell_values = st.one_of(
    st.sampled_from(DECIMAL_TIES + ODD_CELLS),
    st.builds(near_tie, st.integers(0, 999), st.sampled_from((-1, 0, 1))),
    st.floats(0.0, 1.0),
    st.floats(-2.0, 2.0),
)

#: Labels that csv.writer must quote or leave alone.
labels = st.text(alphabet='ab ,"\n\r', max_size=3)

#: Names that a JSON document must escape: quotes, backslashes, control
#: characters, non-ASCII, lone surrogates; the empty name included.
json_names = st.text(st.characters(codec=None, exclude_categories=())
                     | st.sampled_from('"\\\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600'),
                     max_size=5)


def _column_tokens(draw, r: int, n: int) -> list[str]:
    """n cells of integer or two-decimal values in [1, r]."""
    if draw(st.booleans()):
        return [str(v) for v in draw(st.lists(st.integers(1, r), min_size=n, max_size=n))]
    return [f"{v / 100:.2f}"
            for v in draw(st.lists(st.integers(100, 100 * r), min_size=n, max_size=n))]


@st.composite
def table_relations(draw, max_objects: int = 12) -> IFProximityRelation:
    """The relation of a column of integer or two-decimal values in [1, R],
    R from 5 to 1000."""
    r = draw(st.integers(5, 1000))
    n = draw(st.integers(1, max_objects))
    tokens = _column_tokens(draw, r, n)
    text = "object,a\n" + "".join(f"o{i},{t}\n" for i, t in enumerate(tokens))
    return build_proximity(load_table(text, [AttributeSpec("a", range_max=r)]), "a")


@st.composite
def numeric_tables(draw, max_objects: int = 8, max_attributes: int = 3) -> InformationTable:
    """A table of one to ``max_attributes`` columns a0, a1, ..., each of
    integer or two-decimal values in [1, R] with its own R from 5 to 1000."""
    n = draw(st.integers(1, max_objects))
    ranges = draw(st.lists(st.integers(5, 1000), min_size=1, max_size=max_attributes))
    names = [f"a{k}" for k in range(len(ranges))]
    columns = [_column_tokens(draw, r, n) for r in ranges]
    rows = "".join(f"o{i}," + ",".join(col[i] for col in columns) + "\n" for i in range(n))
    specs = [AttributeSpec(name, range_max=r) for name, r in zip(names, ranges)]
    return load_table("object," + ",".join(names) + "\n" + rows, specs)


@st.composite
def hand_built_relations(draw, max_objects: int = 6) -> IFProximityRelation:
    """Arbitrary cells: neither symmetric nor reflexive in general."""
    n = draw(st.integers(1, max_objects))
    objects = draw(st.lists(labels, min_size=n, max_size=n, unique=True))
    mu, nu = (np.array(draw(st.lists(cell_values, min_size=n * n, max_size=n * n)))
              .reshape(n, n) for _ in range(2))
    return IFProximityRelation("a", tuple(objects), mu, nu)


@st.composite
def perturbed_relations(draw) -> IFProximityRelation:
    """A table relation with a few cells, diagonal ones included, replaced."""
    rel = draw(table_relations())
    mu, nu = np.array(rel.mu), np.array(rel.nu)
    for _ in range(draw(st.integers(1, 4))):
        matrix = mu if draw(st.booleans()) else nu
        i, j = draw(st.integers(0, rel.size - 1)), draw(st.integers(0, rel.size - 1))
        matrix[i, j] = draw(cell_values)
    return IFProximityRelation(rel.attribute, rel.objects, mu, nu)


def spread_relation(n: int) -> IFProximityRelation:
    """The relation of n objects with values spread over [1, 1000], R = 1000:
    at n = 1000 the values are a permutation of 1-1000."""
    rows = "".join(f"o{i},{i * 7919 % 1000 + 1}\n" for i in range(n))
    return build_proximity(load_table("object,a\n" + rows, [AttributeSpec("a", range_max=1000)]), "a")
