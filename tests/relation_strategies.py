"""Hypothesis strategies for intuitionistic fuzzy proximity relations.

``table_relations`` builds the relation of one numeric column read through
``load_table``, as a pipeline run does, and ``numeric_tables`` a table of
a few such columns.  ``DenseRelation`` is the test double of a relation
held as two hand-built degree matrices, for cells that no value column
gives.  ``hand_built_relations`` fills both of its symmetric matrices, off
the (1, 0) diagonal, with degrees that are hard to round or to compare:
exact decimal ties, ties one ulp off, 0.0 and 1.0.
``perturbed_relations`` replaces a few pairs of a table relation, so that
most pairs pass validation and a few fail.  ``json_names`` draws the
attribute and object names that the JSON documents must escape.
``boundary_cuts`` draws a relation of any of these kinds, or the empty one,
with a cut on one of its cells or one ulp from it.  ``spread_relation`` is
the fixed relation of the scale guards.
"""

import math

import numpy as np
from hypothesis import strategies as st

from roughfca.approx import CutParams
from roughfca.proximity import IFProximityRelation, build_proximity
from roughfca.table import AttributeSpec, InformationTable, load_table

#: Cells whose shortest repr lies exactly half-way between two three-decimal
#: values.  The double of 0.0045 lies below its tie: rounding the double
#: itself gives 0.004, the repr rounds half up to 0.005.
DECIMAL_TIES = (0.0015, 0.0025, 0.0045, 0.0125)

#: Cells outside the range of a degree, which a relation refuses.
ODD_CELLS = (-0.0, -0.25, 1.0005, 1.5, 12.0, math.nan, math.inf, -math.inf)


def near_tie(k: int, side: int) -> float:
    """The double nearest (k + 0.5) / 1000, or its neighbour one ulp below
    (side -1) or above (side 1)."""
    tie = (k + 0.5) / 1000
    return tie if side == 0 else math.nextafter(tie, side * math.inf)


#: Degrees of [0, 1]; st.floats(0.0, 1.0) draws no -0.0.
cell_values = st.one_of(
    st.sampled_from(DECIMAL_TIES + (0.0, 1.0)),
    st.builds(near_tie, st.integers(0, 999), st.sampled_from((-1, 0, 1))),
    st.floats(0.0, 1.0),
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


#: The bits of 1.0.  As unsigned integers, the bits of a double order the
#: doubles of [0, 1] among themselves and put -0.0, every other negative
#: double, every double above 1, the infinities and NaN above this value.
_ONE_BITS = 0x3FF0000000000000


class DenseRelation:
    """A relation held as two n x n degree matrices, with the read surface
    of ``IFProximityRelation``: ``attribute``, ``objects``, ``size``,
    ``mu``, ``nu`` and ``rows``.  So hand-built cells reach the renderer,
    the validation and the cut as a relation's degrees do.  The matrices
    are copied as float64, out of reach of the caller's arrays, and refused,
    naming the matrix and its first bad cell, unless every degree lies in
    [0, 1] (-0.0 and NaN excluded), the diagonal is (1, 0) and both are
    symmetric: the three axioms that every relation of values keeps."""

    def __init__(self, attribute: str, objects: tuple[str, ...], mu, nu) -> None:
        self.attribute, self.objects = attribute, objects
        n = len(objects)
        for field, diagonal, matrix in (("mu", 1.0, mu), ("nu", 0.0, nu)):
            matrix = np.array(matrix, dtype=np.float64)
            if matrix.shape != (n, n):
                raise ValueError("degree matrices must be |U| x |U|")
            bad = np.argwhere((matrix.view(np.uint64) > _ONE_BITS) | (matrix != matrix.T)
                              | np.diag(np.diagonal(matrix) != diagonal))
            if len(bad):
                i, j = bad[0].tolist()
                raise ValueError(f"{field}[{i}, {j}] = {matrix.item(i, j)!r}: a degree matrix "
                                 f"is symmetric, in [0, 1] and {diagonal!r} on its diagonal")
            matrix.setflags(write=False)
            setattr(self, field, matrix)

    @property
    def size(self) -> int:
        return len(self.objects)

    def rows(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        return self.mu[start:stop], self.nu[start:stop]


def _symmetric(n: int, diagonal: float, cells: list[float]) -> np.ndarray:
    """The n x n matrix with ``diagonal`` on its diagonal and ``cells``, in
    row-major order, above it and mirrored below it."""
    matrix = np.full((n, n), diagonal)
    upper = np.triu_indices(n, 1)
    matrix[upper] = matrix.T[upper] = cells
    return matrix


@st.composite
def hand_built_relations(draw, max_objects: int = 6) -> DenseRelation:
    """Arbitrary degrees, symmetric and with a (1, 0) diagonal."""
    n = draw(st.integers(1, max_objects))
    objects = draw(st.lists(labels, min_size=n, max_size=n, unique=True))
    pairs = n * (n - 1) // 2
    mu, nu = (_symmetric(n, diagonal, draw(st.lists(cell_values, min_size=pairs, max_size=pairs)))
              for diagonal in (1.0, 0.0))
    return DenseRelation("a", tuple(objects), mu, nu)


@st.composite
def perturbed_relations(draw) -> DenseRelation:
    """A table relation's degrees with a few pairs off the diagonal
    replaced, each cell written at (i, j) and (j, i)."""
    rel = draw(table_relations())
    mu, nu = rel.mu, rel.nu  # computed on read: writeable copies
    for _ in range(draw(st.integers(1, 4)) if rel.size > 1 else 0):
        matrix = mu if draw(st.booleans()) else nu
        i, j = draw(st.lists(st.integers(0, rel.size - 1), min_size=2, max_size=2, unique=True))
        matrix[i, j] = matrix[j, i] = draw(cell_values)
    return DenseRelation(rel.attribute, rel.objects, mu, nu)


def _one_ulp_around(values, low, high):
    """Each value in [low, high] and its neighbours one ulp either side,
    kept inside [low, high]."""
    out = set()
    for v in values:
        if low <= v <= high:
            out.update(min(max(w, low), high)
                       for w in (v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)))
    return sorted(out)


#: A relation over the empty universe.
EMPTY_RELATION = IFProximityRelation("a", (), (), 1.0)


@st.composite
def boundary_cuts(draw):
    """A relation, from a table, hand-built or perturbed, with a cut whose
    thresholds lie on a cell's mu or nu or one ulp either side of it."""
    rel = draw(st.one_of(table_relations(), hand_built_relations(), perturbed_relations(),
                         st.just(EMPTY_RELATION)))
    alphas = _one_ulp_around(np.asarray(rel.mu).ravel().tolist(), 0.0, 1.0)
    alpha = draw(st.sampled_from(alphas) if alphas else st.floats(0.0, 1.0), label="alpha")
    betas = _one_ulp_around(np.asarray(rel.nu).ravel().tolist(), 0.0, 1.0 - alpha)
    beta = draw(st.sampled_from(betas) if betas else st.floats(0.0, 1.0 - alpha), label="beta")
    return rel, CutParams(alpha, beta)


def spread_relation(n: int) -> IFProximityRelation:
    """The relation of n objects with values spread over [1, 1000], R = 1000:
    at n = 1000 the values are a permutation of 1-1000."""
    rows = "".join(f"o{i},{i * 7919 % 1000 + 1}\n" for i in range(n))
    return build_proximity(load_table("object,a\n" + rows, [AttributeSpec("a", range_max=1000)]), "a")
