"""Intuitionistic fuzzy proximity relations over numeric attributes.

For an attribute with admissible range [1, R] the degree of similarity
between two values x, y is the pair (mu, nu) with

    mu(x, y) = 1 - |x - y| / R          (membership)
    nu(x, y) = |x - y| / (2 (x + y))    (non-membership)

Both are symmetric, the diagonal is (1, 0), and nu < 1/2 whenever x != y.
:func:`membership_degree` and :func:`nonmembership_degree` define them, on
Python floats for the cut search's sorted passes and elementwise on numpy
arrays.  Python floats round ``-``, ``abs``, ``*`` and ``/`` as numpy's
float64 does, so both share their float expressions bit for bit.
An :class:`IFProximityRelation` holds its attribute's value column, not
its n x n degrees: every degree is a function of two values, so
:func:`validate_proximity`, :func:`~roughfca.approx.cut_graph` and
:func:`proximity_to_csv` compute the degrees where they read them, a block
of ``_BLOCK_CELLS`` cells of whole rows at a time
(:meth:`IFProximityRelation.rows`, the same float expressions with
|x - y| computed once for both), and hold none.  With every value in
[1, R] the relation is reflexive and symmetric with every degree in
[0, 1].  Numpy is imported only where a value column is held or its
degrees computed.
The intuitionistic constraint mu + nu <= 1 is NOT guaranteed by these
formulas: it fails exactly when x != y and x + y < R / 2.  Violations are
therefore reported by :func:`validate_proximity`, as the index pairs of the
objects that break it, rather than clamped, and downstream consumers decide
whether to proceed.

Reports print each degree rounded half up to three decimals, taken on the
shortest decimal repr of the float (:func:`round_half_up`): 0.0045 prints as
0.005 although its double lies just below the tie, where ``round(x, 3)``
gives 0.004.  Every degree lies in [0, 1], so each prints as the five bytes
``d.ddd`` and a row of :func:`proximity_to_csv` is fixed-width after its
label field: 14 bytes a cell.  The renderer rounds ``x * 1000`` with
``np.rint``, sends the near-ties (within 1e-9 of a half-way point) through
``Decimal``, and copies each cell's bytes from 1001-entry tables into a row
buffer, a block of whole rows per numpy pass: one pass per row pays numpy's
fixed cost per call on every row, and one pass over the whole matrix holds
several times the output text in temporaries.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from .table import InformationTable, csv_field

if TYPE_CHECKING:
    import numpy as np
    from numpy.typing import ArrayLike


def membership_degree(x: ArrayLike, y: ArrayLike, range_max: float) -> ArrayLike:
    """The definition of mu, 1 - |x-y|/range_max for values in [1,
    range_max], on numbers or elementwise on numpy arrays."""
    return 1.0 - abs(x - y) / range_max


def nonmembership_degree(x: ArrayLike, y: ArrayLike) -> ArrayLike:
    """The definition of nu, |x-y| / (2(x+y)), on numbers or elementwise
    on numpy arrays.  Zero on the diagonal, strictly below 1/2 otherwise in
    exact arithmetic; in floats it rounds to 1/2 when one value dwarfs the
    other, as 2**60 does 1.

    It is computed as (|x-y| / 4) / (x/2 + y/2), which no value in [1, the
    largest float] overflows.  On that range, which every table
    guarantees, scaling by a power of two is exact and commutes with
    rounding, so wherever 2(x+y) is finite the result is the plain
    expression's, bit for bit.  Below the normal range the scalings round:
    nu(5.712163413475e-311, 5.7121634134754e-311) is 0.0, where the plain
    expression gives 2.16e-14."""
    return (abs(x - y) * 0.25) / (x * 0.5 + y * 0.5)


def numeric_values(table: InformationTable, attribute: str) -> tuple[list[float], float]:
    """The attribute's values in object order as Python floats, and its
    range_max."""
    spec = table.spec(attribute)
    if not spec.numeric:
        raise ValueError(f"attribute {attribute!r} is nominal, proximity needs numeric values")
    return list(map(float, table.column(attribute))), spec.range_max


@dataclass(frozen=True, eq=False)
class IFProximityRelation:
    """The (mu, nu) relation of one attribute, held as its value column in
    object order: a read-only float64 vector, copied out of reach of the
    caller's array and refused unless it holds one value in [1,
    ``range_max``] per object.  :meth:`rows` computes a block of rows of
    the degrees; ``mu`` and ``nu`` compute the whole matrices on each read,
    for tests and counts: the library reads neither."""

    attribute: str
    objects: tuple[str, ...]
    values: np.ndarray
    range_max: float

    def __post_init__(self) -> None:
        import numpy as np

        values = np.array(self.values, dtype=np.float64)
        if values.shape != (len(self.objects),) or not (
                (values >= 1.0) & (values <= self.range_max)).all():  # also refuses NaN
            raise ValueError("a relation holds one value in [1, range_max] per object")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def size(self) -> int:
        return len(self.objects)

    def rows(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """The (mu, nu) degrees of objects ``start`` to ``stop`` against every
        object: two (stop - start) x n arrays.  They are the degree
        functions' float expressions with |x - y| computed once for both,
        so every degree has the bits those functions give it."""
        x, y = self.values[start:stop, None], self.values
        gap = abs(x - y)
        return 1.0 - gap / self.range_max, (gap * 0.25) / (x * 0.5 + y * 0.5)

    @property
    def mu(self) -> np.ndarray:
        """The n x n membership matrix, computed on each read."""
        return membership_degree(self.values[:, None], self.values, self.range_max)

    @property
    def nu(self) -> np.ndarray:
        """The n x n non-membership matrix, computed on each read."""
        return nonmembership_degree(self.values[:, None], self.values)


def build_proximity(table: InformationTable, attribute: str) -> IFProximityRelation:
    """The proximity relation of one numeric attribute: its value column."""
    vals, range_max = numeric_values(table, attribute)
    return IFProximityRelation(attribute, table.objects, vals, range_max)


#: Degrees computed per block: whole rows, at least one.
_BLOCK_CELLS = 4096


def _row_spans(n: int) -> Iterator[tuple[int, int]]:
    """The [start, stop) spans of rows, ``_BLOCK_CELLS`` cells of n-cell
    rows each and at least one row, that cover n rows in order."""
    rows = max(1, _BLOCK_CELLS // max(n, 1))
    for start in range(0, n, rows):
        yield start, min(start + rows, n)


def validate_proximity(rel: IFProximityRelation) -> np.ndarray:
    """The pairs (i, j), i < j, that break mu + nu <= 1, the one axiom a
    relation can fail: a k x 2 array of object indices in row-major order,
    with no row iff no pair does.  One pass over the row blocks finds them."""
    import numpy as np

    n = rel.size
    found = [np.empty((0, 2), dtype=np.intp)]
    for start, stop in _row_spans(n):
        mu, nu = rel.rows(start, stop)
        rows, cols = np.divmod(np.flatnonzero(mu + nu > 1.0), n)
        rows += start
        upper = rows < cols
        found.append(np.column_stack((rows[upper], cols[upper])))
    return np.concatenate(found)


def round_half_up(x: float) -> float:
    """Decimal round-half-up to three places, the convention used in emitted
    reports.  Only near-ties reach it from a render, so ``decimal`` is
    imported here, on first use."""
    from decimal import ROUND_HALF_UP, Decimal

    return float(Decimal(repr(x)).quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


@functools.cache
def _cell_layout() -> tuple[np.dtype, np.ndarray, np.ndarray]:
    """The dtype of a rendered cell and the eight-byte words of a cell for
    the degrees k / 1000, k = 0 .. 1000, as little-endian integers: the mu
    words ``"d.ddd,,`` and the nu words ``,d.ddd",``.  Built on the first
    render.

    A rendered cell is 14 bytes, ``"mu,nu"`` and the comma after it, or the
    newline that ends its row.  The mu word fills bytes 0-7, the nu word
    bytes 6-13, so the nu word is written second: its comma overwrites the
    unused last byte of the mu word."""
    import numpy as np

    cell = np.dtype({"names": ["mu", "nu"], "formats": ["<u8", "<u8"], "offsets": [0, 6],
                     "itemsize": 14})
    texts = [f"{k // 1000}.{k % 1000:03d}" for k in range(1001)]
    mu_words, nu_words = (
        np.frombuffer((first + (last + first).join(texts) + last).encode(), dtype="<u8")
        for first, last in (('"', ",,"), (",", '",')))
    return cell, mu_words, nu_words


def _thousandths(block: np.ndarray) -> np.ndarray:
    """``round_half_up(x) * 1000`` of each degree x in [0, 1] of a 2-D block.
    ``x * 1000`` is within about 2e-13 of the shortest repr of x times 1000,
    so a product more than 1e-9 from a half-way point rounds to the nearest
    integer on the same side of the tie as that repr.  A near-tie goes
    through ``Decimal``."""
    import numpy as np

    scaled = block * 1000.0
    codes = np.rint(scaled)
    scaled -= codes
    for k in np.flatnonzero(np.abs(scaled, out=scaled) >= 0.5 - 1e-9).tolist():
        codes.flat[k] = round(round_half_up(block.flat[k].item()) * 1000)
    del scaled  # before the cast allocates its copy
    return codes.astype(np.intp)


def _row_blocks(rel: IFProximityRelation) -> Iterator[bytes]:
    """The rows of :func:`proximity_to_csv` in UTF-8, a block of rows at a
    time.  The row buffer lives as long as the iterator, so it is freed
    before the caller joins the blocks."""
    import numpy as np

    cell, mu_words, nu_words = _cell_layout()
    n, size = rel.size, cell.itemsize
    labels = [(csv_field(label) + ",").encode("utf-8", "surrogatepass") for label in rel.objects]
    width = size * n
    _, rows = next(_row_spans(n), (0, 0))  # the first block is the largest
    buf = np.empty((rows, n, size), dtype=np.uint8)
    cells, flat = buf.view(cell)[..., 0], memoryview(buf.reshape(-1))
    for start, stop in _row_spans(n):
        for field, words, degrees in zip(("mu", "nu"), (mu_words, nu_words), rel.rows(start, stop)):
            np.take(words, _thousandths(degrees), out=cells[field][:stop - start], mode="clip")
        buf[:, -1, -1] = ord("\n")  # in place of the last nu word's comma
        # each row's label field, then its slice of the buffer
        yield b"".join([piece for i in range(stop - start)
                        for piece in (labels[start + i], flat[i * width:(i + 1) * width])])


def proximity_to_csv(rel: IFProximityRelation) -> str:
    """Render the relation as a CSV cross table with "mu,nu" cells rounded
    half up to three decimals, as :func:`round_half_up` does it (cells are
    quoted since they contain commas).  After its label field a row is n
    cells of 14 bytes, ``"d.ddd,d.ddd"`` and a comma, or the newline after
    the last cell, rendered a block of ``_BLOCK_CELLS`` cells at a time as
    the module docstring describes."""
    header = ",".join([csv_field(rel.attribute, not rel.size), *map(csv_field, rel.objects)])
    text = b"".join([(header + "\n").encode("utf-8", "surrogatepass"), *_row_blocks(rel)])
    return text.decode("utf-8", "surrogatepass")
