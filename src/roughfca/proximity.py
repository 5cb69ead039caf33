"""Intuitionistic fuzzy proximity relations over numeric attributes.

For an attribute with admissible range [1, R] the degree of similarity
between two values x, y is the pair (mu, nu) with

    mu(x, y) = 1 - |x - y| / R          (membership)
    nu(x, y) = |x - y| / (2 (x + y))    (non-membership)

Both are symmetric, the diagonal is (1, 0), and nu < 1/2 whenever x != y.
:func:`membership_degree` and :func:`nonmembership_degree`, elementwise on
numpy arrays, are their only definition: the dense matrices and the cut
search's sorted passes share their float expressions bit for bit.
The intuitionistic constraint mu + nu <= 1 is NOT guaranteed by these
formulas: it fails exactly when x != y and x + y < R / 2.  Violations are
therefore reported by :func:`validate_proximity` rather than clamped, and
downstream consumers decide whether to proceed.  Its records are built
only when read (:class:`ProximityViolations`), from the relation's matrices,
which are read-only and the relation's own: :func:`build_proximity` hands
over the matrices it makes, and matrices from anywhere else are copied.

Reports print each degree rounded half up to three decimals, taken on the
shortest decimal repr of the float (:func:`round_half_up`): 0.0045 prints as
0.005 although its double lies just below the tie, where ``round(x, 3)``
gives 0.004.  The degrees of a relation from :func:`build_proximity` lie in
[0, 1], so each prints as the five bytes ``d.ddd`` and a row of
:func:`proximity_to_csv` is fixed-width after its label field: 14 bytes a
cell.  The renderer rounds ``x * 1000`` with ``np.rint``, sends the
near-ties (within 1e-9 of a half-way point) through ``Decimal``, and copies
each cell's bytes from 1001-entry tables into a row buffer, a block of whole
rows per numpy pass: one pass per row pays numpy's fixed cost per call on
every row, and one pass over the whole matrix holds several times the
output text in temporaries.  A degree outside [0, 1], -0.0, NaN or an
infinity, which only a hand-built relation holds, is printed through
``Decimal`` in its cell's place.
"""

from __future__ import annotations

import operator
from dataclasses import InitVar, dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Iterator, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .table import InformationTable, csv_field


def membership_degree(x: ArrayLike, y: ArrayLike, range_max: float) -> ArrayLike:
    """The only definition of mu, 1 - |x-y|/range_max for values in [1,
    range_max], on numbers or elementwise on numpy arrays."""
    return 1.0 - abs(x - y) / range_max


def nonmembership_degree(x: ArrayLike, y: ArrayLike) -> ArrayLike:
    """The only definition of nu, |x-y| / (2(x+y)), on numbers or elementwise
    on numpy arrays.  Zero on the diagonal, strictly below 1/2 otherwise."""
    return abs(x - y) / (2.0 * (x + y))


def numeric_values(table: InformationTable, attribute: str) -> tuple[np.ndarray, float]:
    """The attribute's float values in object order, and its range_max."""
    spec = table.spec(attribute)
    if not spec.numeric:
        raise ValueError(f"attribute {attribute!r} is nominal, proximity needs numeric values")
    return np.array(table.column(attribute), dtype=float), spec.range_max


@dataclass(frozen=True, eq=False)
class IFProximityRelation:
    """Dense symmetric matrix of (mu, nu) degrees for one attribute, held as
    read-only copies that no array or view the caller keeps can change.
    ``_owned`` hands over matrices made for the relation, which nothing else
    references: they are marked read-only in place instead of copied."""

    attribute: str
    objects: tuple[str, ...]
    mu: np.ndarray
    nu: np.ndarray
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned: bool) -> None:
        n = len(self.objects)
        if self.mu.shape != (n, n) or self.nu.shape != (n, n):
            raise ValueError("degree matrices must be |U| x |U|")
        for field in ("mu", "nu"):
            matrix = getattr(self, field) if _owned else getattr(self, field).copy()
            matrix.setflags(write=False)
            object.__setattr__(self, field, matrix)

    @property
    def size(self) -> int:
        return len(self.objects)


def build_proximity(table: InformationTable, attribute: str) -> IFProximityRelation:
    """Full-precision proximity matrix for one numeric attribute."""
    vals, range_max = numeric_values(table, attribute)
    x, y = vals[:, None], vals
    return IFProximityRelation(attribute, table.objects, membership_degree(x, y, range_max),
                               nonmembership_degree(x, y), _owned=True)


@dataclass(frozen=True)
class ProximityViolation:
    """One failed axiom: kind is "reflexivity", "symmetry" or "sum"."""

    kind: str
    pair: tuple[str, str]
    detail: str


#: Violation kinds by code, in the order of a pair's records.
_KINDS = ("reflexivity", "symmetry", "sum")


class ProximityViolations(Sequence[ProximityViolation]):
    """The violations of one relation, as :func:`validate_proximity` finds
    them: each record's kind code and object indices, with the record itself
    built only when an item or slice is read.  The details are formatted
    from the relation's matrices at that point, which is sound because the
    matrices are read-only.  Compares equal to a list, or to another such
    sequence, that holds the same records in the same order."""

    __slots__ = ("_rel", "_kinds", "_rows", "_cols")

    def __init__(self, rel: IFProximityRelation, kinds: np.ndarray,
                 rows: np.ndarray, cols: np.ndarray) -> None:
        self._rel, self._kinds, self._rows, self._cols = rel, kinds, rows, cols

    def __len__(self) -> int:
        return len(self._kinds)

    def __getitem__(self, index: int | slice) -> ProximityViolation | list[ProximityViolation]:
        n = len(self._kinds)
        if isinstance(index, slice):
            return [self._record(k) for k in range(*index.indices(n))]
        k = operator.index(index)
        if not -n <= k < n:
            raise IndexError("violation index out of range")
        return self._record(k % n)

    def __iter__(self) -> Iterator[ProximityViolation]:
        return map(self._record, range(len(self._kinds)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, ProximityViolations)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def _record(self, k: int) -> ProximityViolation:
        kind, i, j = _KINDS[self._kinds.item(k)], self._rows.item(k), self._cols.item(k)
        mu, nu = self._rel.mu.item, self._rel.nu.item
        if kind == "reflexivity":
            detail = f"diagonal is ({mu(i, i):.6g}, {nu(i, i):.6g}), expected (1, 0)"
        elif kind == "symmetry":
            detail = f"({mu(i, j):.6g}, {nu(i, j):.6g}) vs ({mu(j, i):.6g}, {nu(j, i):.6g})"
        else:
            detail = f"mu + nu = {mu(i, j) + nu(i, j):.6g} > 1"
        objs = self._rel.objects
        return ProximityViolation(kind, (objs[i], objs[j]), detail)


def validate_proximity(rel: IFProximityRelation) -> ProximityViolations:
    """Check reflexivity, symmetry and the constraint mu + nu <= 1 for every
    pair.  Returns a read-only sequence of :class:`ProximityViolation`
    records, empty iff all three hold; each carries the offending pair and
    axiom name.  Order: reflexivity failures along the diagonal, then pairs
    i < j in row-major order, symmetry before sum.

    One masked pass over the full matrices finds the failing pairs, and the
    records' kinds and indices are kept as arrays.  A record is built and
    formatted only when it is read, so a caller that reads the count and the
    first example pays for one record, however many pairs fail.
    """
    mu, nu = rel.mu, rel.nu
    diag = np.flatnonzero((np.diagonal(mu) != 1.0) | (np.diagonal(nu) != 0.0))
    asym = (mu != mu.T) | (nu != nu.T)
    over = mu + nu > 1.0
    iu, ju = np.nonzero(asym | over)
    upper = iu < ju
    iu, ju = iu[upper], ju[upper]
    # two slots per failing pair, symmetry then sum, kept where that axiom fails
    found = np.stack((asym[iu, ju], over[iu, ju]), axis=1).ravel()
    kinds = np.concatenate((np.zeros(len(diag), np.int8),
                            np.tile(np.array((1, 2), np.int8), len(iu))[found]))
    rows = np.concatenate((diag, np.repeat(iu, 2)[found]))
    cols = np.concatenate((diag, np.repeat(ju, 2)[found]))
    return ProximityViolations(rel, kinds, rows, cols)


def round_half_up(x: float) -> float:
    """Decimal round-half-up to three places, the convention used in emitted
    reports."""
    return float(Decimal(repr(x)).quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


def _cell_words() -> tuple[np.ndarray, ...]:
    """The eight-byte words of a cell for the degrees k / 1000, k = 0 ..
    1000, as little-endian integers: the mu words ``"d.ddd,,`` and the nu
    words ``,d.ddd",``."""
    texts = [f"{k // 1000}.{k % 1000:03d}" for k in range(1001)]
    return tuple(np.frombuffer((first + (last + first).join(texts) + last).encode(), dtype="<u8")
                 for first, last in (('"', ",,"), (",", '",')))


#: A rendered cell is 14 bytes, ``"mu,nu"`` and the comma after it, or the
#: newline that ends its row.  The mu word fills bytes 0-7, the nu word
#: bytes 6-13, so the nu word is written second: its comma overwrites the
#: unused last byte of the mu word.
_CELL = np.dtype({"names": ["mu", "nu"], "formats": ["<u8", "<u8"], "offsets": [0, 6],
                  "itemsize": 14})
_MU_WORDS, _NU_WORDS = _cell_words()

#: The bits of 1.0.  As unsigned integers, the bits of a double order the
#: doubles of [0, 1] among themselves and put -0.0, every other negative
#: double, every double above 1, the infinities and NaN above this value.
_ONE_BITS = np.float64(1.0).view(np.uint64)

#: Cells rendered per numpy pass, in whole rows and at least one row.
_BLOCK_CELLS = 4096


def _thousandths(block: np.ndarray) -> np.ndarray:
    """``round_half_up(x) * 1000`` of each degree x in [0, 1] of a 2-D block.
    ``x * 1000`` is within about 2e-13 of the shortest repr of x times 1000,
    so a product more than 1e-9 from a half-way point rounds to the nearest
    integer on the same side of the tie as that repr.  A near-tie goes
    through ``Decimal``."""
    scaled = block * 1000.0
    codes = np.rint(scaled)
    scaled -= codes
    for i, j in zip(*np.nonzero(np.abs(scaled, out=scaled) >= 0.5 - 1e-9)):
        codes[i, j] = round(round_half_up(block[i, j].item()) * 1000)
    del scaled  # before the cast allocates its copy
    return codes.astype(np.intp)


def _row_blocks(rel: IFProximityRelation) -> Iterator[bytes]:
    """The rows of :func:`proximity_to_csv` in UTF-8, a block of rows at a
    time.  The row buffer lives as long as the iterator, so it is freed
    before the caller joins the blocks."""
    n, size = rel.size, _CELL.itemsize
    labels = [(csv_field(label) + ",").encode("utf-8", "surrogatepass") for label in rel.objects]
    rows = max(1, _BLOCK_CELLS // max(n, 1))
    width = size * n
    buf = np.empty((min(rows, n), n, size), dtype=np.uint8)
    cells, flat = buf.view(_CELL)[..., 0], memoryview(buf.reshape(-1))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        odd: dict[int, set[int]] = {}  # the columns of each row's odd cells
        for field, words in (("mu", _MU_WORDS), ("nu", _NU_WORDS)):
            block = np.asarray(getattr(rel, field)[start:stop], dtype=np.float64)
            if block.view(np.uint64).max() > _ONE_BITS:
                outside = block.view(np.uint64) > _ONE_BITS
                for i, j in zip(*np.nonzero(outside)):
                    odd.setdefault(i, set()).add(j)
                block = np.where(outside, 0.0, block)
            np.take(words, _thousandths(block), out=cells[field][:stop - start], mode="clip")
        buf[:, -1, -1] = ord("\n")  # in place of the last nu word's comma
        # each row's label field, then its slice of the buffer, split around
        # the text of each odd cell between the cell's quotes
        pieces = []
        for i in range(stop - start):
            pos = i * width
            pieces.append(labels[start + i])
            for j in sorted(odd.get(i, ())):
                cell = i * width + j * size
                mu, nu = rel.mu[start + i, j].item(), rel.nu[start + i, j].item()
                pieces += [flat[pos:cell + 1],
                           f"{round_half_up(mu):.3f},{round_half_up(nu):.3f}".encode()]
                pos = cell + size - 2  # at the closing quote
            pieces.append(flat[pos:(i + 1) * width])
        yield b"".join(pieces)


def proximity_to_csv(rel: IFProximityRelation) -> str:
    """Render the relation as a CSV cross table with "mu,nu" cells rounded
    to three decimals (cells are quoted since they contain commas).

    Rounding is half up on the shortest decimal repr of each degree, as
    :func:`round_half_up` does it.  A degree of [0, 1] prints as the five
    bytes ``d.ddd``, so after its label field a row is n fixed-width cells
    of 14 bytes, ``"d.ddd,d.ddd"`` and a comma, or the newline after the
    last cell.  Rows are rendered a block at a time, as many whole rows as
    fit in ``_BLOCK_CELLS`` cells: each degree is rounded to thousandths by
    ``np.rint`` (:func:`_thousandths`, where a near-tie goes through
    ``Decimal``), each cell's bytes are copied from 1001-entry tables into a
    reused row buffer, and each row's label field is joined with its slice
    of that buffer.  A cell with a degree outside [0, 1], -0.0, NaN or an
    infinity is written over its slot with both degrees through ``Decimal``,
    as :func:`round_half_up` and ``:.3f`` give them, so an infinity raises
    ``InvalidOperation``.  Only hand-built relations hold such degrees.
    """
    header = ",".join([csv_field(rel.attribute, not rel.size), *map(csv_field, rel.objects)])
    text = b"".join([(header + "\n").encode("utf-8", "surrogatepass"), *_row_blocks(rel)])
    return text.decode("utf-8", "surrogatepass")
