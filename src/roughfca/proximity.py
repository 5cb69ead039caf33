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
which are the relation's own read-only copies.

Reports print each degree rounded half up to three decimals, taken on the
shortest decimal repr of the float (:func:`round_half_up`): 0.0045 prints as
0.005 although its double lies just below the tie, where ``round(x, 3)``
gives 0.004.
:func:`proximity_to_csv` renders a block of whole rows per numpy pass: one
pass per row pays numpy's fixed cost per call on every row, and one pass
over the whole matrix holds several times the output text in temporaries.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
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
    read-only copies that no array or view the caller keeps can change."""

    attribute: str
    objects: tuple[str, ...]
    mu: np.ndarray
    nu: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.objects)
        if self.mu.shape != (n, n) or self.nu.shape != (n, n):
            raise ValueError("degree matrices must be |U| x |U|")
        for field in ("mu", "nu"):
            matrix = getattr(self, field).copy()
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
                               nonmembership_degree(x, y))


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


#: Three-decimal text of k / 1000 for k = 0 .. 1000.
_CELL_TEXT = np.array([f"{k // 1000}.{k % 1000:03d}" for k in range(1001)], dtype=object)

#: Cells rendered per numpy pass, in whole rows and at least one row.
_BLOCK_CELLS = 1024


def _cell_texts(block: np.ndarray) -> np.ndarray:
    """Three-decimal texts of a 2-D block of degrees, as ``round_half_up``
    and ``:.3f`` give them.  A cell in [0, 1] more than 1e-9 from a half-way
    point reads its text from the table: the product ``x * 1000`` is within
    about 2e-13 of the shortest repr of x times 1000, so it falls on the
    same side of the tie.  Every other cell, -0.0 included, goes through
    ``Decimal``."""
    block = np.asarray(block, dtype=np.float64)
    in_range = (block <= 1.0) & ~np.signbit(block)  # False for NaN
    scaled = np.where(in_range, block, 0.0) * 1000.0
    floor = np.floor(scaled)
    frac = scaled - floor
    texts = _CELL_TEXT[(floor + (frac > 0.5)).astype(np.int16)]
    for i, j in zip(*np.nonzero(~in_range | (np.abs(frac - 0.5) <= 1e-9))):
        texts[i, j] = f"{round_half_up(block[i, j].item()):.3f}"
    return texts


def proximity_to_csv(rel: IFProximityRelation) -> str:
    """Render the relation as a CSV cross table with "mu,nu" cells rounded
    to three decimals (cells are quoted since they contain commas).

    Rounding is half up on the shortest decimal repr of each degree, as
    :func:`round_half_up` does it: a degree in [0, 1] away from a half-way
    point takes its text from a 1001-entry table, and near-ties (within 1e-9
    of one), degrees outside [0, 1] and non-finite degrees fall back to
    ``Decimal``.  Rows are rendered a block at a time, as many whole rows as
    fit in ``_BLOCK_CELLS`` cells, which bounds the temporaries of each
    numpy pass and so keeps the peak memory near twice the output.
    """
    n = rel.size
    header = ",".join([csv_field(rel.attribute, not n), *map(csv_field, rel.objects)]) + "\n"
    # each row's label field up to the opening quote of its first cell
    starts = [csv_field(label) + ',"' for label in rel.objects]
    rows = max(1, _BLOCK_CELLS // max(n, 1))
    # a block's text as pieces, per row: the label field and the opening
    # quote, then mu "," nu '","' per cell, with '"\n' closing the last
    # cell.  A cell holds a comma and no quote, so it is quoted and no more.
    pieces = np.empty((min(rows, n), 1 + 4 * n), dtype=object)
    pieces[:, 2::4] = ","
    pieces[:, 4::4] = '","'
    pieces[:, -1] = '"\n'
    parts = [header]
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        k = stop - start
        pieces[:k, 0] = starts[start:stop]
        pieces[:k, 1::4] = _cell_texts(rel.mu[start:stop])
        pieces[:k, 3::4] = _cell_texts(rel.nu[start:stop])
        parts.append("".join(pieces[:k].ravel().tolist()))
    del pieces  # free the pieces before the join copies the text
    return "".join(parts)
