"""Intuitionistic fuzzy proximity relations over numeric attributes.

For an attribute with admissible range [1, R] the degree of similarity
between two values x, y is the pair (mu, nu) with

    mu(x, y) = 1 - |x - y| / R          (membership)
    nu(x, y) = |x - y| / (2 (x + y))    (non-membership)

Both are symmetric, the diagonal is (1, 0), and nu < 1/2 whenever x != y.
The intuitionistic constraint mu + nu <= 1 is NOT guaranteed by these
formulas: it fails exactly when x != y and x + y < R / 2.  Violations are
therefore reported by :func:`validate_proximity` rather than clamped, and
downstream consumers decide whether to proceed.

Reports print each degree rounded half up to three decimals, taken on the
shortest decimal repr of the float (:func:`round_half_up`): 0.0045 prints as
0.005 although its double lies just below the tie, where ``round(x, 3)``
gives 0.004.
:func:`proximity_to_csv` reads most cells from a table of the 1001 texts of
[0, 1] and sends only near-ties, values outside [0, 1] and non-finite values
through the exact ``Decimal`` path.  It renders a block of whole rows per
numpy pass: one pass per row pays numpy's fixed cost per call on every row,
and one pass over the whole matrix holds several times the output text in
temporaries, so blocks keep the peak memory near the size of the text.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .table import InformationTable


def membership_degree(x: float, y: float, range_max: float) -> float:
    """1 - |x-y|/range_max.  Values are expected in [1, range_max]."""
    return 1.0 - abs(x - y) / range_max


def nonmembership_degree(x: float, y: float) -> float:
    """|x-y| / (2(x+y)).  Zero on the diagonal, strictly below 1/2 otherwise."""
    return abs(x - y) / (2.0 * (x + y))


@dataclass(frozen=True, eq=False)
class IFProximityRelation:
    """Dense symmetric matrix of (mu, nu) degrees for one attribute."""

    attribute: str
    objects: tuple[str, ...]
    mu: np.ndarray
    nu: np.ndarray
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = len(self.objects)
        if self.mu.shape != (n, n) or self.nu.shape != (n, n):
            raise ValueError("degree matrices must be |U| x |U|")
        self.mu.setflags(write=False)
        self.nu.setflags(write=False)
        object.__setattr__(self, "_index", {o: i for i, o in enumerate(self.objects)})

    @property
    def size(self) -> int:
        return len(self.objects)

    def degree(self, x: str, y: str) -> tuple[float, float]:
        i, j = self._index[x], self._index[y]
        return float(self.mu[i, j]), float(self.nu[i, j])


def build_proximity(table: InformationTable, attribute: str) -> IFProximityRelation:
    """Full-precision proximity matrix for one numeric attribute."""
    spec = table.spec(attribute)
    if not spec.numeric:
        raise ValueError(f"attribute {attribute!r} is nominal, proximity needs numeric values")
    vals = np.array(table.column(attribute), dtype=float)
    diff = np.abs(vals[:, None] - vals[None, :])
    mu = 1.0 - diff / spec.range_max
    nu = diff / (2.0 * (vals[:, None] + vals[None, :]))
    return IFProximityRelation(attribute, table.objects, mu, nu)


@dataclass(frozen=True)
class ProximityViolation:
    """One failed axiom: kind is "reflexivity", "symmetry" or "sum"."""

    kind: str
    pair: tuple[str, str]
    detail: str


def validate_proximity(rel: IFProximityRelation) -> list[ProximityViolation]:
    """Check reflexivity, symmetry and the constraint mu + nu <= 1 for every
    pair.  Returns an empty list iff all three hold; violations carry the
    offending pair and axiom name.  Order: reflexivity failures along the
    diagonal, then pairs i < j in row-major order, symmetry before sum.  One
    masked pass over the full matrices finds the failing pairs, and only
    their values are gathered.
    """
    out: list[ProximityViolation] = []
    objs, mu, nu = rel.objects, rel.mu, rel.nu
    diag = np.flatnonzero((np.diagonal(mu) != 1.0) | (np.diagonal(nu) != 0.0))
    for i, m, n in zip(diag.tolist(), mu[diag, diag].tolist(), nu[diag, diag].tolist()):
        out.append(ProximityViolation(
            "reflexivity", (objs[i], objs[i]), f"diagonal is ({m:.6g}, {n:.6g}), expected (1, 0)"))
    asym = (mu != mu.T) | (nu != nu.T)
    total = mu + nu
    over = total > 1.0
    iu, ju = np.nonzero(np.triu(asym | over, 1))
    for i, j, sym, above, m, n, m_t, n_t, t in zip(
            iu.tolist(), ju.tolist(), asym[iu, ju].tolist(), over[iu, ju].tolist(),
            mu[iu, ju].tolist(), nu[iu, ju].tolist(), mu[ju, iu].tolist(), nu[ju, iu].tolist(),
            total[iu, ju].tolist()):
        pair = (objs[i], objs[j])
        if sym:
            out.append(ProximityViolation(
                "symmetry", pair, f"({m:.6g}, {n:.6g}) vs ({m_t:.6g}, {n_t:.6g})"))
        if above:
            out.append(ProximityViolation("sum", pair, f"mu + nu = {t:.6g} > 1"))
    return out


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


def _header_and_row_starts(rel: IFProximityRelation) -> tuple[str, list[str]]:
    """The header line, and each row's label field up to the opening quote
    of its first cell, as ``csv.writer`` writes them.  One writer serves
    them all: CPython's writer holds a 128 KiB record buffer while it lives."""
    line = io.StringIO()
    writer = csv.writer(line, lineterminator="\n")
    writer.writerow([rel.attribute, *rel.objects])
    header = line.getvalue()
    starts = []
    for label in rel.objects:
        line.seek(0)
        line.truncate()
        writer.writerow((label, ""))
        starts.append(line.getvalue()[:-1] + '"')
    return header, starts


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
    header, starts = _header_and_row_starts(rel)
    n = rel.size
    rows = max(1, _BLOCK_CELLS // max(n, 1))
    # a block's text as pieces, per row: the label field and the opening
    # quote, then mu "," nu '","' per cell, with '"\n' closing the last
    # cell.  A cell holds a comma and no quote, so csv.writer would wrap it
    # in quotes and no more.
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
