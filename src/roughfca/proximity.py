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
through the exact ``Decimal`` path.
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
    diagonal, then pairs i < j in row-major order, symmetry before sum.
    """
    out: list[ProximityViolation] = []
    objs = rel.objects
    mu_d, nu_d = np.diagonal(rel.mu), np.diagonal(rel.nu)
    for i in np.flatnonzero((mu_d != 1.0) | (nu_d != 0.0)).tolist():
        out.append(ProximityViolation(
            "reflexivity", (objs[i], objs[i]),
            f"diagonal is ({mu_d[i].item():.6g}, {nu_d[i].item():.6g}), expected (1, 0)"))
    iu, ju = np.triu_indices(rel.size, 1)
    mu, nu = rel.mu[iu, ju], rel.nu[iu, ju]
    mu_t, nu_t = rel.mu[ju, iu], rel.nu[ju, iu]
    total = mu + nu
    asym = (mu != mu_t) | (nu != nu_t)
    over = total > 1.0
    for k in np.flatnonzero(asym | over).tolist():
        pair = (objs[iu[k]], objs[ju[k]])
        if asym[k]:
            out.append(ProximityViolation(
                "symmetry", pair,
                f"({mu[k].item():.6g}, {nu[k].item():.6g}) vs "
                f"({mu_t[k].item():.6g}, {nu_t[k].item():.6g})"))
        if over[k]:
            out.append(ProximityViolation(
                "sum", pair, f"mu + nu = {total[k].item():.6g} > 1"))
    return out


def round_half_up(x: float, places: int = 3) -> float:
    """Decimal round-half-up, the convention used in emitted reports."""
    q = Decimal(1).scaleb(-places)
    return float(Decimal(repr(x)).quantize(q, rounding=ROUND_HALF_UP))


#: Three-decimal text of k / 1000 for k = 0 .. 1000.
_CELL_TEXT = np.array([f"{k // 1000}.{k % 1000:03d}" for k in range(1001)], dtype=object)


def _cell_texts(row: np.ndarray) -> np.ndarray:
    """Three-decimal texts of one row of degrees, as ``round_half_up`` and
    ``:.3f`` give them.  A cell in [0, 1] more than 1e-9 from a half-way
    point reads its text from the table: the product ``x * 1000`` is within
    about 2e-13 of the shortest repr of x times 1000, so it falls on the
    same side of the tie.  Every other cell, -0.0 included, goes through
    ``Decimal``."""
    row = np.asarray(row, dtype=np.float64)
    in_range = (row <= 1.0) & ~np.signbit(row)  # False for NaN
    scaled = np.where(in_range, row, 0.0) * 1000.0
    floor = np.floor(scaled)
    frac = scaled - floor
    texts = _CELL_TEXT[(floor + (frac > 0.5)).astype(np.int16)]
    for j in np.flatnonzero(~in_range | (np.abs(frac - 0.5) <= 1e-9)).tolist():
        texts[j] = f"{round_half_up(row[j].item()):.3f}"
    return texts


def _label_field(label: str) -> str:
    """``label`` and the comma after it, as ``csv.writer`` starts a row."""
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow((label, ""))
    return line.getvalue()[:-1]


def proximity_to_csv(rel: IFProximityRelation) -> str:
    """Render the relation as a CSV cross table with "mu,nu" cells rounded
    to three decimals (cells are quoted since they contain commas).

    Rounding is half up on the shortest decimal repr of each degree, as
    :func:`round_half_up` does it.  Cells are rendered a row at a time: a
    degree in [0, 1] away from a half-way point takes its text from a
    1001-entry table, and near-ties (within 1e-9 of one), degrees outside
    [0, 1] and non-finite degrees fall back to ``Decimal``.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([rel.attribute, *rel.objects])
    # one row's text as pieces: mu "," nu '","' per cell.  A cell holds a
    # comma and no quote, so csv.writer would wrap it in quotes and no more.
    pieces = np.empty((rel.size, 4), dtype=object)
    pieces[:, 1] = ","
    pieces[:, 3] = '","'
    if rel.size:
        pieces[-1, 3] = '"\n'
    for i, x in enumerate(rel.objects):
        pieces[:, 0] = _cell_texts(rel.mu[i])
        pieces[:, 2] = _cell_texts(rel.nu[i])
        buf.write(_label_field(x) + '"' + "".join(pieces.ravel().tolist()))
    return buf.getvalue()
