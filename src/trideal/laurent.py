"""Sparse bivariate Laurent polynomials over the integers, and the product
identity whose constant terms generate the deal counts.

A polynomial is stored as a dict mapping exponent pairs (ex, ey) to nonzero
integer coefficients; exponents may be negative and coefficients are exact
Python ints.  Only the ring operations needed here are provided: addition,
subtraction, multiplication, nonnegative powers, and constant-term
extraction.  Instances are immutable by convention; every operation returns
a new polynomial.

The walk behind the constant terms does not use the general product: it
packs each row of a square frame of the power into one int, w bits a cell
(Kronecker substitution x -> 2**w), so one step by the 7-term base is a few
shift-adds of whole rows.  All coefficients of base**n are positive and sum
to 9**n, so a w with 9**n < 2**w keeps every cell from carrying into the
next.  The cells are whole bytes and only as wide as the step needs: the
walk widens them, O(log n) times, whenever 9**n outgrows them, to the width
of twice as many steps (the multipoint refinement of Kronecker substitution,
Harvey, J. Symbolic Comput. 44, 2009).  The walk stores only the rows
ey >= 0.  The base's Newton polygon is the hexagon of the A2 lattice
(Samol and van Straten, arXiv:0911.0797), and the reflection
(ex, ey) -> (ex + ey, -ey) maps its seven monomials onto themselves, so
every power is symmetric under it: row -1, the one row below the middle a
step reads, is row 1 shifted up one cell.  The walk for the constant terms
to max_n grows its frame for ceil(max_n / 2) steps, then shrinks it a ring a
step, building only a square that holds every cell that can still reach
x**0 * y**0.  The rows are unpacked only when the whole power is asked
for: ``base_power_text`` prints it straight from the cells, one total degree
at a time, each term of ey < 0 read at its mirror image, and ``base_power``
builds a ``LaurentPoly`` from the same cells.
"""

from __future__ import annotations

from functools import cache
from operator import add
from typing import Iterator, Mapping

from .model import _require_nonneg

__all__ = [
    "CT_GUARD",
    "LaurentPoly",
    "base_power",
    "base_power_text",
    "constant_terms",
    "identity_polynomials",
    "sequence_term",
]

#: Largest n accepted by base_power, constant_terms and sequence_term.  Each
#: walks n stencil steps over the n + 1 packed rows ey >= 0 at most, the rows
#: below read from their mirror images, O(n**2) whole-row shift-adds in all on
#: ints of at most 2n + 1 cells, each cell the whole bytes that 9**n needs,
#: so O(n**4) bit operations: at n = 200 the cropped walk of sequence_term,
#: which grows to radius 100 and shrinks back, packs 0.60 G output bits and
#: the uncropped walk of base_power 3.02 G.  The text that ``ct --poly``
#: prints, base_power_text(n), adds O(n**3) digits for its 3n**2 + 3n + 1 terms.
CT_GUARD = 200


def _monomial_text(ex: int, ey: int) -> str:
    parts = []
    if ex:
        parts.append("x" if ex == 1 else f"x^{ex}")
    if ey:
        parts.append("y" if ey == 1 else f"y^{ey}")
    return "*".join(parts)


class LaurentPoly:
    """Immutable sparse Laurent polynomial in x and y."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[tuple[int, int], int] | None = None):
        self._coeffs: dict[tuple[int, int], int] = {
            key: c for key, c in (coeffs or {}).items() if c != 0
        }

    @classmethod
    def constant(cls, value: int) -> "LaurentPoly":
        return cls({(0, 0): value})

    @classmethod
    def monomial(cls, ex: int, ey: int, coeff: int = 1) -> "LaurentPoly":
        return cls({(ex, ey): coeff})

    @property
    def coefficients(self) -> dict[tuple[int, int], int]:
        """A copy of the (exponent pair -> coefficient) map; zeros never stored."""
        return dict(self._coeffs)

    def coefficient(self, ex: int, ey: int) -> int:
        return self._coeffs.get((ex, ey), 0)

    def constant_term(self) -> int:
        """The coefficient at x**0 * y**0, or 0 if absent."""
        return self._coeffs.get((0, 0), 0)

    def support(self) -> set[tuple[int, int]]:
        return set(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        # Constants equal their int, so they must hash like it too.
        if self._coeffs.keys() <= {(0, 0)}:
            return hash(self.constant_term())
        return hash(frozenset(self._coeffs.items()))

    @staticmethod
    def _coerce(value: "LaurentPoly | int") -> "LaurentPoly | None":
        if isinstance(value, LaurentPoly):
            return value
        if isinstance(value, int):
            return LaurentPoly.constant(value)
        return None

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        total = dict(self._coeffs)
        for key, c in rhs._coeffs.items():
            total[key] = total.get(key, 0) + c
        return LaurentPoly(total)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({key: -c for key, c in self._coeffs.items()})

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs + (-self)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        total: dict[tuple[int, int], int] = {}
        for (ax, ay), ac in self._coeffs.items():
            for (bx, by), bc in rhs._coeffs.items():
                key = (ax + bx, ay + by)
                total[key] = total.get(key, 0) + ac * bc
        return LaurentPoly(total)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "LaurentPoly":
        """``exponent`` multiplications by ``self``; p**0 is 1.  Negative exponents rejected."""
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError(f"negative power {exponent} not supported")
        result = LaurentPoly.constant(1)
        for _ in range(exponent):
            result = result * self
        return result

    @staticmethod
    def _term_order(key: tuple[int, int]) -> tuple[int, int, int]:
        ex, ey = key
        return (ex + ey, ex, ey)

    def to_text(self) -> str:
        """Render in descending graded-lex order with exact decimal coefficients.

        Example: ``x + y + x*y^-1 + 3 + x^-1*y + y^-1 + x^-1``.
        """
        if not self._coeffs:
            return "0"
        pieces: list[str] = []
        for key in sorted(self._coeffs, key=self._term_order, reverse=True):
            c = self._coeffs[key]
            mono = _monomial_text(*key)
            if mono:
                body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            else:
                body = str(abs(c))
            if not pieces:
                pieces.append(f"-{body}" if c < 0 else body)
            else:
                pieces.append(f" - {body}" if c < 0 else f" + {body}")
        return "".join(pieces)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_text()})"


@cache
def identity_polynomials() -> tuple[LaurentPoly, LaurentPoly, LaurentPoly]:
    """The three polynomials of the product identity behind the deal counts.

    Returns (base, factor1, factor2) built structurally from

        base    = 1 + (1 + x)(1 + y/x)(1 + 1/y)
        factor1 = 1 + (1 + x)/y
        factor2 = 1 + y(1 + 1/x)

    Since factor1 * factor2 = base, also base**n = factor1**n * factor2**n
    for every n, and the constant term of base**n equals the total number of
    deals over n denominations.
    """
    one = LaurentPoly.constant(1)
    x = LaurentPoly.monomial(1, 0)
    x_inv = LaurentPoly.monomial(-1, 0)
    y = LaurentPoly.monomial(0, 1)
    y_inv = LaurentPoly.monomial(0, -1)
    base = one + (one + x) * (one + y * x_inv) * (one + y_inv)
    factor1 = one + (one + x) * y_inv
    factor2 = one + y * (one + x_inv)
    return base, factor1, factor2


def _check_exponent(n: int) -> None:
    _require_nonneg(n)
    if n > CT_GUARD:
        raise ValueError(f"n={n} exceeds the constant-term guard ({CT_GUARD})")


def _width(n: int) -> int:
    """Bits per packed cell for the walk to base**n.

    Every coefficient of base is positive and they sum to base(1, 1) = 9, so
    the coefficients of base**m sum to 9**m: each one, and every partial sum
    of a stencil step toward one, is at most 9**m <= 9**n < 2**width(n).  No
    packed field ever carries into its neighbour.
    """
    return (9 ** n).bit_length()


def _below(rows: list[int], w: int) -> int:
    """Row ey = -1 of the square frame whose rows ey >= 0 are ``rows``: row 1 moved up a cell.

    The reflection M(ex, ey) = (ex + ey, -ey) maps the base's seven monomials
    onto themselves, so every power of the base is M-invariant, and M sends
    (ex - 1, 1) to (ex, -1).  The mask drops the cell shifted past the frame
    and the cell at ex = -r is left 0: both have |ex + ey| = r + 1, outside the
    hexagon the frame's cells can hold or still need.  A frame of radius 0 has
    no row 1, and its row -1 is 0.
    """
    if len(rows) == 1:
        return 0
    return (rows[1] << w) & ((1 << (2 * len(rows) - 1) * w) - 1)


def _times_base(rows: list[int], w: int) -> list[int]:
    """One step of the walk: the packed half frame of ``power`` times the base.

    ``rows[ey]``, for ey = 0..r, packs row ey of the square frame of radius
    r = len(rows) - 1 into one int: the coefficient of x**ex * y**ey sits in
    bits [(ex + r)*w, (ex + r + 1)*w).  The rows ey < 0 are not stored; a
    step reads row -1 from row 1 (``_below``).  The result is the half frame
    of radius r + 1 for ``power * base``.  Cells must be non-negative and
    every output cell below 2**w (see ``_width``).
    """
    padded = [_below(rows, w), *rows, 0, 0]
    # Output row ey reads input rows ey - 1, ey and ey + 1 (below, same and
    # above), and its cell i has the ex of input cell i - 1, so a shift by w
    # keeps ex.  With left = below + same and right = same + above, the row is
    # left + ((left + right + same) << w) + (right << 2w), the terms carrying
    # the base's x^-1 and x^-1*y, its 3, y and y^-1, and its x and x*y^-1.
    # Row ey's left is row ey - 1's right, so each pair of adjacent rows is
    # summed once, with its own cells shifted up by w added (``sides``), and
    # the row is sides[ey] + ((same + sides[ey + 1]) << w).
    sides = [pair + (pair << w) for pair in map(add, padded, padded[1:])]
    return [
        left + ((same + right) << w) for left, same, right in zip(sides, padded[1:], sides[1:])
    ]


def _times_base_cropped(rows: list[int], w: int) -> list[int]:
    """``_times_base(rows, w)`` cropped to the square of radius r - 1, built only inside it.

    The input half frame has radius r >= 1: the crop cuts two cells off each
    end of the rows ``_times_base`` would build, and keeps output rows
    0..r - 1.  Output row j reads input rows j - 1, j and j + 1, with row -1
    from ``_below``, and cell i reads input cells i, i + 1 and i + 2, so the
    crop's shift by 2w is folded into downward shifts and its mask into one
    ``&`` a row.  No cell of a partial sum below exceeds the output cell it
    feeds, so none carries, and dropping low cells term by term drops the
    same cells of the sum.
    """
    keep = (1 << (2 * len(rows) - 3) * w) - 1
    rows = [_below(rows, w), *rows]
    # Row j's left, below + same, is row j - 1's right, same + above: each is
    # summed once, with its own cells shifted down by w added.
    sides = [pair + (pair >> w) for pair in map(add, rows, rows[1:])]
    # ((left + (left >> w) + same) >> w) + right + (right >> w) is
    # (left >> 2w) + ((left + right + same) >> w) + right: the three terms of
    # _times_base, each shifted down by the 2w the crop cuts.
    return [
        (((left + same) >> w) + right) & keep
        for left, same, right in zip(sides, rows[1:], sides[1:])
    ]


def _widen(row: int, cells: int, size: int, wider: int) -> int:
    """A packed row of ``cells`` cells, ``size`` bytes each, repacked at ``wider`` bytes a cell.

    Byte b of every cell moves in one strided slice assignment, so a row is
    widened in ``size`` copies whatever its number of cells.
    """
    old = row.to_bytes(cells * size, "little")
    new = bytearray(cells * wider)
    for b in range(size):
        new[b::wider] = old[b::size]
    return int.from_bytes(new, "little")


def _walk(max_n: int, crop: bool) -> Iterator[tuple[list[int], int]]:
    """The packed half frames of base**0, ..., base**max_n, each with its cell width w.

    A half frame of radius r is rows ey = 0..r of the square frame, 2r + 1
    cells each; the rows below are their mirror images (``_below``), which a
    step reads and never stores.  Cells are whole bytes, only as wide as the
    coefficients they can hold so far: before step n, if 9**n no longer fits
    in a cell, every row is widened once to the byte width of step
    min(max_n, 2n), so a walk widens O(log max_n) times.  With ``crop``, the
    frame grows while n <= ceil(max_n / 2), and each later step builds only
    the square one ring smaller (``_times_base_cropped``), of radius
    2 * ceil(max_n / 2) - n >= max_n - n.
    Raises ValueError, on first iteration, for max_n < 0 or max_n > CT_GUARD.
    """
    _check_exponent(max_n)
    rows, size = [1], 1
    yield rows, 8 * size
    for n in range(1, max_n + 1):
        if _width(n) > 8 * size:
            wider = (_width(min(max_n, 2 * n)) + 7) // 8
            rows = [_widen(row, 2 * len(rows) - 1, size, wider) for row in rows]
            size = wider
        w = 8 * size
        # Each base monomial moves ex, ey and ex+ey by at most 1, so a monomial
        # whose hexagonal radius exceeds the steps left never returns to (0, 0):
        # dropping it changes no coefficient read later.  The square of radius
        # max_n - n holds that hexagon, so cropping to it or a larger one is
        # exact too.  The mirror keeps the hexagonal radius, so a mirrored cell
        # is exact wherever it can still reach (0, 0); every other stored cell
        # is at most its true coefficient, so none carries.
        grow = not crop or 2 * n <= max_n + 1
        rows = _times_base(rows, w) if grow else _times_base_cropped(rows, w)
        yield rows, w


def _half_frame(walk: Iterator[tuple[list[int], int]]) -> list[list[int]]:
    """The cells of the last half frame ``walk`` yields: row ey lists those of ex = -r..r - ey.

    Each packed row is cut into its cells by ``to_bytes`` slices, and only
    the hexagon's cells are kept: those of ex > r - ey are 0.
    """
    for rows, w in walk:
        pass
    size, cells = w // 8, 2 * len(rows) - 1
    half = []
    for ey, row in enumerate(rows):
        data = row.to_bytes(cells * size, "little")
        starts = range(0, (cells - ey) * size, size)
        half.append([int.from_bytes(data[i : i + size], "little") for i in starts])
    return half


def base_power(n: int) -> LaurentPoly:
    """The whole base**n, 3n**2 + 3n + 1 terms, as a ``LaurentPoly``.

    The uncropped walk to n, its cells widened as the coefficients grow,
    ends on the half frame of rows ey = 0..n.  Row ey holds the hexagon's
    cells ex = -n..n - ey (``_half_frame``); each also fills its mirror
    image (ex + ey, -ey), so the rows ey < 0 are never built.  The walk's
    O(n**2) whole-row shift-adds cost most; the dict then takes one entry
    per term.  ``ct --poly`` prints the same power from the
    same cells through ``base_power_text``, and ``to_text`` stays the
    readable definition of that text.
    Raises ValueError for n < 0 or n > CT_GUARD.
    """
    coeffs = {}
    for ey, row in enumerate(_half_frame(_walk(n, crop=False))):
        for ex, c in enumerate(row, -n):
            coeffs[ex, ey] = coeffs[ex + ey, -ey] = c
    return LaurentPoly(coeffs)


def base_power_text(n: int) -> Iterator[str]:
    """``base_power(n).to_text()`` in chunks, one per total degree, without a ``LaurentPoly``.

    The walk to n runs when this is called, so it raises ValueError then for
    n < 0 or n > CT_GUARD; the chunks are formed as they are read.  Their
    order is ``to_text``'s: total degree t = ex + ey from n down to -n, and
    within a degree ex descending.  The terms of degree t with ey < 0 come
    first, and each is read at its mirror image (t, -ey): column t of the
    rows 1, 2, ... of the half frame.  The rest, ey = 0, 1, ..., lie on the
    antidiagonal ex = t - ey of the stored rows.  Each stored cell is
    converted to decimal once, for itself and its mirror image (the constant
    once more, bare), and each monomial is two per-exponent strings; every
    chunk after the first opens with its " + ".
    """
    return _degree_texts(_half_frame(_walk(n, crop=False)))


def _degree_texts(half: list[list[int]]) -> Iterator[str]:
    """The chunks of ``base_power_text`` from the cells of the last half frame."""
    n = len(half) - 1
    # "c*" before a monomial, and nothing for c = 1
    coefs = [["" if c == 1 else f"{c}*" for c in row] for row in half]
    # x^ex with its "*" at index n - ex, so ex descends along the list, and
    # y^ey at index n + ey, each written as _monomial_text writes it
    xs = ["" if ex == 0 else "x*" if ex == 1 else f"x^{ex}*" for ex in range(n, -n - 1, -1)]
    ys = ["" if ey == 0 else "y" if ey == 1 else f"y^{ey}" for ey in range(-n, n + 1)]
    for t in range(n, -n - 1, -1):
        # degree t has ``below`` terms of ey < 0, then those of ey = 0..above;
        # a " + ", a coefficient, x^ex and y^ey for each, joined at once
        col, below, above = t + n, min(n - t, n), min(n + t, n)
        pieces = [" + "] * 4 * (below + 1 + above)
        pieces[1::4] = [row[col] for row in coefs[below:0:-1]] + [
            row[col - ey] for ey, row in enumerate(coefs[: above + 1])
        ]
        pieces[2::4] = xs[n - t - below : n - t + above + 1]
        pieces[3::4] = ys[n - below : n + above + 1]
        # the term of ey = 0 has no "*" after its x^ex, and at t = 0 it is the
        # bare constant
        head = 4 * below + 1
        pieces[head : head + 2] = (coefs[0][col], xs[n - t][:-1]) if t else (str(half[0][n]), "")
        if t == n:
            pieces[0] = ""
        yield "".join(pieces)


def constant_terms(max_n: int) -> Iterator[int]:
    """Constant terms of base**0, base**1, ..., base**max_n from one walk.

    The cropped walk: step n builds the half frame of base**n, rows ey >= 0,
    to radius n up to n = ceil(max_n / 2) and one ring less each step after,
    a square that holds every monomial of those rows that can still reach
    x**0 * y**0, each cell whole bytes, widened only when 9**n outgrows it
    (see ``_walk``).  The constant term is the middle cell of row 0.  The
    walk to max_n = 100 packs 38.7 M output bits, and the walk to
    CT_GUARD = 200 packs 0.60 G, half the bits of the whole square.  Raises
    ValueError, on first iteration, for max_n < 0 or max_n > CT_GUARD.
    """
    for rows, w in _walk(max_n, crop=True):
        yield (rows[0] >> (len(rows) - 1) * w) & ((1 << w) - 1)


def sequence_term(n: int) -> int:
    """Constant term of base**n: term n of the deal-count sequence 1, 3, 15, 93, 639, ...

    The last value of constant_terms(n): n stencil steps on the rows ey >= 0
    of a square frame of packed rows, row -1 read from row 1 by the base's
    mirror symmetry, cropped to the monomials that can still reach
    x**0 * y**0, with cells only as wide as each step needs, O(n**2)
    whole-row shift-adds.  The whole base**n, from base_power, takes the
    same steps uncropped, five times the packed bits (3.02 G at n = 200).
    """
    for term in constant_terms(n):
        pass
    return term
