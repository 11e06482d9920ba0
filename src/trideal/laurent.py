"""Sparse bivariate Laurent polynomials over the integers, and the product
identity whose constant terms generate the deal counts.

A polynomial is stored as a dict mapping exponent pairs (ex, ey) to nonzero
integer coefficients; exponents may be negative and coefficients are exact
Python ints.  Only the ring operations needed here are provided: addition,
subtraction, multiplication, nonnegative powers, and constant-term
extraction.  Instances are immutable by convention; every operation returns
a new polynomial.

The walk behind the constant terms does not use the general product: it
packs each row of the power into one int, w bits a cell (Kronecker
substitution x -> 2**w), so a step by the 7-term base is a few shift-adds of
whole rows.  The coefficients of base**n are positive and sum to 9**n, so
cells with 9**n < 2**w never carry; they are whole bytes, widened O(log n)
times to the width of twice as many steps (the multipoint refinement of
Kronecker substitution, Harvey, J. Symbolic Comput. 44, 2009).  The base's
Newton polygon is the hexagon of the A2 lattice (Samol and van Straten,
arXiv:0911.0797): in (ex, ey, ez = -ex - ey), the twelve maps that permute
the three exponents, and may negate them all, map the base and so every
power onto itself.  The walk stores only the twelfth 0 <= ey <= ex, of which
every term is an image, and for the constant terms to max_n crops base**n to
the hexagonal radius max_n - n, the cells that can still reach x**0 * y**0.
For the whole power, each stored cell is written to its twelve images in
one frame, which ``base_power`` reads into a ``LaurentPoly`` and
``base_power_text`` prints one total degree at a time.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Iterator, Mapping

from .model import _ROUTES, _require_nonneg

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
#: walks n stencil steps over at most n // 2 + 1 packed rows of the twelfth,
#: O(n**2) whole-row shift-adds on ints of at most n + 3 cells, each the
#: whole bytes that 9**n needs, so O(n**4) bit operations: at n = 200 the
#: cropped walk of sequence_term packs 83 M output bits and the uncropped
#: walk of base_power 0.39 G.  base_power_text(n), the text of ``ct --poly``,
#: adds O(n**3) digits for its 3n**2 + 3n + 1 terms.
CT_GUARD = 200


def _monomial_text(ex: int, ey: int) -> str:
    parts = []
    if ex:
        parts.append("x" if ex == 1 else f"x^{ex}")
    if ey:
        parts.append("y" if ey == 1 else f"y^{ey}")
    return "*".join(parts)


class LaurentPoly:
    """Immutable sparse Laurent polynomial in x and y, its exponents and coefficients ints."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[tuple[int, int], int] | None = None):
        self._coeffs: dict[tuple[int, int], int] = {
            key: c for key, c in (coeffs or {}).items() if c != 0
        }
        # exactly ints, by model._require_nonneg's rule: an equal float or bool
        # would compare and hash like the int, yet print x^2.0 for x^2
        for (ex, ey), c in self._coeffs.items():
            if not ex.__class__ is ey.__class__ is c.__class__ is int:
                raise ValueError(f"need int exponents and coefficient, got {(ex, ey)!r}: {c!r}")

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
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._coeffs == rhs._coeffs

    def __hash__(self) -> int:
        # Constants equal their int, so they must hash like it too.
        if self._coeffs.keys() <= {(0, 0)}:
            return hash(self.constant_term())
        return hash(frozenset(self._coeffs.items()))

    @staticmethod
    def _coerce(value: object) -> "LaurentPoly | None":
        """An operand as a ``LaurentPoly``: an int, a bool among them, keeps Python's meaning."""
        if isinstance(value, LaurentPoly):
            return value
        if isinstance(value, int):
            return LaurentPoly.constant(int(value))
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

    Returns (base, factor1, factor2).  The base is one denomination's
    choices: 1 (out of play) plus x**(red's load - 1) * y**(green's load - 1)
    for each routing of the deal rule in ``model._ROUTES``.  The published

        base = 1 + (1 + x)(1 + y/x)(1 + 1/y) = factor1 * factor2

    with factor1 = 1 + (1 + x)/y and factor2 = 1 + y(1 + 1/x) is its check.
    The constant term of base**n = factor1**n * factor2**n counts the deals
    over n denominations.
    """
    one = LaurentPoly.constant(1)
    x = LaurentPoly.monomial(1, 0)
    x_inv = LaurentPoly.monomial(-1, 0)
    y = LaurentPoly.monomial(0, 1)
    y_inv = LaurentPoly.monomial(0, -1)
    base = sum((LaurentPoly.monomial(r.count(0) - 1, r.count(1) - 1) for r in _ROUTES), one)
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


def _step(rows: list[int], w: int, radius: int) -> list[int]:
    """One step of the walk: the packed twelfth of a power times the base, cropped to ``radius``.

    ``rows[ey]`` packs row ey of the twelfth 0 <= ey <= ex, w bits a cell:
    cell i holds the coefficient of x**(ey + i - 2) * y**ey.  Cells 0 and 1
    are ghosts, 0 outside a step, and rows past the end are 0.  The result
    holds rows 0..radius // 2 of the product, its cells of ex + ey > radius
    dropped.  Every input cell must be at most its coefficient and every
    coefficient of the product below 2**w (see ``_width``), so that no
    partial sum carries.
    """
    height = radius // 2 + 1
    rows = rows[: height + 1] + [0] * (height + 1 - len(rows))
    # Swapping ex and ey maps cells 3 and 4 of row ey, (ey + 1, ey) and
    # (ey + 2, ey), onto the ghosts of rows ey + 1 and ey + 2.  Row 0's
    # ghosts are (2, 0) and (1, 0) negated, and (-1, 1) permutes (1, 0, -1).
    cell, head = (1 << w) - 1, (1 << 5 * w) - 1
    ones = [(row & head) >> 3 * w & cell for row in rows]
    twos = [(row & head) >> 4 * w for row in rows]
    ghosts = zip([twos[0], ones[0], *twos], [ones[0], *ones])
    rows = [row + (low + (high << w)) for row, (low, high) in zip(rows, ghosts)]
    # (ex, -1) is (ex - 1, 1) under (ex, ey, ez) -> (-ez, -ey, -ex): row -1 is
    # row 1 moved up three cells.  Output cell i reads cells i - 1, i and i + 1
    # of its row (the base's x, 3 and x^-1), i + 1 and i + 2 of the row below
    # (y and x^-1*y), and i - 1 and i - 2 of the row above (y^-1 and x*y^-1).
    below = [rows[1] << 3 * w, *rows]
    return [
        (3 * same + ((same + above + (above << w)) << w) + ((same + under + (under >> w)) >> w))
        & ((1 << (radius - 2 * ey + 3) * w) - (1 << 2 * w))
        for ey, (under, same, above) in enumerate(zip(below, rows, rows[1:]))
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
    """The packed twelfths of base**0, ..., base**max_n, each with its cell width w.

    Base**n is kept to the hexagonal radius r = n, or with ``crop``
    min(n, max_n - n): rows ey = 0..r // 2 of cells ex = ey - 2..r - ey (see
    ``_step``).  Cells are whole bytes, only as wide as the coefficients
    they can hold so far: before step n, if 9**n no longer fits in a cell,
    every row is widened once to the byte width of step min(max_n, 2n), so a
    walk widens O(log max_n) times.
    Raises ValueError, on first iteration, for max_n < 0 or max_n > CT_GUARD.
    """
    _check_exponent(max_n)
    # base**0: cell 2 of row 0, x**0 * y**0, is 1
    rows, size = [1 << 16], 1
    yield rows, 8 * size
    for n in range(1, max_n + 1):
        if _width(n) > 8 * size:
            wider = (_width(min(max_n, 2 * n)) + 7) // 8
            # row 0 of base**(n - 1) is the longest, of at most n + 2 cells
            rows = [_widen(row, n + 2, size, wider) for row in rows]
            size = wider
        # Each base monomial moves ex, ey and ex+ey by at most 1, so a monomial
        # whose hexagonal radius exceeds the steps left never returns to (0, 0):
        # dropping it changes no coefficient read later.
        rows = _step(rows, 8 * size, min(n, max_n - n) if crop else n)
        yield rows, 8 * size


def _unfold(n: int, form: Callable[[int], object]) -> list[list]:
    """The whole of base**n as one frame: row ey + n holds ``form`` of the cells ex = -n..n.

    Cells off the hexagon are None.  Each cell (ex, ey) of the uncropped
    walk's twelfth is cut from its packed row, formed once and written to
    its twelve images, the permutations of (ex, ey, ez = -ex - ey) as they
    are and negated.  The six with ey >= 0 are written into the rows
    ey = 0..n: (ex, ey) and (ez, ey) by two slices of row ey, then (ey, ex),
    (ez, ex), (-ex, -ez) and (-ey, -ez).  Their negations fill the rows
    ey < 0, each the backward copy of a row ey > 0.
    """
    for rows, w in _walk(n, crop=False):
        pass
    size = w // 8
    half = [[None] * (2 * n + 1) for _ in range(n + 1)]
    for ey, packed in enumerate(rows):
        raw = (packed >> 2 * w).to_bytes((n - 2 * ey + 1) * size, "little")
        cuts = range(0, len(raw), size)
        cells = [form(int.from_bytes(raw[i : i + size], "little")) for i in cuts]
        half[ey][n + ey : 2 * n + 1 - ey] = cells
        half[ey][: n + 1 - 2 * ey] = cells[::-1]
        for ex, c in enumerate(cells, ey):
            half[ex][n + ey] = half[ex][n - ex - ey] = c
            half[ex + ey][n - ex] = half[ex + ey][n - ey] = c
    return [row[::-1] for row in half[:0:-1]] + half


def base_power(n: int) -> LaurentPoly:
    """The whole base**n, 3n**2 + 3n + 1 terms, as a ``LaurentPoly``.

    Read from the frame of ``_unfold``, whose uncropped walk's O(n**2)
    whole-row shift-adds cost most.  ``ct --poly`` prints the same frame
    through ``base_power_text``; ``to_text`` stays that text's definition.
    Raises ValueError for n < 0 or n > CT_GUARD.
    """
    rows = enumerate(_unfold(n, int), -n)
    terms = {(ex, ey): c for ey, row in rows for ex, c in enumerate(row, -n) if c is not None}
    return LaurentPoly(terms)


def base_power_text(n: int) -> Iterator[str]:
    """``base_power(n).to_text()`` in chunks, one per total degree, without a ``LaurentPoly``.

    The walk to n runs when this is called, so it raises ValueError then for
    n < 0 or n > CT_GUARD; the chunks are formed as they are read.  Their
    order is ``to_text``'s: total degree t = ex + ey from n down to -n, and
    within a degree ex descending: one antidiagonal of the frame from
    ``_unfold``, whose stored cells were each turned to text once.  Each
    monomial is two per-exponent strings; later chunks open with " + ".
    """
    return _degree_texts(_unfold(n, lambda c: "" if c == 1 else f"{c}*"))


def _degree_texts(frame: list[list[str | None]]) -> Iterator[str]:
    """The chunks of ``base_power_text`` from the frame of "c*" texts, "" for c = 1."""
    n = len(frame) // 2
    # x^ex with its "*" at index n - ex, so ex descends along the list, and
    # y^ey at index n + ey, each written as _monomial_text writes it
    xs = ["" if ex == 0 else "x*" if ex == 1 else f"x^{ex}*" for ex in range(n, -n - 1, -1)]
    ys = ["" if ey == 0 else "y" if ey == 1 else f"y^{ey}" for ey in range(-n, n + 1)]
    for t in range(n, -n - 1, -1):
        # ey = low..high and ex = high..low: " + ", c*, x^ex and y^ey a term
        low, high = max(-n, t - n), min(n, t + n)
        pieces = [" + "] * 4 * (high - low + 1)
        pieces[1::4] = [row[n + high - i] for i, row in enumerate(frame[n + low : n + high + 1])]
        pieces[2::4] = xs[n - high : n - low + 1]
        pieces[3::4] = ys[n + low : n + high + 1]
        # the term of ey = 0 has no "*" after its x^ex, and at t = 0 it is the
        # bare constant, 1 only for n = 0
        pieces[2 - 4 * low] = xs[n - t][:-1]
        if t == 0:
            pieces[1 + 4 * n] = frame[n][n][:-1] or "1"
        if t == n:
            pieces[0] = ""
        yield "".join(pieces)


def constant_terms(max_n: int) -> Iterator[int]:
    """Constant terms of base**0, base**1, ..., base**max_n from one walk.

    The cropped walk: step n builds the twelfth of base**n to the hexagonal
    radius min(n, max_n - n), every cell that can still reach x**0 * y**0
    (see ``_walk``); the constant term is cell 2 of row 0.  The walk to
    max_n = 100 packs 5.8 M output bits, and the walk to CT_GUARD = 200
    83 M, a fifth of the uncropped walk's.  Raises ValueError, on first
    iteration, for max_n < 0 or max_n > CT_GUARD.
    """
    for rows, w in _walk(max_n, crop=True):
        yield (rows[0] >> 2 * w) & ((1 << w) - 1)


def sequence_term(n: int) -> int:
    """Constant term of base**n: term n of the deal-count sequence 1, 3, 15, 93, 639, ...

    The last value of constant_terms(n): n stencil steps on the packed
    twelfth of the power, cropped to the monomials that can still reach
    x**0 * y**0, with cells only as wide as each step needs, O(n**2)
    whole-row shift-adds.  The whole base**n, from base_power, takes the
    same steps uncropped, five times the packed bits (0.39 G at n = 200).
    """
    for term in constant_terms(n):
        pass
    return term
