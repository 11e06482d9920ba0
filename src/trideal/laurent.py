"""Sparse bivariate Laurent polynomials over the integers, and the product
identity whose constant terms generate the deal counts.

A polynomial is stored as a dict mapping exponent pairs (ex, ey) to nonzero
integer coefficients; exponents may be negative and coefficients are exact
Python ints.  Only the ring operations needed here are provided: addition,
subtraction, multiplication, nonnegative powers, and constant-term
extraction.  Instances are immutable by convention; every operation returns
a new polynomial.
"""

from __future__ import annotations

from functools import cache
from typing import Mapping

__all__ = ["CT_GUARD", "LaurentPoly", "identity_polynomials", "sequence_term"]

#: Largest n accepted by sequence_term; base**n carries ~(2n+1)**2 terms.
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
        """Square-and-multiply power; p**0 is 1.  Negative exponents rejected."""
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError(f"negative power {exponent} not supported")
        result = LaurentPoly.constant(1)
        square = self
        e = exponent
        while e:
            if e & 1:
                result = result * square
            e >>= 1
            if e:
                square = square * square
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


def sequence_term(n: int) -> int:
    """Constant term of base**n: term n of the deal-count sequence 1, 3, 15, 93, 639, ...

    Guarded at n <= CT_GUARD because the power's term count grows
    quadratically in n.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n > CT_GUARD:
        raise ValueError(f"n={n} exceeds the constant-term guard ({CT_GUARD})")
    base, _, _ = identity_polynomials()
    return (base ** n).constant_term()
