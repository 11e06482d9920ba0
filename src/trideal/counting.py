"""Exact closed-form counts for the deal family.

Everything here is arbitrary-precision integer arithmetic; values grow
exponentially in n and must never be truncated.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import add, mul
from typing import Iterable, Iterator

from .model import _require_nonneg

__all__ = [
    "binomial",
    "franel",
    "lhs_sum",
    "lhs_terms",
    "red_distinct_count",
    "red_prefix_sum",
    "red_set_count",
    "rhs_sum",
    "rhs_terms",
    "vandermonde_inner",
]


def _require_int(name: str, value: int) -> None:
    """Raise ValueError unless the argument is exactly an ``int``, not a ``bool``.

    A bool would otherwise count as 0 or 1, and a float fail inside
    ``math.comb`` or be reported as the wrong argument.
    """
    if value.__class__ is not int:
        raise ValueError(f"need an int {name}, got {value!r}")


def _require_k_range(n: int, k: int) -> None:
    _require_nonneg(n)
    _require_int("k", k)
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")


def binomial(n: int, k: int) -> int:
    """C(n, k), with the convention C(n, k) = 0 for k < 0 or k > n."""
    _require_nonneg(n)
    _require_int("k", k)
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def franel(n: int) -> int:
    """Franel number sum_j C(n, j)**3: full-deck deals over n denominations."""
    _require_nonneg(n)
    return sum(binomial(n, j) ** 3 for j in range(n + 1))


def _pascal_rows(max_n: int) -> Iterator[list[int]]:
    """Rows 0..max_n of Pascal's triangle, row n built by addition from row n - 1.

    Raises ValueError, on first iteration, for max_n < 0.
    """
    _require_nonneg(max_n)
    row = [1]
    for n in range(max_n + 1):
        if n:
            row = [1, *map(add, row, row[1:]), 1]
        yield row


def _franel_terms(max_n: int) -> Iterator[int]:
    """franel(0), franel(1), ..., franel(max_n) from one walk down Pascal's triangle.

    Step n cubes row n by products.  The row is symmetric, C(n, j) =
    C(n, n - j), so franel(n) is twice the cubes of its entries j < n/2,
    plus C(n, n/2)**3 for even n.  Raises ValueError, on first iteration,
    for max_n < 0.
    """
    for row in _pascal_rows(max_n):
        half, middle = divmod(len(row), 2)
        first = row[:half]
        cubes = map(mul, map(mul, first, first), first)
        yield 2 * sum(cubes) + (row[half] ** 3 if middle else 0)


def _binomial_transform(terms: Iterable[int]) -> Iterator[int]:
    """sum_k C(n, k) * t(k) for n = 0, 1, ..., one for each term t(n) of terms.

    The walk keeps one diagonal of the difference table, by Pascal's rule:
    after t(n), entry m is sum_i C(m, i) * t(n - m + i), so the last entry,
    m = n, is the sum for n.  Step n costs n + 1 additions and no product.
    """
    diagonal: list[int] = []
    for term in terms:
        diagonal = [*accumulate(diagonal, initial=term)]
        yield diagonal[-1]


def lhs_terms(max_n: int) -> Iterator[int]:
    """lhs_sum(0), lhs_sum(1), ..., lhs_sum(max_n): the binomial transform of franel.

    The walk to max_n costs O(max_n**2) big-integer additions beside the
    Franel sums' O(max_n**2) cubes.  Raises ValueError, on first iteration,
    for max_n < 0.
    """
    return _binomial_transform(_franel_terms(max_n))


def lhs_sum(n: int) -> int:
    """All deals, counted by denomination-set size: sum_k C(n, k) * franel(k).

    The readable sum, with each C(n, k) from binomial, so it checks the
    transform in lhs_terms rather than repeating it.
    """
    return sum(binomial(n, k) * f for k, f in enumerate(_franel_terms(n)))


def rhs_sum(n: int) -> int:
    """All deals, counted by red's distinct denominations: sum_k C(n, k)**2 * C(2k, k)."""
    _require_nonneg(n)
    return sum(binomial(n, k) ** 2 * binomial(2 * k, k) for k in range(n + 1))


def red_set_count(n: int, k: int) -> int:
    """Deals whose red hand shows one fixed k-element denomination set: C(n, k) * C(2k, k)."""
    _require_k_range(n, k)
    return binomial(n, k) * binomial(2 * k, k)


def red_distinct_count(n: int, k: int) -> int:
    """Deals with exactly k distinct denominations in red's hand: C(n, k)**2 * C(2k, k)."""
    return binomial(n, k) * red_set_count(n, k)


def vandermonde_inner(k: int, a: int) -> int:
    """sum_b C(k-a, b) * C(k+a, k-b); equals C(2k, k) for every 0 <= a <= k."""
    _require_int("k", k)
    _require_int("a", a)
    if not 0 <= a <= k:
        raise ValueError(f"need 0 <= a <= k, got a={a}, k={k}")
    return sum(binomial(k - a, b) * binomial(k + a, k - b) for b in range(k + 1))


def red_prefix_sum(n: int) -> int:
    """sum_k C(n, k) * C(2k, k): deals whose red denominations are a prefix 1..k."""
    _require_nonneg(n)
    return sum(red_set_count(n, k) for k in range(n + 1))


def _central_terms(max_n: int) -> Iterator[int]:
    """C(0, 0), C(2, 1), ..., C(2 max_n, max_n), each from the last.

    Step n gets C(2n, n) from C(2n - 2, n - 1) by one exact multiply and
    divide, so no binomial is computed afresh.  Raises ValueError, on first
    iteration, for max_n < 0.
    """
    _require_nonneg(max_n)
    term = 1
    for n in range(max_n + 1):
        if n:
            term = term * (4 * n - 2) // n
        yield term


def rhs_terms(max_n: int) -> Iterator[int]:
    """rhs_sum(0), rhs_sum(1), ..., rhs_sum(max_n) from one walk down Pascal's triangle.

    Step n takes row n and C(2k, k) for k <= n from the walk and yields
    sum_k C(n, k)**2 * C(2k, k), O(n) big-integer additions and products,
    so the walk to max_n costs O(max_n**2) of them.  Raises ValueError, on
    first iteration, for max_n < 0.
    """
    central: list[int] = []
    for row, term in zip(_pascal_rows(max_n), _central_terms(max_n)):
        central.append(term)
        yield sum(map(mul, map(mul, row, row), central))


def _red_prefix_terms(max_n: int) -> Iterator[int]:
    """red_prefix_sum(0), ..., red_prefix_sum(max_n): the binomial transform of C(2k, k).

    O(max_n**2) big-integer additions.  Raises ValueError, on first
    iteration, for max_n < 0.
    """
    return _binomial_transform(_central_terms(max_n))
