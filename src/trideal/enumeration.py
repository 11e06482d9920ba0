"""Exhaustive generation of every deal; the brute-force oracle for all counts.

One loop visits every deal as a denomination subset plus one routing code per
denomination: subsets in lexicographic order (as sorted tuples), then codes in
increasing numeric order.  Counts and histograms are read from the codes;
``Deal`` objects are built only for yielded deals.  Every closed-form count in
the package is checked against the totals and histograms computed here.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Sequence

from .model import COLORS, Card, Color, Deal

__all__ = [
    "EXHAUSTIVE_GUARD",
    "GuardError",
    "STATISTICS",
    "count_deals",
    "enumerate_deals",
    "enumerate_deals_with_red_denoms",
    "enumerate_full_deck_deals",
    "histogram",
    "subsets_lex",
]

#: Default ceiling for exhaustive enumeration (9**n candidate assignments).
EXHAUSTIVE_GUARD = 5


class GuardError(ValueError):
    """Raised when exhaustive work beyond the guard is requested without an override."""

#: Statistics understood by histogram().
STATISTICS = ("s_size", "red_distinct")

# One denomination's three cards have two legal hands each (never the hand
# matching their own color), so a 3-bit code routes them: bit 2 sends the
# red card (0 -> green, 1 -> blue), bit 1 the green card (0 -> red,
# 1 -> blue), bit 0 the blue card (0 -> red, 1 -> green).
_RECIPIENTS: tuple[tuple[Color, Color, Color], ...] = tuple(
    (
        Color.BLUE if code & 4 else Color.GREEN,
        Color.BLUE if code & 2 else Color.RED,
        Color.GREEN if code & 1 else Color.RED,
    )
    for code in range(8)
)
# Cards each code puts in red's and in green's hand; blue's hand gets the rest.
_RED_LOAD = tuple(recipients.count(Color.RED) for recipients in _RECIPIENTS)
_GREEN_LOAD = tuple(recipients.count(Color.GREEN) for recipients in _RECIPIENTS)


def subsets_lex(items: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Yield every subset of sorted ``items`` in lexicographic order.

    For (1, 2, 3): (), (1,), (1, 2), (1, 2, 3), (1, 3), (2,), (2, 3), (3,).
    """

    def walk(prefix: tuple[int, ...], start: int) -> Iterator[tuple[int, ...]]:
        yield prefix
        for i in range(start, len(items)):
            yield from walk(prefix + (items[i],), i + 1)

    return walk((), 0)


def _routings(
    n: int, allow_large: bool, *, full_deck: bool = False
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every deal over 1..n as (subset, routing codes), in canonical order."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n > EXHAUSTIVE_GUARD and not allow_large:
        raise GuardError(
            f"n={n} exceeds the exhaustive guard ({EXHAUSTIVE_GUARD}); "
            "pass allow_large=True to enumerate anyway"
        )
    deck = tuple(range(1, n + 1))
    for subset in (deck,) if full_deck else subsets_lex(deck):
        size = len(subset)
        for codes in product(range(8), repeat=size):
            red = sum(map(_RED_LOAD.__getitem__, codes))
            if red == size == sum(map(_GREEN_LOAD.__getitem__, codes)):
                yield subset, codes


def _deal(n: int, subset: tuple[int, ...], codes: tuple[int, ...]) -> Deal:
    hands: dict[Color, list[Card]] = {color: [] for color in COLORS}
    for denom, code in zip(subset, codes):
        for color, recipient in zip(COLORS, _RECIPIENTS[code]):
            hands[recipient].append(Card(denom, color))
    return Deal(n, subset, hands[Color.RED], hands[Color.GREEN], hands[Color.BLUE])


def enumerate_deals(n: int, *, allow_large: bool = False) -> Iterator[Deal]:
    """Every deal over denominations 1..n exactly once, in canonical order.

    Candidate assignments whose hands come out unequal are skipped, so each
    yielded deal is valid by construction.
    """
    for subset, codes in _routings(n, allow_large):
        yield _deal(n, subset, codes)


def enumerate_full_deck_deals(n: int, *, allow_large: bool = False) -> Iterator[Deal]:
    """Deals whose denomination set is all of 1..n."""
    for subset, codes in _routings(n, allow_large, full_deck=True):
        yield _deal(n, subset, codes)


def enumerate_deals_with_red_denoms(
    n: int, denoms: Iterable[int], *, allow_large: bool = False
) -> Iterator[Deal]:
    """Deals whose red hand shows exactly the given denominations."""
    wanted = frozenset(denoms)
    if not wanted <= frozenset(range(1, n + 1)):
        raise ValueError(f"denominations {sorted(wanted)} not within 1..{n}")
    for subset, codes in _routings(n, allow_large):
        if {d for d, code in zip(subset, codes) if _RED_LOAD[code]} == wanted:
            yield _deal(n, subset, codes)


def histogram(n: int, statistic: str, *, allow_large: bool = False) -> dict[int, int]:
    """Exact bucket counts of all deals by one statistic; buckets run 0..n.

    ``statistic`` is "s_size" (size of the denomination set) or
    "red_distinct" (distinct denominations in red's hand).
    """
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}; expected one of {STATISTICS}")
    buckets = {k: 0 for k in range(n + 1)}
    for subset, codes in _routings(n, allow_large):
        key = len(subset) if statistic == "s_size" else sum(1 for c in codes if _RED_LOAD[c])
        buckets[key] += 1
    return buckets


def count_deals(n: int, *, allow_large: bool = False) -> int:
    """Total number of deals over denominations 1..n."""
    return sum(1 for _ in _routings(n, allow_large))
