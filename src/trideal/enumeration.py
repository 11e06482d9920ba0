"""Exhaustive generation of every deal; the brute-force oracle for all counts.

One loop visits every deal as a denomination subset plus one routing code per
denomination: subsets in lexicographic order (as sorted tuples), then codes in
increasing numeric order.  Only franel(k) of the 8**k code tuples of a size-k
subset are deals, so the loop forms just those: it joins a head and a tail of
the tuple on their red and green loads (meet in the middle), never a closed
form.  The deals whose red hand shows a given set of denominations are formed
the same way, not filtered from the whole stream: the set fixes, for each
denomination, whether its code puts a card in red's hand.  Counts, histograms
and every printed hand are read from the codes;
``Deal`` objects are built only for the public ``enumerate_*`` streams.  Every
closed-form count in the package is checked against the totals and histograms
computed here.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Sequence

from .model import COLORS, Card, Color, Deal, denom_set_text

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

#: Default ceiling for exhaustive enumeration.  A pass visits every deal:
#: 4653 at n = 5 in ~2 ms, 272,835 at n = 7 in ~0.06 s, 2,157,759 at n = 8 in
#: ~0.3 s (in-process, Python 3.11).
EXHAUSTIVE_GUARD = 5


class GuardError(ValueError):
    """Raised when exhaustive work beyond the guard is requested without an override."""

#: Statistics understood by histogram().
STATISTICS = ("s_size", "red_distinct")

# One denomination's three cards have two legal hands each (never the hand
# matching their own color), so a 3-bit code routes them: bit 2 sends the
# red card (0 -> green, 1 -> blue), bit 1 the green card (0 -> red,
# 1 -> blue), bit 0 the blue card (0 -> red, 1 -> green).
_CODES = tuple(range(8))
_RECIPIENTS: tuple[tuple[Color, Color, Color], ...] = tuple(
    (
        Color.BLUE if code & 4 else Color.GREEN,
        Color.BLUE if code & 2 else Color.RED,
        Color.GREEN if code & 1 else Color.RED,
    )
    for code in _CODES
)
# Cards each code puts in red's and in green's hand; blue's hand gets the rest.
_RED_LOAD = tuple(recipients.count(Color.RED) for recipients in _RECIPIENTS)
_GREEN_LOAD = tuple(recipients.count(Color.GREEN) for recipients in _RECIPIENTS)
# Codes that put no card in red's hand, and the codes that show their denomination there.
_RED_FREE = tuple(code for code in _CODES if not _RED_LOAD[code])
_RED_SHOWN = tuple(code for code in _CODES if _RED_LOAD[code])
# The codes each position of a code tuple may take, one alphabet per position.
_Alphabets = tuple[tuple[int, ...], ...]
# For each code, the hand (by text-form position, red 0, green 1, blue 2) and
# the letter of the red, green and blue card, in that order.
_TEXT_ROUTES = tuple(
    tuple((recipient.order, color.letter) for color, recipient in zip(COLORS, recipients))
    for recipients in _RECIPIENTS
)


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
    n: int, allow_large: bool, *, full_deck: bool = False, red_denoms: Iterable[int] | None = None
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every deal over 1..n as (subset, routing codes), in canonical order.

    With ``red_denoms``, only the deals whose red hand shows exactly those
    denominations: the subsets holding them, with codes outside ``_RED_FREE``
    on those denominations and codes in it on the others.  The arguments are
    checked at the call, before the stream starts.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    red_set = frozenset(red_denoms or ())
    if not red_set <= frozenset(range(1, n + 1)):
        raise ValueError(f"denominations {sorted(red_set)} not within 1..{n}")
    if n > EXHAUSTIVE_GUARD and not allow_large:
        raise GuardError(
            f"n={n} exceeds the exhaustive guard ({EXHAUSTIVE_GUARD}); "
            "pass allow_large=True to enumerate anyway"
        )
    deck = tuple(range(1, n + 1))
    off_red, on_red = (_CODES, _CODES) if red_denoms is None else (_RED_FREE, _RED_SHOWN)
    return _balanced(
        (subset, tuple(on_red if d in red_set else off_red for d in subset))
        for subset in ((deck,) if full_deck else subsets_lex(deck))
        if red_set.issubset(subset)
    )


def _balanced(
    subsets: Iterable[tuple[tuple[int, ...], _Alphabets]],
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each subset with every balanced code tuple its alphabets allow, in increasing order."""
    joins: dict[_Alphabets, list] = {}
    for subset, alphabets in subsets:
        if alphabets not in joins:
            joins[alphabets] = _joins(alphabets)
        for head, tails in joins[alphabets]:
            for tail in tails:
                yield subset, head + tail


def _joins(alphabets: _Alphabets) -> list[tuple[tuple[int, ...], list[tuple[int, ...]]]]:
    """Each head, drawn from the first ``size // 2`` alphabets, with the tails that balance it.

    A code tuple is balanced, and so a deal, when red's and green's loads both
    equal its size; blue's then does too.  Tails (drawn from the other
    alphabets) are grouped by load, so a head with loads (r, g) meets the group
    (size - r, size - g).  Heads and each group keep increasing order, so
    head + tail runs through the balanced tuples in increasing order.
    """
    size = len(alphabets)
    tails: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for tail, load in _loads(alphabets[size // 2 :]):
        tails.setdefault(load, []).append(tail)
    joins = []
    for head, (red, green) in _loads(alphabets[: size // 2]):
        group = tails.get((size - red, size - green))
        if group:
            joins.append((head, group))
    return joins


def _loads(alphabets: _Alphabets) -> Iterator[tuple[tuple[int, ...], tuple[int, int]]]:
    """Every code tuple ``alphabets`` allow, in increasing order, with its red and green loads."""
    for codes in product(*alphabets):
        red = sum(map(_RED_LOAD.__getitem__, codes))
        yield codes, (red, sum(map(_GREEN_LOAD.__getitem__, codes)))


def _deals(
    n: int, routings: Iterable[tuple[tuple[int, ...], tuple[int, ...]]]
) -> Iterator[Deal]:
    """Each (subset, routing codes) pair as a ``Deal`` over 1..n.

    The deals share one ``Card`` per (denomination, color), made the first
    time a routing deals that denomination.
    """
    cards: dict[int, tuple[Card, Card, Card]] = {}
    for subset, codes in routings:
        hands: dict[Color, list[Card]] = {color: [] for color in COLORS}
        for denom, code in zip(subset, codes):
            triple = cards.get(denom)
            if triple is None:
                triple = cards[denom] = tuple(Card(denom, color) for color in COLORS)
            for card, recipient in zip(triple, _RECIPIENTS[code]):
                hands[recipient].append(card)
        yield Deal(n, subset, hands[Color.RED], hands[Color.GREEN], hands[Color.BLUE])


def _deal(n: int, subset: tuple[int, ...], codes: tuple[int, ...]) -> Deal:
    (deal,) = _deals(n, [(subset, codes)])
    return deal


def _codes(deal: Deal) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Read a valid deal back into (subset, routing codes); the inverse of ``_deal``."""
    subset = tuple(sorted(deal.s))
    codes = dict.fromkeys(subset, 0)
    # code 7 sets every bit, so it names the hand each bit sends its card to
    for bit, color, recipient in zip((4, 2, 1), COLORS, _RECIPIENTS[7]):
        for card in deal.hand(recipient):
            if card.color is color:
                codes[card.denomination] |= bit
    return subset, tuple(codes.values())


def _routing_hands(
    subset: tuple[int, ...], codes: tuple[int, ...]
) -> tuple[list[str], list[str], list[str]]:
    """Red's, green's and blue's card tokens, each in ``hand_text`` order.

    Codes run in denomination order and each routes its red, green and blue
    card in that order, so every hand comes out sorted by (denomination, color).
    """
    hands: tuple[list[str], list[str], list[str]] = ([], [], [])
    for denom, code in zip(subset, codes):
        for hand, letter in _TEXT_ROUTES[code]:
            hands[hand].append(f"{letter}{denom}")
    return hands


def _routing_text(subset: tuple[int, ...], codes: tuple[int, ...]) -> str:
    """``deal_to_text`` of ``_deal(n, subset, codes)``, without building the deal."""
    red, green, blue = (",".join(hand) for hand in _routing_hands(subset, codes))
    return f"S={denom_set_text(subset)};R=[{red}];G=[{green}];B=[{blue}]"


def enumerate_deals(n: int, *, allow_large: bool = False) -> Iterator[Deal]:
    """Every deal over denominations 1..n exactly once, in canonical order.

    Only routings that give every hand the same size are formed, so each
    yielded deal is valid by construction.
    """
    yield from _deals(n, _routings(n, allow_large))


def enumerate_full_deck_deals(n: int, *, allow_large: bool = False) -> Iterator[Deal]:
    """Deals whose denomination set is all of 1..n."""
    yield from _deals(n, _routings(n, allow_large, full_deck=True))


def enumerate_deals_with_red_denoms(
    n: int, denoms: Iterable[int], *, allow_large: bool = False
) -> Iterator[Deal]:
    """Deals whose red hand shows exactly the given denominations."""
    yield from _deals(n, _routings(n, allow_large, red_denoms=denoms))


def histogram(n: int, statistic: str, *, allow_large: bool = False) -> dict[int, int]:
    """Exact bucket counts of all deals by one statistic; buckets run 0..n.

    ``statistic`` is "s_size" (size of the denomination set) or
    "red_distinct" (distinct denominations in red's hand).
    """
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}; expected one of {STATISTICS}")
    by_size, by_red = _histograms(n, allow_large)
    return by_size if statistic == "s_size" else by_red


def _histograms(n: int, allow_large: bool) -> tuple[dict[int, int], dict[int, int]]:
    """Buckets by s_size and by red_distinct, both filled from one ``_routings`` pass."""
    by_size = dict.fromkeys(range(n + 1), 0)
    by_red = dict.fromkeys(range(n + 1), 0)
    for subset, codes in _routings(n, allow_large):
        by_size[len(subset)] += 1
        by_red[len(codes) - sum(map(codes.count, _RED_FREE))] += 1
    return by_size, by_red


def count_deals(n: int, *, allow_large: bool = False) -> int:
    """Total number of deals over denominations 1..n."""
    return sum(1 for _ in _routings(n, allow_large))
