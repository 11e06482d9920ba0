"""Exhaustive generation of every deal; the brute-force oracle for all counts.

One loop forms every deal as a denomination subset plus one routing code per
denomination: subsets in lexicographic order (as sorted tuples), then codes in
increasing numeric order.  The eight codes are the routings the deal rule
allows, each card to one of the two hands not of its color; ``model._ROUTES``
holds them (hand positions by code) and is read here by the loads, the text
routes, the holdings and ``_deals``, which makes ``Deal`` objects.  Only
franel(k) of the 8**k code tuples of a size-k subset are deals, so the loop
forms just those: it joins a head and a tail of the tuple on their red and
green loads (meet in the middle), never a closed form.  The deals whose red
hand shows a given set of denominations are formed the same way, not
filtered from the whole stream: the set fixes, for each denomination,
whether its code puts a card in red's hand.  One pass lists each subset with
its join: heads, each with the index of its group of tails, and the groups,
each listed once.  Counts add group sizes, the histograms add tallies of
each tail group, and every printed line is a head's part of each hand
followed by a tail's, parts formed once a head and once a tail a subset.
The audits read the deals as keys, ``_keys``: one int a deal, a head's bits
ORed with a tail's.  A key is the subset and the three holdings each code
gives (``_HOLDINGS``), an n-bit mask each; this module alone packs that
layout, in ``_deal_key``, and reads it, in ``_key_sets``, and the bijections
share the pair.  ``Deal`` objects are built only for the public
``enumerate_*`` streams and from a key by ``_deal``: for the bijections'
``encode_*`` and to name the deal a failing audit reports.  Every
closed-form count in the package is checked against the totals and
histograms computed here.
"""

from __future__ import annotations

from itertools import product
from typing import Any, Iterable, Iterator, Sequence

from .model import COLORS, _ROUTES, Card, Deal, _require_nonneg, _require_within, denom_set_text

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

#: Default ceiling for exhaustive enumeration.  A pass that visits every deal
#: costs O(1) a deal, and the deals, lhs_sum(n), grow ~8x a step (9x in the
#: limit): 4653 at n = 5, 272,835 at n = 7 and 2,157,759 at n = 8.  Both histograms, read a
#: join group at a time, tally each subset size's join once and then add O(n)
#: a subset.
EXHAUSTIVE_GUARD = 5


class GuardError(ValueError):
    """Raised when exhaustive work beyond the guard is requested without an override."""

#: Statistics understood by histogram().
STATISTICS = ("s_size", "red_distinct")

_CODES = tuple(range(len(_ROUTES)))
# Cards each code puts in red's and in green's hand; blue's hand gets the rest.
_RED_LOAD = tuple(route.count(0) for route in _ROUTES)
_GREEN_LOAD = tuple(route.count(1) for route in _ROUTES)
# Codes that put no card in red's hand, and the codes that show their denomination there.
_RED_FREE = tuple(code for code in _CODES if not _RED_LOAD[code])
_RED_SHOWN = tuple(code for code in _CODES if _RED_LOAD[code])
# The codes each position of a code tuple may take, one alphabet per position.
_Alphabets = tuple[tuple[int, ...], ...]
# Heads in increasing order, each with the index of its tail group; then each met group once.
_Join = tuple[list[tuple[tuple[int, ...], int]], list[list[tuple[int, ...]]]]
# For each code, the hand and the letter of the red, green and blue card, in that order.
_TEXT_ROUTES = tuple(tuple(zip(route, [color.value for color in COLORS])) for route in _ROUTES)
# For each code, whether red holds the green card, red the blue card, blue the red card.
_HOLDINGS = tuple((int(g == 0), int(b == 0), int(r == 2)) for r, g, b in _ROUTES)


def subsets_lex(items: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Yield every subset of sorted ``items`` in lexicographic order.

    For (1, 2, 3): (), (1,), (1, 2), (1, 2, 3), (1, 3), (2,), (2, 3), (3,).
    """

    def walk(prefix: tuple[int, ...], start: int) -> Iterator[tuple[int, ...]]:
        yield prefix
        for i in range(start, len(items)):
            yield from walk(prefix + (items[i],), i + 1)

    return walk((), 0)


def _join_groups(
    n: int, allow_large: bool, *, full_deck: bool = False, red_denoms: Iterable[int] | None = None
) -> list[tuple[tuple[int, ...], _Join]]:
    """Every deal over 1..n, a join group at a time, in canonical order.

    Returns each subset with its join (see ``_joins``): each head of routing
    codes meets every tail of its group, so head + tail, taken in order,
    runs through the subset's deals.  With ``red_denoms``, only the deals
    whose red hand shows exactly those denominations: the subsets holding
    them, with codes outside ``_RED_FREE`` on those denominations and codes
    in it on the others.  The arguments are checked before any join is
    formed, and each join is formed once per alphabet tuple.
    """
    _require_nonneg(n)
    given = tuple(red_denoms or ())
    _require_within(n, given)
    red_set = frozenset(given)
    if n > EXHAUSTIVE_GUARD and not allow_large:
        raise GuardError(
            f"n={n} exceeds the exhaustive guard ({EXHAUSTIVE_GUARD}); "
            "pass allow_large=True to enumerate anyway"
        )
    deck = tuple(range(1, n + 1))
    off_red, on_red = (_CODES, _CODES) if red_denoms is None else (_RED_FREE, _RED_SHOWN)
    joins: dict[_Alphabets, _Join] = {}
    groups = []
    for subset in (deck,) if full_deck else subsets_lex(deck):
        if red_set.issubset(subset):
            alphabets = tuple(on_red if d in red_set else off_red for d in subset)
            if alphabets not in joins:
                joins[alphabets] = _joins(alphabets)
            groups.append((subset, joins[alphabets]))
    return groups


def _joins(alphabets: _Alphabets) -> _Join:
    """(heads, groups): each head of the first ``size // 2`` alphabets with its tail group's index.

    A code tuple is balanced, and so a deal, when red's and green's loads both
    equal its size; blue's then does too.  Tails (drawn from the other
    alphabets) are grouped by load, so a head with loads (r, g) meets the group
    (size - r, size - g).  Each group some head meets is listed once, numbered
    in the order heads first meet it, and heads and each group keep increasing
    order, so head + tail runs through the balanced tuples in increasing order.
    """
    size = len(alphabets)
    tails: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for tail, load in _loads(alphabets[size // 2 :]):
        tails.setdefault(load, []).append(tail)
    numbers: dict[tuple[int, int], int] = {}
    heads = []
    for head, (red, green) in _loads(alphabets[: size // 2]):
        load = (size - red, size - green)
        if load in tails:
            heads.append((head, numbers.setdefault(load, len(numbers))))
    return heads, [tails[load] for load in numbers]


def _loads(alphabets: _Alphabets) -> Iterator[tuple[tuple[int, ...], tuple[int, int]]]:
    """Every code tuple ``alphabets`` allow, in increasing order, with its red and green loads."""
    for codes in product(*alphabets):
        red = sum(map(_RED_LOAD.__getitem__, codes))
        yield codes, (red, sum(map(_GREEN_LOAD.__getitem__, codes)))


def _routings(
    n: int, allow_large: bool, **options: Any
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every deal over 1..n as (subset, routing codes): ``_join_groups`` flattened.

    Takes the options of ``_join_groups``, which runs at the call, so the
    arguments are checked and every join formed before the first deal.
    """
    return (
        (subset, head + tail)
        for subset, (heads, groups) in _join_groups(n, allow_large, **options)
        for head, index in heads
        for tail in groups[index]
    )


def _keys(n: int, allow_large: bool, **options: Any) -> list[int]:
    """Every deal over 1..n as its key (see ``_key``), in ``_routings`` order.

    Takes the options of ``_join_groups`` and reads its join groups: each
    head is packed once and each tail once per subset, over its own
    denominations, so a deal's key is its head's ORed with its tail's.
    """
    keys: list[int] = []
    for subset, (heads, groups) in _join_groups(n, allow_large, **options):
        head_denoms, tail_denoms = subset[: len(subset) // 2], subset[len(subset) // 2 :]
        tail_keys = [[_key(n, tail_denoms, tail) for tail in group] for group in groups]
        for head, index in heads:
            keys += map(_key(n, head_denoms, head).__or__, tail_keys[index])
    return keys


def _key(n: int, denoms: tuple[int, ...], codes: tuple[int, ...]) -> int:
    """The key of denominations in 1..n and their codes: each one's ``_HOLDINGS``, packed."""
    key = 0
    for d, code in zip(denoms, codes):
        key |= _deal_key(n, 1, *_HOLDINGS[code]) << d - 1
    return key


def _routing(n: int, key: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Read a key back into (subset, routing codes); the inverse of ``_key``."""
    subset, green, blue, red = _key_sets(n, key)
    denoms = _denoms(subset)
    held = ((green >> d - 1 & 1, blue >> d - 1 & 1, red >> d - 1 & 1) for d in denoms)
    return tuple(denoms), tuple(map(_HOLDINGS.index, held))


def _deal_key(n: int, subset: int, holds_green: int, holds_blue: int, to_blue: int) -> int:
    """The key of the deal over ``subset`` whose holdings are given as masks within it.

    Bit d - 1 of each n-bit field stands for denomination d: the key is
    ``subset | holds_green << n | holds_blue << 2n | to_blue << 3n``.  Red
    holds the green card of each denomination of ``holds_green`` and the
    blue card of each of ``holds_blue``; blue holds the red card of each of
    ``to_blue``.  The oracle's keys and both bijections' are packed here.
    """
    return subset | holds_green << n | holds_blue << 2 * n | to_blue << 3 * n


def _key_sets(n: int, key: int) -> tuple[int, int, int, int]:
    """A key's (subset, holds_green, holds_blue, to_blue) masks; the inverse of ``_deal_key``."""
    full = (1 << n) - 1
    return key & full, key >> n & full, key >> 2 * n & full, key >> 3 * n


def _denoms(mask: int) -> list[int]:
    """The denominations of a mask, increasing: d for each set bit d - 1."""
    denoms = []
    while mask:
        low = mask & -mask
        denoms.append(low.bit_length())
        mask ^= low
    return denoms


def _deals(
    n: int, routings: Iterable[tuple[tuple[int, ...], tuple[int, ...]]]
) -> Iterator[Deal]:
    """Each (subset, routing codes) pair as a ``Deal`` over 1..n.

    The deals share one ``Card`` per (denomination, color), made the first
    time a routing deals that denomination.
    """
    cards: dict[int, tuple[Card, Card, Card]] = {}
    for subset, codes in routings:
        hands: tuple[list[Card], list[Card], list[Card]] = ([], [], [])
        for denom, code in zip(subset, codes):
            triple = cards.get(denom)
            if triple is None:
                triple = cards[denom] = tuple(Card(denom, color) for color in COLORS)
            for card, hand in zip(triple, _ROUTES[code]):
                hands[hand].append(card)
        yield Deal(n, subset, *hands)


def _deal(n: int, key: int) -> Deal:
    """The ``Deal`` over 1..n that a key packs (see ``_key``)."""
    (deal,) = _deals(n, [_routing(n, key)])
    return deal


def _routing_hands(
    denoms: tuple[int, ...], codes: tuple[int, ...]
) -> tuple[list[str], list[str], list[str]]:
    """Red's, green's and blue's tokens of the cards ``codes`` route, in ``hand_text`` order.

    Codes run in denomination order and each routes its red, green and blue
    card in that order, so every hand comes out sorted by (denomination, color).
    """
    hands: tuple[list[str], list[str], list[str]] = ([], [], [])
    for denom, code in zip(denoms, codes):
        for hand, letter in _TEXT_ROUTES[code]:
            hands[hand].append(f"{letter}{denom}")
    return hands


def _hand_parts(
    subset: tuple[int, ...], join: _Join, sep: str
) -> Iterator[tuple[tuple[str, str, str], list[tuple[str, str, str]]]]:
    """Per head of ``subset``'s join, its part of each hand and each of its tails' parts.

    A part is the cards that half of the code tuple routes to red's, green's
    and blue's hand, joined by ``sep``; a hand of a deal is its head part
    then its tail part.  Every hand holds ``len(subset)`` cards, so a head
    knows which hands its tail adds to, and its part of those ends in
    ``sep``.  Each head's parts are formed once, and each tail group's
    parts once, when the first head is read.
    """
    size = len(subset)
    head_denoms, tail_denoms = subset[: size // 2], subset[size // 2 :]
    heads, groups = join
    tail_parts = [
        [tuple(map(sep.join, _routing_hands(tail_denoms, tail))) for tail in group]
        for group in groups
    ]
    for head, index in heads:
        hands = _routing_hands(head_denoms, head)
        parts = tuple(sep.join(hand) + sep * (0 < len(hand) < size) for hand in hands)
        yield parts, tail_parts[index]


def _lines(groups: Iterable[tuple[tuple[int, ...], _Join]], form: str) -> Iterator[str]:
    """The lines ``enumerate`` prints for ``groups``, each head's deals in one string.

    ``form`` is "text", each deal as ``deal_to_text`` writes it, or "csv":
    the subset and each hand, numbers and cards joined by spaces.  A
    subset's line has a ``%s`` slot per hand; each head fills its parts in
    ahead of a fresh slot, and each of its tails fills those.
    """
    sep = "," if form == "text" else " "
    for subset, join in groups:
        if form == "text":
            line = f"S={denom_set_text(subset)};R=[%s];G=[%s];B=[%s]\n"
        else:
            line = f"{' '.join(map(str, subset))},%s,%s,%s\n"
        for heads, tails in _hand_parts(subset, join, sep):
            deal = line % tuple(f"{part}%s" for part in heads)
            yield "".join(map(deal.__mod__, tails))


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
    yield from _deals(n, _routings(n, allow_large, red_denoms=tuple(denoms)))


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
    """Buckets by s_size and by red_distinct, both filled from one pass over the join groups.

    Every code may sit at every position, so every subset of one size has
    the same join: each size's deals are tallied by red-distinct once
    (``_red_distinct_tally``), and the tally is added for each subset.
    """
    groups = _join_groups(n, allow_large)  # checks n before range reads it
    by_size = dict.fromkeys(range(n + 1), 0)
    by_red = dict.fromkeys(range(n + 1), 0)
    tallies: dict[int, dict[int, int]] = {}
    for subset, join in groups:
        size = len(subset)
        if size not in tallies:
            tallies[size] = _red_distinct_tally(join)
        for red, deals in tallies[size].items():
            by_size[size] += deals
            by_red[red] += deals
    return by_size, by_red


def _red_distinct_tally(join: _Join) -> dict[int, int]:
    """The deals of one join counted by red-distinct, read a head and a tail group at a time.

    A deal's red-distinct is its head's plus its tail's, so each tail group
    is tallied once and each head adds that tally, shifted by its own.
    """
    heads, groups = join
    reds = [[*map(_red_distinct, group)] for group in groups]
    tallies = [{red: group.count(red) for red in set(group)} for group in reds]
    tally: dict[int, int] = {}
    for head, index in heads:
        shift = _red_distinct(head)
        for red, deals in tallies[index].items():
            tally[shift + red] = tally.get(shift + red, 0) + deals
    return tally


def _red_distinct(codes: tuple[int, ...]) -> int:
    """How many of the codes show their denomination in red's hand."""
    return len(codes) - sum(map(codes.count, _RED_FREE))


def count_deals(n: int, *, allow_large: bool = False) -> int:
    """Total number of deals over denominations 1..n."""
    return _deal_total(_join_groups(n, allow_large))


def _deal_total(groups: Iterable[tuple[tuple[int, ...], _Join]]) -> int:
    """How many deals ``_join_groups``' groups hold: each head meets every tail of its group."""
    return sum(len(tails[index]) for _, (heads, tails) in groups for _, index in heads)
