"""Cards, hands, deals, and their validity rules.

A deck holds one card of each of three colors (red, green, blue) for every
denomination 1..n.  A deal picks a denomination subset ``s`` and splits all
3*|s| cards carrying those denominations into three hands, one per player
color, subject to two rules: every hand has exactly |s| cards, and no hand
contains a card of its own color.  ``n = 0`` is legal and admits exactly
one deal, the empty one.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple

__all__ = [
    "COLORS",
    "Card",
    "Color",
    "Deal",
    "DealStats",
    "deal_from_text",
    "deal_record",
    "deal_stats",
    "deal_to_text",
    "denom_set_text",
    "hand_text",
    "red_denomination_set",
    "require_valid",
    "validate_deal",
]


class Color(enum.Enum):
    """Card color, doubling as the identity of the player who avoids it."""

    RED = "r"
    GREEN = "g"
    BLUE = "b"

    @property
    def letter(self) -> str:
        return self.value

    @property
    def order(self) -> int:
        """Canonical position: red < green < blue."""
        return _COLOR_ORDER[self]


_COLOR_ORDER = {Color.RED: 0, Color.GREEN: 1, Color.BLUE: 2}
_COLOR_BY_LETTER = {c.value: c for c in Color}

#: The three players/colors in canonical order.
COLORS: tuple[Color, Color, Color] = (Color.RED, Color.GREEN, Color.BLUE)

_TOKEN_RE = re.compile(r"([rgb])([0-9]+)")


@dataclass(frozen=True)
class Card:
    """One card: a denomination wearing a color.  Text token 'g3' = green 3."""

    denomination: int
    color: Color

    @property
    def token(self) -> str:
        return f"{self.color.letter}{self.denomination}"

    @classmethod
    def from_token(cls, token: str) -> "Card":
        m = _TOKEN_RE.fullmatch(token)
        if m is None:
            raise ValueError(f"malformed card token: {token!r}")
        return cls(int(m.group(2)), _COLOR_BY_LETTER[m.group(1)])

    def sort_key(self) -> tuple[int, int]:
        return (self.denomination, self.color.order)


@dataclass(frozen=True)
class Deal:
    """A denomination set plus the three hands covering its cards.

    Hands are keyed by the avoiding player: ``red`` is red's hand and must
    hold no red cards, and so on.  The constructor coerces all set fields to
    frozensets, so deals are hashable and compare by value.
    """

    n: int
    s: frozenset[int]
    red: frozenset[Card]
    green: frozenset[Card]
    blue: frozenset[Card]

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", frozenset(self.s))
        object.__setattr__(self, "red", frozenset(self.red))
        object.__setattr__(self, "green", frozenset(self.green))
        object.__setattr__(self, "blue", frozenset(self.blue))

    def hand(self, color: Color) -> frozenset[Card]:
        if color is Color.RED:
            return self.red
        if color is Color.GREEN:
            return self.green
        return self.blue

    @property
    def hands(self) -> dict[Color, frozenset[Card]]:
        return {color: self.hand(color) for color in COLORS}


class DealStats(NamedTuple):
    """The two statistics every count is classified by."""

    s_size: int
    red_distinct: int


def validate_deal(deal: Deal) -> str | None:
    """Check every deal invariant; return None if valid, else the failure kind.

    Failure kinds, checked in this order:

    - "range": n < 0, or ``s`` or a card denomination outside 1..n
    - "coverage": the hands do not cover the cards of ``s`` exactly once
    - "size": some hand does not hold exactly |s| cards
    - "own-color": a hand contains a card of its own color
    """
    if deal.n < 0:
        return "range"
    legal = range(1, deal.n + 1)
    if not all(d in legal for d in deal.s):
        return "range"
    all_cards = [card for color in COLORS for card in deal.hand(color)]
    if any(card.denomination not in legal for card in all_cards):
        return "range"
    expected = {Card(d, color) for d in deal.s for color in COLORS}
    if len(all_cards) != len(expected) or set(all_cards) != expected:
        return "coverage"
    if any(len(deal.hand(color)) != len(deal.s) for color in COLORS):
        return "size"
    if any(card.color is color for color in COLORS for card in deal.hand(color)):
        return "own-color"
    return None


def require_valid(deal: Deal) -> None:
    """Raise ValueError naming the violated invariant unless the deal is valid."""
    verdict = validate_deal(deal)
    if verdict is not None:
        raise ValueError(f"invalid deal ({verdict}): {deal_to_text(deal)}")


def deal_stats(deal: Deal) -> DealStats:
    """Size of the denomination set, and red's distinct-denomination count."""
    require_valid(deal)
    return DealStats(len(deal.s), len({card.denomination for card in deal.red}))


def red_denomination_set(deal: Deal) -> frozenset[int]:
    """Denominations with at least one card in red's hand."""
    require_valid(deal)
    return frozenset(card.denomination for card in deal.red)


def denom_set_text(denoms: Iterable[int]) -> str:
    """Render a denomination set as ``{1,2}``; the empty set is ``{}``."""
    return "{" + ",".join(str(d) for d in sorted(denoms)) + "}"


def hand_text(hand: Iterable[Card]) -> str:
    """Render a hand as ``[g1,b1]``, cards sorted by (denomination, color)."""
    return "[" + ",".join(card.token for card in sorted(hand, key=Card.sort_key)) + "]"


def deal_to_text(deal: Deal) -> str:
    """Canonical one-line form, e.g. ``S={1,2};R=[g1,b1];G=[r2,b2];B=[r1,g2]``.

    All sets are sorted: denominations numerically, cards by (denomination,
    color) with red < green < blue.  Empty hands render ``[]`` and an empty
    denomination set ``{}``.  The form does not carry n.
    """
    return (
        f"S={denom_set_text(deal.s)}"
        f";R={hand_text(deal.red)}"
        f";G={hand_text(deal.green)}"
        f";B={hand_text(deal.blue)}"
    )


_DEAL_RE = re.compile(r"S=\{([^}]*)\};R=\[([^\]]*)\];G=\[([^\]]*)\];B=\[([^\]]*)\]")


def deal_from_text(text: str, n: int) -> Deal:
    """Parse the canonical text form back into a Deal.

    The text form does not carry the deck size, so ``n`` is supplied by the
    caller.  Text that deal_to_text would not print back unchanged (repeated
    or unsorted items, leading zeros, stray commas or whitespace) raises
    ValueError.  No validity check is performed; pair with validate_deal.
    """
    m = _DEAL_RE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"malformed deal text: {text!r}")
    s = frozenset(int(tok) for tok in m.group(1).split(",") if tok)
    red, green, blue = (
        frozenset(Card.from_token(tok) for tok in group.split(",") if tok)
        for group in m.groups()[1:]
    )
    deal = Deal(n, s, red, green, blue)
    if deal_to_text(deal) != text:
        raise ValueError(f"non-canonical deal text: {text!r}")
    return deal


def deal_record(deal: Deal) -> dict[str, list]:
    """Structured mirror of the text form's fields, for machine output."""
    return {
        "s": sorted(deal.s),
        "red": [card.token for card in sorted(deal.red, key=Card.sort_key)],
        "green": [card.token for card in sorted(deal.green, key=Card.sort_key)],
        "blue": [card.token for card in sorted(deal.blue, key=Card.sort_key)],
    }
