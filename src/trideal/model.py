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
from itertools import product
from operator import attrgetter
from typing import Collection, Iterable, NamedTuple

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

    # members are singletons compared by identity, so the C-level identity
    # hash is safe, and it spares every set or dict of cards enum's
    # Python-level hash of the member's name
    __hash__ = object.__hash__

    @property
    def letter(self) -> str:
        return self.value

    @property
    def order(self) -> int:
        """Canonical position: red < green < blue."""
        return COLORS.index(self)


#: The three players/colors in canonical order.
COLORS: tuple[Color, Color, Color] = (Color.RED, Color.GREEN, Color.BLUE)

# The deal rule: each card of a denomination goes to one of the two hands not
# of its own color (hand positions red 0, green 1, blue 2), so a denomination
# is routed 8 ways.  ``product`` yields them with the red card's choice
# slowest, so bit 2 of a code sends the red card (0 -> green, 1 -> blue), bit 1
# the green card (0 -> red, 1 -> blue), bit 0 the blue card (0 -> red, 1 -> green).
_ROUTES = tuple(product(*([hand for hand in range(3) if hand != card] for card in range(3))))


# The parsers' patterns, as ``str`` writes an int, a card and a deal.  ``re``
# compiles each on first use and caches it, so no CLI start compiles them.
_INT = r"0|[1-9][0-9]*"
_TOKEN = rf"([rgb])({_INT})"
_DEAL = r"S=\{([^}]*)\};R=\[([^\]]*)\];G=\[([^\]]*)\];B=\[([^\]]*)\]"


class _Value:
    """Base of the package's immutable values: fields in ``__slots__``, set once by ``__init__``.

    Two values are equal when they are of the same class and their field
    tuples are equal; a value hashes as its field tuple, prints as
    ``Name(field=value, ...)`` and pickles and copies by calling its class
    with the fields.  Assigning or deleting any attribute raises
    AttributeError, so ``__init__`` sets the fields with
    ``object.__setattr__``: ``Card`` its two directly, and ``Deal`` and the
    parameter sets, whose fields are ``n`` and then sets, through ``_set``.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._astuple = attrgetter(*cls.__slots__)

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        fields = zip(self.__slots__, self._astuple(self))
        return f"{self.__class__.__qualname__}({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def _set(self, n: int, *fields: Iterable) -> None:
        """Set ``n``, then each field after it in ``__slots__`` order, frozen by ``_frozen``."""
        object.__setattr__(self, "n", n)
        for name, values in zip(self.__slots__[1:], fields):
            object.__setattr__(self, name, _frozen(name, n, values))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._astuple(self)


class Card(_Value):
    """One card: a denomination wearing a color.  Text token 'g3' = green 3.

    Immutable: assigning or deleting an attribute raises AttributeError.
    """

    __slots__ = ("denomination", "color")

    def __init__(self, denomination: int, color: Color) -> None:
        object.__setattr__(self, "denomination", denomination)
        object.__setattr__(self, "color", color)

    @property
    def token(self) -> str:
        return f"{self.color.value}{self.denomination}"

    @classmethod
    def from_token(cls, token: str) -> "Card":
        m = re.fullmatch(_TOKEN, token)
        if m is None:
            raise ValueError(f"malformed card token: {token!r}")
        return cls(int(m.group(2)), Color(m.group(1)))

    def sort_key(self) -> tuple[int, int]:
        return (self.denomination, self.color.order)


class Deal(_Value):
    """A denomination set plus the three hands covering its cards.

    Hands are keyed by the avoiding player: ``red`` is red's hand and must
    hold no red cards, and so on.  The constructor coerces all set fields to
    frozensets, so deals are hashable and compare by value; a field holding
    an exact int, or a card of one, beside an equal value that is no such
    thing (``1.0``, ``True`` or a card of either) raises ValueError.  Other
    repeats merge and are left for ``validate_deal`` to judge.  Immutable:
    assigning or deleting an attribute raises AttributeError.
    """

    __slots__ = ("n", "s", "red", "green", "blue")

    def __init__(
        self,
        n: int,
        s: Iterable[int],
        red: Iterable[Card],
        green: Iterable[Card],
        blue: Iterable[Card],
    ) -> None:
        self._set(n, s, red, green, blue)

    def hand(self, color: Color) -> frozenset[Card]:
        """The hand of the player who avoids ``color``; ValueError unless it is a ``Color``."""
        if color is Color.RED:
            return self.red
        if color is Color.GREEN:
            return self.green
        if color is Color.BLUE:
            return self.blue
        raise ValueError(f"not a color: {color!r}")

    @property
    def hands(self) -> dict[Color, frozenset[Card]]:
        return {color: self.hand(color) for color in COLORS}


class DealStats(NamedTuple):
    """The two statistics every count is classified by."""

    s_size: int
    red_distinct: int


def _require_nonneg(n: int) -> None:
    """Raise ValueError unless n is exactly an ``int``, not a ``bool``, and n >= 0.

    A bool would otherwise count as 0 or 1, and a float fail deep inside
    ``range`` or ``math.comb``.
    """
    if n.__class__ is not int or n < 0:
        raise ValueError(f"need n >= 0, got {n!r}")


def _within(n: int, denoms: Iterable[int]) -> bool:
    """True when every denomination is exactly an ``int``, not a ``bool``, in 1..n.

    An equal float or bool would pass a test by ``==`` and print text that
    ``deal_from_text`` rejects.
    """
    return all(d.__class__ is int and 0 < d <= n for d in denoms)


def _require_within(n: int, denoms: Collection) -> None:
    """Raise ValueError unless ``_within(n, denoms)``, listing the values sorted, as given.

    A set that does not sort, such as {1, "a"}, is listed by repr instead.
    """
    if not _within(n, denoms):
        try:
            shown = sorted(denoms)
        except TypeError:
            shown = sorted(denoms, key=repr)
        raise ValueError(f"denominations {shown} not within 1..{n}")


def _exact(value: object) -> bool:
    """True for an exact ``int``, or a ``Card`` whose denomination is one."""
    return (value.denomination if value.__class__ is Card else value).__class__ is int


def _frozen(name: str, n: int, values: Iterable) -> frozenset:
    """``frozenset(values)``, raising ValueError if it merged a value into an equal exact one.

    An equal float or bool, or a card of one, would otherwise vanish into its
    exact twin (see ``_exact``) before the checks, which reject it alone, read
    the set, so the verdict would hang on the input's order.  Only a set
    smaller than ``values`` is scanned; ``[1, 1]`` still freezes to ``{1}``,
    and ``[None, None]`` to ``{None}``.
    """
    given = tuple(values)
    frozen = frozenset(given)
    if len(frozen) < len(given):
        exact = frozenset(filter(_exact, given))
        if any(value in exact for value in given if not _exact(value)):
            raise ValueError(f"{name} must lie within 1..{n}")
    return frozen


def validate_deal(deal: Deal) -> str | None:
    """Check every deal invariant; return None if valid, else the failure kind.

    Failure kinds, checked in this order:

    - "range": n not an int >= 0, or ``s`` or a card denomination not an
      int in 1..n
    - "coverage": the hands do not cover the cards of ``s`` exactly once,
      or hold an entry that is no ``Card``
    - "size": some hand does not hold exactly |s| cards
    - "own-color": a hand contains a card of its own color
    """
    all_cards = [card for color in COLORS for card in deal.hand(color)]
    # an entry that is no Card has no denomination to range-check; coverage fails it
    cards = (card for card in all_cards if isinstance(card, Card))
    n, denoms = deal.n, [*deal.s, *(card.denomination for card in cards)]
    # the deck size is held to _require_nonneg's rule, so a decoder's range gets an int
    if n.__class__ is not int or n < 0 or not _within(n, denoms):
        return "range"
    # each card as its (denomination, color) pair; an entry that is not exactly a Card has none
    held = {(card.denomination, card.color) for card in all_cards if card.__class__ is Card}
    expected = set(product(deal.s, COLORS))
    if len(all_cards) != len(expected) or held != expected:
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
        try:
            text = deal_to_text(deal)
        except (AttributeError, KeyError, TypeError):
            # a set that does not sort, or a card whose color is no Color
            text = repr(deal)
        raise ValueError(f"invalid deal ({verdict}): {text}")


def deal_stats(deal: Deal) -> DealStats:
    """Size of the denomination set, and red's distinct-denomination count."""
    return DealStats(len(deal.s), len(red_denomination_set(deal)))


def red_denomination_set(deal: Deal) -> frozenset[int]:
    """Denominations with at least one card in red's hand."""
    require_valid(deal)
    return frozenset(card.denomination for card in deal.red)


def denom_set_text(denoms: Iterable[int]) -> str:
    """Render a denomination set as ``{1,2}``; the empty set is ``{}``."""
    return "{" + ",".join(map(str, sorted(denoms))) + "}"


def _hand_tokens(hand: Iterable[Card]) -> list[str]:
    """The tokens of a hand's cards, sorted by (denomination, color)."""
    return [card.token for card in sorted(hand, key=Card.sort_key)]


def hand_text(hand: Iterable[Card]) -> str:
    """Render a hand as ``[g1,b1]``, cards sorted by (denomination, color)."""
    return "[" + ",".join(_hand_tokens(hand)) + "]"


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


def deal_from_text(text: str, n: int) -> Deal:
    """Parse the canonical text form back into a Deal.

    The text form does not carry the deck size, so ``n`` is supplied by the
    caller.  Text that deal_to_text would not print back unchanged (repeated
    or unsorted items, leading zeros, stray commas or whitespace) raises
    ValueError.  No validity check is performed; pair with validate_deal.
    """
    m = re.fullmatch(_DEAL, text.strip())
    if m is None:
        raise ValueError(f"malformed deal text: {text!r}")
    try:
        s = frozenset(int(tok) for tok in m.group(1).split(",") if tok)
    except ValueError:
        raise ValueError(f"malformed deal text: {text!r}") from None
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
        "red": _hand_tokens(deal.red),
        "green": _hand_tokens(deal.green),
        "blue": _hand_tokens(deal.blue),
    }
