"""Constructive correspondences between parameter tuples and deals.

Two parameterizations are implemented, one per counting formula.  The
full-deck form pins down a deal that uses every denomination; the red-set
form pins down a deal with a prescribed red denomination set.  In both,
``encode`` and ``decode`` are exact inverses, and the parameter space is
exactly as large as the deal family it maps onto (the exhaustive audits in
the test suite and the ``audit`` CLI subcommand check this).

Both bijections share one code form, the oracle's: a deal is the sorted
denomination set plus one 3-bit routing code per denomination.  Each has one
encoder, ``_*_codes(params) -> (subset, codes)``, and one decoder,
``_*_params(n, subset, codes)``.  A code indexes the deal rule's route
table, ``model._ROUTES``, whose order gives each bit its meaning: bit 2 of a
code sends the denomination's red card to blue's hand (else green's), bit 1
its green card to blue's hand (else red's), and bit 0 its blue card to
green's hand (else red's).  So a code's low two bits say which cards red
holds: 0 both off-color cards, 1 only the green one, 2 only the blue one, 3
none.  One walk, ``_code_list``, writes the codes of both families and one
split, ``_holdings``, reads them; the families differ only in which of their
sets say that red holds the green card, that red holds the blue card and that
blue holds the red card.  The public ``encode_*``/``decode_*`` functions wrap
this form in ``Deal`` objects; the ``audit`` subcommand uses it directly.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

from .enumeration import _codes, _deal, subsets_lex
from .model import (
    Deal,
    _Value,
    _frozen,
    _require_nonneg,
    _require_within,
    _within,
    denom_set_text,
    require_valid,
)

__all__ = [
    "FullDeckParams",
    "RedSetParams",
    "decode_full_deck",
    "decode_red_set",
    "encode_full_deck",
    "encode_red_set",
    "iter_full_deck_params",
    "iter_red_set_params",
]


def _params_text(params: _Value) -> str:
    """Each set field after ``n`` as ``label={..}``, labels from ``_LABELS``, joined by ``;``."""
    fields = zip(params._LABELS, params._astuple(params)[1:])
    return ";".join(f"{label}={denom_set_text(value)}" for label, value in fields)


class FullDeckParams(_Value):
    """Free choices that pin down a deal using every denomination 1..n.

    Red's hand is the green cards of ``green_in_red`` plus the blue cards of
    ``blue_in_red``.  The leftover green cards are forced into blue's hand
    and the leftover blue cards into green's hand, so the only remaining
    freedom is which red cards blue takes (``red_in_blue``); green gets the
    rest.  Equal hand sizes force |blue_in_red| = n - |green_in_red| and
    |red_in_blue| = |green_in_red|, giving C(n, j)**3 choices for each size
    j of ``green_in_red`` and franel(n) tuples in total.  The constructor
    coerces the set fields to frozensets, checking each as given, so a value
    that is no int and merges into an equal int raises ValueError.
    Immutable: assigning or deleting an attribute raises AttributeError.
    """

    __slots__ = ("n", "green_in_red", "blue_in_red", "red_in_blue")
    _LABELS = __slots__[1:]

    def __init__(
        self,
        n: int,
        green_in_red: Iterable[int],
        blue_in_red: Iterable[int],
        red_in_blue: Iterable[int],
    ) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "green_in_red", _frozen("green_in_red", n, green_in_red))
        object.__setattr__(self, "blue_in_red", _frozen("blue_in_red", n, blue_in_red))
        object.__setattr__(self, "red_in_blue", _frozen("red_in_blue", n, red_in_blue))

    to_text = _params_text


def _check_full_deck(params: FullDeckParams) -> None:
    _require_nonneg(params.n)
    for name in ("green_in_red", "blue_in_red", "red_in_blue"):
        if not _within(params.n, getattr(params, name)):
            raise ValueError(f"{name} must lie within 1..{params.n}")
    if len(params.blue_in_red) != params.n - len(params.green_in_red):
        raise ValueError("need |blue_in_red| = n - |green_in_red|")
    if len(params.red_in_blue) != len(params.green_in_red):
        raise ValueError("need |red_in_blue| = |green_in_red|")


def _code_list(
    n: int, holds_green: Iterable[int], holds_blue: Iterable[int], to_blue: Iterable[int]
) -> list[int]:
    """The routing code of every denomination 1..n, from which sets hold it.

    Every code starts at 3 (red holds neither off-color card) and is
    adjusted by a walk over each set, whose members must lie in 1..n:
    red holds the green card (-2), red holds the blue card (-1), blue holds
    the red card (+4).  Both families write their codes through this walk.
    """
    codes = [3] * n
    for d in holds_green:
        codes[d - 1] -= 2
    for d in holds_blue:
        codes[d - 1] -= 1
    for d in to_blue:
        codes[d - 1] += 4
    return codes


def _holdings(subset: tuple[int, ...], codes: tuple[int, ...]) -> tuple[list[int], ...]:
    """Split a deal's (subset, routing codes) form by what each code says.

    The first four lists are indexed by ``code & 3``: red holds both
    off-color cards, only the green one, only the blue one, neither.  The
    fifth lists the denominations whose red card blue holds (``code & 4``).
    Both families read their codes through this split.
    """
    holdings: tuple[list[int], ...] = ([], [], [], [], [])
    for d, code in zip(subset, codes):
        holdings[code & 3].append(d)
        if code & 4:
            holdings[4].append(d)
    return holdings


def _full_deck_codes(params: FullDeckParams) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The full-deck deal as (denominations 1..n, routing codes)."""
    codes = _code_list(params.n, params.green_in_red, params.blue_in_red, params.red_in_blue)
    return tuple(range(1, params.n + 1)), tuple(codes)


def _full_deck_params(n: int, subset: tuple[int, ...], codes: tuple[int, ...]) -> FullDeckParams:
    """Read the three choice sets off a full-deck deal's (subset, routing codes) form."""
    both, green, blue, _, to_blue = _holdings(subset, codes)
    return FullDeckParams(n, both + green, both + blue, to_blue)


def encode_full_deck(params: FullDeckParams) -> Deal:
    """Build the unique full-deck deal realizing the given choices."""
    _check_full_deck(params)
    return _deal(params.n, *_full_deck_codes(params))


def decode_full_deck(deal: Deal) -> FullDeckParams:
    """Read the three choice sets back off a full-deck deal."""
    require_valid(deal)
    if deal.s != frozenset(range(1, deal.n + 1)):
        raise ValueError("not a full-deck deal: the denomination set must be all of 1..n")
    return _full_deck_params(deal.n, *_codes(deal))


class RedSetParams(_Value):
    """Free choices that pin down a deal with a prescribed red denomination set.

    ``red_denoms`` is exactly the set of denominations in red's hand.
    Within it, ``both_colors`` marks denominations contributing their green
    and blue cards to red's hand, ``blue_only`` just the blue card, and the
    rest (``green_only``) just the green card.  Red's hand then has
    |red_denoms| + |both_colors| cards, so equal hand sizes pull
    |extra| = |both_colors| further denominations from outside
    ``red_denoms`` into play.  The green cards of ``blue_only`` and
    ``extra`` denominations are forced into blue's hand, which is topped up
    with the red cards of ``red_to_blue`` (|red_to_blue| = |both_colors| +
    |green_only|); green's hand takes everything left.  The constructor
    coerces the set fields to frozensets, checking each as given, so a value
    that is no int and merges into an equal int raises ValueError.
    Immutable: assigning or deleting an attribute raises AttributeError.
    Audit rendering (``to_text``):
    ``D={..};A={..};B={..};E={..};R={..}``, sorted elements.
    """

    __slots__ = ("n", "red_denoms", "both_colors", "blue_only", "extra", "red_to_blue")
    _LABELS = ("D", "A", "B", "E", "R")

    def __init__(
        self,
        n: int,
        red_denoms: Iterable[int],
        both_colors: Iterable[int],
        blue_only: Iterable[int],
        extra: Iterable[int],
        red_to_blue: Iterable[int],
    ) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "red_denoms", _frozen("red_denoms", n, red_denoms))
        object.__setattr__(self, "both_colors", _frozen("both_colors", n, both_colors))
        object.__setattr__(self, "blue_only", _frozen("blue_only", n, blue_only))
        object.__setattr__(self, "extra", _frozen("extra", n, extra))
        object.__setattr__(self, "red_to_blue", _frozen("red_to_blue", n, red_to_blue))

    @property
    def green_only(self) -> frozenset[int]:
        return self.red_denoms - self.both_colors - self.blue_only

    to_text = _params_text


def _check_red_set(params: RedSetParams) -> None:
    n, red, both, blue_only, extra, to_blue = params._astuple(params)
    _require_nonneg(n)
    if not _within(n, red):
        raise ValueError(f"red_denoms must lie within 1..{n}")
    # a subset test compares by ==, so each subset is also held to _within's exact ints
    if not (_within(n, both) and both <= red):
        raise ValueError("both_colors must be a subset of red_denoms")
    if not (_within(n, blue_only) and blue_only <= red - both):
        raise ValueError("blue_only must be a subset of red_denoms disjoint from both_colors")
    if not _within(n, extra) or not extra.isdisjoint(red):
        raise ValueError(f"extra must lie within 1..{n} and avoid red_denoms")
    if len(extra) != len(both):
        raise ValueError("need |extra| = |both_colors|")
    if not (_within(n, to_blue) and to_blue <= red | extra):
        raise ValueError("red_to_blue must lie within red_denoms plus extra")
    if len(to_blue) != len(both) + len(params.green_only):
        raise ValueError("need |red_to_blue| = |both_colors| + |green_only|")


def _red_set_codes(params: RedSetParams) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The red-set deal as (sorted denomination set, routing codes)."""
    subset = tuple(sorted(params.red_denoms | params.extra))
    holds_green = params.red_denoms - params.blue_only
    holds_blue = params.both_colors | params.blue_only
    codes = _code_list(params.n, holds_green, holds_blue, params.red_to_blue)
    return subset, tuple(codes[d - 1] for d in subset)


def _red_set_params(n: int, subset: tuple[int, ...], codes: tuple[int, ...]) -> RedSetParams:
    """Read the choice sets off any deal's (subset, routing codes) form."""
    both, green_only, blue_only, extra, to_blue = _holdings(subset, codes)
    return RedSetParams(n, both + green_only + blue_only, both, blue_only, extra, to_blue)


def encode_red_set(params: RedSetParams) -> Deal:
    """Build the unique deal whose red hand shows exactly ``red_denoms``."""
    _check_red_set(params)
    return _deal(params.n, *_red_set_codes(params))


def decode_red_set(deal: Deal) -> RedSetParams:
    """Read the choice sets back off any valid deal."""
    require_valid(deal)
    return _red_set_params(deal.n, *_codes(deal))


def iter_full_deck_params(n: int) -> Iterator[FullDeckParams]:
    """All valid full-deck tuples, lexicographic by (green, blue, red) choice sets."""
    _require_nonneg(n)
    universe = tuple(range(1, n + 1))
    for greens in subsets_lex(universe):
        for blues in combinations(universe, n - len(greens)):
            for reds in combinations(universe, len(greens)):
                yield FullDeckParams(n, greens, blues, reds)


def iter_red_set_params(n: int, denoms: Iterable[int]) -> Iterator[RedSetParams]:
    """All valid tuples for one red denomination set, in lexicographic order.

    The stream is ordered by (both_colors, blue_only, extra, red_to_blue) as
    sorted tuples; its length is red_set_count(n, len(denoms)).
    """
    _require_nonneg(n)
    given = tuple(denoms)
    _require_within(n, given)
    red = frozenset(given)
    red_denoms = tuple(sorted(red))
    outside = tuple(d for d in range(1, n + 1) if d not in red)
    for both in subsets_lex(red_denoms):
        rest = tuple(d for d in red_denoms if d not in both)
        for blue_only in subsets_lex(rest):
            green_only_size = len(rest) - len(blue_only)
            for extra in combinations(outside, len(both)):
                pool = tuple(sorted(red_denoms + extra))
                for red_to_blue in combinations(pool, len(both) + green_only_size):
                    yield RedSetParams(n, red, both, blue_only, extra, red_to_blue)
