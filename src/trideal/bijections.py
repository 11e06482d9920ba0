"""Constructive correspondences between parameter tuples and deals.

Two parameterizations are implemented, one per counting formula.  The
full-deck form pins down a deal that uses every denomination; the red-set
form pins down a deal with a prescribed red denomination set.  In both,
``encode`` and ``decode`` are exact inverses, and the parameter space is
exactly as large as the deal family it maps onto (the exhaustive audits in
the test suite and the ``audit`` CLI subcommand check this).

Both bijections share one form, denomination bitmasks: bit d - 1 of a mask
stands for denomination d, and several sets pack their masks in order, ``n``
bits a set.  A parameter set is its set fields so packed: ``g | b << n | r
<< 2n`` for the full-deck form (green_in_red, blue_in_red, red_in_blue)
and ``red | both << n | blue_only << 2n | extra << 3n | red_to_blue << 4n``
for the red-set form.  A deal is the oracle's key, which ``enumeration``
packs and reads: its subset and three holdings, the green cards red holds,
the blue cards red holds and the red cards blue holds, each as a mask
within the subset.  ``enumeration._deal_key`` packs a key from those four
masks and ``_key_sets`` reads them back, so both families write and read
their keys through one pair and differ only in how their fields give the
holdings.  Each encoder, ``_encode_*(n, params) -> key``, and each decoder,
``_decode_*(n, key) -> params``, is a handful of set operations on masks,
with no loop over the denominations, and the mask streams ``_*_masks``
yield the parameters in the public order.  The public ``iter_*_params``,
``encode_*`` and ``decode_*`` functions convert ``*Params`` objects to and
from their masks, and a ``Deal`` to and from its key in one step each:
``encode_*`` builds the deal from its key with the oracle's ``_deal``, and
``decode_*`` reads the holdings off the deal's hands and packs them with
``_deal_key`` (``_held_key``).  The ``audit`` subcommand uses the masks and
keys directly.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

from .enumeration import _deal, _deal_key, _denoms, _key_sets, subsets_lex
from .model import (
    Color,
    Deal,
    _Value,
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
        self._set(n, green_in_red, blue_in_red, red_in_blue)

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


def _mask(denoms: Iterable[int]) -> int:
    """The bitmask of distinct denominations: bit d - 1 set for each d."""
    return sum(1 << d - 1 for d in denoms)


def _params_mask(params: FullDeckParams | RedSetParams) -> int:
    """A parameter set's set fields as masks, packed in field order, ``n`` bits a field."""
    n, *fields = params._astuple(params)
    return sum(_mask(field) << i * n for i, field in enumerate(fields))


def _params(cls: type, n: int, mask: int) -> FullDeckParams | RedSetParams:
    """The ``cls`` parameter set over 1..n that ``mask`` packs; the inverse of ``_params_mask``."""
    full, fields = (1 << n) - 1, []
    for _ in cls._LABELS:
        fields.append(_denoms(mask & full))
        mask >>= n
    return cls(n, *fields)


def _held_key(deal: Deal) -> int:
    """A valid deal's key: the three holdings ``_deal_key`` packs, read off its hands."""
    holds_green = _mask(card.denomination for card in deal.red if card.color is Color.GREEN)
    holds_blue = _mask(card.denomination for card in deal.red if card.color is Color.BLUE)
    to_blue = _mask(card.denomination for card in deal.blue if card.color is Color.RED)
    return _deal_key(deal.n, _mask(deal.s), holds_green, holds_blue, to_blue)


def _encode_full_deck(n: int, params: int) -> int:
    """The key of the full-deck deal a parameter mask ``g | b << n | r << 2n`` pins down."""
    full = (1 << n) - 1
    return _deal_key(n, full, params & full, params >> n & full, params >> 2 * n)


def _decode_full_deck(n: int, key: int) -> int:
    """The parameter mask of a full-deck deal's key."""
    _, holds_green, holds_blue, to_blue = _key_sets(n, key)
    return holds_green | holds_blue << n | to_blue << 2 * n


def encode_full_deck(params: FullDeckParams) -> Deal:
    """Build the unique full-deck deal realizing the given choices."""
    _check_full_deck(params)
    return _deal(params.n, _encode_full_deck(params.n, _params_mask(params)))


def decode_full_deck(deal: Deal) -> FullDeckParams:
    """Read the three choice sets back off a full-deck deal."""
    require_valid(deal)
    if deal.s != frozenset(range(1, deal.n + 1)):
        raise ValueError("not a full-deck deal: the denomination set must be all of 1..n")
    return _params(FullDeckParams, deal.n, _decode_full_deck(deal.n, _held_key(deal)))


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
        self._set(n, red_denoms, both_colors, blue_only, extra, red_to_blue)

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


def _encode_red_set(n: int, params: int) -> int:
    """The key of the deal a red-set parameter mask pins down.

    The mask is ``red | both << n | blue_only << 2n | extra << 3n |
    red_to_blue << 4n``; red holds the green card of ``red`` outside
    ``blue_only`` and the blue card of ``both`` and ``blue_only``.
    """
    full = (1 << n) - 1
    red, both = params & full, params >> n & full
    blue_only, extra = params >> 2 * n & full, params >> 3 * n & full
    return _deal_key(n, red | extra, red & ~blue_only, both | blue_only, params >> 4 * n)


def _decode_red_set(n: int, key: int) -> int:
    """The red-set parameter mask of any deal's key."""
    subset, holds_green, holds_blue, to_blue = _key_sets(n, key)
    red, both = holds_green | holds_blue, holds_green & holds_blue
    blue_only, extra = holds_blue & ~holds_green, subset & ~red
    return red | both << n | blue_only << 2 * n | extra << 3 * n | to_blue << 4 * n


def encode_red_set(params: RedSetParams) -> Deal:
    """Build the unique deal whose red hand shows exactly ``red_denoms``."""
    _check_red_set(params)
    return _deal(params.n, _encode_red_set(params.n, _params_mask(params)))


def decode_red_set(deal: Deal) -> RedSetParams:
    """Read the choice sets back off any valid deal."""
    require_valid(deal)
    return _params(RedSetParams, deal.n, _decode_red_set(deal.n, _held_key(deal)))


def _full_deck_masks(n: int) -> Iterator[int]:
    """Every full-deck parameter mask, in ``iter_full_deck_params`` order."""
    _require_nonneg(n)
    bits = tuple(1 << d for d in range(n))
    # each size's subsets of 1..n as masks, in lexicographic order
    masks = [list(map(sum, combinations(bits, size))) for size in range(n + 1)]
    for greens in subsets_lex(bits):
        reds = [mask << 2 * n for mask in masks[len(greens)]]
        for blues in masks[n - len(greens)]:
            yield from map((sum(greens) | blues << n).__or__, reds)


def _red_set_masks(n: int, denoms: Iterable[int]) -> Iterator[int]:
    """Every parameter mask for one red denomination set, in ``iter_red_set_params`` order."""
    _require_nonneg(n)
    given = tuple(denoms)
    _require_within(n, given)
    red = _mask(frozenset(given))
    bits = tuple(1 << d for d in range(n))
    red_bits = tuple(bit for bit in bits if bit & red)
    outside = tuple(bit for bit in bits if not bit & red)
    for both in subsets_lex(red_bits):
        rest = tuple(bit for bit in red_bits if bit not in both)
        for blue_only in subsets_lex(rest):
            to_blue_size = len(both) + len(rest) - len(blue_only)
            head = red | sum(both) << n | sum(blue_only) << 2 * n
            for extra in combinations(outside, len(both)):
                # red_to_blue's pool, its bits shifted into the field, in increasing order
                pool = sorted(bit << 4 * n for bit in red_bits + extra)
                fields = head | sum(extra) << 3 * n
                yield from map(fields.__or__, map(sum, combinations(pool, to_blue_size)))


def iter_full_deck_params(n: int) -> Iterator[FullDeckParams]:
    """All valid full-deck tuples, lexicographic by (green, blue, red) choice sets."""
    for mask in _full_deck_masks(n):
        yield _params(FullDeckParams, n, mask)


def iter_red_set_params(n: int, denoms: Iterable[int]) -> Iterator[RedSetParams]:
    """All valid tuples for one red denomination set, in lexicographic order.

    The stream is ordered by (both_colors, blue_only, extra, red_to_blue) as
    sorted tuples; its length is red_set_count(n, len(denoms)).
    """
    for mask in _red_set_masks(n, denoms):
        yield _params(RedSetParams, n, mask)
