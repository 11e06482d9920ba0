from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trideal.bijections import (
    FullDeckParams,
    RedSetParams,
    _decode_full_deck,
    _decode_red_set,
    _encode_full_deck,
    _encode_red_set,
    _full_deck_masks,
    _held_key,
    _params,
    _params_mask,
    _red_set_masks,
    decode_full_deck,
    decode_red_set,
    encode_full_deck,
    encode_red_set,
    iter_full_deck_params,
    iter_red_set_params,
)
from trideal.counting import franel, red_set_count
from trideal.enumeration import (
    _ROUTES,
    _deal,
    _deal_key,
    _key,
    _key_sets,
    _keys,
    _routing,
    enumerate_deals,
    enumerate_deals_with_red_denoms,
    enumerate_full_deck_deals,
    subsets_lex,
)
from trideal.model import Card, Color, Deal, deal_from_text, validate_deal


def deal(n, text):
    return deal_from_text(text, n)


# Readable references: each bijection built card by card from its choice sets.


def reference_encode_full_deck(params):
    universe = range(1, params.n + 1)
    red = {Card(d, Color.GREEN) for d in params.green_in_red} | {
        Card(d, Color.BLUE) for d in params.blue_in_red
    }
    blue = {Card(d, Color.GREEN) for d in universe if d not in params.green_in_red} | {
        Card(d, Color.RED) for d in params.red_in_blue
    }
    green = {Card(d, Color.BLUE) for d in universe if d not in params.blue_in_red} | {
        Card(d, Color.RED) for d in universe if d not in params.red_in_blue
    }
    return Deal(params.n, frozenset(universe), red, green, blue)


def reference_encode_red_set(params):
    s = params.red_denoms | params.extra
    red = {Card(d, Color.GREEN) for d in params.both_colors | params.green_only} | {
        Card(d, Color.BLUE) for d in params.both_colors | params.blue_only
    }
    blue = {Card(d, Color.GREEN) for d in params.blue_only | params.extra} | {
        Card(d, Color.RED) for d in params.red_to_blue
    }
    green = {Card(d, Color.BLUE) for d in params.green_only | params.extra} | {
        Card(d, Color.RED) for d in s - params.red_to_blue
    }
    return Deal(params.n, s, red, green, blue)


# Readable references for the public order: each stream's loops over sorted tuples.


def reference_full_deck_params(n):
    universe = tuple(range(1, n + 1))
    for greens in subsets_lex(universe):
        for blues in combinations(universe, n - len(greens)):
            for reds in combinations(universe, len(greens)):
                yield FullDeckParams(n, greens, blues, reds)


def reference_red_set_params(n, denoms):
    outside = tuple(d for d in range(1, n + 1) if d not in denoms)
    for both in subsets_lex(denoms):
        rest = tuple(d for d in denoms if d not in both)
        for blue_only in subsets_lex(rest):
            for extra in combinations(outside, len(both)):
                pool = tuple(sorted(denoms + extra))
                for to_blue in combinations(pool, len(both) + len(rest) - len(blue_only)):
                    yield RedSetParams(n, denoms, both, blue_only, extra, to_blue)


class TestCodeForms:
    # each mask stream runs in the public order, and each key's deal is the reference's

    def test_full_deck_codes_match_the_reference(self):
        for n in range(6):
            masks = _full_deck_masks(n)
            for mask, p in zip(masks, reference_full_deck_params(n), strict=True):
                assert _params(FullDeckParams, n, mask) == p and _params_mask(p) == mask
                key = _encode_full_deck(n, mask)
                assert _deal(n, key) == reference_encode_full_deck(p)
                assert _decode_full_deck(n, key) == mask

    def test_red_set_codes_match_the_reference(self):
        for n in range(6):
            for denoms in subsets_lex(tuple(range(1, n + 1))):
                masks = _red_set_masks(n, denoms)
                for mask, p in zip(masks, reference_red_set_params(n, denoms), strict=True):
                    assert _params(RedSetParams, n, mask) == p and _params_mask(p) == mask
                    key = _encode_red_set(n, mask)
                    assert _deal(n, key) == reference_encode_red_set(p)
                    assert _decode_red_set(n, key) == mask


@pytest.mark.parametrize("n", range(6))
def test_the_held_key_reads_every_oracle_key_back_off_its_deal(n):
    # the whole pass, the full deck and every red set, key for key
    options = [{}, {"full_deck": True}]
    options += [{"red_denoms": denoms} for denoms in subsets_lex(tuple(range(1, n + 1)))]
    for option in options:
        keys = _keys(n, True, **option)
        assert [_held_key(_deal(n, key)) for key in keys] == keys


@st.composite
def full_deck_params(draw):
    n = draw(st.integers(0, 16))
    deck = range(1, n + 1)
    green = draw(st.permutations(deck))[: draw(st.integers(0, n))]
    blue = draw(st.permutations(deck))[len(green) :]
    red = draw(st.permutations(deck))[: len(green)]
    return FullDeckParams(n, green, blue, red)


@st.composite
def red_set_params(draw):
    n = draw(st.integers(0, 16))
    deck = draw(st.permutations(range(1, n + 1)))
    size = draw(st.integers(0, n))
    red, outside = deck[:size], deck[size:]
    pairs = draw(st.integers(0, min(size, n - size)))
    both, rest = red[:pairs], red[pairs:]
    blue_only = rest[: draw(st.integers(0, len(rest)))]
    extra = outside[:pairs]
    to_blue = draw(st.permutations(red + extra))[: pairs + len(rest) - len(blue_only)]
    return RedSetParams(n, red, both, blue_only, extra, to_blue)


class TestCodecPastTheGuard:
    # every field width up to 16 bits, n = 0 (empty fields) and n = 1 (one bit) included

    @settings(max_examples=300, deadline=None)
    @given(full_deck_params())
    def test_full_deck_round_trip_and_reference(self, p):
        deal = encode_full_deck(p)
        assert deal == reference_encode_full_deck(p)
        assert decode_full_deck(deal) == p

    @settings(max_examples=300, deadline=None)
    @given(red_set_params())
    def test_red_set_round_trip_and_reference(self, p):
        deal = encode_red_set(p)
        assert deal == reference_encode_red_set(p)
        assert decode_red_set(deal) == p


# Whether red holds the green card, red holds the blue card, blue holds the red card.
MEMBERSHIPS = list(product((0, 1), repeat=3))


class TestSharedCodec:
    # Both families route each denomination by the sets that hold it alone:
    # the packing maps the eight membership patterns onto one denomination's
    # eight patterns of plane bits, and the split reads each back by itself.

    def test_the_eight_membership_patterns_give_the_eight_codes(self):
        codes = [_routing(1, _deal_key(1, 1, *pattern)) for pattern in MEMBERSHIPS]
        assert sorted(code for _, [code] in codes) == list(range(8))
        expected = [3 - 2 * green - blue + 4 * red for green, blue, red in MEMBERSHIPS]
        assert codes == [((1,), (code,)) for code in expected]

    @pytest.mark.parametrize("code", range(8))
    def test_the_split_files_each_code_alone(self, code):
        key = _key(1, (1,), (code,))
        assert _key_sets(1, key) == (1, 1 - (code >> 1 & 1), 1 - (code & 1), code >> 2)

    @pytest.mark.parametrize("pattern", MEMBERSHIPS)
    def test_the_split_inverts_the_packing(self, pattern):
        assert _key_sets(1, _deal_key(1, 1, *pattern)) == (1, *pattern)

    @pytest.mark.parametrize("code", range(8))
    def test_the_packing_and_the_split_read_each_code_as_the_oracle_routes_it(self, code):
        # red holds the green card when it goes to hand 0, red holds the blue
        # card when it goes to hand 0, and blue holds the red card when it goes to hand 2
        red, green, blue = _ROUTES[code]
        pattern = (int(green == 0), int(blue == 0), int(red == 2))
        assert _deal_key(1, 1, *pattern) == _key(1, (1,), (code,))
        assert _key_sets(1, _key(1, (1,), (code,))) == (1, *pattern)


class TestFullDeckEncode:
    def test_single_denomination_cycles(self):
        p = FullDeckParams(1, {1}, (), {1})
        assert encode_full_deck(p) == deal(1, "S={1};R=[g1];G=[b1];B=[r1]")
        p = FullDeckParams(1, (), {1}, ())
        assert encode_full_deck(p) == deal(1, "S={1};R=[b1];G=[r1];B=[g1]")

    def test_two_denominations(self):
        p = FullDeckParams(2, {1}, {2}, {2})
        assert encode_full_deck(p) == deal(2, "S={1,2};R=[g1,b2];G=[r1,b1];B=[r2,g2]")

    def test_encoded_deals_are_valid(self):
        for p in iter_full_deck_params(3):
            assert validate_deal(encode_full_deck(p)) is None

    def test_size_constraints_enforced(self):
        with pytest.raises(ValueError, match="blue_in_red"):
            encode_full_deck(FullDeckParams(2, {1}, (), {1}))
        with pytest.raises(ValueError, match="red_in_blue"):
            encode_full_deck(FullDeckParams(2, {1}, {2}, ()))

    def test_containment_enforced(self):
        with pytest.raises(ValueError, match="within"):
            encode_full_deck(FullDeckParams(1, {2}, (), {1}))
        with pytest.raises(ValueError, match=r"^need n >= 0, got -1$"):
            encode_full_deck(FullDeckParams(-1, (), (), ()))


class TestFullDeckDecode:
    def test_reads_choices_back(self):
        assert decode_full_deck(deal(1, "S={1};R=[g1];G=[b1];B=[r1]")) == FullDeckParams(
            1, {1}, (), {1}
        )
        assert decode_full_deck(deal(1, "S={1};R=[b1];G=[r1];B=[g1]")) == FullDeckParams(
            1, (), {1}, ()
        )
        assert decode_full_deck(
            deal(2, "S={1,2};R=[g1,b2];G=[r1,b1];B=[r2,g2]")
        ) == FullDeckParams(2, {1}, {2}, {2})

    def test_rejects_partial_deck(self):
        with pytest.raises(ValueError, match="full-deck"):
            decode_full_deck(deal(2, "S={1};R=[g1];G=[b1];B=[r1]"))

    def test_rejects_invalid_deal(self):
        with pytest.raises(ValueError, match="own-color"):
            decode_full_deck(deal(1, "S={1};R=[r1];G=[b1];B=[g1]"))


class TestFullDeckBijection:
    def test_param_count_is_franel(self):
        for n in range(5):
            assert sum(1 for _ in iter_full_deck_params(n)) == franel(n)

    def test_round_trips_exhaustive(self):
        for n in range(4):
            for p in iter_full_deck_params(n):
                assert decode_full_deck(encode_full_deck(p)) == p
            for d in enumerate_full_deck_deals(n):
                assert encode_full_deck(decode_full_deck(d)) == d

    def test_image_equals_enumeration(self):
        for n in range(4):
            image = {encode_full_deck(p) for p in iter_full_deck_params(n)}
            assert image == set(enumerate_full_deck_deals(n))


class TestRedSetEncode:
    def test_paired_denomination_pulls_an_extra_one(self):
        p = RedSetParams(2, {1}, {1}, (), {2}, {1})
        assert encode_red_set(p) == deal(2, "S={1,2};R=[g1,b1];G=[r2,b2];B=[r1,g2]")

    def test_blue_only_denomination_forces_everything(self):
        p = RedSetParams(2, {1}, (), {1}, (), ())
        assert encode_red_set(p) == deal(2, "S={1};R=[b1];G=[r1];B=[g1]")

    def test_empty_params_give_empty_deal(self):
        assert encode_red_set(RedSetParams(2, (), (), (), (), ())) == Deal(2, (), (), (), ())

    def test_encoded_deals_are_valid_and_show_the_set(self):
        for denoms in subsets_lex((1, 2, 3)):
            for p in iter_red_set_params(3, denoms):
                d = encode_red_set(p)
                assert validate_deal(d) is None
                assert frozenset(c.denomination for c in d.red) == frozenset(denoms)

    def test_constraints_enforced(self):
        with pytest.raises(ValueError, match="extra"):
            encode_red_set(RedSetParams(2, {1}, {1}, (), (), {1}))
        with pytest.raises(ValueError, match="red_to_blue"):
            encode_red_set(RedSetParams(2, {1}, {1}, (), {2}, ()))
        with pytest.raises(ValueError, match="both_colors"):
            encode_red_set(RedSetParams(2, {1}, {2}, (), (), ()))
        with pytest.raises(ValueError, match="blue_only"):
            encode_red_set(RedSetParams(2, {1}, {1}, {1}, {2}, {1}))
        with pytest.raises(ValueError, match=r"^need n >= 0, got -1$"):
            encode_red_set(RedSetParams(-1, (), (), (), (), ()))
        with pytest.raises(ValueError, match=r"^red_denoms must lie within 1\.\.1$"):
            encode_red_set(RedSetParams(1, {2}, (), (), (), ()))
        with pytest.raises(ValueError, match=r"^extra must lie within 1\.\.2 and avoid red_denoms"):
            encode_red_set(RedSetParams(2, {1}, {1}, (), {1}, {1}))
        with pytest.raises(ValueError, match=r"^extra must lie within 1\.\.2 and avoid red_denoms"):
            encode_red_set(RedSetParams(2, {1}, {1}, (), {2.0}, {1}))
        with pytest.raises(ValueError, match=r"^red_to_blue must lie within red_denoms plus extra"):
            encode_red_set(RedSetParams(2, {1}, (), (), (), {2}))


class TestRedSetDecode:
    def test_empty_deal(self):
        assert decode_red_set(Deal(2, (), (), (), ())) == RedSetParams(2, (), (), (), (), ())

    def test_blue_only_case(self):
        assert decode_red_set(deal(2, "S={1};R=[b1];G=[r1];B=[g1]")) == RedSetParams(
            2, {1}, (), {1}, (), ()
        )

    def test_paired_case(self):
        assert decode_red_set(
            deal(2, "S={1,2};R=[g1,b1];G=[r2,b2];B=[r1,g2]")
        ) == RedSetParams(2, {1}, {1}, (), {2}, {1})

    def test_rejects_invalid_deal(self):
        with pytest.raises(ValueError, match="invalid deal"):
            decode_red_set(deal(1, "S={1};R=[r1];G=[b1];B=[g1]"))


class TestRedSetBijection:
    def test_param_count_matches_formula(self):
        for n in range(4):
            for denoms in subsets_lex(tuple(range(1, n + 1))):
                count = sum(1 for _ in iter_red_set_params(n, denoms))
                assert count == red_set_count(n, len(denoms))

    def test_round_trips_exhaustive(self):
        for n in range(4):
            for denoms in subsets_lex(tuple(range(1, n + 1))):
                for p in iter_red_set_params(n, denoms):
                    assert decode_red_set(encode_red_set(p)) == p
            for d in enumerate_deals(n):
                assert encode_red_set(decode_red_set(d)) == d

    def test_image_equals_enumeration_per_set(self):
        for n in range(4):
            for denoms in subsets_lex(tuple(range(1, n + 1))):
                image = {encode_red_set(p) for p in iter_red_set_params(n, denoms)}
                assert image == set(enumerate_deals_with_red_denoms(n, denoms))

    def test_blue_hand_composition_law(self):
        # blue always holds |both|+|blue_only| green cards and
        # |both|+|green_only| red cards
        for denoms in subsets_lex((1, 2, 3)):
            for p in iter_red_set_params(3, denoms):
                d = encode_red_set(p)
                greens = sum(1 for c in d.blue if c.color is Color.GREEN)
                reds = sum(1 for c in d.blue if c.color is Color.RED)
                assert greens == len(p.both_colors) + len(p.blue_only)
                assert reds == len(p.both_colors) + len(p.green_only)

    def test_iteration_is_deterministic(self):
        first = list(iter_red_set_params(3, (1, 3)))
        second = list(iter_red_set_params(3, (1, 3)))
        assert first == second

    def test_rejects_out_of_range_set(self):
        with pytest.raises(ValueError):
            next(iter_red_set_params(2, (5,)))

    def test_rejects_negative_n_like_the_full_deck_stream(self):
        for params in (iter_red_set_params(-1, ()), iter_full_deck_params(-1)):
            with pytest.raises(ValueError, match=r"^need n >= 0, got -1$"):
                next(params)


@pytest.mark.parametrize("fake", [1.0, True], ids=repr)
def test_a_denomination_equal_to_1_but_no_int_is_out_of_range(fake):
    # a test by == passed these, and the deal printed S={1.0} or R=[bTrue]
    for given in ({fake}, [1, fake]):
        # checked as given, before the constructor's set merges the fake into an equal int
        with pytest.raises(ValueError, match=r"^red_denoms must lie within 1\.\.1$"):
            encode_red_set(RedSetParams(1, given, (), given, (), ()))
        with pytest.raises(ValueError, match=r"^green_in_red must lie within 1\.\.1$"):
            encode_full_deck(FullDeckParams(1, given, (), {1}))
    # a repeated exact int still freezes to {1}, and a generator is still read
    assert FullDeckParams(1, [1, 1], (), iter([1])) == FullDeckParams(1, {1}, (), {1})
    assert RedSetParams(1, [1, 1], (), iter([1]), (), ()) == RedSetParams(1, {1}, (), {1}, (), ())
    for given in ([fake], [1, fake]):
        # checked as given, before a set merges the fake into an equal int
        shown = ", ".join(map(repr, given))
        message = rf"^denominations \[{shown}\] not within 1\.\.1$"
        for stream in (iter_red_set_params(1, given), enumerate_deals_with_red_denoms(1, given)):
            with pytest.raises(ValueError, match=message):
                next(stream)
    # a repeated exact int still runs as {1}
    for stream in (iter_red_set_params, enumerate_deals_with_red_denoms):
        assert list(stream(1, [1, 1])) == list(stream(1, [1]))


@pytest.mark.parametrize("fake", [1.0, True], ids=repr)
@pytest.mark.parametrize(
    "field, base",
    [
        pytest.param("both_colors", RedSetParams(2, {1}, {1}, (), {2}, {1}), id="both_colors"),
        pytest.param("blue_only", RedSetParams(1, {1}, (), {1}, (), ()), id="blue_only"),
        pytest.param("red_to_blue", RedSetParams(1, {1}, (), (), (), {1}), id="red_to_blue"),
    ],
)
def test_a_subset_holding_a_value_equal_to_1_but_no_int_is_refused(field, base, fake):
    # the subset tests compared by ==: 1.0 then failed in the encoder with
    # TypeError, and True encoded a deal such as S={1};R=[b1];G=[r1];B=[g1]
    encode_red_set(base)
    fields = dict(zip(RedSetParams.__slots__, base._astuple(base)), **{field: {fake}})
    with pytest.raises(ValueError, match=rf"^{field} must "):
        encode_red_set(RedSetParams(**fields))


def test_a_red_set_that_does_not_sort_is_out_of_range():
    # both streams sorted the set, one before its range check and one in its
    # message, so {1, "a"} raised TypeError
    message = r"^denominations \['a', 1\] not within 1\.\.3$"
    for stream in (iter_red_set_params(3, {1, "a"}), enumerate_deals_with_red_denoms(3, {1, "a"})):
        with pytest.raises(ValueError, match=message):
            next(stream)
    # int sets keep their message
    for stream in (iter_red_set_params(2, {3, 0}), enumerate_deals_with_red_denoms(2, {3, 0})):
        with pytest.raises(ValueError, match=r"^denominations \[0, 3\] not within 1\.\.2$"):
            next(stream)


def test_param_text_rendering():
    p = RedSetParams(2, {1}, {1}, (), {2}, {1})
    assert p.to_text() == "D={1};A={1};B={};E={2};R={1}"
    q = FullDeckParams(2, {1}, {2}, {2})
    assert q.to_text() == "green_in_red={1};blue_in_red={2};red_in_blue={2}"
    assert FullDeckParams.to_text is RedSetParams.to_text


@pytest.mark.parametrize(
    "value, fields, loose, other, text",
    [
        (
            FullDeckParams(2, {1}, {2}, {2}),
            (2, frozenset({1}), frozenset({2}), frozenset({2})),
            {"n": 2, "green_in_red": [1], "blue_in_red": (2,), "red_in_blue": {2}},
            FullDeckParams(2, {1}, {2}, {1}),
            "FullDeckParams(n=2, green_in_red=frozenset({1}), blue_in_red=frozenset({2}),"
            " red_in_blue=frozenset({2}))",
        ),
        (
            RedSetParams(2, {1}, {1}, (), {2}, {1}),
            (2, frozenset({1}), frozenset({1}), frozenset(), frozenset({2}), frozenset({1})),
            {
                "n": 2,
                "red_denoms": [1],
                "both_colors": (1,),
                "blue_only": [],
                "extra": {2},
                "red_to_blue": range(1, 2),
            },
            RedSetParams(2, {1}, {1}, (), {2}, {2}),
            "RedSetParams(n=2, red_denoms=frozenset({1}), both_colors=frozenset({1}),"
            " blue_only=frozenset(), extra=frozenset({2}), red_to_blue=frozenset({1}))",
        ),
    ],
    ids=["FullDeckParams", "RedSetParams"],
)
def test_params_are_immutable_values(value_contract, value, fields, loose, other, text):
    value_contract(value, fields, loose, other, text)
