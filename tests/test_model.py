import inspect
import sys

import pytest

import trideal
from trideal.model import (
    COLORS,
    Card,
    Color,
    Deal,
    deal_from_text,
    deal_record,
    deal_stats,
    deal_to_text,
    red_denomination_set,
    require_valid,
    validate_deal,
)
from trideal.bijections import (
    FullDeckParams,
    RedSetParams,
    decode_full_deck,
    decode_red_set,
    encode_full_deck,
    encode_red_set,
)
from trideal.enumeration import enumerate_deals


def deal(n, text):
    return deal_from_text(text, n)


class TestCard:
    def test_token_round_trip(self):
        for tok in ("r1", "g3", "b12"):
            assert Card.from_token(tok).token == tok

    @pytest.mark.parametrize("bad", ["x1", "g", "3g", "g-1", "", "g1 ", "r01", "g007"])
    def test_malformed_token_rejected(self, bad):
        with pytest.raises(ValueError):
            Card.from_token(bad)

    def test_hash_runs_one_python_function(self):
        # colors hash by identity in C, so enum's Python-level hash never runs
        card, calls = Card(1, Color.RED), []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            hash(card)
        finally:
            sys.setprofile(None)
        assert calls == ["__hash__"]

    def test_sort_key_orders_by_denomination_then_color(self):
        cards = [Card.from_token(t) for t in ("b1", "r2", "g1", "r1")]
        assert [c.token for c in sorted(cards, key=Card.sort_key)] == ["r1", "g1", "b1", "r2"]


class TestColor:
    def test_letter_and_order_follow_colors(self):
        assert [color.letter for color in COLORS] == ["r", "g", "b"]
        assert [color.order for color in COLORS] == [0, 1, 2]

    def test_from_token_returns_the_color_member(self):
        for color in COLORS:
            assert Card.from_token(f"{color.letter}1").color is color


class TestValidateDeal:
    def test_forced_three_cycle_is_valid(self):
        assert validate_deal(deal(1, "S={1};R=[g1];G=[b1];B=[r1]")) is None

    def test_own_color_detected(self):
        assert validate_deal(deal(1, "S={1};R=[r1];G=[b1];B=[g1]")) == "own-color"

    def test_coverage_detected_when_s_mismatches(self):
        # denomination 2 is dealt but not in S
        bad = deal(2, "S={1};R=[g1,b1];G=[r2,b2];B=[r1,g2]")
        assert validate_deal(bad) == "coverage"

    def test_range_detected(self):
        assert validate_deal(deal(2, "S={3};R=[g3];G=[b3];B=[r3]")) == "range"
        assert validate_deal(Deal(-1, (), (), (), ())) == "range"
        # S lies within 1..n, but red holds a card of denomination 2
        red, green, blue = ({Card.from_token(t)} for t in ("g2", "b1", "r1"))
        assert validate_deal(Deal(1, {1}, red, green, blue)) == "range"

    @pytest.mark.parametrize("fake", [1.0, True], ids=repr)
    def test_range_detected_for_a_denomination_equal_to_1_but_no_int(self, fake):
        # a test by == passed these, and the deal printed S={1.0} or R=[gTrue]
        for s in ({fake}, {1}):
            hands = ({Card(fake, color)} for color in (Color.GREEN, Color.BLUE, Color.RED))
            assert validate_deal(Deal(1, s, *hands)) == "range"

    @pytest.mark.parametrize("fake_first", [False, True], ids=["int-first", "fake-first"])
    @pytest.mark.parametrize("field", ["s", "red", "green", "blue"])
    def test_a_field_holding_1_and_an_equal_fake_is_refused_in_either_order(
        self, field, fake_first
    ):
        # frozenset kept whichever came first: S=[1, 1.0] validated, S=[1.0, 1] was "range"
        for fake in (1.0, True):
            fields = {"s": [1], "red": [G1], "green": [B1], "blue": [R1]}
            (value,) = fields[field]
            twin = fake if field == "s" else Card(fake, value.color)
            fields[field] = [twin, value] if fake_first else [value, twin]
            with pytest.raises(ValueError, match=f"^{field} must lie within 1..1$"):
                Deal(1, **fields)

    def test_a_repeated_int_or_card_still_merges(self):
        merged = Deal(1, [1, 1], [G1, Card(1, Color.GREEN)], (B1, B1), iter([R1, R1]))
        assert merged == Deal(1, {1}, {G1}, {B1}, {R1})
        assert validate_deal(merged) is None

    def test_a_repeated_value_with_no_exact_twin_merges_and_is_judged(self):
        for fake in (1.0, True):
            assert Deal(1, [fake, fake], (), (), ()).s == {1}
            assert validate_deal(Deal(1, [fake, fake], [G1], [B1], [R1])) == "range"
            twin = Card(fake, Color.GREEN)
            assert validate_deal(Deal(1, [1], [twin, twin], [B1], [R1])) == "range"
        assert validate_deal(Deal(1, [1], [None, None], [B1], [R1])) == "coverage"

    @pytest.mark.parametrize("fake", [True, 1.0, 0.5], ids=repr)
    def test_range_detected_for_a_deck_size_that_is_no_int(self, fake):
        # only n < 0 was tested: True passed as 1, and 1.0 reached range in a decoder
        assert validate_deal(Deal(fake, (), (), (), ())) == "range"
        assert validate_deal(Deal(fake, {1}, {G1}, {B1}, {R1})) == "range"

    def test_size_detected(self):
        # coverage holds, but red has both non-red cards of denomination 1
        bad = Deal(
            1,
            {1},
            {Card.from_token("g1"), Card.from_token("b1")},
            {Card.from_token("r1")},
            (),
        )
        assert validate_deal(bad) == "size"

    def test_duplicate_card_across_hands_is_coverage(self):
        g1 = Card.from_token("g1")
        bad = Deal(1, {1}, {g1}, {g1}, {Card.from_token("r1")})
        assert validate_deal(bad) == "coverage"

    def test_an_entry_that_is_not_exactly_a_card_is_coverage(self):
        # an instance of a subclass carries the same denomination and color, but is no Card
        class Twin(Card):
            pass

        assert validate_deal(Deal(1, {1}, [G1], [B1], [R1])) is None
        assert validate_deal(Deal(1, {1}, [Twin(1, Color.GREEN)], [B1], [R1])) == "coverage"

    def test_builds_no_card(self, monkeypatch):
        # coverage compares (denomination, color) pairs, so it needs no Card of its own
        deals = list(enumerate_deals(3))
        bad = deal(2, "S={1};R=[g1,b1];G=[r2,b2];B=[r1,g2]")

        def refuse(*args):
            raise AssertionError("validate_deal built a Card")

        monkeypatch.setattr(Card, "__init__", refuse)
        assert [validate_deal(d) for d in deals] == [None] * len(deals)
        assert validate_deal(bad) == "coverage"

    def test_empty_deal_valid_for_any_n(self):
        for n in (0, 1, 4):
            assert validate_deal(Deal(n, (), (), (), ())) is None


class TestDealStats:
    def test_empty_deal(self):
        assert deal_stats(Deal(0, (), (), (), ())) == (0, 0)
        assert deal_stats(Deal(2, (), (), (), ())) == (0, 0)

    def test_single_denomination(self):
        assert deal_stats(deal(1, "S={1};R=[g1];G=[b1];B=[r1]")) == (1, 1)

    def test_two_denominations_one_in_red(self):
        # built through the red-set construction: red shows {1}, deck also deals 2
        d = encode_red_set(RedSetParams(2, {1}, {1}, (), {2}, {1}))
        assert validate_deal(d) is None
        assert deal_stats(d) == (2, 1)

    def test_invalid_deal_rejected(self):
        with pytest.raises(ValueError, match="own-color"):
            deal_stats(deal(1, "S={1};R=[r1];G=[b1];B=[g1]"))


@pytest.mark.parametrize(
    "bad, kind",
    [
        # the deal text sorted {1, "a"}, and read the letter of a color that is no Color
        (Deal(2, {1, "a"}, (), (), ()), "range"),
        (Deal(1, {1}, [Card(1, "x")], (), ()), "coverage"),
        # an entry that is no Card has no denomination, and the checks read one
        (Deal(1, {1}, [1], (), ()), "coverage"),
        (Deal(1, {1}, [Card(1, Color.GREEN)], [None], [Card(1, Color.RED)]), "coverage"),
        # a repeat with no exact twin merges, whatever it is, and is judged as one value
        (Deal(1, {1}, [None, None], (), ()), "coverage"),
        # a Card out of range is still reported first
        (Deal(1, {1}, [Card(2, Color.GREEN)], [None], ()), "range"),
    ],
    ids=[
        "unsortable-set",
        "no-color",
        "int-entry",
        "none-entry",
        "repeated-none-entry",
        "range-before-no-card",
    ],
)
def test_every_deal_validate_deal_judges_is_rejected_with_value_error(bad, kind):
    assert validate_deal(bad) == kind
    checks = (require_valid, deal_stats, red_denomination_set, decode_full_deck, decode_red_set)
    for check in checks:
        with pytest.raises(ValueError, match=rf"^invalid deal \({kind}\): Deal\(n="):
            check(bad)


def test_a_hand_entry_that_is_no_card_is_named_by_repr():
    with pytest.raises(ValueError) as raised:
        require_valid(Deal(1, {1}, [1], [], []))
    assert str(raised.value) == (
        "invalid deal (coverage): Deal(n=1, s=frozenset({1}), red=frozenset({1}), "
        "green=frozenset(), blue=frozenset())"
    )


def test_a_deal_that_forms_text_keeps_its_message():
    bad = deal(1, "S={1};R=[r1];G=[b1];B=[g1]")
    with pytest.raises(ValueError) as raised:
        require_valid(bad)
    assert str(raised.value) == "invalid deal (own-color): S={1};R=[r1];G=[b1];B=[g1]"


class TestRedDenominationSet:
    def test_empty(self):
        assert red_denomination_set(Deal(3, (), (), (), ())) == frozenset()

    def test_singleton(self):
        assert red_denomination_set(deal(1, "S={1};R=[g1];G=[b1];B=[r1]")) == {1}

    def test_red_set_construction_controls_it(self):
        d = encode_red_set(RedSetParams(2, {1}, {1}, (), {2}, {1}))
        assert red_denomination_set(d) == {1}

    def test_matches_stats(self):
        for d in enumerate_deals(3):
            assert deal_stats(d).red_distinct == len(red_denomination_set(d))


# Each text deal_from_text rejects, with its exact message.
MALFORMED_TEXT = {
    "": "malformed deal text: ''",
    "S={1}": "malformed deal text: 'S={1}'",
    "S={1};R=[g1];G=[b1]": "malformed deal text: 'S={1};R=[g1];G=[b1]'",
    "R=[];G=[];B=[];S={}": "malformed deal text: 'R=[];G=[];B=[];S={}'",
    "S={1};R=(g1);G=[b1];B=[r1]": "malformed deal text: 'S={1};R=(g1);G=[b1];B=[r1]'",
    # int() raised its own message for a denomination that is no integer
    "S={a};R=[];G=[];B=[]": "malformed deal text: 'S={a};R=[];G=[];B=[]'",
    # well-formed but non-canonical: each would otherwise be silently rewritten
    "S={1};R=[g1,g1];G=[b1];B=[r1]": "non-canonical deal text: 'S={1};R=[g1,g1];G=[b1];B=[r1]'",
    "S={1};R=[g01];G=[b1];B=[r1]": "malformed card token: 'g01'",
    "S={1,,};R=[g1];G=[b1];B=[r1]": "non-canonical deal text: 'S={1,,};R=[g1];G=[b1];B=[r1]'",
    "S={1};R=[g1];G=[b1];B=[r1] ": "non-canonical deal text: 'S={1};R=[g1];G=[b1];B=[r1] '",
}


class TestTextForm:
    def test_canonical_rendering(self):
        d = encode_red_set(RedSetParams(2, {1}, {1}, (), {2}, {1}))
        assert deal_to_text(d) == "S={1,2};R=[g1,b1];G=[r2,b2];B=[r1,g2]"

    def test_empty_deal_rendering(self):
        assert deal_to_text(Deal(0, (), (), (), ())) == "S={};R=[];G=[];B=[]"

    def test_round_trip_exhaustive(self):
        for n in range(4):
            for d in enumerate_deals(n):
                assert deal_from_text(deal_to_text(d), n) == d

    @pytest.mark.parametrize("bad", MALFORMED_TEXT)
    def test_malformed_text_rejected(self, bad):
        with pytest.raises(ValueError) as raised:
            deal_from_text(bad, 1)
        assert str(raised.value) == MALFORMED_TEXT[bad]

    def test_record_mirrors_text_fields(self):
        d = encode_red_set(RedSetParams(2, {1}, {1}, (), {2}, {1}))
        assert deal_record(d) == {
            "s": [1, 2],
            "red": ["g1", "b1"],
            "green": ["r2", "b2"],
            "blue": ["r1", "g2"],
        }


class TestHandLaws:
    def test_each_hand_has_s_size_cards(self):
        for n in range(4):
            for d in enumerate_deals(n):
                assert len(d.red) == len(d.green) == len(d.blue) == len(d.s)

    def test_hands_keyed_in_canonical_order(self):
        d = deal(1, "S={1};R=[g1];G=[b1];B=[r1]")
        assert list(d.hands) == [Color.RED, Color.GREEN, Color.BLUE]
        assert d.hand(Color.GREEN) == d.green

    @pytest.mark.parametrize("color", ["r", "b", 0, 2, None])
    def test_hand_takes_only_a_color(self, color):
        # a color's letter, a hand position or None is no Color, and names no hand
        d = deal(1, "S={1};R=[g1];G=[b1];B=[r1]")
        with pytest.raises(ValueError, match="not a color"):
            d.hand(color)
        assert [d.hand(c) for c in COLORS] == [d.red, d.green, d.blue]

    def test_deal_is_hashable_and_value_compared(self):
        a = deal(1, "S={1};R=[g1];G=[b1];B=[r1]")
        b = Deal(1, [1], [Card.from_token("g1")], [Card.from_token("b1")], [Card.from_token("r1")])
        assert a == b
        assert len({a, b}) == 1


G1, B1, R1 = Card(1, Color.GREEN), Card(1, Color.BLUE), Card(1, Color.RED)


@pytest.mark.parametrize(
    "value, fields, loose, other, text",
    [
        (
            Card(3, Color.GREEN),
            (3, Color.GREEN),
            {"denomination": 3, "color": Color.GREEN},
            Card(3, Color.BLUE),
            "Card(denomination=3, color=<Color.GREEN: 'g'>)",
        ),
        (
            Deal(1, {1}, {G1}, {B1}, {R1}),
            (1, frozenset({1}), frozenset({G1}), frozenset({B1}), frozenset({R1})),
            {"n": 1, "s": [1], "red": [G1], "green": (B1,), "blue": {R1}},
            Deal(2, {1}, {G1}, {B1}, {R1}),
            "Deal(n=1, s=frozenset({1}),"
            " red=frozenset({Card(denomination=1, color=<Color.GREEN: 'g'>)}),"
            " green=frozenset({Card(denomination=1, color=<Color.BLUE: 'b'>)}),"
            " blue=frozenset({Card(denomination=1, color=<Color.RED: 'r'>)}))",
        ),
    ],
    ids=["Card", "Deal"],
)
def test_is_an_immutable_value(value_contract, value, fields, loose, other, text):
    value_contract(value, fields, loose, other, text)


# every public entry point that takes a deck size, as a call on that size
SIZED_ENTRY_POINTS = {
    "base_power": trideal.base_power,
    "base_power_text": lambda n: list(trideal.base_power_text(n)),
    "binomial": lambda n: trideal.binomial(n, 1),
    "constant_terms": lambda n: list(trideal.constant_terms(n)),
    "count_deals": trideal.count_deals,
    "encode_full_deck": lambda n: encode_full_deck(FullDeckParams(n, {1}, (), {1})),
    "encode_red_set": lambda n: encode_red_set(RedSetParams(n, (), (), (), (), ())),
    "enumerate_deals": lambda n: list(trideal.enumerate_deals(n)),
    "enumerate_deals_with_red_denoms": lambda n: list(
        trideal.enumerate_deals_with_red_denoms(n, ())
    ),
    "enumerate_full_deck_deals": lambda n: list(trideal.enumerate_full_deck_deals(n)),
    "franel": trideal.franel,
    "histogram": lambda n: trideal.histogram(n, "s_size"),
    "iter_full_deck_params": lambda n: list(trideal.iter_full_deck_params(n)),
    "iter_red_set_params": lambda n: list(trideal.iter_red_set_params(n, ())),
    "lhs_sum": trideal.lhs_sum,
    "lhs_terms": lambda n: list(trideal.lhs_terms(n)),
    "red_distinct_count": lambda n: trideal.red_distinct_count(n, 1),
    "red_prefix_sum": trideal.red_prefix_sum,
    "red_set_count": lambda n: trideal.red_set_count(n, 1),
    "rhs_sum": trideal.rhs_sum,
    "rhs_terms": lambda n: list(trideal.rhs_terms(n)),
    "sequence_term": trideal.sequence_term,
}


def test_every_entry_point_that_takes_a_deck_size_is_listed():
    sized = {
        name
        for name in trideal.__all__
        if inspect.isfunction(getattr(trideal, name))
        and next(iter(inspect.signature(getattr(trideal, name)).parameters), None) in ("n", "max_n")
    }
    encoders = {"encode_full_deck", "encode_red_set"}  # their params carry n
    assert set(SIZED_ENTRY_POINTS) == sized | encoders


@pytest.mark.parametrize("name", sorted(SIZED_ENTRY_POINTS))
@pytest.mark.parametrize("fake", [True, 2.0], ids=repr)
def test_a_deck_size_equal_to_an_int_but_no_int_is_rejected(name, fake):
    # True used to count as 1 and 2.0 to fail inside range or math.comb
    with pytest.raises(ValueError, match=rf"^need n >= 0, got {fake!r}$"):
        SIZED_ENTRY_POINTS[name](fake)


# every other integer argument of a public entry point, as a call on that value
COUNT_ARGUMENTS = {
    "binomial k": lambda k: trideal.binomial(5, k),
    "red_distinct_count k": lambda k: trideal.red_distinct_count(3, k),
    "red_set_count k": lambda k: trideal.red_set_count(3, k),
    "vandermonde_inner a": lambda a: trideal.vandermonde_inner(2, a),
    "vandermonde_inner k": lambda k: trideal.vandermonde_inner(k, 0),
}


def test_every_other_integer_argument_is_listed():
    taken = {
        f"{name} {parameter}"
        for name in trideal.__all__
        if inspect.isfunction(getattr(trideal, name))
        for parameter in inspect.signature(getattr(trideal, name)).parameters
        if parameter in ("k", "a")
    }
    assert set(COUNT_ARGUMENTS) == taken


@pytest.mark.parametrize("name", sorted(COUNT_ARGUMENTS))
@pytest.mark.parametrize("fake", [True, 2.0], ids=repr)
def test_a_count_argument_equal_to_an_int_but_no_int_is_rejected(name, fake):
    # True used to count as 1, and 2.0 to fail inside math.comb or name a parameter
    # the function does not have
    parameter = name.split()[1]
    with pytest.raises(ValueError, match=rf"^need an int {parameter}, got {fake!r}$"):
        COUNT_ARGUMENTS[name](fake)
