import pytest

from trideal.model import (
    Card,
    Color,
    Deal,
    deal_from_text,
    deal_record,
    deal_stats,
    deal_to_text,
    red_denomination_set,
    validate_deal,
)
from trideal.bijections import RedSetParams, encode_red_set
from trideal.enumeration import enumerate_deals


def deal(n, text):
    return deal_from_text(text, n)


class TestCard:
    def test_token_round_trip(self):
        for tok in ("r1", "g3", "b12"):
            assert Card.from_token(tok).token == tok

    @pytest.mark.parametrize("bad", ["x1", "g", "3g", "g-1", "", "g1 "])
    def test_malformed_token_rejected(self, bad):
        with pytest.raises(ValueError):
            Card.from_token(bad)

    def test_sort_key_orders_by_denomination_then_color(self):
        cards = [Card.from_token(t) for t in ("b1", "r2", "g1", "r1")]
        assert [c.token for c in sorted(cards, key=Card.sort_key)] == ["r1", "g1", "b1", "r2"]


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

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "S={1}",
            "S={1};R=[g1];G=[b1]",
            "R=[];G=[];B=[];S={}",
            "S={1};R=(g1);G=[b1];B=[r1]",
            # well-formed but non-canonical: each would otherwise be silently rewritten
            "S={1};R=[g1,g1];G=[b1];B=[r1]",
            "S={1};R=[g01];G=[b1];B=[r1]",
            "S={1,,};R=[g1];G=[b1];B=[r1]",
            "S={1};R=[g1];G=[b1];B=[r1] ",
        ],
    )
    def test_malformed_text_rejected(self, bad):
        with pytest.raises(ValueError):
            deal_from_text(bad, 1)

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

    def test_deal_is_hashable_and_value_compared(self):
        a = deal(1, "S={1};R=[g1];G=[b1];B=[r1]")
        b = Deal(1, [1], [Card.from_token("g1")], [Card.from_token("b1")], [Card.from_token("r1")])
        assert a == b
        assert len({a, b}) == 1
