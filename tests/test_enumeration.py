import pytest

from trideal.counting import binomial, franel, red_distinct_count, red_set_count
from trideal.enumeration import (
    EXHAUSTIVE_GUARD,
    GuardError,
    count_deals,
    enumerate_deals,
    enumerate_deals_with_red_denoms,
    enumerate_full_deck_deals,
    histogram,
    subsets_lex,
)
from trideal.model import (
    deal_from_text,
    deal_stats,
    deal_to_text,
    red_denomination_set,
    validate_deal,
)

TOTALS = [1, 3, 15, 93, 639]


def test_subsets_lex_order():
    assert list(subsets_lex((1, 2, 3))) == [
        (),
        (1,),
        (1, 2),
        (1, 2, 3),
        (1, 3),
        (2,),
        (2, 3),
        (3,),
    ]


class TestEnumerateDeals:
    def test_totals(self):
        assert [count_deals(n) for n in range(5)] == TOTALS

    def test_every_deal_valid(self):
        for n in range(4):
            for deal in enumerate_deals(n):
                assert validate_deal(deal) is None

    def test_no_duplicates(self):
        for n in range(4):
            deals = list(enumerate_deals(n))
            assert len(set(deals)) == len(deals)

    def test_n0_yields_only_empty_deal(self):
        (deal,) = enumerate_deals(0)
        assert deal.s == frozenset() and not deal.red

    def test_n1_yields_exactly_both_cycles(self):
        texts = [deal_to_text(d) for d in enumerate_deals(1)]
        assert texts == [
            "S={};R=[];G=[];B=[]",
            "S={1};R=[b1];G=[r1];B=[g1]",
            "S={1};R=[g1];G=[b1];B=[r1]",
        ]

    def test_deterministic_streams(self):
        assert list(enumerate_deals(3)) == list(enumerate_deals(3))

    def test_guard_refuses_large_n(self):
        with pytest.raises(GuardError):
            next(enumerate_deals(EXHAUSTIVE_GUARD + 1))

    def test_guard_override(self):
        stream = enumerate_deals(EXHAUSTIVE_GUARD + 1, allow_large=True)
        first = next(stream)
        assert first.s == frozenset()

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            next(enumerate_deals(-1))


def test_routing_code_paths_match_the_built_deals():
    # counts, histograms and the red-set filter never build a Deal; check
    # each against the statistics of the deals enumerate_deals yields
    for n in range(5):
        deals = list(enumerate_deals(n))
        stats = [deal_stats(deal) for deal in deals]
        assert count_deals(n) == len(deals)
        for statistic in ("s_size", "red_distinct"):
            keys = [getattr(s, statistic) for s in stats]
            assert histogram(n, statistic) == {k: keys.count(k) for k in range(n + 1)}
        for denoms in subsets_lex(tuple(range(1, n + 1))):
            assert list(enumerate_deals_with_red_denoms(n, denoms)) == [
                deal for deal in deals if red_denomination_set(deal) == frozenset(denoms)
            ]


class TestFullDeckDeals:
    def test_counts_match_franel(self):
        for n in range(5):
            assert sum(1 for _ in enumerate_full_deck_deals(n)) == franel(n)

    def test_all_use_every_denomination(self):
        for deal in enumerate_full_deck_deals(3):
            assert deal.s == frozenset({1, 2, 3})

    def test_subset_of_main_stream(self):
        full = set(enumerate_full_deck_deals(2))
        assert full == {d for d in enumerate_deals(2) if d.s == frozenset({1, 2})}


class TestRedDenomsDeals:
    @pytest.mark.parametrize(
        "denoms,count", [((), 1), ((1,), 4), ((2,), 4), ((1, 2), 6)]
    )
    def test_counts_at_n2(self, denoms, count):
        deals = list(enumerate_deals_with_red_denoms(2, denoms))
        assert len(deals) == count
        assert count == red_set_count(2, len(denoms))

    def test_exactly_the_requested_set(self):
        for deal in enumerate_deals_with_red_denoms(3, (1, 3)):
            assert {c.denomination for c in deal.red} == {1, 3}

    def test_count_depends_only_on_size(self):
        n = 4
        for size in range(n + 1):
            counts = set()
            for denoms in subsets_lex(tuple(range(1, n + 1))):
                if len(denoms) == size:
                    counts.add(sum(1 for _ in enumerate_deals_with_red_denoms(n, denoms)))
            assert counts == {red_set_count(n, size)}

    def test_rejects_out_of_range_denoms(self):
        with pytest.raises(ValueError):
            next(enumerate_deals_with_red_denoms(2, (3,)))


class TestHistogram:
    def test_pinned_n2(self):
        assert histogram(2, "s_size") == {0: 1, 1: 4, 2: 10}
        assert histogram(2, "red_distinct") == {0: 1, 1: 8, 2: 6}

    def test_n0(self):
        assert histogram(0, "s_size") == {0: 1}
        assert histogram(0, "red_distinct") == {0: 1}

    def test_matches_closed_forms(self):
        for n in range(5):
            by_size = histogram(n, "s_size")
            by_red = histogram(n, "red_distinct")
            for k in range(n + 1):
                assert by_size[k] == binomial(n, k) * franel(k)
                assert by_red[k] == red_distinct_count(n, k)

    def test_empty_red_hand_bucket_is_the_empty_deal_alone(self):
        # equal hand sizes force s to be empty whenever red's hand is
        for n in range(5):
            assert histogram(n, "red_distinct")[0] == 1

    def test_buckets_sum_to_total(self):
        for n in range(5):
            assert sum(histogram(n, "s_size").values()) == TOTALS[n]

    def test_unknown_statistic_rejected(self):
        with pytest.raises(ValueError):
            histogram(2, "hand_size")


def test_round_trip_through_text_form():
    for n in range(5):
        for deal in enumerate_deals(n):
            assert deal_from_text(deal_to_text(deal), n) == deal
