import re
from collections import Counter
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trideal import enumeration
from trideal.counting import (
    binomial,
    franel,
    lhs_sum,
    red_distinct_count,
    red_prefix_sum,
    red_set_count,
)
from trideal.enumeration import (
    EXHAUSTIVE_GUARD,
    _CODES,
    _GREEN_LOAD,
    _HOLDINGS,
    _RED_LOAD,
    _ROUTES,
    _deal,
    _histograms,
    _join_groups,
    _joins,
    _key,
    _keys,
    _key_sets,
    _lines,
    _routing_hands,
    STATISTICS,
    GuardError,
    count_deals,
    enumerate_deals,
    enumerate_deals_with_red_denoms,
    enumerate_full_deck_deals,
    histogram,
    subsets_lex,
)
from trideal.model import (
    COLORS,
    Card,
    Deal,
    deal_from_text,
    deal_stats,
    deal_to_text,
    hand_text,
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
    # counts, histograms and the red-set streams never build a Deal; check
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


class TestRouteTable:
    # The oracle's one fact per code: the hand (red 0, green 1, blue 2) that
    # each of a denomination's red, green and blue cards goes to.

    def test_holds_every_routing_the_rule_allows_once(self):
        allowed = {
            route
            for route in product(range(3), repeat=3)
            if all(hand != card for card, hand in enumerate(route))
        }
        assert len(_ROUTES) == len(set(_ROUTES)) == len(_CODES) == 8
        assert set(_ROUTES) == allowed

    @pytest.mark.parametrize("code", _CODES)
    def test_each_bit_sends_one_card_to_its_second_hand(self, code):
        # bit 2 sends the red card to blue, bit 1 the green card to blue, bit 0 the blue to green
        red, green, blue = _ROUTES[code]
        bits = (bool(code & 4), bool(code & 2), bool(code & 1))
        assert bits == (red == 2, green == 2, blue == 1)

    def test_each_code_gives_its_holdings(self):
        # whether red holds the green card, red holds the blue card and blue
        # holds the red card, written out here rather than read off the routes
        assert _HOLDINGS == (
            (1, 1, 0),
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 0),
            (1, 1, 1),
            (1, 0, 1),
            (0, 1, 1),
            (0, 0, 1),
        )


def symmetry_maps():
    """The twelve maps on the codes: a colour permutation, then the complement or not.

    A permutation ``perm`` of the colours, applied to cards and hands alike,
    sends the card of colour c routed to hand h to the card of colour perm[c]
    routed to hand perm[h].  The complement then sends each card to its other
    allowed hand, the one of neither its colour nor its current hand.
    """
    code_of = {route: code for code, route in enumerate(_ROUTES)}
    maps = {}
    for perm in permutations(range(3)):
        for complement in (False, True):
            images = []
            for route in _ROUTES:
                image = [0, 0, 0]
                for card, hand in enumerate(route):
                    image[perm[card]] = perm[hand]
                if complement:
                    image = [3 - card - hand for card, hand in enumerate(image)]
                images.append(code_of[tuple(image)])
            maps[perm, complement] = tuple(images)
    return maps


def exponent(code):
    """The loads of red's, green's and blue's hand under ``code``, each minus 1."""
    return tuple(_ROUTES[code].count(hand) - 1 for hand in range(3))


class TestTwelveSymmetries:
    # The walk stores a twelfth of each power of the base and trusts the
    # hexagon's twelve symmetries for the rest; in deal terms they are twelve
    # maps on routings, derived here from the rule, not from laurent.

    def test_the_twelve_maps_are_distinct(self):
        assert len(set(symmetry_maps().values())) == 12

    @pytest.mark.parametrize("n", range(EXHAUSTIVE_GUARD + 1))
    def test_the_deals_are_closed_under_each_map(self, n):
        deals = set(reference_routings(n))
        for codes_map in symmetry_maps().values():
            images = {(subset, tuple(codes_map[c] for c in codes)) for subset, codes in deals}
            assert images == deals

    def test_each_map_permutes_the_exponents_and_may_negate_them(self):
        # the exponent maps of the hexagon, in (ex, ey, ez) = (red, green, blue)
        for (perm, complement), codes_map in symmetry_maps().items():
            sign = -1 if complement else 1
            for code in _CODES:
                permuted = [0, 0, 0]
                for hand, e in enumerate(exponent(code)):
                    permuted[perm[hand]] = sign * e
                assert exponent(codes_map[code]) == tuple(permuted)

    @pytest.mark.parametrize("n", range(EXHAUSTIVE_GUARD + 1))
    def test_fixed_deals_per_map(self, n):
        # the identity fixes every deal, the two 3-cycles 3**n, each complemented
        # transposition red_prefix_sum(n), and the other six the empty deal alone
        deals = list(reference_routings(n))
        for (perm, complement), codes_map in symmetry_maps().items():
            fixed = sum(all(codes_map[c] == c for c in codes) for _, codes in deals)
            kind = (sum(p == c for c, p in enumerate(perm)), complement)
            expected = {(3, False): lhs_sum(n), (0, False): 3**n, (1, True): red_prefix_sum(n)}
            assert fixed == expected.get(kind, 1)


def reference_routings(n, full_deck=False):
    """The readable definition: every code tuple of each subset, kept when balanced."""
    deck = tuple(range(1, n + 1))
    for subset in (deck,) if full_deck else subsets_lex(deck):
        size = len(subset)
        for codes in product(range(8), repeat=size):
            red = sum(_RED_LOAD[code] for code in codes)
            if red == size == sum(_GREEN_LOAD[code] for code in codes):
                yield subset, codes


def reference_red_set(subset, codes):
    """The readable definition: the denominations with a card routed to red's hand."""
    return tuple(d for d, code in zip(subset, codes) if 0 in _ROUTES[code])


def reference_streams(n, kind):
    """Each stream of one kind at n as (options, its reference routings).

    ``kind`` is "all" (the whole pass), "full-deck" or "red-sets" (one
    stream per red set, each filtered from the whole pass).
    """
    if kind != "red-sets":
        full_deck = kind == "full-deck"
        yield {"full_deck": full_deck}, list(reference_routings(n, full_deck))
        return
    by_red_set = {}
    for routing in reference_routings(n):
        by_red_set.setdefault(reference_red_set(*routing), []).append(routing)
    for denoms in subsets_lex(tuple(range(1, n + 1))):
        yield {"red_denoms": denoms}, by_red_set.get(denoms, [])


def reference_key(n, subset, codes):
    # the subset, then the denominations whose green card red holds (bit 1 clear), whose
    # blue card red holds (bit 0 clear) and whose red card blue holds (bit 2 set), n bits each
    planes = [
        subset,
        [d for d, c in zip(subset, codes) if not c & 2],
        [d for d, c in zip(subset, codes) if not c & 1],
        [d for d, c in zip(subset, codes) if c & 4],
    ]
    return sum(1 << i * n + d - 1 for i, plane in enumerate(planes) for d in plane)


def reference_deal(n, subset, codes):
    """The readable definition: each card of each denomination in the hand its code routes it to."""
    hands = ([], [], [])
    for d, code in zip(subset, codes):
        for color, hand in zip(COLORS, _ROUTES[code]):
            hands[hand].append(Card(d, color))
    return Deal(n, subset, *hands)


STREAM_KINDS = ["all", "full-deck", "red-sets"]


@pytest.fixture
def red_load_lookups(monkeypatch):
    """Every code whose red load is read from ``_RED_LOAD``, in order."""
    lookups = []

    class CountingLoads(tuple):
        def __getitem__(self, code):
            lookups.append(code)
            return tuple.__getitem__(self, code)

    monkeypatch.setattr(enumeration, "_RED_LOAD", CountingLoads(_RED_LOAD))
    return lookups


class TestRoutings:
    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("kind", STREAM_KINDS)
    def test_keys_match_the_product_and_filter_reference(self, n, kind):
        # key for key, in order, past the guard too: the whole pass, the full
        # deck and every red set, each key packed from its reference routing
        for options, routings in reference_streams(n, kind):
            keys = list(_keys(n, True, **options))
            assert keys == [reference_key(n, *routing) for routing in routings]
            assert keys == [_key(n, *routing) for routing in routings]

    def test_form_only_balanced_tuples(self, red_load_lookups):
        assert count_deals(5) == 4653
        # heads and tails of at most 3 codes read 2080 red loads in all;
        # filtering all 9**5 = 59,049 candidate tuples read 262,440
        assert 0 < len(red_load_lookups) <= 2500

    def test_form_each_red_set_directly(self, red_load_lookups):
        # a red set fixes which codes each denomination may take, so no red
        # set reads more than 830 loads; filtering a whole pass read 22,150
        for denoms in subsets_lex((1, 2, 3, 4, 5)):
            red_load_lookups.clear()
            deals = sum(1 for _ in enumerate_deals_with_red_denoms(5, denoms))
            assert deals == red_set_count(5, len(denoms))
            assert 0 < len(red_load_lookups) <= 1000

    @pytest.mark.parametrize("red_denoms", [None, (1, 3), (1,), ()])
    def test_form_each_join_once_per_alphabet_tuple(self, monkeypatch, red_denoms):
        alphabets = []
        original = enumeration._joins

        def counting_joins(codes):
            alphabets.append(codes)
            return original(codes)

        monkeypatch.setattr(enumeration, "_joins", counting_joins)
        n = 5 if red_denoms is None else 4
        subsets = [subset for subset, _ in _join_groups(n, False, red_denoms=red_denoms)]
        if red_denoms is None:
            # every code may sit at every position, so one join per size 0..5
            assert len(subsets) == 32 and len(alphabets) == 6
        else:
            # a red set's alphabets depend only on which positions hold its denominations
            shown = {tuple(d in red_denoms for d in subset) for subset in subsets}
            assert len(alphabets) == len(set(alphabets)) == len(shown)

    @pytest.mark.parametrize("stream", [_join_groups, _keys])
    def test_arguments_are_checked_before_the_stream_starts(self, stream):
        # so enumerate can print its first line before the stream ends
        for full_deck in (False, True):
            with pytest.raises(GuardError):
                stream(EXHAUSTIVE_GUARD + 1, False, full_deck=full_deck)
            with pytest.raises(ValueError):
                stream(-1, True, full_deck=full_deck)
        with pytest.raises(GuardError):
            stream(EXHAUSTIVE_GUARD + 1, False, red_denoms=())
        with pytest.raises(ValueError, match="not within"):
            stream(2, False, red_denoms=(3,))
        with pytest.raises(ValueError, match="need n >= 0"):
            stream(-1, False, red_denoms=(1,))


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("kind", STREAM_KINDS)
def test_each_key_deals_the_cards_its_reference_routing_places(n, kind):
    # the round trip through _held_key cannot see a plane misread the same
    # way in both directions; a deal placed through _ROUTES alone can
    for options, routings in reference_streams(n, kind):
        deals = [_deal(n, key) for key in _keys(n, True, **options)]
        assert deals == [reference_deal(n, *routing) for routing in routings]


def test_code_text_and_code_reading_match_the_built_deal():
    # the deal is built from the key of the codes
    for n in range(6):
        for subset, codes in reference_routings(n):
            built = _deal(n, _key(n, subset, codes))
            tokens = _routing_hands(subset, codes)
            hands = (built.red, built.green, built.blue)
            assert [f"[{','.join(t)}]" for t in tokens] == [hand_text(h) for h in hands]


# A code tuple's alphabets: up to five positions, each any non-empty sorted subset of the codes.
alphabet_tuples = st.lists(
    st.sets(st.sampled_from(_CODES), min_size=1).map(lambda codes: tuple(sorted(codes))),
    max_size=5,
).map(tuple)


@settings(max_examples=200, deadline=None)
@given(alphabet_tuples)
def test_a_join_lists_each_met_tail_group_once(alphabets):
    size = len(alphabets)
    heads, groups = _joins(alphabets)
    # head + tail runs through the balanced tuples, in increasing order
    balanced = [
        codes
        for codes in product(*alphabets)
        if sum(_RED_LOAD[c] for c in codes) == sum(_GREEN_LOAD[c] for c in codes) == size
    ]
    assert [head + tail for head, index in heads for tail in groups[index]] == balanced
    # each group is non-empty, shares no tail with another, and is numbered
    # in the order heads first meet it, so every group is met
    assert all(groups)
    assert len({tail for group in groups for tail in group}) == sum(map(len, groups))
    assert list(dict.fromkeys(index for _, index in heads)) == list(range(len(groups)))


@pytest.mark.parametrize(
    "stream, options",
    [
        (enumerate_deals, {}),
        (enumerate_full_deck_deals, {"full_deck": True}),
        (lambda n: enumerate_deals_with_red_denoms(n, (1, 3)), {"red_denoms": (1, 3)}),
    ],
    ids=["all", "full-deck", "red-set"],
)
def test_a_deal_stream_makes_each_card_once(stream, options, monkeypatch):
    n = 4
    # the same deals, each read back from its text form with cards of its own
    text = "".join(_lines(_join_groups(n, False, **options), "text"))
    expected = [deal_from_text(line, n) for line in text.splitlines()]
    made = []
    init = Card.__init__

    def counting_init(self, denomination, color):
        made.append((denomination, color))
        init(self, denomination, color)

    monkeypatch.setattr(Card, "__init__", counting_init)
    assert list(stream(n)) == expected
    assert len(made) <= 3 * n


def csv_line(text):
    """A deal's text form as ``enumerate --format csv`` writes it: each field's commas as spaces."""
    fields = re.fullmatch(r"S=\{(.*)\};R=\[(.*)\];G=\[(.*)\];B=\[(.*)\]", text).groups()
    return ",".join(field.replace(",", " ") for field in fields)


def every_stream():
    """Each stream as (n, options): all deals and the full deck to n = 6, every red set to 5."""
    for n in range(7):
        yield n, {}
        yield n, {"full_deck": True}
    for n in range(6):
        for denoms in subsets_lex(tuple(range(1, n + 1))):
            yield n, {"red_denoms": denoms}


class TestLines:
    def test_each_line_is_its_deals_text(self):
        for n, options in every_stream():
            deals = enumeration._deals(n, _keys(n, True, **options))
            texts = list(map(deal_to_text, deals))
            heads = sum(len(join[0]) for _, join in _join_groups(n, True, **options))
            for form, lines in (("text", texts), ("csv", list(map(csv_line, texts)))):
                blocks = list(_lines(_join_groups(n, True, **options), form))
                assert "".join(blocks).splitlines() == lines
                # one string per head, each ending its last line
                assert len(blocks) == heads
                assert all(block.endswith("\n") for block in blocks)

    def test_renders_each_head_once_and_each_tail_once_a_subset(self, monkeypatch):
        rendered = []
        original = enumeration._routing_hands

        def counting_hands(denoms, codes):
            rendered.append((denoms, codes))
            return original(denoms, codes)

        monkeypatch.setattr(enumeration, "_routing_hands", counting_hands)
        groups = list(_join_groups(5, False))
        assert sum(1 for _ in _lines(groups, "text")) == 550
        # per subset, its heads and the distinct tails they meet
        expected = Counter()
        for subset, (heads, tails) in groups:
            head, tail = subset[: len(subset) // 2], subset[len(subset) // 2 :]
            expected.update((head, h) for h, _ in heads)
            expected.update((tail, t) for t in {t for _, i in heads for t in tails[i]})
        assert Counter(rendered) == expected
        # rendering every deal whole would take 4653 calls
        assert len(rendered) < 4653


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

    def test_none_is_not_a_denomination_set(self):
        # None would mean "no restriction" to the join groups; the empty set is red showing nothing
        with pytest.raises(TypeError):
            next(enumerate_deals_with_red_denoms(3, None))
        assert len(list(enumerate_deals_with_red_denoms(3, ()))) == 1


class TestHistogram:
    def test_pinned_n2(self):
        assert histogram(2, "s_size") == {0: 1, 1: 4, 2: 10}
        assert histogram(2, "red_distinct") == {0: 1, 1: 8, 2: 6}

    def test_n0(self):
        assert histogram(0, "s_size") == {0: 1}
        assert histogram(0, "red_distinct") == {0: 1}

    def test_matches_closed_forms(self):
        # past the guard too: n = 7 is 272,835 deals
        for n in range(8):
            assert count_deals(n, allow_large=True) == lhs_sum(n)
            by_size = histogram(n, "s_size", allow_large=True)
            by_red = histogram(n, "red_distinct", allow_large=True)
            for k in range(n + 1):
                assert by_size[k] == binomial(n, k) * franel(k)
                assert by_red[k] == red_distinct_count(n, k)

    def test_matches_the_readable_definition(self):
        # each bucket counts the built deals whose deal_stats give that value
        for n in range(6):
            stats = [deal_stats(d) for d in enumerate_deals(n)]
            for statistic in STATISTICS:
                buckets = histogram(n, statistic)
                assert list(buckets) == list(range(n + 1))
                assert Counter(buckets) == Counter(getattr(s, statistic) for s in stats)

    def test_empty_red_hand_bucket_is_the_empty_deal_alone(self):
        # equal hand sizes force s to be empty whenever red's hand is
        for n in range(5):
            assert histogram(n, "red_distinct")[0] == 1

    def test_buckets_sum_to_total(self):
        for n in range(5):
            assert sum(histogram(n, "s_size").values()) == TOTALS[n]

    @pytest.mark.parametrize("n", range(8))
    def test_join_groups_match_the_per_deal_reference(self, n):
        # per deal: its subset's size, and how many denominations red's hand
        # shows, those whose green or blue card red holds
        by_size = dict.fromkeys(range(n + 1), 0)
        by_red = dict.fromkeys(range(n + 1), 0)
        for key in _keys(n, True):
            subset, holds_green, holds_blue, _ = _key_sets(n, key)
            by_size[bin(subset).count("1")] += 1
            by_red[bin(holds_green | holds_blue).count("1")] += 1
        assert _histograms(n, True) == (by_size, by_red)

    def test_reads_each_red_distinct_once_per_alphabet(self, monkeypatch):
        n, reads = 7, []
        original = enumeration._red_distinct

        def counting_red_distinct(codes):
            reads.append(codes)
            return original(codes)

        monkeypatch.setattr(enumeration, "_red_distinct", counting_red_distinct)
        _histograms(n, True)
        # one alphabet tuple per size: each head once, and each tail once
        allowed = Counter()
        for size in range(n + 1):
            heads, groups = _joins((_CODES,) * size)
            allowed.update(head for head, _ in heads)
            allowed.update({tail for _, index in heads for tail in groups[index]})
        assert Counter(reads) <= allowed
        # one read per deal would be 272,835
        assert len(reads) <= 8000

    def test_unknown_statistic_rejected(self):
        with pytest.raises(ValueError):
            histogram(2, "hand_size")


def test_round_trip_through_text_form():
    for n in range(5):
        for deal in enumerate_deals(n):
            assert deal_from_text(deal_to_text(deal), n) == deal
