import random

import pytest

from trideal import counting
from trideal.counting import (
    _red_prefix_terms,
    binomial,
    franel,
    lhs_sum,
    lhs_terms,
    red_distinct_count,
    red_prefix_sum,
    red_set_count,
    rhs_sum,
    rhs_terms,
    vandermonde_inner,
)

# Frozen from the brute-force enumeration oracle (see test_enumeration).
SEQUENCE = [1, 3, 15, 93, 639, 4653]
FRANEL = [1, 2, 10, 56, 346]


def pascal_triangle(rows):
    """Independent cross-check: binomials by the additive recurrence only."""
    triangle = [[1]]
    for n in range(1, rows + 1):
        prev = triangle[-1]
        triangle.append(
            [1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1]
        )
    return triangle


class TestBinomial:
    def test_values(self):
        assert binomial(4, 2) == 6
        assert binomial(0, 0) == 1
        assert binomial(5, 7) == 0
        assert binomial(5, -1) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    def test_matches_pascal_triangle(self):
        triangle = pascal_triangle(30)
        for n in range(31):
            for k in range(n + 1):
                assert binomial(n, k) == triangle[n][k]

    def test_symmetry(self):
        for n in range(31):
            for k in range(n + 1):
                assert binomial(n, k) == binomial(n, n - k)


class TestFranel:
    def test_small_values(self):
        assert [franel(n) for n in range(5)] == FRANEL

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            franel(-2)

    def test_walk_matches_the_definition(self):
        # the walk cubes each Pascal row by products; franel() is the readable sum
        assert list(counting._franel_terms(120)) == [franel(n) for n in range(121)]


class TestIdentity:
    def test_sequence_values(self):
        assert [lhs_sum(n) for n in range(6)] == SEQUENCE
        assert [rhs_sum(n) for n in range(6)] == SEQUENCE

    def test_sides_agree_up_to_250(self):
        for n, lhs in enumerate(lhs_terms(250)):
            assert lhs == rhs_sum(n)
        assert n == 250

    def test_values_are_exact_beyond_machine_words(self):
        value = rhs_sum(60)
        assert value == lhs_sum(60)
        assert value > 2 ** 64

    def test_consistency_with_bucket_counts(self):
        for n in range(21):
            assert sum(red_distinct_count(n, k) for k in range(n + 1)) == rhs_sum(n)
            assert sum(binomial(n, k) * franel(k) for k in range(n + 1)) == lhs_sum(n)


class TestLhsTerms:
    def test_walk_matches_direct_sum(self):
        for m in range(31):
            assert list(lhs_terms(m)) == [
                sum(binomial(n, k) * franel(k) for k in range(n + 1)) for n in range(m + 1)
            ]

    def test_sum_forms_only_the_last_dot_product(self, monkeypatch):
        expected = sum(binomial(10, k) * franel(k) for k in range(11))
        products, binomials = [], []
        original_mul, original_binomial = counting.mul, counting.binomial

        def counting_mul(a, b):
            products.append(1)
            return original_mul(a, b)

        def counting_binomial(n, k):
            binomials.append((n, k))
            return original_binomial(n, k)

        monkeypatch.setattr(counting, "mul", counting_mul)
        monkeypatch.setattr(counting, "binomial", counting_binomial)
        assert lhs_sum(10) == expected
        # two products for each cube of the first halves j < n/2 of rows 0..10
        # (30 entries; the middle entry of an even row is cubed by **), then one
        # C(10, k) for each k; the lower rows' dot products are never formed
        assert len(products) == 2 * 30
        assert binomials == [(10, k) for k in range(11)]

    def test_negative_rejected_on_first_next(self):
        walk = lhs_terms(-1)  # the call itself does not raise
        with pytest.raises(ValueError):
            next(walk)
        with pytest.raises(ValueError):
            lhs_sum(-1)


class TestBinomialTransform:
    def test_all_ones_give_the_powers_of_two(self):
        assert list(counting._binomial_transform([1] * 31)) == [2**n for n in range(31)]

    def test_the_unit_impulse_gives_all_ones(self):
        assert list(counting._binomial_transform([1] + [0] * 30)) == [1] * 31

    def test_a_random_sequence_matches_the_sum(self):
        rng = random.Random(20071226)
        terms = [rng.choice([0, 0, rng.randint(-10**6, 10**6)]) for _ in range(41)]
        assert list(counting._binomial_transform(terms)) == [
            sum(binomial(n, k) * terms[k] for k in range(n + 1)) for n in range(41)
        ]

    def test_an_empty_sequence_gives_nothing(self):
        assert list(counting._binomial_transform([])) == []

    def test_both_transforms_match_their_sums_deep_in_the_walk(self):
        lhs, prefix = list(lhs_terms(400)), list(_red_prefix_terms(400))
        for n in (300, 400):
            assert lhs[n] == lhs_sum(n) == rhs_sum(n)
            assert prefix[n] == red_prefix_sum(n)


class TestRhsTerms:
    def test_walk_matches_the_sum(self):
        assert list(rhs_terms(120)) == [rhs_sum(n) for n in range(121)]

    def test_negative_rejected_on_first_next(self):
        walk = rhs_terms(-1)  # the call itself does not raise
        with pytest.raises(ValueError):
            next(walk)


class TestCentralTerms:
    def test_each_term_is_the_central_binomial(self):
        assert list(counting._central_terms(300)) == [binomial(2 * k, k) for k in range(301)]

    def test_negative_rejected_on_first_next(self):
        walk = counting._central_terms(-1)  # the call itself does not raise
        with pytest.raises(ValueError):
            next(walk)


class TestBucketCounts:
    def test_red_set_count_at_n2(self):
        assert red_set_count(2, 0) == 1
        assert red_set_count(2, 1) == 4
        assert red_set_count(2, 2) == 6

    def test_red_distinct_count_at_n2(self):
        assert red_distinct_count(2, 0) == 1
        assert red_distinct_count(2, 1) == 8
        assert red_distinct_count(2, 2) == 6

    @pytest.mark.parametrize("fn", [red_set_count, red_distinct_count])
    def test_k_out_of_range_rejected(self, fn):
        with pytest.raises(ValueError, match=r"^need 0 <= k <= n, got k=3, n=2$"):
            fn(2, 3)
        with pytest.raises(ValueError, match=r"^need 0 <= k <= n, got k=-1, n=2$"):
            fn(2, -1)
        # a negative n is reported before k
        with pytest.raises(ValueError, match=r"^need n >= 0, got -1$"):
            fn(-1, 5)


class TestVandermonde:
    def test_examples(self):
        assert vandermonde_inner(2, 1) == 6
        assert vandermonde_inner(0, 0) == 1
        assert vandermonde_inner(3, 3) == 20

    def test_inner_sum_is_central_binomial_for_every_a(self):
        for k in range(13):
            for a in range(k + 1):
                assert vandermonde_inner(k, a) == binomial(2 * k, k)

    def test_outer_convolution_collapses(self):
        for n in range(13):
            for k in range(n + 1):
                total = sum(
                    binomial(k, a) * binomial(n - k, n - k - a) for a in range(k + 1)
                )
                assert total == binomial(n, k)

    def test_a_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            vandermonde_inner(2, 3)


class TestPrefixSum:
    def test_values(self):
        assert [red_prefix_sum(n) for n in range(4)] == [1, 3, 11, 45]

    def test_definition(self):
        for n in range(10):
            assert red_prefix_sum(n) == sum(red_set_count(n, k) for k in range(n + 1))

    def test_walk_matches_the_sum(self):
        assert list(_red_prefix_terms(120)) == [red_prefix_sum(n) for n in range(121)]

    def test_walk_rejects_negative_on_first_next(self):
        walk = _red_prefix_terms(-1)  # the call itself does not raise
        with pytest.raises(ValueError):
            next(walk)
