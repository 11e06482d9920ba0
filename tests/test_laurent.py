import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trideal.laurent import CT_GUARD, LaurentPoly, identity_polynomials, sequence_term

X = LaurentPoly.monomial(1, 0)
X_INV = LaurentPoly.monomial(-1, 0)
Y = LaurentPoly.monomial(0, 1)
Y_INV = LaurentPoly.monomial(0, -1)

# bounded exponents and coefficients keep the ring-law search space small
small_polys = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.integers(-9, 9),
    max_size=6,
).map(LaurentPoly)


class TestArithmetic:
    def test_add(self):
        assert X + X_INV == LaurentPoly({(1, 0): 1, (-1, 0): 1})

    def test_additive_identity(self):
        p = LaurentPoly({(2, -1): 5, (0, 0): -3})
        assert p + LaurentPoly() == p
        assert p + 0 == p

    def test_cancellation_prunes_zeros(self):
        assert X + (-X) == LaurentPoly()
        assert len(X - X) == 0

    def test_square_of_symmetric_sum(self):
        assert (X + X_INV) ** 2 == LaurentPoly({(2, 0): 1, (0, 0): 2, (-2, 0): 1})

    def test_multiplicative_identity(self):
        p = LaurentPoly({(1, 1): 2, (-2, 0): 7})
        assert p * LaurentPoly.constant(1) == p
        assert p * 1 == p
        assert 1 * p == p

    def test_scalar_multiplication(self):
        assert 2 * X == LaurentPoly({(1, 0): 2})
        assert X * 0 == LaurentPoly()

    def test_pow_edge_cases(self):
        p = LaurentPoly({(1, -1): 3})
        assert p ** 0 == 1
        assert p ** 1 == p

    def test_negative_pow_rejected(self):
        with pytest.raises(ValueError):
            X ** -1

    def test_pow_matches_iterated_multiplication(self):
        base, _, _ = identity_polynomials()
        iterated = LaurentPoly.constant(1)
        for n in range(9):
            assert base ** n == iterated
            iterated = iterated * base


class TestConstantTerm:
    def test_of_constant(self):
        assert LaurentPoly.constant(1).constant_term() == 1

    def test_absent_means_zero(self):
        assert (X + Y_INV).constant_term() == 0

    def test_of_base_power(self):
        base, _, _ = identity_polynomials()
        assert base.constant_term() == 3
        assert (base ** 2).constant_term() == 15


class TestIdentityPolynomials:
    def test_base_expansion(self):
        # hand expansion of 1 + (1+x)(1+y/x)(1+1/y)
        base, _, _ = identity_polynomials()
        assert base.coefficients == {
            (0, 0): 3,
            (1, 0): 1,
            (-1, 0): 1,
            (0, 1): 1,
            (0, -1): 1,
            (-1, 1): 1,
            (1, -1): 1,
        }
        assert len(base) == 7

    def test_factor1_reads_off_the_display(self):
        _, factor1, _ = identity_polynomials()
        assert factor1 == LaurentPoly({(0, 0): 1, (0, -1): 1, (1, -1): 1})

    def test_factorization(self):
        base, factor1, factor2 = identity_polynomials()
        assert factor1 * factor2 == base

    def test_power_support_stays_in_box(self):
        base, _, _ = identity_polynomials()
        for n in range(11):
            assert all(
                -n <= ex <= n and -n <= ey <= n for ex, ey in (base ** n).support()
            )


class TestSequenceTerm:
    def test_values(self):
        assert [sequence_term(n) for n in range(5)] == [1, 3, 15, 93, 639]

    def test_both_factorizations_generate_the_same_terms(self):
        base, factor1, factor2 = identity_polynomials()
        for n in range(8):
            split = (factor1 ** n) * (factor2 ** n)
            assert split == base ** n
            assert split.constant_term() == sequence_term(n)

    def test_guard(self):
        with pytest.raises(ValueError):
            sequence_term(-1)
        with pytest.raises(ValueError):
            sequence_term(CT_GUARD + 1)


class TestRingLaws:
    @settings(max_examples=150, deadline=None)
    @given(small_polys, small_polys)
    def test_addition_commutes(self, p, q):
        assert p + q == q + p

    @settings(max_examples=150, deadline=None)
    @given(small_polys, small_polys)
    def test_multiplication_commutes(self, p, q):
        assert p * q == q * p

    @settings(max_examples=150, deadline=None)
    @given(small_polys, small_polys, small_polys)
    def test_multiplication_associates(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @settings(max_examples=150, deadline=None)
    @given(small_polys, small_polys, small_polys)
    def test_distributivity(self, p, q, r):
        assert p * (q + r) == p * q + p * r


class TestText:
    def test_zero(self):
        assert LaurentPoly().to_text() == "0"

    def test_base_rendering_is_graded_lex(self):
        base, _, _ = identity_polynomials()
        assert base.to_text() == "x + y + x*y^-1 + 3 + x^-1*y + y^-1 + x^-1"

    def test_signs_and_coefficients(self):
        p = LaurentPoly({(1, 0): -2, (0, 0): 3, (0, -2): 1})
        assert p.to_text() == "-2*x + 3 + y^-2"

    def test_str_matches_to_text(self):
        base, _, _ = identity_polynomials()
        assert str(base) == base.to_text()


def test_polynomials_hash_by_value():
    a = LaurentPoly({(1, 0): 1, (0, 0): 2})
    b = LaurentPoly({(0, 0): 2, (1, 0): 1, (5, 5): 0})
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    for poly, value in ((LaurentPoly.constant(3), 3), (LaurentPoly(), 0)):
        assert poly == value
        assert hash(poly) == hash(value)
        assert len({poly, value}) == 1
