import re
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trideal import laurent
from trideal.laurent import (
    CT_GUARD,
    LaurentPoly,
    base_power,
    base_power_text,
    constant_terms,
    identity_polynomials,
    sequence_term,
)

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

# Twelfths cells[ey][ex - ey], rows ey = 0..r // 2 of the cells ex = ey..r - ey,
# as the stencil walk stores a power of the base within the hexagonal radius
# r, packed w bits a cell above two ghost cells left 0.  A step sums 9
# weighted cells into each output cell, so cells up to (2**w - 1) // 9 let
# outputs reach the top of their field.  Negative cells lie outside the
# walk's domain: the powers of base have only positive coefficients, and a
# packed field holds no sign.


def twelfths(r, w):
    cell = st.integers(0, (2**w - 1) // 9)
    lengths = [r - 2 * ey + 1 for ey in range(r // 2 + 1)]
    return st.tuples(*(st.lists(cell, min_size=k, max_size=k) for k in lengths)).map(list)


# A twelfth of radius 0..5 at a cell width of one to 40 bytes, and a radius
# to step to: the walk grows by one, keeps the radius or shrinks by one, and
# a step is exact for any radius up to one more than its input's.
steps = st.tuples(st.integers(0, 5), st.sampled_from([8, 16, 64, 320])).flatmap(
    lambda case: st.tuples(twelfths(*case), st.just(case[1]), st.integers(0, case[0] + 1))
)

# Packed rows of 1..9 cells, each cell ``size`` bytes, with a wider byte width.
widenings = st.tuples(st.integers(1, 4), st.integers(0, 4)).flatmap(
    lambda sizes: st.tuples(
        st.just(sizes[0]),
        st.just(sum(sizes)),
        st.lists(st.integers(0, 2 ** (8 * sizes[0]) - 1), min_size=1, max_size=9),
    )
)


def images(ex, ey):
    """The twelve images of (ex, ey): the permutations of (ex, ey, -ex - ey), and negations."""
    return {(s * a, s * b) for a, b, _ in permutations((ex, ey, -ex - ey)) for s in (1, -1)}


def unfolded(cells):
    """The polynomial whose terms are the images of the twelfth ``cells``."""
    return LaurentPoly(
        {
            image: c
            for ey, row in enumerate(cells)
            for ex, c in enumerate(row, ey)
            for image in images(ex, ey)
        }
    )


def twelfth(poly, radius):
    """The cells of ``poly`` at 0 <= ey <= ex within the hexagonal radius ex + ey <= ``radius``."""
    return [
        [poly.coefficient(ex, ey) for ex in range(ey, radius - ey + 1)]
        for ey in range(radius // 2 + 1)
    ]


def pack(cells, w):
    return [sum(c << (i + 2) * w for i, c in enumerate(row)) for row in cells]


def unpack(rows, w, radius):
    """The cells ex = ey..radius - ey of packed twelfth rows, ghosts left out."""
    mask = (1 << w) - 1
    return [
        [(row >> i * w) & mask for i in range(2, radius - 2 * ey + 3)]
        for ey, row in enumerate(rows)
    ]


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

    def test_subtraction_from_an_int(self):
        assert 1 - X == LaurentPoly({(0, 0): 1, (1, 0): -1})

    def test_other_operands_are_not_implemented(self):
        # each method declines, so Python tries the other operand, then raises
        for name in ("__eq__", "__add__", "__sub__", "__rsub__", "__mul__", "__pow__"):
            assert getattr(X, name)(1.5) is NotImplemented
        assert X != "x"
        with pytest.raises(TypeError):
            X * 1.5

    @pytest.mark.parametrize(
        "make, term",
        [
            (lambda: LaurentPoly({(2.0, 0): 1}), "(2.0, 0): 1"),
            (lambda: LaurentPoly.monomial(0.5, 0), "(0.5, 0): 1"),
            (lambda: LaurentPoly({(1, 0): 2.5}), "(1, 0): 2.5"),
            (lambda: LaurentPoly.monomial(0, True), "(0, True): 1"),
            (lambda: LaurentPoly.constant(True), "(0, 0): True"),
        ],
        ids=["float exponent", "half exponent", "float coefficient", "bool exponent", "bool"],
    )
    def test_terms_are_exactly_ints(self, make, term):
        # an equal float or bool would hash like the int, yet print x^2.0 for x^2
        with pytest.raises(ValueError, match=re.escape(f"got {term}")):
            make()

    def test_int_operands_keep_their_meaning(self):
        assert LaurentPoly.constant(1) == True  # noqa: E712
        assert X + True == X + 1 and True * X == X and True - X == 1 - X

    def test_coefficient_truth_and_repr(self):
        p = LaurentPoly({(1, -1): 3})
        assert (p.coefficient(1, -1), p.coefficient(0, 0)) == (3, 0)
        assert p and not LaurentPoly()
        assert repr(p) == "LaurentPoly(3*x*y^-1)"

    def test_negative_pow_rejected(self):
        with pytest.raises(ValueError):
            X ** -1

    def test_pow_multiplies_by_the_base_each_step(self, monkeypatch):
        base, _, _ = identity_polynomials()
        operand_sizes = []
        original = LaurentPoly.__mul__

        def recording_mul(self, other):
            operand_sizes.append((len(self), len(other)))
            return original(self, other)

        monkeypatch.setattr(LaurentPoly, "__mul__", recording_mul)
        base ** 12
        assert len(operand_sizes) == 12
        assert all(min(sizes) <= 7 for sizes in operand_sizes)

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

    def test_base_and_its_powers_have_the_twelve_symmetries_of_the_hexagon(self):
        # the walk stores only the twelfth 0 <= ey <= ex and reads every other
        # term at one of its images; checked on the base itself, never through
        # its factorization
        base, _, _ = identity_polynomials()
        assert len(images(2, 1)) == 12
        assert images(1, 0) == base.support() - {(0, 0)}
        power = LaurentPoly.constant(1)
        for n in range(13):
            for (ex, ey), c in power.coefficients.items():
                assert {power.coefficient(*image) for image in images(ex, ey)} == {c}
            power = power * base

    def test_power_support_stays_in_box(self):
        # constant_terms relies on every exponent of base**n lying within
        # hexagonal radius n; the term count shows the hexagon is full.
        base, _, _ = identity_polynomials()
        for n in range(11):
            power = base ** n
            assert all(
                max(abs(ex), abs(ey), abs(ex + ey)) <= n for ex, ey in power.support()
            )
            assert len(power) == 3 * n * n + 3 * n + 1


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
        with pytest.raises(ValueError):
            list(constant_terms(-1))
        with pytest.raises(ValueError):
            list(constant_terms(CT_GUARD + 1))
        with pytest.raises(ValueError):
            base_power(-1)
        with pytest.raises(ValueError):
            base_power(CT_GUARD + 1)
        # the renderer walks when called, before any chunk is read
        with pytest.raises(ValueError):
            base_power_text(-1)
        with pytest.raises(ValueError):
            base_power_text(CT_GUARD + 1)

    def test_walk_matches_full_powers_at_every_truncation(self):
        base, _, _ = identity_polynomials()
        for m in range(21):
            assert list(constant_terms(m)) == [
                (base ** n).constant_term() for n in range(m + 1)
            ]

    def test_matches_full_power(self):
        base, _, _ = identity_polynomials()
        power = LaurentPoly.constant(1)
        for n in range(41):
            if n:
                power = power * base
            assert sequence_term(n) == power.constant_term()
            assert base_power(n) == power
        assert power == base ** 40

    def test_cells_are_wide_enough_for_every_coefficient(self):
        # the walk packs base**n at _width(n) bits a cell and relies on no
        # coefficient reaching 2**_width(n); they sum to base(1, 1)**n = 9**n
        base, _, _ = identity_polynomials()
        power = LaurentPoly.constant(1)
        for n in range(41):
            if n:
                power = power * base
            coefficients = power.coefficients.values()
            assert sum(coefficients) == 9**n
            assert max(coefficients) < 2 ** laurent._width(n)
            assert sequence_term(n) == power.constant_term()

    def test_walk_turns_at_both_parities_without_changing_a_term(self):
        # the walk to m crops base**n to the radius min(n, m - n), so each
        # truncation turns at its own step; the terms must not depend on it
        full = list(constant_terms(CT_GUARD))
        for m in [*range(61), 99, 101, 199]:
            assert list(constant_terms(m)) == full[: m + 1]

    def test_walk_keeps_only_terms_that_can_reach_the_constant(self, monkeypatch):
        radii = [0]
        step = laurent._step

        def recording_step(rows, w, radius):
            # the rows of the last radius r, ey = 0..r // 2, each within its
            # r - 2ey + 3 cells of w bits, the two ghosts 0
            last = radii[-1]
            assert len(rows) == last // 2 + 1
            for ey, row in enumerate(rows):
                assert row.bit_length() <= (last - 2 * ey + 3) * w
                assert row & ((1 << 2 * w) - 1) == 0
            radii.append(radius)
            return step(rows, w, radius)

        monkeypatch.setattr(laurent, "_step", recording_step)
        # step n crops base**n to the hexagonal radius min(n, max_n - n)
        for max_n, term, expected in [
            (11, 1153462995, [1, 2, 3, 4, 5, 5, 4, 3, 2, 1, 0]),
            (12, 9533639025, [1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1, 0]),
        ]:
            radii[1:] = []
            assert sequence_term(max_n) == term
            assert radii[1:] == expected


class TestStencil:
    @settings(max_examples=300, deadline=None)
    @given(steps)
    def test_step_is_the_product_with_the_base_within_the_radius(self, case):
        cells, w, radius = case
        base, _, _ = identity_polynomials()
        stepped = laurent._step(pack(cells, w), w, radius)
        assert len(stepped) == radius // 2 + 1
        for ey, row in enumerate(stepped):
            assert row.bit_length() <= (radius - 2 * ey + 3) * w
            assert row & ((1 << 2 * w) - 1) == 0
        assert unpack(stepped, w, radius) == twelfth(unfolded(cells) * base, radius)

    @settings(max_examples=150, deadline=None)
    @given(widenings)
    def test_widening_keeps_every_cell(self, case):
        size, wider, cells = case
        row = sum(c << 8 * size * i for i, c in enumerate(cells))
        widened = laurent._widen(row, len(cells), size, wider)
        assert widened.bit_length() <= 8 * wider * len(cells)
        mask = (1 << 8 * wider) - 1
        assert [(widened >> 8 * wider * i) & mask for i in range(len(cells))] == cells


class TestWalk:
    def test_cells_are_whole_bytes_only_as_wide_as_each_step_needs(self):
        for max_n in [*range(41), 77, 100]:
            for crop in (True, False):
                widths = [w for _, w in laurent._walk(max_n, crop)]
                for n, w in enumerate(widths):
                    assert w % 8 == 0
                    assert 9**n < 2**w
                    # widened at most to the bytes that base**min(max_n, 2n) needs
                    assert w <= 8 * -(-laurent._width(min(max_n, 2 * n)) // 8)
                # each widening at least doubles the steps the cells cover
                assert len(set(widths)) <= max_n.bit_length() + 1

    def test_unfold_forms_each_stored_cell_once_and_writes_every_image(self):
        # row ey + n of the frame holds the cells ex = -n..n of base**n, None
        # off the hexagon; form sees each cell of the twelfth 0 <= ey <= ex once
        base, _, _ = identity_polynomials()
        power = LaurentPoly.constant(1)
        for n in range(13):
            if n:
                power = power * base
            formed = []

            def counting(c):
                formed.append(c)
                return c

            frame = laurent._unfold(n, counting)
            assert len(frame) == 2 * n + 1
            assert all(len(row) == 2 * n + 1 for row in frame)
            for ey, row in enumerate(frame, -n):
                for ex, cell in enumerate(row, -n):
                    if abs(ex + ey) <= n:
                        assert cell == power.coefficient(ex, ey)
                    else:
                        assert cell is None
            assert len(formed) == sum(n - 2 * ey + 1 for ey in range(n // 2 + 1))
            twelfth = [(ex, ey) for ey in range(n // 2 + 1) for ex in range(ey, n - ey + 1)]
            stored = [power.coefficient(ex, ey) for ex, ey in twelfth]
            assert sorted(formed) == sorted(stored)

    def test_walk_to_100_packs_at_most_6_million_output_bits(self):
        # step n packs rows ey = 0..r // 2 of the twelfth of radius
        # r = min(n, 100 - n), r - 2ey + 3 cells of w bits each, ghosts
        # included; the half square frames packed 38.7 M, the whole squares 76 M
        packed = 0
        for n, (rows, w) in enumerate(list(laurent._walk(100, crop=True))[1:], 1):
            r = min(n, 100 - n)
            assert len(rows) == r // 2 + 1
            assert all(row.bit_length() <= (r - 2 * ey + 3) * w for ey, row in enumerate(rows))
            packed += sum((r - 2 * ey + 3) * w for ey in range(len(rows)))
        assert packed <= 6_000_000


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

    @settings(max_examples=150, deadline=None)
    @given(small_polys, st.integers(0, 3), st.integers(0, 3))
    def test_powers_add_exponents(self, p, a, b):
        assert p ** (a + b) == p ** a * p ** b


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

    def test_power_text_is_the_readable_rendering(self):
        # unfolded from the walk's twelfth, one chunk per total degree:
        # n = 0 is the bare constant, and the hexagon's corners have coefficient 1
        for n in [*range(41), 100]:
            chunks = list(base_power_text(n))
            assert len(chunks) == 2 * n + 1
            assert "".join(chunks) == base_power(n).to_text()


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
