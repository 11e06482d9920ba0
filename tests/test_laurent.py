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

# Half frames cells[ey][ex + r], rows ey = 0..r of the square frame of side
# 2r + 1, as the stencil walk stores them, drawn with every cell outside the
# hexagon max(|ex|, |ey|, |ex + ey|) <= r zero, as in a power of the base: cell
# ex of row ey is drawn only for ex <= r - ey.  They are packed w bits a cell.
# A step sums 9 weighted cells into each output cell, so cells up to
# (2**w - 1) // 9 let outputs reach the top of their field.  Negative cells
# lie outside the walk's domain: the powers of base have only positive
# coefficients, and a packed field holds no sign.
FIELD = 8


def half_frames(r, w):
    return st.tuples(
        *(
            st.lists(
                st.integers(0, (2**w - 1) // 9), min_size=2 * r + 1 - ey, max_size=2 * r + 1 - ey
            ).map(lambda row, ey=ey: row + [0] * ey)
            for ey in range(r + 1)
        )
    ).map(list)


small_frames = st.integers(0, 3).flatmap(lambda r: half_frames(r, FIELD))

# A half frame of radius 1..3, which a cropped step shrinks by one.
cropped_frames = st.integers(1, 3).flatmap(lambda r: half_frames(r, FIELD))

# Packed rows of 1..9 cells, each cell ``size`` bytes, with a wider byte width.
widenings = st.tuples(st.integers(1, 4), st.integers(0, 4)).flatmap(
    lambda sizes: st.tuples(
        st.just(sizes[0]),
        st.just(sum(sizes)),
        st.lists(st.integers(0, 2 ** (8 * sizes[0]) - 1), min_size=1, max_size=9),
    )
)


# Packed half frames of radius 0..6 at a cell width of one to 40 bytes, each
# cell small enough that the step's nine-cell sums stay inside it.
wide_frames = st.tuples(st.integers(0, 6), st.sampled_from([8, 16, 64, 320])).flatmap(
    lambda case: st.tuples(
        half_frames(*case).map(lambda cells: pack(cells, case[1])), st.just(case[1])
    )
)


def mirrored(half):
    """The square frame whose rows ey >= 0 are ``half``, with each row -ey their mirror.

    (ex, ey) -> (ex + ey, -ey) maps the base onto itself, so cell ex of row
    -ey of a power is its cell ex - ey of row ey.
    """
    side = 2 * len(half) - 1
    return [[0] * ey + half[ey][: side - ey] for ey in range(len(half) - 1, 0, -1)] + half


def readable_step(rows, w):
    """The uncropped step on a square frame, each output row summing its own three input rows."""
    padded = [0, 0, *rows, 0, 0]
    frame = []
    for below, same, above in zip(padded, padded[1:], padded[2:]):
        left, right = below + same, same + above
        frame.append(left + ((left + right + same) << w) + (right << 2 * w))
    return frame


def readable_half_step(rows, w):
    """The rows ey >= 0 of the readable step on the mirror-completed square frame."""
    return readable_step(pack(mirrored(unpack(rows, w)), w), w)[len(rows) :]


def frame_poly(cells):
    r = len(cells) // 2
    return LaurentPoly(
        {(ex - r, ey - r): c for ey, row in enumerate(cells) for ex, c in enumerate(row)}
    )


def half_poly(cells):
    r = len(cells) - 1
    return LaurentPoly(
        {(ex - r, ey): c for ey, row in enumerate(cells) for ex, c in enumerate(row)}
    )


def upper(poly, radius=None):
    """The terms of ``poly`` with ey >= 0, within the square of ``radius`` if one is given."""
    return LaurentPoly(
        {
            (ex, ey): c
            for (ex, ey), c in poly.coefficients.items()
            if ey >= 0 and (radius is None or max(abs(ex), ey) <= radius)
        }
    )


def mirror(poly):
    return LaurentPoly({(ex + ey, -ey): c for (ex, ey), c in poly.coefficients.items()})


def pack(cells, w=FIELD):
    return [sum(c << ex * w for ex, c in enumerate(row)) for row in cells]


def unpack(rows, w=FIELD):
    mask = (1 << w) - 1
    return [[(row >> ex * w) & mask for ex in range(2 * len(rows) - 1)] for row in rows]


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

    def test_base_and_its_powers_are_mirror_symmetric(self):
        # the walk stores only rows ey >= 0 and reads row -1 from row 1 through
        # the reflection (ex, ey) -> (ex + ey, -ey); checked on the base itself,
        # never through its factorization
        assert mirror(Y) == X * Y_INV
        base, _, _ = identity_polynomials()
        assert mirror(base) == base
        power = LaurentPoly.constant(1)
        for n in range(13):
            assert mirror(power) == power
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
        # the walk to m grows for ceil(m / 2) steps and then shrinks, so each
        # truncation turns at its own step; the terms must not depend on it
        full = list(constant_terms(CT_GUARD))
        for m in [*range(61), 99, 101, 199]:
            assert list(constant_terms(m)) == full[: m + 1]

    def test_walk_keeps_only_terms_that_can_reach_the_constant(self, monkeypatch):
        read = []

        def recording(step):
            def recording_step(rows, w):
                # r + 1 packed rows, ey = 0..r, each within 2r + 1 cells of w bits
                assert all(row.bit_length() <= (2 * len(rows) - 1) * w for row in rows)
                read.append(len(rows))
                return step(rows, w)

            return recording_step

        for name in ("_times_base", "_times_base_cropped"):
            monkeypatch.setattr(laurent, name, recording(getattr(laurent, name)))
        # step n + 1 reads rows ey >= 0 of the square frame of base**n, r + 1 rows
        # of radius r: n while n <= ceil(max_n / 2), one less each step after
        for max_n, term, heights in [
            (11, 1153462995, [1, 2, 3, 4, 5, 6, 7, 6, 5, 4, 3]),
            (12, 9533639025, [1, 2, 3, 4, 5, 6, 7, 6, 5, 4, 3, 2]),
        ]:
            read.clear()
            assert sequence_term(max_n) == term
            assert read == heights


class TestStencil:
    @settings(max_examples=150, deadline=None)
    @given(small_frames)
    def test_step_is_the_product_with_the_base(self, cells):
        base, _, _ = identity_polynomials()
        stepped = laurent._times_base(pack(cells), FIELD)
        assert len(stepped) == len(cells) + 1
        assert all(row.bit_length() <= (2 * len(stepped) - 1) * FIELD for row in stepped)
        assert half_poly(unpack(stepped)) == upper(frame_poly(mirrored(cells)) * base)

    @settings(max_examples=150, deadline=None)
    @given(wide_frames)
    def test_step_sums_each_row_pair_once_to_the_readable_rows(self, case):
        rows, w = case
        assert laurent._times_base(rows, w) == readable_half_step(rows, w)

    def test_step_matches_the_readable_rows_along_the_walk(self):
        for rows, w in laurent._walk(40, crop=False):
            assert laurent._times_base(rows, w) == readable_half_step(rows, w)

    @settings(max_examples=150, deadline=None)
    @given(cropped_frames)
    def test_cropped_step_is_the_product_with_the_base_cropped_to_the_square(self, cells):
        radius = len(cells) - 2
        base, _, _ = identity_polynomials()
        stepped = laurent._times_base_cropped(pack(cells), FIELD)
        assert len(stepped) == radius + 1
        assert all(row.bit_length() <= (2 * radius + 1) * FIELD for row in stepped)
        product = frame_poly(mirrored(cells)) * base
        assert half_poly(unpack(stepped)) == upper(product, radius)

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

    def test_walk_to_100_packs_at_most_40_million_output_bits(self):
        # each step n >= 1 packs rows ey = 0..r of a square of radius r, r + 1
        # rows of 2r + 1 cells, w bits a cell; the whole square, 2r + 1 rows,
        # packed 76,327,120
        frames = list(laurent._walk(100, crop=True))[1:]
        assert sum(len(rows) * (2 * len(rows) - 1) * w for rows, w in frames) <= 40_000_000


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
        # read straight off the walk's half frame, one chunk per total degree:
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
