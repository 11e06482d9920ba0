"""
Laurent polynomials and the constant-term route
===============================================

Sparse two-variable Laurent polynomials with exact integer coefficients:
exponents may be negative, and p**n is n multiplications by p.
The deal counts fall out of one polynomial identity, and the powers of its
base are walked as a stencil on rows packed into one integer each.
"""

from trideal import (
    LaurentPoly,
    base_power,
    base_power_text,
    constant_terms,
    identity_polynomials,
    sequence_term,
)

# Build by hand: (x + 1/x)^2 = x^2 + 2 + x^-2.
x = LaurentPoly.monomial(1, 0)
x_inv = LaurentPoly.monomial(-1, 0)
print("(x + 1/x)^2 =", ((x + x_inv) ** 2).to_text())

# The base is one denomination's choices under the deal rule: 1 for out of
# play, plus x^(red's load - 1) * y^(green's load - 1) for each of the eight
# routings in model._ROUTES, so the constant term of base**n keeps the deals
# whose three hands each hold as many cards as there are denominations.
# The published base = 1 + (1+x)(1+y/x)(1+1/y) and its factorization
# (1 + (1+x)/y) * (1 + y(1+1/x)) check it.
base, factor1, factor2 = identity_polynomials()
print("\nbase    =", base.to_text())
print("factor1 =", factor1.to_text())
print("factor2 =", factor2.to_text())
assert factor1 * factor2 == base
print("factor1 * factor2 == base:", factor1 * factor2 == base)

# Because the factorization holds, base**n = factor1**n * factor2**n for
# every n, and the constant terms of both sides count the deals.
print("\nconstant terms of base**n:", [sequence_term(n) for n in range(6)])
print("one truncated walk:        ", list(constant_terms(5)))

# The support of base**n fills the hexagon max(|ex|, |ey|, |ex + ey|) <= n,
# 3n^2 + 3n + 1 terms, so the term count grows only quadratically.  Each
# step by base moves that radius by at most 1, which is why constant_terms
# may drop every term farther from (0, 0) than the steps it has left.
power = base ** 6
print(f"base**6 has {len(power)} terms, constant term {power.constant_term()}")

# The walks never call the general product.  They store the power as rows,
# row ey holding the coefficients of x^ex y^ey, and one step by base is a
# 7-point stencil: each new cell is 3 times the old cell at the same place
# plus its six neighbours on the triangular lattice, one per monomial of
# base: (ex - 1, ey), (ex + 1, ey), (ex, ey - 1), (ex, ey + 1),
# (ex - 1, ey + 1) and (ex + 1, ey - 1).
# Each row is one int with w bits per cell, x read as 2^w, so moving ex is a
# shift by w and a step is a few whole-row shift-adds.  The coefficients of
# base**n are positive and sum to base(1, 1)^n = 9^n, so any w with
# 9^n < 2^w keeps every cell from spilling into the next.  The walk keeps w
# a whole number of bytes and only as large as the step needs: when 9^n
# outgrows it, every row is widened once to the width of twice the steps.
# Every power of base has the twelve symmetries of its hexagon: the maps
# that permute (ex, ey, -ex - ey) and may negate all three (checked below).
# So the walks store only the twelfth 0 <= ey <= ex, of which every term is
# an image, each row with two ghost cells below it that a step fills from
# their images; the row below row 0 is row 1 moved up three cells.  The
# walk to n = 100 packs 5.8 M output bits, against 76 M for a whole square.
# constant_terms to max_n also crops base**n to the hexagonal radius
# min(n, max_n - n), since nothing farther can still return to (0, 0).
# base_power and base_power_text unfold the stored cells, each into its
# images, and base_power_text prints them as to_text would, one total
# degree at a time.
def images(ex, ey):
    ez = -ex - ey
    pairs = [(ex, ey), (ey, ex), (ey, ez), (ez, ey), (ez, ex), (ex, ez)]
    return pairs + [(-a, -b) for a, b in pairs]


symmetric = all(
    power.coefficient(*image) == c
    for (ex, ey), c in power.coefficients.items()
    for image in images(ex, ey)
)
assert symmetric
assert base_power(6) == power
assert "".join(base_power_text(6)) == power.to_text()
print("base**6 has the hexagon's twelve symmetries:", symmetric)
print("base_power(6) == base ** 6:", base_power(6) == power)
print("base_power_text(6) is its text:", "".join(base_power_text(6)) == power.to_text())
