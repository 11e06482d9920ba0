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

# The identity: base = 1 + (1+x)(1+y/x)(1+1/y) factors as
# (1 + (1+x)/y) * (1 + y(1+1/x)).
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

# The walks never call the general product.  They store the power as a
# square of rows, row ey + r holding the coefficients of x^ex y^ey for
# -r <= ex <= r, and one step by base is a 7-point stencil: each new cell is
# 3 times the old cell at the same place plus its six neighbours on the
# triangular lattice, one per monomial of base: (ex - 1, ey), (ex + 1, ey),
# (ex, ey - 1), (ex, ey + 1), (ex - 1, ey + 1) and (ex + 1, ey - 1).
# Each row is one int with w bits per cell, x read as 2^w, so moving ex is a
# shift by w and a step is a few whole-row shift-adds.  The coefficients of
# base**n are positive and sum to base(1, 1)^n = 9^n, so any w with
# 9^n < 2^w keeps every cell from spilling into the next.  The walk keeps w
# a whole number of bytes and only as large as the step needs: when 9^n
# outgrows it, every row is widened once to the width of twice the steps.
# The walks store only the rows ey >= 0.  The reflection
# (ex, ey) -> (ex + ey, -ey) maps the seven monomials of base onto
# themselves, so every power of base is symmetric under it: row -1, the one
# row below the middle a step reads, is row 1 shifted up one cell (checked
# below).  That halves the cells packed: 38.7 M output bits for the walk to
# n = 100, against 76 M for the whole square.
# constant_terms to max_n also grows the square only for its first
# ceil(max_n / 2) steps, then builds it one ring smaller each step, so it
# never holds a cell past the one ring beyond what can still return to (0, 0).
# base_power unpacks the rows into a LaurentPoly once, at the end, each
# coefficient of a row ey > 0 also filling its mirror image in row -ey.
# base_power_text prints the same cells as to_text would, one total degree
# at a time, reading each term of ey < 0 at its mirror image.
mirrored = LaurentPoly({(ex + ey, -ey): c for (ex, ey), c in power.coefficients.items()})
assert mirrored == power
assert base_power(6) == power
assert "".join(base_power_text(6)) == power.to_text()
print("base**6 is its own mirror image:", mirrored == power)
print("base_power(6) == base ** 6:", base_power(6) == power)
print("base_power_text(6) is its text:", "".join(base_power_text(6)) == power.to_text())
