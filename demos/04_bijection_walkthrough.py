"""
The two counting formulas as executable bijections
==================================================

Each side of the count has a constructive proof: a set of free choices that
pins down a deal uniquely.  Both are implemented as encode/decode pairs
that are exact inverses, so the formulas can be audited exhaustively.
"""

from trideal import (
    FullDeckParams,
    RedSetParams,
    decode_full_deck,
    decode_red_set,
    deal_to_text,
    encode_full_deck,
    encode_red_set,
    franel,
    iter_full_deck_params,
    red_set_count,
)

# Full-deck deals: choose which green cards red takes, which blue cards red
# takes, and which red cards blue takes.  Everything else is forced.
params = FullDeckParams(n=2, green_in_red={1}, blue_in_red={2}, red_in_blue={2})
deal = encode_full_deck(params)
print("full-deck choices:", params.to_text())
print("          encode ->", deal_to_text(deal))
assert decode_full_deck(deal) == params
print("          decode ->", decode_full_deck(deal) == params)

# The number of such choice tuples is the Franel number C(n,0)^3 + C(n,1)^3 + ...
n = 3
print(f"\nchoice tuples for n={n}:", sum(1 for _ in iter_full_deck_params(n)),
      "= franel:", franel(n))

# Red-set deals: prescribe exactly which denominations red holds (D), split
# them by whether red has both off-color cards (A), only the blue one (B),
# or only the green one, pull |A| extra denominations into play (E), and
# pick which red cards go to blue (R).
params = RedSetParams(n=2, red_denoms={1}, both_colors={1}, blue_only=set(),
                      extra={2}, red_to_blue={1})
deal = encode_red_set(params)
print("\nred-set choices:", params.to_text())
print("        encode ->", deal_to_text(deal))
assert decode_red_set(deal) == params
print("        decode ->", decode_red_set(deal) == params)

# For a fixed red set of size k the choice count collapses, by two rounds of
# the Vandermonde convolution, to C(n,k) * C(2k,k).
print("\ndeals with red showing a fixed pair, n=4:", red_set_count(4, 2))
