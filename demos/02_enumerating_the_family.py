"""
Enumerating every deal
======================

Brute force over all routings: each denomination's three cards have two
legal hands each, so a subset of size k has 8**k routings, and the
equal-hand-size rule keeps franel(k) of them.  The generator forms only
those, by joining the first half of a routing to the second half on how
many cards each half gives red and green.  The stream is deterministic and
doubles as the oracle for all closed-form counts.
"""

from trideal import (
    count_deals,
    enumerate_deals,
    enumerate_deals_with_red_denoms,
    enumerate_full_deck_deals,
    deal_to_text,
    histogram,
)

# The family sizes form the sequence 1, 3, 15, 93, 639, ...
print("totals:", [count_deals(n) for n in range(5)])

# All 15 deals for n=2, grouped the way the classification table shows them.
print("\nthe 15 deals for n=2:")
for deal in enumerate_deals(2):
    print(" ", deal_to_text(deal))

# Restricting to deals that use every denomination gives the Franel counts.
print("\nfull-deck deals:", [sum(1 for _ in enumerate_full_deck_deals(n)) for n in range(5)])

# Or restrict by what red's hand shows: for n=2 there are exactly 4 deals
# in which red holds denomination 1 and nothing else.
print("red shows {1}:", sum(1 for _ in enumerate_deals_with_red_denoms(2, {1})))

# Histograms over the two statistics; the buckets sum to the total.
print("\nby s-size:      ", histogram(2, "s_size"))
print("by red-distinct:", histogram(2, "red_distinct"))
