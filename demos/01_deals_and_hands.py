"""
Cards, deals, and validity
==========================

A deck has one red, one green, and one blue card for each denomination
1..n.  A deal picks a subset of the denominations and splits all of their
cards into three equal hands, where the red player never holds a red card,
green never green, blue never blue.
"""

from trideal import Card, Deal, deal_stats, deal_to_text, validate_deal

# Cards are written as a color letter plus a denomination.
g1 = Card.from_token("g1")
print("card:", g1.token, "=", g1.color.name.lower(), g1.denomination)

# With a single denomination the whole deal is a 3-cycle of colors.
deal = Deal(n=1, s={1}, red={Card.from_token("g1")},
            green={Card.from_token("b1")}, blue={Card.from_token("r1")})
print("deal:", deal_to_text(deal))
assert validate_deal(deal) is None
print("valid?", validate_deal(deal) is None)

# Handing red its own card breaks the rule; the verdict names the invariant.
cheat = Deal(n=1, s={1}, red={Card.from_token("r1")},
             green={Card.from_token("b1")}, blue={Card.from_token("g1")})
print("cheat verdict:", validate_deal(cheat))

# Two statistics classify every deal: the size of the denomination set, and
# how many distinct denominations red ended up holding.
stats = deal_stats(deal)
print("statistics:", stats)

# The empty deal (no denominations chosen) is legal for every deck size.
empty = Deal(n=4, s=(), red=(), green=(), blue=())
print("empty deal:", deal_to_text(empty), "->", deal_stats(empty))
