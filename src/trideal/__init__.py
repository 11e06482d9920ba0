"""Exact combinatorics of color-avoiding three-hand card deals.

The package counts, for a deck with one red, one green, and one blue card
per denomination 1..n, the deals that pick a denomination subset and split
its cards into three equal hands where no hand holds its own color.  The
total is computed three independent ways (brute-force enumeration,
closed-form binomial sums, and the constant term of a Laurent-polynomial
power), and the two counting formulas are realized as executable
encode/decode bijections.
"""

from .bijections import (
    FullDeckParams,
    RedSetParams,
    decode_full_deck,
    decode_red_set,
    encode_full_deck,
    encode_red_set,
    iter_full_deck_params,
    iter_red_set_params,
)
from .counting import (
    binomial,
    franel,
    lhs_sum,
    lhs_terms,
    red_distinct_count,
    red_prefix_sum,
    red_set_count,
    rhs_sum,
    vandermonde_inner,
)
from .enumeration import (
    EXHAUSTIVE_GUARD,
    GuardError,
    count_deals,
    enumerate_deals,
    enumerate_deals_with_red_denoms,
    enumerate_full_deck_deals,
    histogram,
    subsets_lex,
)
from .laurent import (
    CT_GUARD,
    LaurentPoly,
    base_power,
    constant_terms,
    identity_polynomials,
    sequence_term,
)
from .model import (
    COLORS,
    Card,
    Color,
    Deal,
    DealStats,
    deal_from_text,
    deal_record,
    deal_stats,
    deal_to_text,
    denom_set_text,
    hand_text,
    red_denomination_set,
    require_valid,
    validate_deal,
)

__version__ = "0.1.0"

__all__ = [
    "COLORS",
    "CT_GUARD",
    "Card",
    "Color",
    "Deal",
    "DealStats",
    "EXHAUSTIVE_GUARD",
    "FullDeckParams",
    "GuardError",
    "LaurentPoly",
    "RedSetParams",
    "base_power",
    "binomial",
    "constant_terms",
    "count_deals",
    "deal_from_text",
    "deal_record",
    "deal_stats",
    "deal_to_text",
    "decode_full_deck",
    "decode_red_set",
    "denom_set_text",
    "encode_full_deck",
    "encode_red_set",
    "enumerate_deals",
    "enumerate_deals_with_red_denoms",
    "enumerate_full_deck_deals",
    "franel",
    "hand_text",
    "histogram",
    "identity_polynomials",
    "iter_full_deck_params",
    "iter_red_set_params",
    "lhs_sum",
    "lhs_terms",
    "red_denomination_set",
    "red_distinct_count",
    "red_prefix_sum",
    "red_set_count",
    "require_valid",
    "rhs_sum",
    "sequence_term",
    "subsets_lex",
    "validate_deal",
    "vandermonde_inner",
]
