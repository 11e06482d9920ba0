"""Exact combinatorics of color-avoiding three-hand card deals.

The package counts, for a deck with one red, one green, and one blue card
per denomination 1..n, the deals that pick a denomination subset and split
its cards into three equal hands where no hand holds its own color.  The
total is computed three independent ways (brute-force enumeration,
closed-form binomial sums, and the constant term of a Laurent-polynomial
power), and the two counting formulas are realized as executable
encode/decode bijections.
"""

from . import bijections, counting, enumeration, laurent, model
from .bijections import *
from .counting import *
from .enumeration import *
from .laurent import *
from .model import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = sorted(
    {*bijections.__all__, *counting.__all__, *enumeration.__all__, *laurent.__all__, *model.__all__}
)
