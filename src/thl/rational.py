"""Exact rational scalars: the stdlib Fraction, in lowest terms with a
positive denominator, so string forms are canonical ("-1/2", "3").
Matrices compute over Python ints (see ``sparse``); Q appears only where
values enter or leave a matrix.
"""

import re
from fractions import Fraction as Q

QONE = Q(1)
_P_OVER_Q = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_q(text):
    """Parse a "p/q" or "p" string of decimal digits.  Raises ValueError on
    anything else (decimals, exponents, underscores) or a zero denominator."""
    text = text.strip()
    if not _P_OVER_Q.fullmatch(text):
        raise ValueError(f"not a rational: {text!r}")
    try:
        return Q(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {text!r}")
    except ValueError:
        raise ValueError(f"not a rational: {text!r}")
