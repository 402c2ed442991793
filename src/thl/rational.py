"""Exact rational scalars.

gmpy2.mpq is used when available and the stdlib Fraction otherwise.  Both
normalize to lowest terms with a positive denominator, so string forms
like "-1/2" and "3" are identical between the two backends.  Matrices
compute over Python ints (see ``sparse``), so the backend only affects the
conversions where values enter or leave a matrix, not the speed of the
kernels.
"""

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Q

QONE = Q(1)
BACKEND = f"{Q.__module__}.{Q.__name__}"   # named in the human report


def parse_q(text):
    """Parse a "p/q" or "p" string.  Raises ValueError on junk or zero denominator."""
    try:
        return Q(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {text!r}")
    except Exception:
        raise ValueError(f"not a rational: {text!r}")


def qstr(value):
    """Canonical "p/q" (or "p" when the denominator is 1) form."""
    return str(value)
