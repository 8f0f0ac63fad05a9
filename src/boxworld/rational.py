"""Exact rational helpers: canonical "num/den" strings and parsing.

All probabilities in this package are `fractions.Fraction` values.  The
serialized form is always "num/den" with the fraction fully reduced and a
positive denominator, so equal rationals serialize to identical strings.
"""

import re
from fractions import Fraction

from .errors import DimensionMismatch


def format_rational(q) -> str:
    """Render a rational as a canonical "num/den" string (e.g. "1/2", "4/1")."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text) -> Fraction:
    """Parse "num/den" (or a bare integer string, or an int) into a
    Fraction; a bool raises DimensionMismatch rather than reading as 0 or 1.

    A string must be ASCII digits with an optional leading minus and an
    optional "/" and denominator, nothing else: blanks, a plus sign, digit
    underscores and non-ASCII digits, which int() would take, raise
    DimensionMismatch."""
    if type(text) is bool:
        raise DimensionMismatch(f"expected an integer or a \"num/den\" string, got {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    s = str(text)
    if not re.fullmatch("-?[0-9]+(/[0-9]+)?", s):
        raise DimensionMismatch(f"expected an integer or a \"num/den\" string, got {text!r}")
    num, _, den = s.partition("/")
    den_i = int(den or 1)
    if den_i == 0:
        raise DimensionMismatch(f"zero denominator in rational {text!r}")
    return Fraction(int(num), den_i)


def parse_int(value) -> int:
    """A JSON number field's value: only an int is one, so a string, a bool
    or a float raises DimensionMismatch rather than being coerced."""
    if type(value) is not int:
        raise DimensionMismatch(f"expected an integer, got {value!r}")
    return value
