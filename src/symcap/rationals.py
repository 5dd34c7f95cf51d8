"""Exact rational scalars and their text form.

All capacities, actions, and coordinates in this package are
`fractions.Fraction` values; nothing is ever rounded.  The one
non-rational value that occurs is the +inf sentinel used for cylinder
factors, represented by `math.inf`.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

INF = math.inf

# Fraction computes 10**e for a decimal exponent e, so an unbounded e lets
# a short string cost minutes.  4300 is Python's int-to-string digit
# limit: past it `fmt` could not print the value anyway.
MAX_EXPONENT = 4300
# `fmt` refuses a numerator or denominator of more than MAX_EXPONENT digits
# itself, whatever limit the interpreter sets.
_UNPRINTABLE = 10**MAX_EXPONENT
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)$", re.IGNORECASE)

RationalLike = Fraction | int | str | float


def rat(value: RationalLike) -> Fraction | float:
    """Parse an exact rational from a string, an int, or a Fraction.

    A string is anything `Fraction` reads exactly: "p/q", an integer, or a
    decimal such as "0.01", which is 1/100 with no rounding.  A decimal
    exponent above MAX_EXPONENT in magnitude is refused.  The strings
    "inf" and "oo" (and math.inf itself) yield the +inf sentinel.  Floats
    other than inf are rejected: the float 0.01 is not 1/100, and this
    package never rounds.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError("booleans are not rational scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if math.isinf(value) and value > 0:
            return INF
        raise ValueError(f"refusing to convert float {value!r}; pass 'p/q'")
    if not isinstance(value, str):
        raise TypeError(f"not a rational literal: {value!r}")
    text = value.strip()
    if text in ("inf", "+inf", "oo"):
        return INF
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent[1])) > MAX_EXPONENT:
        raise ValueError(f"exponent of {value!r} exceeds {MAX_EXPONENT} in magnitude")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {value!r}") from exc


def is_infinite(value: Fraction | float) -> bool:
    return isinstance(value, float) and math.isinf(value)


def fmt(value: Fraction | float) -> str:
    """Render a rational as "p/q" (or "p" when integral, "inf" for the sentinel)."""
    if is_infinite(value):
        return "inf"
    if max(abs(value.numerator), value.denominator) >= _UNPRINTABLE:
        raise ValueError(f"value too long to print: more than {MAX_EXPONENT} digits")
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
