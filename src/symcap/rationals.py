"""Exact rational scalars and their text form.

All capacities, actions, and coordinates in this package are
`fractions.Fraction` values; nothing is ever rounded.  The one
non-rational value that occurs is the +inf sentinel used for cylinder
factors, represented by `math.inf`.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf

RationalLike = Fraction | int | str | float


def rat(value: RationalLike) -> Fraction | float:
    """Parse an exact rational from a string, an int, or a Fraction.

    A string is anything `Fraction` reads exactly: "p/q", an integer, or a
    decimal such as "0.01", which is 1/100 with no rounding.  The strings
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
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
