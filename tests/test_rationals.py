from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symcap.rationals import INF, fmt, is_infinite, rat


def test_parses_fraction_strings():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-7/2") == Fraction(-7, 2)
    assert rat("5") == Fraction(5)
    assert rat(2) == Fraction(2)


def test_inf_sentinel():
    assert is_infinite(rat("inf"))
    assert is_infinite(rat("oo"))
    assert is_infinite(rat(INF))
    assert not is_infinite(Fraction(10**9))
    assert fmt(INF) == "inf"


def test_decimal_strings_are_exact():
    # The string is read digit by digit; the float 0.01 is not 1/100.
    assert rat("0.01") == Fraction(1, 100)
    with pytest.raises(ValueError):
        rat(0.01)


@pytest.mark.parametrize("bad", ["", "abc", "1/0", 0.5, True])
def test_rejects_non_rationals(bad):
    with pytest.raises(ValueError):
        rat(bad)


@given(st.fractions())
def test_fmt_round_trips(q):
    assert rat(fmt(q)) == q
