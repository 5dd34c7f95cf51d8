from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from symcap.rationals import INF, fmt, is_infinite, rat


def test_parses_fraction_strings():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-7/2") == Fraction(-7, 2)
    assert rat("5") == Fraction(5)
    assert rat(2) == Fraction(2)
    assert fmt(rat("3/7")) == "3/7"
    assert fmt(rat("2")) == "2"


def test_inf_sentinel():
    assert is_infinite(rat("inf"))
    assert is_infinite(rat("oo"))
    assert is_infinite(rat(INF))
    assert not is_infinite(Fraction(10**9))
    assert fmt(INF) == "inf"


def test_decimal_strings_are_exact():
    # The string is read digit by digit; the float 0.01 is not 1/100.
    assert rat("0.01") == Fraction(1, 100)
    assert rat("1e3") == Fraction(1000)
    # 4300 is the largest decimal exponent read; see the rejects below.
    assert rat("1e4300") == 10**4300
    assert rat("1e-4300") == Fraction(1, 10**4300)
    with pytest.raises(ValueError):
        rat(0.01)


@pytest.mark.parametrize(
    "bad",
    ["", "abc", "1/0", 0.5, True, "1e4301", "1e-4301", "2.5E+4_301", "1e100000000"],
)
def test_rejects_non_rationals(bad):
    with pytest.raises(ValueError):
        rat(bad)


@given(st.fractions())
@example(Fraction(3, 7))
@example(Fraction(-21, 40))
@example(Fraction(0))
@example(INF)
def test_fmt_round_trips(q):
    assert rat(fmt(q)) == q
