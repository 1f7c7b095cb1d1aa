import math

import pytest
from hypothesis import given, strategies as st

from qfano.arith import (
    NotCoprimeError,
    Rational,
    canonical_orientation,
    format_rational,
    json_integer,
    parse_rational,
)
from qfano.links import LinkCaseError
from qfano.store import StoreError


def test_format_rational():
    assert format_rational(Rational(1, 2)) == "1/2"
    assert format_rational(Rational(4, 2)) == "2"
    assert format_rational(Rational(-3, 9)) == "-1/3"
    assert format_rational(Rational(0)) == "0"


def test_parse_rational():
    assert parse_rational("1/20") == Rational(1, 20)
    assert parse_rational("  125/2 ") == Rational(125, 2)
    assert parse_rational("-7") == Rational(-7)
    assert parse_rational("+3/6") == Rational(1, 2)


@pytest.mark.parametrize("bad", ["", "1/2/3", "1.5", "a", "1/-2", "1/0"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_parse_format_round_trip(num, den):
    x = Rational(num, den)
    assert parse_rational(format_rational(x)) == x


def test_canonical_orientation():
    assert canonical_orientation(1, 2) == 1
    assert canonical_orientation(3, 4) == 1
    assert canonical_orientation(2, 5) == 2
    assert canonical_orientation(3, 5) == 2
    assert canonical_orientation(7, 15) == 7
    assert canonical_orientation(8, 15) == 7
    with pytest.raises(NotCoprimeError):
        canonical_orientation(6, 9)
    with pytest.raises(ValueError):
        canonical_orientation(0, 1)


@given(st.integers(2, 300), st.integers(1, 10**6))
def test_canonical_orientation_properties(r, a):
    if math.gcd(a, r) != 1:
        with pytest.raises(NotCoprimeError):
            canonical_orientation(a, r)
        return
    c = canonical_orientation(a, r)
    assert 1 <= c <= r // 2 or (r == 2 and c == 1)
    assert c == canonical_orientation(r - a % r, r)
    assert c == canonical_orientation(c, r)  # idempotent



@pytest.mark.parametrize("error", [StoreError, LinkCaseError])
def test_json_integer_refuses_what_int_would_coerce(error):
    # the one rule for database rows and case files alike
    assert json_integer(3, "q", error) == 3 and json_integer(-2**70, "q", error) == -2**70
    for value in (True, False, 2.0, "3", None, [1]):
        with pytest.raises(error) as refused:
            json_integer(value, "q", error)
        assert str(refused.value) == f"q must be a JSON integer, got {value!r}"
