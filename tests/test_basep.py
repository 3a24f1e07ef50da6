import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from carryideals.basep import (
    InvalidCharacteristic,
    binomial_mod_p,
    expand,
    full_run,
    multinomial_mod_p,
    value_of,
)
from oracles import oracle_multinomial

PRIMES = (2, 3, 5, 7, 11, 13)


def test_expansion_fixtures():
    assert expand(62102, 5) == (2, 0, 4, 1, 4, 4, 3)
    assert expand(0, 3) == ()
    assert expand(48, 7) == (6, 6)


@given(st.integers(0, 10**9), st.sampled_from(PRIMES))
def test_expand_round_trip(value, p):
    digits = expand(value, p)
    assert value_of(digits, p) == value
    assert all(0 <= d < p for d in digits)
    if digits:
        assert digits[-1] != 0


def test_full_run_fixtures():
    assert full_run(440, 7) == 2
    assert full_run(0, 5) == 0
    assert full_run(342, 7) == 3
    assert full_run(48, 7) == 2
    assert full_run(50, 7) == 0


@pytest.mark.parametrize("p", (2, 3, 5, 7))
@pytest.mark.parametrize("value", (-1, -3, -7))
def test_full_run_rejects_negative(value, p):
    with pytest.raises(ValueError):
        full_run(value, p)


@given(st.integers(0, 10**6), st.sampled_from(PRIMES))
def test_full_run_properties(value, p):
    run = full_run(value, p)
    digits = expand(value, p)
    assert run <= len(digits) + 1
    assert (run == 0) == (value % p != p - 1)
    for j in range(run):
        assert digits[j] == p - 1
    if run <= len(digits) - 1:
        assert digits[run] != p - 1


def test_all_full_digits():
    for p in (2, 3, 5):
        for k in (1, 2, 4):
            assert full_run(p**k - 1, p) == k


def test_multinomial_fixtures():
    assert multinomial_mod_p(2, (1, 1), 2) == 0
    assert multinomial_mod_p(4, (3, 1), 3) == 1
    assert multinomial_mod_p(5, (5, 0), 7) == 1


def test_lucas_against_factorials_binary():
    for p in (2, 3, 5):
        for top in range(61):
            for k in range(top + 1):
                expected = math.comb(top, k) % p
                assert binomial_mod_p(top, k, p) == expected


@given(
    st.lists(st.integers(0, 40), min_size=1, max_size=4),
    st.sampled_from((2, 3, 5, 7)),
)
def test_lucas_against_factorials_general(parts, p):
    top = sum(parts)
    assert multinomial_mod_p(top, parts, p) == oracle_multinomial(top, parts, p)


def test_binomial_out_of_range():
    assert binomial_mod_p(4, -1, 3) == 0
    assert binomial_mod_p(4, 5, 3) == 0


def test_errors():
    with pytest.raises(InvalidCharacteristic):
        expand(5, 4)
    with pytest.raises(InvalidCharacteristic):
        expand(5, 1)
    with pytest.raises(ValueError):
        expand(-1, 3)
    with pytest.raises(ValueError):
        multinomial_mod_p(5, (1, 1), 3)
    with pytest.raises(ValueError):
        multinomial_mod_p(3, (4, -1), 3)
