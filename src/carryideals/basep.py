"""Exact base-p digit arithmetic.

Expansions are little-endian digit tuples with no trailing zeros; the empty
tuple represents zero. Digits past the top index are 0, so every consumer
may treat expansions as padded with zeros on the right.
"""

import math


class InvalidCharacteristic(ValueError):
    """The base of an expansion must be a prime number."""


def is_prime(p):
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def check_prime(p):
    if not isinstance(p, int) or not is_prime(p):
        raise InvalidCharacteristic(f"characteristic must be prime, got {p!r}")


def expand(value, p):
    """Little-endian base-p digits of a nonnegative integer."""
    check_prime(p)
    if value < 0:
        raise ValueError(f"cannot expand negative value {value}")
    out = []
    while value:
        value, r = divmod(value, p)
        out.append(r)
    return tuple(out)


def value_of(digits, p):
    """Inverse of expand: the integer with the given little-endian digits."""
    total = 0
    for d in reversed(digits):
        total = total * p + d
    return total


def top_index(value, p):
    """Index of the highest nonzero digit; -1 for value 0."""
    return len(expand(value, p)) - 1


def full_run(value, p):
    """Length of the initial run of digits equal to p-1.

    Equivalently the least j whose digit differs from p-1, which is also the
    number of digits that roll over when value is incremented.
    """
    check_prime(p)
    if value < 0:
        raise ValueError(f"no base-{p} digits for negative value {value}")
    j = 0
    while value % p == p - 1:
        value //= p
        j += 1
    return j


def multinomial_mod_p(top, parts, p):
    """top! / prod(parts_i!) reduced mod p, digit by digit.

    Never forms the factorials over the integers: the coefficient vanishes
    mod p exactly when adding the parts in base p carries, and otherwise is
    the product of the single-digit multinomials (Lucas).
    """
    check_prime(p)
    parts = tuple(parts)
    if top < 0 or any(x < 0 for x in parts):
        raise ValueError("multinomial arguments must be nonnegative")
    if sum(parts) != top:
        raise ValueError(f"parts {parts} do not sum to {top}")
    result = 1
    rem = list(parts)
    while top:
        ds = [x % p for x in rem]
        if sum(ds) != top % p:
            return 0
        col = math.factorial(top % p)
        for d in ds:
            col //= math.factorial(d)
        result = result * col % p
        top //= p
        rem = [x // p for x in rem]
    return result


def binomial_mod_p(n, k, p):
    if k < 0 or k > n:
        return 0
    return multinomial_mod_p(n, (k, n - k), p)
