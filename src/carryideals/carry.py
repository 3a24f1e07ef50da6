"""Carry patterns of monomials and the finite lattice they form.

A monomial x1^b1 ... xn^bn of degree d determines the tuple (c_1, ..., c_M),
where M is the top base-p digit index of d and c_j is the amount carried into
the p^j column when the exponents are added in base p. Patterns are stored at
fixed length M with positional comparison; entries outside 1..M are 0 by
convention, and d < p gives the empty pattern. The set of patterns realized
by degree-d monomials in n variables is a finite lattice under the entrywise
order, with bottom (0,...,0).

A pattern fixes every digit-column sum s_j = d_j + p*c_{j+1} - c_j, and
conversely any exponents whose j-th base-p digits sum to s_j in every column
have carry pattern c. So the monomials of one pattern are the products, over
the columns, of the splits of s_j into n digits below p. The monomial basis
of an invariant subspace is built from the lattice that way, at a cost that
grows with the size of the basis, not with the number of degree-d monomials.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import add

from .basep import check_prime, expand


@dataclass(frozen=True)
class Context:
    """A (variables, characteristic, degree) triple fixing the pattern space."""

    n: int
    p: int
    d: int

    def __post_init__(self):
        check_prime(self.p)
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"need at least one variable, got n={self.n}")
        if not isinstance(self.d, int) or self.d < 0:
            raise ValueError(f"degree must be nonnegative, got d={self.d}")

    def __str__(self):
        return f"n={self.n} p={self.p} d={self.d}"

    # cached_property stores into the instance dict, which a frozen
    # dataclass allows; equality and hashing still see only n, p and d
    @cached_property
    def _digits(self):
        return expand(self.d, self.p)

    @cached_property
    def length(self):
        return max(len(self._digits) - 1, 0)

    def digits(self):
        return self._digits


def carry_pattern(exponents, p):
    """Carry pattern of the monomial with the given exponent vector.

    Computed by digitwise addition with carries; the degree is the sum of the
    exponents, so the result always lives in the pattern space of that degree.
    """
    check_prime(p)
    exponents = tuple(exponents)
    if not exponents or any(b < 0 for b in exponents):
        raise ValueError(f"bad exponent vector {exponents!r}")
    d = sum(exponents)
    out = []
    carry = 0
    rem = exponents
    # one entry per digit of d above the lowest
    while d >= p:
        d, digit = divmod(d, p)
        carry = (sum(b % p for b in rem) + carry - digit) // p
        out.append(carry)
        rem = [b // p for b in rem]
    return tuple(out)


def column_sums(c, ctx):
    """Digit-column sums s_j = d_j + p*c_{j+1} - c_j for j = 0..M.

    For a realizable pattern, s_j is the sum of the j-th digits of the
    exponents, so 0 <= s_j <= n(p-1) characterizes membership.
    """
    padded = (0, *c, 0)
    return [
        digit + ctx.p * padded[j + 1] - padded[j]
        for j, digit in enumerate(ctx.digits() or (0,))
    ]


def is_valid_pattern(c, ctx):
    """Whether the tuple is the carry pattern of some degree-d monomial.

    Exactly when every column sum lies in [0, n(p-1)]: then each sum splits
    into n digits, and the monomial with those digits carries c, so c >= 0
    and the caps by the higher digits of d follow.
    """
    c = tuple(c)
    if len(c) != ctx.length or any(not isinstance(x, int) for x in c):
        return False
    bound = ctx.n * (ctx.p - 1)
    return all(0 <= s <= bound for s in column_sums(c, ctx))


@lru_cache(maxsize=256)
def enumerate_patterns(ctx):
    """All carry patterns of degree-d monomials, in lexicographic order.

    Depth-first search from the top position down; at each step the column-sum
    inequalities pin c_i to an interval, and realizable carries of n summands
    never exceed n-1, which keeps the search space finite.
    """
    M = ctx.length
    if M == 0:
        return ((),)
    digits = ctx.digits()
    bound = ctx.n * (ctx.p - 1)
    d0 = digits[0]
    out = []

    def descend(i, above, suffix):
        # choosing c_i given c_{i+1} = above; constraint at column i:
        # 0 <= d_i + p*above - c_i <= bound
        di = digits[i] if i < len(digits) else 0
        lo = max(0, di + ctx.p * above - bound)
        hi = min(di + ctx.p * above, ctx.n - 1)
        for ci in range(lo, hi + 1):
            if i == 1:
                if d0 + ctx.p * ci <= bound:
                    out.append((ci,) + suffix)
            else:
                descend(i - 1, ci, (ci,) + suffix)

    descend(M, 0, ())
    return tuple(sorted(out))


def leq(c1, c2):
    """Entrywise comparison of two patterns of the same length."""
    if len(c1) != len(c2):
        raise ValueError("patterns of different lengths are incomparable")
    return all(a <= b for a, b in zip(c1, c2))


def join(c1, c2):
    if len(c1) != len(c2):
        raise ValueError("patterns of different lengths have no join")
    return tuple(max(a, b) for a, b in zip(c1, c2))


def meet(c1, c2):
    if len(c1) != len(c2):
        raise ValueError("patterns of different lengths have no meet")
    return tuple(min(a, b) for a, b in zip(c1, c2))


def min_pattern(ctx):
    return (0,) * ctx.length


def max_pattern(ctx):
    """Top of the lattice, without materializing it.

    Column j reads 0 <= d_j + p*c_{j+1} - c_j <= n(p-1), where
    c_0 = c_{M+1} = 0. Each inequality bounds one carry from above by a
    non-decreasing function of its neighbour, so the solutions are closed
    under entrywise max, and two passes reach the greatest one. The
    bottom-up pass caps c_{j+1} <= (n(p-1) + c_j - d_j) // p, the top-down
    pass caps c_j <= d_j + p*c_{j+1}; each applies only bounds that every
    solution obeys. A carry lowered by the second pass to d_j + p*c_{j+1}
    leaves column j with sum 0, and one left alone sees only lowered carries
    above it, so no column the first pass fixed goes over n(p-1). The cap
    c <= n-1 of a carry of n summands needs no pass: c_j <= n-1 gives
    c_{j+1} <= (np-1) // p.
    """
    digits, p, M = ctx.digits(), ctx.p, ctx.length
    bound = ctx.n * (p - 1)
    c = [0] * (M + 2)
    for j in range(M):
        c[j + 1] = (bound + c[j] - digits[j]) // p
    for j in range(M, 0, -1):
        c[j] = min(c[j], digits[j] + p * c[j + 1])
    top = tuple(c[1:-1])
    if not is_valid_pattern(top, ctx):
        raise RuntimeError(f"max_pattern built {top}, not a pattern for {ctx}")
    return top


def maximal_elements(patterns):
    """The antichain of entrywise-maximal members."""
    pats = set(patterns)
    return {c for c in pats if not any(c != o and leq(c, o) for o in pats)}


@lru_cache(maxsize=1024)
def _digit_splits(n, p, s):
    """The n-tuples of base-p digits (0..p-1) summing to s."""
    if n == 1:
        return ((s,),) if 0 <= s < p else ()
    return tuple(
        (first,) + rest
        for first in range(min(s, p - 1), -1, -1)
        for rest in _digit_splits(n - 1, p, s - first)
    )


def monomials_of_pattern(c, ctx):
    """Exponent vectors of degree d whose carry pattern is exactly c.

    Column j contributes p^j times a split of the column sum s_j into n
    digits, and every choice of one split per column gives a distinct
    exponent vector of pattern c. The result is unordered, and empty when c
    has the right length but is not a carry pattern for ctx.
    """
    c = tuple(c)
    if len(c) != ctx.length or any(not isinstance(x, int) for x in c):
        raise ValueError(f"{c} is not a carry pattern for {ctx}")
    n, p = ctx.n, ctx.p
    out = [(0,) * n]
    weight = 1
    for s in column_sums(c, ctx):
        splits = _digit_splits(n, p, s)
        if not splits:
            return []
        if s:
            col = [tuple(weight * x for x in t) for t in splits]
            out = [tuple(map(add, b, t)) for b in out for t in col]
        weight *= p
    return out


def monomials_with_carry_leq(c, ctx):
    """Exponent vectors of degree d whose carry pattern is entrywise <= c,
    in descending lexicographic order.

    This is the monomial basis of the smallest invariant subspace of the
    degree-d forms containing the carry class of c: the union, over the
    lattice elements c' <= c, of the digit-split products of c'.
    """
    c = tuple(c)
    if not is_valid_pattern(c, ctx):
        raise ValueError(f"{c} is not a carry pattern for {ctx}")
    out = []
    for below in enumerate_patterns(ctx):
        if leq(below, c):
            out.extend(monomials_of_pattern(below, ctx))
    out.sort(reverse=True)
    return out


def cover_edges(ctx):
    """Covering relations (lower, upper) of the pattern lattice."""
    pats = enumerate_patterns(ctx)
    # the covers of high are the maximal elements of its strict down-set
    return sorted(
        (low, high)
        for high in pats
        for low in maximal_elements(c for c in pats if c != high and leq(c, high))
    )
