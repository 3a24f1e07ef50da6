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
from functools import lru_cache
from operator import add

from .basep import check_prime, digit_at, expand, pattern_length


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

    @property
    def length(self):
        return pattern_length(self.d, self.p)

    def digits(self):
        return expand(self.d, self.p)


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
    length = pattern_length(d, p)
    out = []
    carry = 0
    rem = list(exponents)
    for j in range(length):
        s = sum(b % p for b in rem) + carry
        carry = (s - digit_at(d, p, j)) // p
        out.append(carry)
        rem = [b // p for b in rem]
    return tuple(out)


def column_sums(c, ctx):
    """Digit-column sums s_j = d_j + p*c_{j+1} - c_j for j = 0..M.

    For a realizable pattern, s_j is the sum of the j-th digits of the
    exponents, so 0 <= s_j <= n(p-1) characterizes membership.
    """
    digits = ctx.digits()
    M = ctx.length

    def entry(i):
        return c[i - 1] if 1 <= i <= M else 0

    return [
        (digits[j] if j < len(digits) else 0) + ctx.p * entry(j + 1) - entry(j)
        for j in range(M + 1)
    ]


def is_valid_pattern(c, ctx):
    """Whether the tuple is the carry pattern of some degree-d monomial."""
    c = tuple(c)
    if len(c) != ctx.length:
        return False
    if any(not isinstance(x, int) or x < 0 for x in c):
        return False
    digits = ctx.digits()
    bound = ctx.n * (ctx.p - 1)
    for s in column_sums(c, ctx):
        if not 0 <= s <= bound:
            return False
    # entrywise cap by the value of the remaining digits
    for i in range(1, ctx.length + 1):
        cap = sum(digits[j] * ctx.p ** (j - i) for j in range(i, len(digits)))
        if c[i - 1] > cap:
            return False
    return True


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

    Interval dynamic programming: a forward pass records which values of c_i
    admit a consistent choice above, a backward pass filters by consistency
    below (including the column-0 inequality), and the componentwise maxima
    of the surviving sets assemble to a valid pattern because the lattice is
    closed under entrywise max.
    """
    M = ctx.length
    if M == 0:
        return ()
    digits = ctx.digits()
    p, bound = ctx.p, ctx.n * (ctx.p - 1)

    def di(i):
        return digits[i] if i < len(digits) else 0

    feasible = [None] * (M + 2)
    feasible[M + 1] = {0}
    for i in range(M, 0, -1):
        vals = set()
        for above in feasible[i + 1]:
            lo = max(0, di(i) + p * above - bound)
            hi = min(di(i) + p * above, ctx.n - 1)
            vals.update(range(lo, hi + 1))
        feasible[i] = vals
    chosen = [None] * (M + 2)
    chosen[1] = {c for c in feasible[1] if di(0) + p * c <= bound}
    for i in range(1, M + 1):
        chosen[i + 1] = {
            above
            for above in feasible[i + 1]
            if any(0 <= di(i) + p * above - c <= bound for c in chosen[i])
        }
    top = tuple(max(chosen[i]) for i in range(1, M + 1))
    if not is_valid_pattern(top, ctx):
        raise RuntimeError(f"max_pattern built {top}, not a pattern for {ctx}")
    return top


def down_closure(patterns, ctx):
    """All lattice elements below some member of the given set."""
    pats = set(patterns)
    return {c for c in enumerate_patterns(ctx) if any(leq(c, b) for b in pats)}


def is_order_closed(patterns, ctx):
    return set(patterns) == down_closure(patterns, ctx)


def maximal_elements(patterns):
    """The antichain of entrywise-maximal members."""
    pats = set(patterns)
    return {c for c in pats if not any(c != o and leq(c, o) for o in pats)}


def compositions(d, n):
    """All n-tuples of nonnegative integers summing to d."""
    if n == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in compositions(d - first, n - 1):
            yield (first,) + rest


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
    edges = []
    for low in pats:
        for high in pats:
            if low == high or not leq(low, high):
                continue
            if any(
                mid != low and mid != high and leq(low, mid) and leq(mid, high)
                for mid in pats
            ):
                continue
            edges.append((low, high))
    return sorted(edges)


def format_pattern(c):
    return "(" + ",".join(str(x) for x in c) + ")"


def parse_pattern(text):
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"expected a parenthesized pattern, got {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return ()
    return tuple(int(tok) for tok in inner.split(","))


def hasse_dot(ctx):
    """DOT source for the Hasse diagram of the pattern lattice."""
    lines = ["graph carry_lattice {"]
    for c in enumerate_patterns(ctx):
        lines.append(f'  "{format_pattern(c)}";')
    for low, high in cover_edges(ctx):
        lines.append(f'  "{format_pattern(low)}" -- "{format_pattern(high)}";')
    lines.append("}")
    return "\n".join(lines)
