"""Independent answer checks for the benchmark, written from the definitions.

Nothing here imports the library. Carries come from digit-by-digit addition,
carry ideals from a scan over all compositions, quotients from a staircase
walk, invariance from the action of elementary transvections, and Betti
numbers are tested against the Hilbert series of the quotient. The job
generators also use these routines, so the library receives only plain
inputs.
"""

from bisect import bisect_left
from math import comb


def digits(value, p):
    out = []
    while value:
        value, r = divmod(value, p)
        out.append(r)
    return out


def carry(exponents, p):
    """Carries into the columns p^1..p^M when the exponents are added in base p,
    where M is the top digit index of their sum."""
    length = max(len(digits(sum(exponents), p)) - 1, 0)
    out = []
    c = 0
    rem = list(exponents)
    for _ in range(length):
        c = (sum(b % p for b in rem) + c) // p
        out.append(c)
        rem = [b // p for b in rem]
    return tuple(out)


def below(c1, c2):
    return all(a <= b for a, b in zip(c1, c2))


def compositions(d, n):
    if n == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in compositions(d - first, n - 1):
            yield (first,) + rest


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def minimal(gens):
    """Divisibility-minimal members of a set of exponent vectors.

    A monomial lies in the ideal exactly when it is a generator or one of
    the monomials it covers does; memoizing that recursion visits each
    monomial between the lowest and highest generator degree at most once.
    """
    gens = set(gens)
    low = min(map(sum, gens))
    memo = {}

    def inside(m):
        if sum(m) < low:
            return False
        if m not in memo:
            memo[m] = m in gens or any(inside(down) for down in covered(m))
        return memo[m]

    def covered(m):
        return [m[:i] + (m[i] - 1,) + m[i + 1 :] for i in range(len(m)) if m[i]]

    return {g for g in gens if not any(inside(down) for down in covered(g))}


def carry_generators(c, d, n, p):
    """All degree-d monomials whose carry pattern is entrywise <= c."""
    return {b for b in compositions(d, n) if below(carry(b, p), c)}


def label_generators(labels, n, p):
    gens = set()
    for c, d in labels:
        gens |= carry_generators(c, d, n, p)
    return minimal(gens)


def patterns(d, n, p):
    return {carry(b, p) for b in compositions(d, n)}


def member(m, gens):
    return any(divides(g, m) for g in gens)


def standard_counts(gens, n):
    """Dimensions of the graded pieces of S/I, degree 0 up to the last nonzero.

    A monomial of degree e lies outside I exactly when it is not a generator
    and every monomial dividing it in degree e - 1 lies outside I, so the
    standard monomials of each degree grow from those of the degree below.
    The ideal must contain a power of every variable.
    """
    gens = set(gens)
    layer = {(0,) * n} if (0,) * n not in gens else set()
    counts = []
    while layer:
        counts.append(len(layer))
        nxt = set()
        for m in layer:
            for i in range(n):
                up = m[:i] + (m[i] + 1,) + m[i + 1 :]
                if up in gens or up in nxt:
                    continue
                if all(
                    up[:k] + (up[k] - 1,) + up[k + 1 :] in layer
                    for k in range(n)
                    if up[k]
                ):
                    nxt.add(up)
        layer = nxt
    return counts


def two_var_counts(gens):
    """standard_counts for two variables from the sorted x-exponents of the
    generators, which all share one degree d and include both pure powers."""
    a = sorted(g[0] for g in gens)
    d = sum(next(iter(gens)))
    gaps = [hi - lo for lo, hi in zip(a, a[1:])]
    counts = [e + 1 for e in range(d)]
    e = d
    while True:
        k = sum(max(0, g - 1 - (e - d)) for g in gaps)
        if not k:
            return counts
        counts.append(k)
        e += 1


def euler_betti(counts, n):
    """[t^j] (1 - t)^n HS(S/I): the alternating sums of the Betti numbers."""
    top = len(counts) + n
    out = {}
    for j in range(top):
        total = 0
        for k in range(n + 1):
            if 0 <= j - k < len(counts):
                total += (-1) ** k * comb(n, k) * counts[j - k]
        if total:
            out[j] = total
    return out


def check_betti(entries, counts, n):
    """Errors in a Betti table (dict (i, j) -> multiplicity) against the
    Hilbert series identity; an empty list when it holds."""
    alt = {}
    for (i, j), v in entries.items():
        alt[j] = alt.get(j, 0) + (-1) ** i * v
    alt = {j: v for j, v in alt.items() if v}
    want = euler_betti(counts, n)
    if alt != want:
        return [f"alternating sums {sorted(alt.items())} != {sorted(want.items())}"]
    return []


def binomial_mod(n, k, p):
    """Binomial coefficient mod p by Lucas' theorem."""
    out = 1
    while n or k:
        a, b = n % p, k % p
        if b > a:
            return 0
        out = out * comb(a, b) % p
        n //= p
        k //= p
    return out


def is_invariant(gens, n, p):
    """Invariance under the elementary transvections x_j -> x_j + t x_i,
    which together with the torus and permutations generate GL_n."""
    for g in gens:
        for j in range(n):
            for i in range(n):
                if i == j:
                    continue
                for k in range(1, g[j] + 1):
                    if binomial_mod(g[j], k, p):
                        m = list(g)
                        m[j] -= k
                        m[i] += k
                        if not member(m, gens):
                            return False
    return True


def check_witness(witness, gens, p):
    """Errors in an invariance witness (degree, present, absent)."""
    d, present, absent = witness
    present, absent = tuple(present), tuple(absent)
    errors = []
    if sum(present) != d or sum(absent) != d:
        errors.append("witness monomials are not of the witness degree")
    if not member(present, gens):
        errors.append(f"{present} is not in the ideal")
    if member(absent, gens):
        errors.append(f"{absent} is in the ideal")
    if not below(carry(absent, p), carry(present, p)):
        errors.append(f"{present} does not force {absent}")
    return errors


def simple_dimension(lam, p):
    out = 1
    for digit in digits(lam[0] - lam[1], p):
        out *= digit + 1
    return out


def pure_power(gens, p):
    """(m, e) when the generators are those of (<x, y>^m)^[p^e], else None."""
    a = sorted(g[0] for g in gens)
    d = sum(next(iter(gens)))
    if len(a) < 2 or a[0] != 0 or a[-1] != d:
        return None
    steps = {hi - lo for lo, hi in zip(a, a[1:])}
    if len(steps) != 1:
        return None
    q = steps.pop()
    e = 0
    while p**e < q:
        e += 1
    return (d // q, e) if p**e == q else None


def _two_var_test(c, d, p):
    """Predicate on a in [0, d]: carry((a, d - a)) <= c.

    With two summands every carry is 0 or 1, and the carry into the p^l
    column is 1 exactly when the parts below p^l overflow it, so only the
    positions where c is 0 need testing.
    """
    zeros = [p ** (l + 1) for l, x in enumerate(c) if x == 0]
    return lambda a: all(a % q + (d - a) % q < q for q in zeros)


def contains(c, d, c2, d2, p):
    """Two variables: whether the carry ideal of (c2, d2) lies in that of (c, d),
    by divisibility of every degree-d2 generator by a degree-d one."""
    if d2 < d:
        return False
    test = _two_var_test(c, d, p)
    outer = [a for a in range(d + 1) if test(a)]
    inner = _two_var_test(c2, d2, p)
    gap = d2 - d
    for a in range(d2 + 1):
        if inner(a):
            # (b, d - b) divides (a, d2 - a) iff a - gap <= b <= a
            k = bisect_left(outer, a - gap)
            if k == len(outer) or outer[k] > a:
                return False
    return True
