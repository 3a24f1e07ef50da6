"""Degree-by-degree growth of carry ideals under multiplication by variables.

Multiplying a monomial by one variable changes its carry pattern by a closed
formula in terms of two digit statistics: the full run of the degree and the
full run of the incremented exponent. Maximizing over a carry class gives the
successor pattern one degree up, and iterating the successor answers the
containment question between carry ideals of different degrees.

One-variable contexts are rejected throughout: every column of a single
exponent can be full, so the slack statistic is undefined, and k[x] has only
the ideals <x^d>, all invariant, handled by the ideal module directly.
"""

from .basep import full_run, pattern_length
from .carry import Context, carry_pattern, column_sums, is_valid_pattern, leq, max_pattern

# loop guard for iterated successor; saturation occurs far earlier in practice
MAX_DEGREE_STEPS = 10**6


def _check_multivariate(n):
    if n < 2:
        raise ValueError("multiplication-map statistics need at least two variables")


def first_slack_column(c, ctx):
    """Least digit position whose column sum is not full, i.e. < n(p-1).

    Over the monomials of carry pattern c this is the minimal achievable full
    run of a single exponent, hence the position controlling how far a carry
    can propagate when one exponent is incremented.
    """
    _check_multivariate(ctx.n)
    if not is_valid_pattern(c, ctx):
        raise ValueError(f"{c} is not a carry pattern for {ctx}")
    bound = ctx.n * (ctx.p - 1)
    for j, s in enumerate(column_sums(c, ctx)):
        if s < bound:
            return j
    raise RuntimeError("every column full; impossible for n >= 2")


def _shift(c, d, p, plus_run, minus_run):
    # (c_1..c_M, 0) + 1^plus_run - 1^minus_run, renormalized to the pattern
    # length at degree d+1; a surplus trailing entry is provably zero.
    M = pattern_length(d, p)
    vec = [
        (c[k - 1] if k <= M else 0)
        + (1 if k <= plus_run else 0)
        - (1 if k <= minus_run else 0)
        for k in range(1, M + 2)
    ]
    target = pattern_length(d + 1, p)
    if len(vec) == target + 1:
        if vec[-1] != 0:
            raise RuntimeError(f"surplus trailing carry in {vec}")
        vec = vec[:-1]
    return tuple(vec)


def carry_after_multiply(exponents, index, p):
    """Carry pattern of x_index * x^exponents, by the closed formula.

    Agrees with recomputing the pattern of the incremented vector; the formula
    shifts the old pattern by the full run of the degree minus the full run of
    the chosen exponent.
    """
    exponents = tuple(exponents)
    _check_multivariate(len(exponents))
    if not 0 <= index < len(exponents):
        raise ValueError(f"variable index {index} out of range")
    d = sum(exponents)
    c = carry_pattern(exponents, p)
    return _shift(c, d, p, full_run(d, p), full_run(exponents[index], p))


def successor(c, ctx):
    """The largest carry pattern reachable from class c one degree up.

    The span of degree-(d+1) monomials obtained by multiplying the invariant
    subspace of class c by all linear forms is exactly the subspace of the
    successor class at degree d+1.
    """
    _check_multivariate(ctx.n)
    sh = first_slack_column(c, ctx)
    nxt = _shift(c, ctx.d, ctx.p, full_run(ctx.d, ctx.p), sh)
    up = Context(ctx.n, ctx.p, ctx.d + 1)
    if not is_valid_pattern(nxt, up):
        raise RuntimeError(f"successor built {nxt}, not a pattern for {up}")
    return nxt


def contains(c, d, c2, d2, n, p):
    """Whether the carry ideal of (c2, d2) sits inside that of (c, d).

    Decided by iterating the successor from degree d to d2 and comparing
    entrywise; once the iterate hits the top of its lattice the ideal has
    saturated and contains everything in all higher degrees.
    """
    _check_multivariate(n)
    ctx = Context(n, p, d)
    if not is_valid_pattern(c, ctx):
        raise ValueError(f"{c} is not a carry pattern for {ctx}")
    ctx2 = Context(n, p, d2)
    if not is_valid_pattern(c2, ctx2):
        raise ValueError(f"{c2} is not a carry pattern for {ctx2}")
    if d2 < d:
        return False
    cur = c
    for steps, e in enumerate(range(d, d2)):
        here = Context(n, p, e)
        if cur == max_pattern(here):
            # saturated: every higher graded piece is the whole space
            return True
        if steps >= MAX_DEGREE_STEPS:
            raise ValueError(
                f"no saturation within {MAX_DEGREE_STEPS} degree steps; "
                "giving up on the iteration guard"
            )
        cur = successor(cur, here)
    return leq(c2, cur)
