"""Degree-by-degree growth of carry ideals under multiplication by variables.

Multiplying by x_i rolls over the digits of b_i below its full run r: the
digit-column sums drop by p-1 below r and rise by one at r, and the carries
one degree up are read back as c_{j+1} = (c_j + s_j - d_j) / p. Growing a
class at its first column with a sum below n(p-1), the least full run in the
class, gives its successor; iterating the successor decides containment.

n = 1 is rejected throughout: a lone exponent can fill every column, and k[x]
has only the ideals <x^d>, all invariant, handled by the ideal module.
"""

from .basep import full_run
from .carry import Context, carry_pattern, column_sums, is_valid_pattern, leq, max_pattern

# loop guard for iterated successor; saturation occurs far earlier in practice
MAX_DEGREE_STEPS = 10**6


def _check_multivariate(n):
    if n < 2:
        raise ValueError("multiplication-map statistics need at least two variables")


def _first_slack(c, ctx):
    # never exhausted: the top column sum d_M - c_M is below p <= n(p-1)
    bound = ctx.n * (ctx.p - 1)
    return next(j for j, s in enumerate(column_sums(c, ctx)) if s < bound)


def first_slack_column(c, ctx):
    """Least digit position whose column sum is not full, i.e. < n(p-1).

    Over the monomials of carry pattern c this is the minimal achievable full
    run of a single exponent, hence the position controlling how far a carry
    can propagate when one exponent is incremented.
    """
    _check_multivariate(ctx.n)
    if not is_valid_pattern(c, ctx):
        raise ValueError(f"{c} is not a carry pattern for {ctx}")
    return _first_slack(c, ctx)


def _grow(c, here, r):
    # (pattern, Context) at d+1 after an exponent of full run r is incremented
    up, p = Context(here.n, here.p, here.d + 1), here.p
    sums = column_sums(c, here) + [0] * (up.length - here.length)
    carry, out = 0, []
    for j, (s, e) in enumerate(zip(sums, up.digits())):
        s += 1 if j == r else (1 - p if j < r else 0)
        carry, rest = divmod(carry + s - e, p)
        if rest or carry < 0:
            raise RuntimeError(f"no carry {j + 1} for {c} grown at {r} in {up}")
        out.append(carry)
    if out.pop():
        raise RuntimeError(f"{c} grown at {r} carries past the top of {up}")
    return tuple(out), up


def carry_after_multiply(exponents, index, p):
    """Carry pattern of x_index * x^exponents, by the column-sum rule; agrees
    with recomputing the pattern of the incremented vector."""
    exponents = tuple(exponents)
    n = len(exponents)
    _check_multivariate(n)
    if not 0 <= index < n:
        raise ValueError(f"variable index {index} out of range")
    c = carry_pattern(exponents, p)
    return _grow(c, Context(n, p, sum(exponents)), full_run(exponents[index], p))[0]


def successor(c, ctx):
    """The largest carry pattern reachable from class c one degree up.

    The span of degree-(d+1) monomials obtained by multiplying the invariant
    subspace of class c by all linear forms is exactly the subspace of the
    successor class at degree d+1.
    """
    return _grow(c, ctx, first_slack_column(c, ctx))[0]


def contains(c, d, c2, d2, n, p):
    """Whether the carry ideal of (c2, d2) sits inside that of (c, d).

    Decided by iterating the successor from degree d to d2 and comparing
    entrywise; once the iterate hits the top of its lattice the ideal has
    saturated and contains everything in all higher degrees.
    """
    _check_multivariate(n)
    here = Context(n, p, d)
    if not is_valid_pattern(c, here):
        raise ValueError(f"{c} is not a carry pattern for {here}")
    ctx2 = Context(n, p, d2)
    if not is_valid_pattern(c2, ctx2):
        raise ValueError(f"{c2} is not a carry pattern for {ctx2}")
    if d2 < d:
        return False
    for steps in range(d2 - d):
        if c == max_pattern(here):
            # saturated: every higher graded piece is the whole space
            return True
        if steps >= MAX_DEGREE_STEPS:
            raise ValueError(
                f"no saturation within {MAX_DEGREE_STEPS} degree steps; "
                "giving up on the iteration guard"
            )
        c, here = _grow(c, here, _first_slack(c, here))
    return leq(c2, c)
