"""Closed-form theory of carry ideals in two variables.

With n = 2 every carry pattern has 0/1 entries, and cutting the base-p digits
of the degree d at the positions where the pattern vanishes (and no full digit
precedes) segments d into blocks. The block contents determine everything in
closed form: the minimal generators factor as a product of Frobenius powers of
powers of the maximal ideal, the quotient has a two-step resolution whose
syzygy degrees and multiplicities are digit statistics of the segmentation,
and the regularity drops out of the last syzygy offset.
"""

from dataclasses import dataclass

from .basep import full_run, top_index, value_of
from .betti import BettiTable
from .carry import Context, is_valid_pattern


def is_simple_degree(d, p):
    """Whether the degree-d forms in two variables have no proper nonzero
    invariant subspace, i.e. the pattern lattice is a single point.

    Holds exactly when every digit of d below the top one is p-1.
    """
    return full_run(d, p) >= max(top_index(d, p), 0)


@dataclass(frozen=True)
class Segmentation:
    """Cut of the digits of d at the pattern's qualifying zero positions.

    cut_points lists the positions 0 = t_0 < ... < t_l where the pattern entry
    is zero and the preceding (entry, digit) pair is not (0, p-1); segments
    are the digit slices between consecutive cut points (the last one padded
    to the top index), and contents are their base-p values.
    """

    c: tuple
    d: int
    p: int
    cut_points: tuple
    segments: tuple
    contents: tuple


def segmentation(c, d, p):
    if d < 1:
        raise ValueError("carry ideals are generated in positive degree")
    c = tuple(c)
    ctx = Context(2, p, d)
    if not is_valid_pattern(c, ctx):
        raise ValueError(f"{c} is not a two-variable carry pattern for degree {d}")
    digits = ctx.digits()
    M = ctx.length

    padded = (0, *c)
    cuts = [0]
    for k in range(1, M + 1):
        if padded[k] == 0 and (padded[k - 1], digits[k - 1]) != (0, p - 1):
            cuts.append(k)
    cuts.append(M + 1)  # sentinel
    segments = tuple(digits[a:b] for a, b in zip(cuts, cuts[1:]))
    contents = tuple(value_of(seg, p) for seg in segments)
    return Segmentation(c, d, p, tuple(cuts[:-1]), segments, contents)


def generators(seg):
    """The minimal generators x^a y^(d-a) in canonical order (a descending),
    where a runs over the sums w_r p^{t_r} with 0 <= w_r <= content_r."""
    exps = [0]
    for t, cont in zip(seg.cut_points, seg.contents):
        step = seg.p**t
        exps = [a + w * step for a in exps for w in range(cont + 1)]
    return [(a, seg.d - a) for a in sorted(exps, reverse=True)]


def generator_factors(seg):
    """The factorization data: (power of the maximal ideal, Frobenius exponent) pairs."""
    return tuple(zip(seg.contents, seg.cut_points))


def syzygy_offsets(seg):
    """Offsets phi_r above the generating degree where first syzygies live.

    phi_r = p^{t_r} minus the weighted contents of all earlier segments; the
    offsets are strictly increasing, and the r-th one is the exponent gap
    between a generator maximal in its first r slots and its lexicographic
    neighbor.
    """
    phis = []
    acc = 0
    for t, cont in zip(seg.cut_points, seg.contents):
        phis.append(seg.p**t - acc)
        acc += cont * seg.p**t
    return tuple(phis)


def betti_formula(c, d, p):
    """Graded Betti table of the quotient by the carry ideal of (c, d).

    The generator count is the product of (content + 1) over all segments; the
    syzygies at offset phi_r count content_r times the product of the later
    (content + 1) factors. Zero multiplicities (content 0) are omitted.
    """
    seg = segmentation(c, d, p)
    phis = syzygy_offsets(seg)
    conts = seg.contents
    entries = {(0, 0): 1}
    gens = 1
    for cont in conts:
        gens *= cont + 1
    entries[(1, d)] = gens
    for r, phi in enumerate(phis):
        mult = conts[r]
        for cont in conts[r + 1 :]:
            mult *= cont + 1
        if mult:
            entries[(2, d + phi)] = mult
    return BettiTable(entries, 2)


def regularity_formula(c, d, p):
    """Top nonzero degree of the quotient: d plus the last syzygy offset minus 2."""
    seg = segmentation(c, d, p)
    return d + syzygy_offsets(seg)[-1] - 2


@dataclass(frozen=True)
class HilbertBurch:
    """Two-step resolution of a depth-zero monomial ideal in two variables.

    generators come sorted with strictly decreasing x-exponent; column j of
    the bidiagonal syzygy matrix has y^(b_{j+1} - b_j) in row j and
    -x^(a_j - a_{j+1}) in row j+1, encoded as (y_step, x_step) pairs.
    """

    generators: tuple
    columns: tuple

    def column_degrees(self):
        return tuple(
            sum(self.generators[j]) + self.columns[j][0]
            for j in range(len(self.columns))
        )


def hilbert_burch(ideal):
    """Resolution matrices for a two-variable ideal containing a power of each
    variable; refuses n != 2 and ideals without (a, 0) and (0, b) generators.

    Column j is (b_{j+1} - b_j, a_j - a_{j+1}), so row j times the y-step and
    row j+1 times the x-step are both x^(a_j) y^(b_{j+1}): the maps compose
    to zero by construction. Deleting row k leaves y-steps below the diagonal
    and x-steps above, so the minor is x^(a_k - a_{r-1}) y^(b_k - b_0), which
    is generator k because depth zero gives b_0 = a_{r-1} = 0.
    """
    if ideal.n != 2:
        raise ValueError("hilbert_burch handles two-variable ideals only")
    gens = sorted(ideal.generators, key=lambda g: -g[0])
    r = len(gens)
    if r < 2 or gens[0][1] != 0 or gens[-1][0] != 0:
        raise ValueError(
            "need a power of each variable among the generators (depth zero)"
        )
    cols = []
    for j in range(r - 1):
        (a1, b1), (a2, b2) = gens[j], gens[j + 1]
        cols.append((b2 - b1, a1 - a2))
    return HilbertBurch(tuple(gens), tuple(cols))


def pure_power_certificate(ideal):
    """(m, e) with ideal = (<x,y>^m)^[p^e] when the resolution is pure, else None.

    A pure resolution forces generation in one degree with generators in
    arithmetic progression of stride a power of p.
    """
    if ideal.n != 2:
        raise ValueError("purity test handles two-variable ideals only")
    return pure_power_of_generators(ideal.generators, ideal.p)


def pure_power_of_generators(generators, p):
    """pure_power_certificate of the two-variable ideal with these minimal
    generators."""
    gens = sorted(generators, key=lambda g: -g[0])
    degrees = {sum(g) for g in gens}
    if len(degrees) != 1:
        return None
    d = degrees.pop()
    if gens[0] != (d, 0) or gens[-1] != (0, d):
        return None
    strides = {gens[j][0] - gens[j + 1][0] for j in range(len(gens) - 1)}
    if len(strides) != 1:
        return None
    stride = strides.pop()
    e = 0
    q = 1
    while q < stride:
        q *= p
        e += 1
    if q != stride:
        return None
    return (d // stride, e)
