"""Grothendieck classes of the Tor spaces of two-variable invariant ideals.

Let I be an invariant ideal of k[x, y] with minimal generators x^(a_k)
y^(b_k), sorted by decreasing a_k. Its quotient has a two-step resolution
(see twovars.hilbert_burch): Tor_{1,j} is spanned by the degree-j minimal
generators, and Tor_{2,j} is the socle of S/I in degree j - 2, spanned by
the corners x^(a_k - 1) y^(b_{k+1} - 1), twisted by the determinant. Each
space is a union of carry classes, and a carry class contributes the simple
module L(lam) once, with lam its lexicographically largest monomial; the
twist adds (1, 1) to every weight in position 2.
"""

from .carry import carry_pattern
from .ideals import NotInvariantError, invariance_witness


def tor_class(ideal, i, j):
    """Grothendieck class {lam: multiplicity} of the Tor space in position
    i, internal degree j, of the quotient by an invariant two-variable ideal."""
    if ideal.n != 2:
        raise ValueError("tor classes are computed for two variables only")
    witness = invariance_witness(ideal)
    if witness is not None:
        raise NotInvariantError(*witness)
    return tor_class_of_generators(ideal.generators, ideal.p, i, j)


def tor_class_of_generators(generators, p, i, j):
    """tor_class for the invariant two-variable ideal with these minimal
    generators, which are taken on trust."""
    if i == 0:
        return {(0, 0): 1} if j == 0 else {}
    if i == 1:
        spanning, twist = [g for g in generators if sum(g) == j], 0
    elif i == 2:
        gens = sorted(generators, reverse=True)
        spanning = [(a - 1, b - 1) for (a, _), (_, b) in zip(gens, gens[1:]) if a + b == j]
        twist = 1
    else:
        return {}
    tops = {}
    for m in spanning:
        c = carry_pattern(m, p)
        tops[c] = max(tops.get(c, m), m)
    return {(a + twist, b + twist): 1 for a, b in tops.values()}
