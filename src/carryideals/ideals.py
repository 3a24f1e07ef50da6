"""Monomial ideals invariant under all linear changes of coordinates.

An ideal of k[x_1..x_n] closed under the full linear group in characteristic
p is a sum of carry ideals: for each degree d and carry pattern c, the carry
ideal is generated by the degree-d monomials whose pattern is entrywise <= c.
This module builds those ideals, tests invariance through the carry classes
of the graded pieces, decomposes an invariant ideal into an irredundant sum
of carry ideals, and implements products, powers and Frobenius powers.

Ideals here are proper and nonzero: at least one generator, never the unit.
The module reads and writes no text: the ideal file and label formats live
in the command-line interface (cli).
"""

from functools import lru_cache
from itertools import chain
from operator import le

from .basep import check_prime
from .carry import (
    Context,
    carry_pattern,
    enumerate_patterns,
    leq,
    maximal_elements,
    monomials_of_pattern,
    monomials_with_carry_leq,
)


class NotInvariantError(ValueError):
    """An operation required an invariant ideal; carries a witness.

    The witness is a degree together with a monomial of the ideal and a
    monomial forced into the ideal by equivariance but absent from it.
    """

    def __init__(self, degree, present, absent):
        self.degree = degree
        self.present = present
        self.absent = absent
        super().__init__(
            f"not invariant: degree {degree}, {present} in the ideal forces "
            f"{absent}, which is missing"
        )


def divides(a, b):
    return all(map(le, a, b))


def minimalize(gens):
    """Prune a generating set to the antichain of divisibility-minimal members,
    in canonical order (degree, then descending lexicographic).

    Distinct monomials of equal degree never divide one another, so the lowest
    degree is kept whole and each later candidate is only tested against the
    accepted generators of strictly smaller degree.
    """
    levels = {}
    for g in set(gens):
        levels.setdefault(sum(g), []).append(g)
    out = []
    for degree in sorted(levels):
        level = sorted(levels[degree], reverse=True)
        if out:
            level = [g for g in level if not any(divides(h, g) for h in out)]
        out.extend(level)
    return out


def _reject(gens, n):
    """Raise the error for the first malformed generator, in input order."""
    for g in gens:
        if len(g) != n:
            raise ValueError(f"generator {g} does not have {n} exponents")
        if any(not isinstance(x, int) or x < 0 for x in g):
            raise ValueError(f"bad exponent vector {g}")
        if sum(g) == 0:
            raise ValueError("the unit ideal is not supported")


class MonomialIdeal:
    """A proper nonzero monomial ideal, stored by its minimal generators.

    Generators are exponent tuples, kept as a divisibility antichain in
    canonical order (degree, then descending lexicographic).
    """

    __slots__ = ("generators", "n", "p")

    def __init__(self, generators, n, p):
        check_prime(p)
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"need at least one variable, got n={n}")
        gens = [tuple(g) for g in generators]
        if not gens:
            raise ValueError("the zero ideal is not supported")
        exponents = list(chain.from_iterable(gens))
        if (
            any(len(g) != n for g in gens)
            or not all(issubclass(t, int) for t in set(map(type, exponents)))
            or min(exponents) < 0
            or (0,) * n in gens
        ):
            _reject(gens, n)
        object.__setattr__(self, "generators", tuple(minimalize(gens)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("MonomialIdeal is immutable")

    def __eq__(self, other):
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return (self.generators, self.n, self.p) == (
            other.generators,
            other.n,
            other.p,
        )

    def __hash__(self):
        return hash((self.generators, self.n, self.p))

    def __repr__(self):
        return f"MonomialIdeal({list(self.generators)!r}, n={self.n}, p={self.p})"

    @property
    def min_degree(self):
        return min(sum(g) for g in self.generators)

    @property
    def max_degree(self):
        return max(sum(g) for g in self.generators)

    def contains_monomial(self, m):
        return any(divides(g, m) for g in self.generators)


def carry_ideal(c, d, n, p):
    """The ideal generated by all degree-d monomials of carry pattern <= c."""
    if d < 1:
        raise ValueError("carry ideals are generated in positive degree")
    ctx = Context(n, p, d)
    gens = monomials_with_carry_leq(c, ctx)
    return MonomialIdeal(gens, n, p)


def ideal_from_labels(labels, n, p):
    """Sum of the carry ideals named by (pattern, degree) labels."""
    labels = list(labels)
    if not labels:
        raise ValueError("no labels given")
    gens = []
    for c, d in labels:
        gens.extend(carry_ideal(c, d, n, p).generators)
    return MonomialIdeal(gens, n, p)


@lru_cache(maxsize=256)
def _fibers(n, p, d):
    """Degree-d monomials grouped by carry pattern, each fiber in descending
    lexicographic order and the fibers ordered by their first members,
    descending."""
    ctx = Context(n, p, d)
    fibers = [
        (c, tuple(sorted(monomials_of_pattern(c, ctx), reverse=True)))
        for c in enumerate_patterns(ctx)
    ]
    fibers.sort(key=lambda item: item[1][0], reverse=True)
    return dict(fibers)


def invariance_witness(ideal):
    """None when the ideal is invariant, else a (degree, present, absent) witness.

    In each degree the monomials of the ideal must fill whole carry classes,
    and the set of classes hit must be downward closed in the pattern
    lattice; either failure yields a monomial of the ideal and a monomial it
    forces. Only generator degrees are tested: every piece below the first
    failure is invariant, and a piece with no new generators is the
    linear-forms image of an invariant piece.
    """
    n, p = ideal.n, ideal.p
    gens_by_degree = {}
    for g in ideal.generators:
        gens_by_degree.setdefault(sum(g), []).append(g)
    piece = set()
    for d in range(ideal.min_degree, ideal.max_degree + 1):
        piece = {m[:i] + (m[i] + 1,) + m[i + 1 :] for m in piece for i in range(n)}
        if d not in gens_by_degree:
            continue
        piece.update(gens_by_degree[d])
        fibers = _fibers(n, p, d)
        hit = {}
        for c, fiber in fibers.items():
            inside = [m for m in fiber if m in piece]
            if inside and len(inside) < len(fiber):
                absent = next(m for m in fiber if m not in piece)
                return (d, inside[0], absent)
            if inside:
                hit[c] = fiber
        ctx = Context(n, p, d)
        for c in sorted(hit):
            for c2 in enumerate_patterns(ctx):
                if c2 not in hit and leq(c2, c):
                    return (d, hit[c][0], fibers[c2][0])
    return None


def is_invariant(ideal):
    return invariance_witness(ideal) is None


def decompose(ideal):
    """Write an invariant ideal as an irredundant sum of carry ideals.

    The labels of degree d are the maximal carry classes of the minimal
    generators of degree d, degrees ascending. This is the rule "classes hit
    by the degree-d piece, minus the classes grown from degree d-1": in an
    invariant ideal the degree-d multiples of the degree-(d-1) piece span an
    invariant subspace, which is a union of whole carry classes, and the rest
    of the degree-d piece is exactly the set of degree-d minimal generators.
    Raises NotInvariantError (with witness) on non-invariant input.
    """
    witness = invariance_witness(ideal)
    if witness is not None:
        raise NotInvariantError(*witness)
    classes = {}
    for g in ideal.generators:
        classes.setdefault(sum(g), set()).add(carry_pattern(g, ideal.p))
    return [
        (c, d) for d in sorted(classes) for c in sorted(maximal_elements(classes[d]))
    ]


def product(I, J):
    """Minimal generators of the product ideal."""
    if (I.n, I.p) != (J.n, J.p):
        raise ValueError("ideals live in different rings")
    gens = {tuple(a + b for a, b in zip(g, h)) for g in I.generators for h in J.generators}
    return MonomialIdeal(gens, I.n, I.p)


def power(I, k):
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"power wants a positive exponent, got {k!r}")
    out = I
    for _ in range(k - 1):
        out = product(out, I)
    return out


def frobenius_power(I, e):
    """The ideal generated by the p^e-th powers of the generators."""
    if not isinstance(e, int) or e < 1:
        raise ValueError(f"frobenius power wants e >= 1, got {e!r}")
    q = I.p**e
    return MonomialIdeal(
        [tuple(q * x for x in g) for g in I.generators], I.n, I.p
    )


def frobenius_label(c, d, e, p):
    """Label arithmetic matching frobenius_power: prepend e zeros, scale d."""
    if not isinstance(e, int) or e < 1:
        raise ValueError(f"frobenius power wants e >= 1, got {e!r}")
    return ((0,) * e + tuple(c), d * p**e)
