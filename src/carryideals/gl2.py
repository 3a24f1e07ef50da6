"""Characters and Grothendieck classes for two-variable representations.

A character is a finite map from torus weights (w1, w2) to integer
multiplicities (negative entries encode virtual characters). The character
of the simple module of highest weight (a + b, b) factors digit by digit:
each base-p digit a_i of a contributes the weights (a_i - k, k) scaled by
p^i, and the factors tensor together without weight collisions, so the
dimension is the product of (digit + 1). Decomposition into simples peels
greedily at the lexicographically maximal surviving weight, which is the
highest weight of a composition factor for every genuine subquotient of a
space of forms.

The quotient by an invariant ideal is a representation, and so is each of
its Tor spaces. The torus character of Tor_{i,j} is read off the
multigraded Betti numbers of the Koszul blocks (see koszul), so one
decomposition gives its class in every position i and for ideals generated
in any degrees.
"""

from .basep import check_prime, expand
from .ideals import NotInvariantError, invariance_witness
from .koszul import multigraded_betti


def char_sum(a, b, sign=1):
    out = dict(a)
    for w, m in b.items():
        out[w] = out.get(w, 0) + sign * m
        if out[w] == 0:
            del out[w]
    return out


def char_tensor(a, b):
    out = {}
    for (w1, w2), m in a.items():
        for (v1, v2), m2 in b.items():
            key = (w1 + v1, w2 + v2)
            out[key] = out.get(key, 0) + m * m2
            if out[key] == 0:
                del out[key]
    return out


def simple_character(lam, p):
    """Character of the simple module of highest weight lam = (lam1 >= lam2 >= 0)."""
    check_prime(p)
    lam = tuple(lam)
    if len(lam) != 2 or lam[0] < lam[1] or lam[1] < 0:
        raise ValueError(f"{lam} is not a dominant polynomial weight")
    ch = {(0, 0): 1}
    for i, digit in enumerate(expand(lam[0] - lam[1], p)):
        scale = p**i
        factor = {((digit - k) * scale, k * scale): 1 for k in range(digit + 1)}
        ch = char_tensor(ch, factor)
    return {(w1 + lam[1], w2 + lam[1]): m for (w1, w2), m in ch.items()}


def decompose_character(ch, p):
    """Integer combination of simples with the given character.

    Peels at the lexicographically maximal surviving weight. Each peel
    strictly lowers the first coordinate of that weight within its degree and
    dominance keeps it at least half the degree, which bounds the loop; a
    non-dominant maximal weight means the input is not a virtual character
    of a polynomial representation.
    """
    ch = {w: m for w, m in ch.items() if m}
    budget = 1
    for deg in {w1 + w2 for w1, w2 in ch}:
        budget += deg // 2 + 1
    out = {}
    while ch:
        lam = max(ch)
        if lam[0] < lam[1] or lam[1] < 0:
            raise ValueError(f"character has non-dominant leading weight {lam}")
        budget -= 1
        if budget < 0:
            raise ValueError("character does not decompose into simples")
        mult = ch[lam]
        out[lam] = mult
        ch = char_sum(ch, simple_character(lam, p), sign=-mult)
    return out


def tor_class(ideal, i, j):
    """Grothendieck class of the Tor space in position i, internal degree j,
    of the quotient by an invariant two-variable ideal.

    Tor_{i,j} is a representation whose torus character is the sum of the
    multigraded Betti numbers beta_{i,a} x^a over the multidegrees a of
    degree j; the class is the decomposition of that character.
    """
    if ideal.n != 2:
        raise ValueError("tor classes are computed for two variables only")
    witness = invariance_witness(ideal)
    if witness is not None:
        raise NotInvariantError(*witness)
    entries = multigraded_betti(ideal, j)
    return decompose_character({a: v for (k, a), v in entries.items() if k == i}, ideal.p)


def format_class(cls):
    if not cls:
        return "0"
    parts = []
    for lam in sorted(cls, reverse=True):
        mult = cls[lam]
        parts.append(f"{mult}*L({lam[0]},{lam[1]})")
    return " + ".join(parts)
