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
"""

from .basep import check_prime, expand


def char_from_monomials(monomials):
    ch = {}
    for m in monomials:
        key = tuple(m)
        ch[key] = ch.get(key, 0) + 1
    return ch


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


def quotient_character(ideal, e):
    """Character of the degree-e piece of the quotient ring."""
    if ideal.n != 2:
        raise ValueError("quotient characters are for two-variable ideals")
    if e < 0:
        return {}
    return char_from_monomials(
        m for m in ((a, e - a) for a in range(e + 1))
        if not ideal.contains_monomial(m)
    )


def generator_character(ideal):
    degrees = {sum(g) for g in ideal.generators}
    if len(degrees) != 1:
        raise ValueError("generators span several degrees")
    return char_from_monomials(ideal.generators)


def tor_class(ideal, i, j):
    """Grothendieck class of the Tor space in position i, internal degree j.

    Needs generation in a single degree d, which makes the table one entry
    per diagonal: position 1 is the class of the generating subspace, and
    position 2 is the alternating strand combination
    [(S/I)_{j-2} (x) wedge^2] - [(S/I)_{j-1} (x) std] + [(S/I)_j].
    """
    if ideal.n != 2:
        raise ValueError("tor classes are computed for two variables only")
    degrees = {sum(g) for g in ideal.generators}
    if len(degrees) != 1:
        raise ValueError("tor classes need an ideal generated in one degree")
    d = degrees.pop()
    p = ideal.p
    if i == 1:
        if j != d:
            return {}
        return decompose_character(generator_character(ideal), p)
    if i == 2:
        wedge = {(1, 1): 1}
        std = {(1, 0): 1, (0, 1): 1}
        virtual = char_sum(
            char_sum(
                char_tensor(quotient_character(ideal, j - 2), wedge),
                char_tensor(quotient_character(ideal, j - 1), std),
                sign=-1,
            ),
            quotient_character(ideal, j),
        )
        return decompose_character(virtual, p)
    raise ValueError("tor classes are available for positions 1 and 2")


def format_class(cls):
    if not cls:
        return "0"
    parts = []
    for lam in sorted(cls, reverse=True):
        mult = cls[lam]
        parts.append(f"{mult}*L({lam[0]},{lam[1]})")
    return " + ".join(parts)
