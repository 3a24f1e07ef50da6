"""Independent reference implementations used as test oracles.

Everything here is deliberately written from the definitions, by a different
route than the library: carries come from the closed-form prefix identity
rather than sequential addition, ranks from determinantal minors, and so on.
`syzygy_degrees`, `oracle_invariance_witness`, `top_corner` and the
two-variable Tor oracles at the end build on library results (the
Hilbert-Burch matrix, carry fibers, the staircase, the segmentation and the
multigraded Betti numbers) to check others.
"""

import math
from itertools import combinations

from carryideals.basep import check_prime, expand, top_index
from carryideals.carry import Context, enumerate_patterns, leq
from carryideals.ideals import _fibers
from carryideals.koszul import multigraded_betti, quotient_basis, regularity
from carryideals.twovars import hilbert_burch, segmentation


def compositions(d, n):
    if n == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in compositions(d - first, n - 1):
            yield (first,) + rest


def oracle_carry(exponents, p):
    """Carry pattern from the defining identity: the amount carried into the
    p^l column is (sum of the exponents mod p^l, minus the degree mod p^l),
    divided by p^l. No sequential carry propagation is involved."""
    d = sum(exponents)
    length = len_pattern(d, p)
    return tuple(
        (sum(b % p**l for b in exponents) - d % p**l) // p**l
        for l in range(1, length + 1)
    )


def len_pattern(d, p):
    length = 0
    while d >= p:
        d //= p
        length += 1
    return length


def oracle_shift(c, d, p, run):
    """The full-run shift formula for a carry pattern one degree up.

    Incrementing an exponent of full run `run` in a monomial of degree d and
    pattern c gives (c_1, ..., c_M, 0) + 1^{full run of d} - 1^{run}, where 1^k
    is 1 in the first k entries; a surplus trailing entry is provably zero and
    is cut to the pattern length at d+1. With `run` the first slack column of
    c this is the successor of c.
    """

    def full_run(v):
        k = 0
        while v % p == p - 1:
            v, k = v // p, k + 1
        return k

    M, target = len_pattern(d, p), len_pattern(d + 1, p)
    vec = [
        (c[k - 1] if k <= M else 0)
        + (1 if k <= full_run(d) else 0)
        - (1 if k <= run else 0)
        for k in range(1, M + 2)
    ]
    if len(vec) == target + 1:
        if vec[-1] != 0:
            raise RuntimeError(f"surplus trailing carry in {vec}")
        vec = vec[:-1]
    return tuple(vec)


def oracle_patterns(d, n, p):
    return {oracle_carry(b, p) for b in compositions(d, n)}


def down_closure(patterns, ctx):
    """All lattice elements below some member of the given set."""
    pats = set(patterns)
    return {c for c in enumerate_patterns(ctx) if any(leq(c, b) for b in pats)}


def is_order_closed(patterns, ctx):
    return set(patterns) == down_closure(patterns, ctx)


def two_var_patterns(d, p):
    """The carry patterns of degree-d monomials in two variables, sorted.

    Direct construction, with no search: entries are 0 or 1, a zero digit of
    d forces the next entry up, and a full digit forces it down.
    """
    digits = []
    value = d
    while value:
        value, r = divmod(value, p)
        digits.append(r)
    length = len_pattern(d, p)
    if length == 0:
        return [()]
    prefixes = [()]
    for i in range(length):
        di = digits[i] if i < len(digits) else 0
        out = []
        for pre in prefixes:
            prev = pre[-1] if pre else 0
            for nxt in (0, 1):
                if di == 0 and nxt < prev:
                    continue
                if di == p - 1 and nxt > prev:
                    continue
                out.append(pre + (nxt,))
        prefixes = out
    return sorted(prefixes)


def oracle_multinomial(top, parts, p):
    value = math.factorial(top)
    for part in parts:
        value //= math.factorial(part)
    return value % p


def det_mod(rows, p):
    n = len(rows)
    if n == 0:
        return 1 % p
    if n == 1:
        return rows[0][0] % p
    total = 0
    for k in range(n):
        if rows[0][k] % p == 0:
            continue
        minor = [row[:k] + row[k + 1 :] for row in rows[1:]]
        sign = -1 if k % 2 else 1
        total += sign * rows[0][k] * det_mod(minor, p)
    return total % p


def minor_rank(rows, p):
    """Rank as the size of the largest nonsingular square submatrix.

    Exponential; only for tiny matrices."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    for size in range(min(nrows, ncols), 0, -1):
        for rsel in combinations(range(nrows), size):
            for csel in combinations(range(ncols), size):
                sub = [[rows[r][c] for c in csel] for r in rsel]
                if det_mod(sub, p) != 0:
                    return size
    return 0


# --- polynomial helpers for resolution checks (two variables) ---------------

def poly_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = (ma[0] + mb[0], ma[1] + mb[1])
            out[key] = out.get(key, 0) + ca * cb
            if out[key] == 0:
                del out[key]
    return out


def poly_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
        if out[m] == 0:
            del out[m]
    return out


def poly_det(matrix):
    n = len(matrix)
    if n == 0:
        return {(0, 0): 1}
    if n == 1:
        return matrix[0][0]
    total = {}
    for k in range(n):
        entry = matrix[0][k]
        if not entry:
            continue
        minor = [row[:k] + row[k + 1 :] for row in matrix[1:]]
        term = poly_mul(entry, poly_det(minor))
        if k % 2:
            term = {m: -c for m, c in term.items()}
        total = poly_add(total, term)
    return total


def slice_contents(a, seg):
    """Contents of the digits of a sliced at the segmentation's cut points."""
    cuts = list(seg.cut_points) + [max(top_index(seg.d, seg.p), 0) + 1]
    out = []
    for r in range(len(seg.cut_points)):
        lo, hi = cuts[r], cuts[r + 1]
        block = (a // seg.p**lo) % seg.p ** (hi - lo)
        out.append(block)
    return tuple(out)


def is_generator_exponent(a, c, d, p):
    """Whether x^a y^(d-a) is a minimal generator of the carry ideal of (c, d).

    Holds exactly when each sliced content of a is at most the corresponding
    content of d, which is the closed-form version of carry(a, d-a) <= c.
    """
    if not 0 <= a <= d:
        raise ValueError(f"exponent {a} out of range for degree {d}")
    seg = segmentation(c, d, p)
    return all(x <= y for x, y in zip(slice_contents(a, seg), seg.contents))


def syzygy_degrees(ideal):
    """Total degrees of the syzygy columns of the Hilbert-Burch matrix of a
    two-variable ideal, sorted."""
    return tuple(sorted(hilbert_burch(ideal).column_degrees()))


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def ideal_contains_ideal(outer_gens, inner_gens):
    """Monomial-ideal containment by generator divisibility."""
    return all(
        any(divides(g, h) for g in outer_gens) for h in inner_gens
    )


# --- invariance and decomposition -------------------------------------------

def in_ideal(gens, m):
    return any(divides(g, m) for g in gens)


def is_invariant_oracle(gens, n, p):
    """Invariance by direct group action, independent of the lattice theory.

    Applies every elementary transvection x_j -> x_j + t*x_i to each
    generator: the image of x^b has the monomial x^(b - k e_j + k e_i) with
    coefficient binomial(b_j, k) t^k, and every one whose coefficient is
    nonzero mod p must lie in the ideal. The transvections, the torus and the
    permutations generate the linear group, and the torus and permutations
    act trivially up to scalars on a monomial ideal's membership question, so
    this check is complete.
    """
    for g in gens:
        for j in range(n):
            for i in range(n):
                if i == j:
                    continue
                for k in range(1, g[j] + 1):
                    if math.comb(g[j], k) % p == 0:
                        continue
                    m = list(g)
                    m[j] -= k
                    m[i] += k
                    if not in_ideal(gens, m):
                        return False
    return True


def oracle_decompose(gens, n, p):
    """Labels (pattern, degree) of an invariant ideal, by the rule on graded
    pieces: in each degree, the carry classes hit by the piece minus the
    classes of the previous piece times the variables, keeping the maximal
    ones, in sorted order. Pieces are scanned over all compositions."""
    labels = []
    prev = []
    for d in range(min(map(sum, gens)), max(map(sum, gens)) + 1):
        piece = [m for m in compositions(d, n) if in_ideal(gens, m)]
        hit = {oracle_carry(m, p) for m in piece}
        grown = {
            oracle_carry(m[:i] + (m[i] + 1,) + m[i + 1:], p)
            for m in prev
            for i in range(n)
        }
        new = hit - grown
        # maximal in the entrywise order, which divides also tests
        top = [c for c in new if not any(c != o and divides(c, o) for o in new)]
        labels.extend((c, d) for c in sorted(top))
        prev = piece
    return labels


def oracle_invariance_witness(ideal):
    """The invariance witness by the every-degree walk: each graded piece is
    the previous one times the variables plus the generators of its degree,
    and every nonempty piece up to the top generator degree is scanned, with
    the same fiber and down-closure scans and witness choice as the library."""
    n, p = ideal.n, ideal.p
    piece = set()
    for d in range(1, ideal.max_degree + 1):
        piece = {m[:i] + (m[i] + 1,) + m[i + 1:] for m in piece for i in range(n)}
        piece.update(g for g in ideal.generators if sum(g) == d)
        if not piece:
            continue
        fibers = _fibers(n, p, d)
        hit = {}
        for c, fiber in fibers.items():
            inside = [m for m in fiber if m in piece]
            if inside and len(inside) < len(fiber):
                absent = next(m for m in fiber if m not in piece)
                return (d, inside[0], absent)
            if inside:
                hit[c] = fiber
        for c in sorted(hit):
            for c2 in enumerate_patterns(Context(n, p, d)):
                if c2 not in hit and leq(c2, c):
                    return (d, hit[c][0], fibers[c2][0])
    return None


# --- Koszul strands (any number of variables) --------------------------------

def rank_mod_p(rows, p):
    """Rank over F_p by reduction to row echelon form, rows eliminated in turn
    against the pivots found so far."""
    pivots = []  # (column, row scaled to 1 there)
    for row in rows:
        row = [v % p for v in row]
        for col, prow in pivots:
            f = row[col]
            if f:
                row = [(a - f * b) % p for a, b in zip(row, prow)]
        lead = next((c for c, v in enumerate(row) if v), None)
        if lead is not None:
            inv = pow(row[lead], p - 2, p)
            pivots.append((lead, [v * inv % p for v in row]))
    return len(pivots)


def standard_monomials(gens, n, degree):
    """Monomials of one degree outside the ideal, by divisibility scans."""
    if degree < 0:
        return []
    return [
        m for m in compositions(degree, n)
        if not any(divides(g, m) for g in gens)
    ]


def strand_betti(gens, n, p, max_degree):
    """Betti numbers {(i, j): multiplicity} of S/I for j <= max_degree.

    In internal degree j the strand runs through (S/I)_{j-i} tensor the i-th
    wedge of the variables, with the contraction differential; the Betti
    numbers are its homology. Strands past regularity + n are empty, so the
    ideal needs finite colength for a large max_degree to be cheap.
    """
    entries = {}
    for j in range(max_degree + 1):
        # the quotient vanishes from some degree on, and then so do all later
        # strands
        if j > n and not standard_monomials(gens, n, j - n):
            break
        terms = [
            [(m, S) for m in standard_monomials(gens, n, j - i)
             for S in combinations(range(n), i)]
            for i in range(n + 1)
        ]
        ranks = [0] * (n + 2)
        for i in range(1, n + 1):
            index = {key: k for k, key in enumerate(terms[i - 1])}
            rows = []
            for m, S in terms[i]:
                row = [0] * len(index)
                for t, k in enumerate(S):
                    up = m[:k] + (m[k] + 1,) + m[k + 1:]
                    pos = index.get((up, S[:t] + S[t + 1:]))
                    if pos is not None:
                        row[pos] = -1 if t % 2 else 1
                rows.append(row)
            ranks[i] = rank_mod_p(rows, p)
        for i in range(n + 1):
            mult = len(terms[i]) - ranks[i] - ranks[i + 1]
            if mult:
                entries[(i, j)] = mult
    return entries


def block_betti(gens, n, p, a):
    """Homology {i: dimension} of the Koszul complex of S/I in multidegree a.

    Its cells in position i are the i-subsets S of the support of a with
    x^(a - 1_S) outside the ideal, tested by divisibility; the differential
    drops the t-th variable of S with sign (-1)^t.
    """
    support = [k for k in range(n) if a[k]]
    cells = [
        [S for S in combinations(support, i)
         if not in_ideal(gens, [x - (k in S) for k, x in enumerate(a)])]
        for i in range(n + 1)
    ]
    ranks = [0] * (n + 2)
    for i in range(1, n + 1):
        index = {T: r for r, T in enumerate(cells[i - 1])}
        rows = []
        for S in cells[i]:
            row = [0] * len(index)
            for t in range(i):
                r = index.get(S[:t] + S[t + 1:])
                if r is not None:
                    row[r] = -1 if t % 2 else 1
            rows.append(row)
        ranks[i] = rank_mod_p(rows, p)
    homology = {i: len(cells[i]) - ranks[i] - ranks[i + 1] for i in range(n + 1)}
    return {i: mult for i, mult in homology.items() if mult}


def top_corner(ideal):
    """The bottom-right corner of the Betti table of a finite-colength
    quotient: (regularity, monomial basis of the top quotient piece, weights
    twisted by the top wedge).

    The Tor space in homological position n and internal degree reg + n is
    the top quotient piece tensored with the one-dimensional top wedge, which
    shifts every torus weight by (1, ..., 1).
    """
    reg = regularity(ideal)
    basis = quotient_basis(ideal, reg)
    weights = [tuple(x + 1 for x in m) for m in basis]
    return reg, tuple(basis), tuple(weights)


# --- two-variable characters --------------------------------------------------

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
    """Character of the simple module of highest weight lam = (lam1 >= lam2 >= 0).

    It factors digit by digit: each base-p digit a_i of lam1 - lam2
    contributes the weights (a_i - k, k) scaled by p^i, and the factors
    tensor together without weight collisions.
    """
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

    Peels at the lexicographically maximal surviving weight, which is the
    highest weight of a composition factor for every genuine subquotient of
    a space of forms. Each peel strictly lowers the first coordinate of that
    weight within its degree and dominance keeps it at least half the
    degree, which bounds the loop; a non-dominant maximal weight means the
    input is not a virtual character of a polynomial representation.
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


def oracle_tor_class(ideal, i, j):
    """Grothendieck class of Tor_{i,j} of the quotient by a two-variable
    ideal, peeled from its torus character: the sum of the multigraded Betti
    numbers beta_{i,a} x^a over the Koszul blocks a of degree j."""
    entries = multigraded_betti(ideal, j)
    return decompose_character({a: v for (k, a), v in entries.items() if k == i}, ideal.p)


def degree_character(e):
    """Character of the full space of degree-e forms in two variables."""
    return {(e - k, k): 1 for k in range(e + 1)}


def char_dim(ch):
    return sum(ch.values())


def simple_dimension(lam, p):
    """Dimension of the simple module of highest weight lam: the product of
    (digit + 1) over the base-p digits of lam1 - lam2."""
    dim = 1
    for digit in expand(lam[0] - lam[1], p):
        dim *= digit + 1
    return dim


def class_dimension(cls, p):
    return sum(mult * simple_dimension(lam, p) for lam, mult in cls.items())


def rebuild_character(cls, p):
    """The character of an integer combination of simples."""
    ch = {}
    for lam, mult in cls.items():
        scaled = {w: mult * m for w, m in simple_character(lam, p).items()}
        ch = char_sum(ch, scaled)
    return ch


def char_from_monomials(monomials):
    ch = {}
    for m in monomials:
        key = tuple(m)
        ch[key] = ch.get(key, 0) + 1
    return ch


def quotient_character(ideal, e):
    """Character of the degree-e piece of the quotient ring (two variables)."""
    if e < 0:
        return {}
    return char_from_monomials(
        m for m in ((a, e - a) for a in range(e + 1))
        if not ideal.contains_monomial(m)
    )


def strand_tor_class(ideal, i, j):
    """Grothendieck class of Tor_{i,j} for a two-variable ideal generated in
    a single degree d, from quotient characters in one strand.

    Generation in one degree makes the table one entry per diagonal:
    position 1 is the class of the generating subspace, and position 2 is
    the alternating strand combination
    [(S/I)_{j-2} (x) wedge^2] - [(S/I)_{j-1} (x) std] + [(S/I)_j].
    """
    (d,) = {sum(g) for g in ideal.generators}
    p = ideal.p
    if i == 1:
        if j != d:
            return {}
        return decompose_character(char_from_monomials(ideal.generators), p)
    if i != 2:
        raise ValueError("the strand formula covers positions 1 and 2")
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
