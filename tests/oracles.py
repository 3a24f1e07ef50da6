"""Independent reference implementations used as test oracles.

Everything here is deliberately written from the definitions, by a different
route than the library: carries come from the closed-form prefix identity
rather than sequential addition, ranks from determinantal minors, and so on.
`syzygy_degrees`, `oracle_invariance_witness` and the two-variable character
helpers at the end build on library results (the Hilbert-Burch matrix, carry
fibers, base-p digits, simple characters and their decomposition) to check
others.
"""

import math
from fractions import Fraction
from itertools import combinations

from carryideals.basep import expand
from carryideals.carry import Context, enumerate_patterns, leq
from carryideals.gl2 import char_sum, char_tensor, decompose_character, simple_character
from carryideals.ideals import _fibers
from carryideals.twovars import hilbert_burch


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


def rational_rank(rows):
    """Rank over the rationals, by exact fraction elimination."""
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col] / prow[col]
                mat[r] = [a - f * b for a, b in zip(mat[r], prow)]
        rank += 1
    return rank


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


# --- two-variable characters --------------------------------------------------

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
