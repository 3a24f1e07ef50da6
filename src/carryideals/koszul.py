"""Graded and multigraded Betti numbers over F_p for any number of variables.

For a monomial ideal I the Tor spaces of S/I against the residue field are
the homology of the Koszul complex of S/I. Its cells are pairs (m, S) of a
standard monomial x^m (one outside I) and a subset S of the variables, in
homological position |S|; the differential contracts one variable of S onto
the monomial with alternating signs, dropping targets absorbed by I. The
complex is graded by N^n, with (m, S) in multidegree a = m + 1_S, so it
splits into blocks of at most 2^n cells whose homology is the multigraded
Betti number beta_{i,a} (Miller-Sturmfels, Combinatorial Commutative
Algebra, Thm 1.34). The ranks come from a small elimination over F_p.

Only blocks with x^a in I are reduced. If x^a is standard then so is every
x^(a - 1_S), because the standard set is closed under division, so the
block is the full simplex on the support of a: acyclic unless a = 0, where
beta_{0,0} = 1. The graded Betti number beta_{i,j} is the sum of beta_{i,a}
over |a| = j, and the torus character of Tor_{i,j} is the sum of
beta_{i,a} x^a.

Standard monomials come from one staircase walk, degree by degree: x^m is
standard exactly when it is not a minimal generator and every x^(m - e_k)
is standard.
"""

from itertools import combinations

from .betti import BettiTable


def _check_finite_colength(ideal):
    for i in range(ideal.n):
        if not any(
            g[i] > 0 and all(x == 0 for k, x in enumerate(g) if k != i)
            for g in ideal.generators
        ):
            raise ValueError(
                "the quotient is not finite dimensional: no pure power of "
                f"variable {i + 1} among the generators"
            )


def _staircase(ideal, top=None):
    """Standard monomials by degree, from degree 0 up to degree top or up to
    the last nonempty degree, whichever comes first.

    Each degree is listed in descending lexicographic order. The walk ends
    at the first empty degree, since every later one is empty too; top=None
    requires finite colength.
    """
    n = ideal.n
    generators = set(ideal.generators)
    prev = [(0,) * n]
    pieces = [prev]
    degree = 0
    while top is None or degree < top:
        # x^m arises once from each standard x^(m - e_k), so every
        # x^(m - e_k) is standard exactly when the count is the support size
        arises = {}
        for u in prev:
            for k in range(n):
                m = u[:k] + (u[k] + 1,) + u[k + 1 :]
                arises[m] = arises.get(m, 0) + 1
        piece = [
            m for m, count in arises.items()
            if count == n - m.count(0) and m not in generators
        ]
        if not piece:
            break
        piece.sort(reverse=True)
        pieces.append(piece)
        prev = piece
        degree += 1
    return pieces


def quotient_basis(ideal, degree):
    """Monomials of the given degree that survive in the quotient, in
    descending lexicographic order."""
    if degree < 0:
        return []
    pieces = _staircase(ideal, degree)
    return pieces[degree] if degree < len(pieces) else []


def regularity(ideal):
    """Largest degree with a surviving monomial in the quotient.

    The quotient is generated in degree zero, so once a graded piece vanishes
    all later ones do; finite colength guarantees termination.
    """
    _check_finite_colength(ideal)
    return len(_staircase(ideal)) - 1


def projective_dimension(ideal):
    """Always the number of variables for a finite-colength quotient.

    The top strand ends at (S/I)_reg tensor the top wedge, which the
    differential cannot kill, so the resolution reaches step n.
    """
    _check_finite_colength(ideal)
    return ideal.n


def _rank(rows, p):
    """Rank over F_p of the matrix with the given integer rows."""
    rows = [[v % p for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        inv = pow(prow[col], p - 2, p)
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] * inv % p
            if f:
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], prow)]
        rank += 1
    return rank


def _block_homology(cells, n, p):
    """Homology (i -> dimension) of the Koszul block with the given cells,
    each a sorted tuple S of variables."""
    by_size = [[] for _ in range(n + 1)]
    for S in cells:
        by_size[len(S)].append(S)
    ranks = [0] * (n + 2)
    for i in range(1, n + 1):
        target = {T: k for k, T in enumerate(by_size[i - 1])}
        rows = []
        for S in by_size[i]:
            row = [0] * len(target)
            for t in range(i):
                k = target.get(S[:t] + S[t + 1 :])
                if k is not None:
                    row[k] = -1 if t % 2 else 1
            rows.append(row)
        ranks[i] = _rank(rows, p)
    homology = {}
    for i in range(n + 1):
        mult = len(by_size[i]) - ranks[i] - ranks[i + 1]
        if mult:
            homology[i] = mult
    return homology


def _degree_betti(pieces, j, n, p):
    """beta_{i,a} as {(i, a): multiplicity} over the multidegrees a of
    degree j, from the standard monomials by degree. pieces must reach
    degree j or end the staircase.

    A reduced block has x^a in I, so it has no cell (a, {}) and its H_0 is 0
    by construction; beta_{0,0} = 1 is the only position-0 entry.
    """
    if j == 0:
        return {(0, (0,) * n): 1}
    standard = set(pieces[j]) if j < len(pieces) else set()
    blocks = {}
    for i in range(max(j - len(pieces) + 1, 1), min(j, n) + 1):
        subsets = list(combinations(range(n), i))
        for m in pieces[j - i]:
            for S in subsets:
                a = list(m)
                for k in S:
                    a[k] += 1
                a = tuple(a)
                if a not in standard:
                    blocks.setdefault(a, []).append(S)
    entries = {}
    for a, cells in blocks.items():
        for i, mult in _block_homology(cells, n, p).items():
            entries[(i, a)] = mult
    return entries


def multigraded_betti(ideal, j):
    """Multigraded Betti numbers {(i, a): beta_{i,a}} of the quotient over
    the multidegrees a of degree j."""
    if j < 0:
        return {}
    return _degree_betti(_staircase(ideal, j), j, ideal.n, ideal.p)


def koszul_betti(ideal, max_degree=None):
    """Betti table of the quotient: beta_{i,j} is the sum of beta_{i,a}
    over the multidegrees a of degree j.

    Entries in internal degrees above max_degree are left out. Without it
    the walk covers the whole staircase, and the table ends at internal
    degree regularity + n: a block in degree j holds a standard monomial of
    degree at least j - n.
    """
    _check_finite_colength(ideal)
    n, p = ideal.n, ideal.p
    pieces = _staircase(ideal, max_degree)
    top = len(pieces) - 1 + n
    if max_degree is not None:
        top = min(top, max_degree)
    entries = {}
    for j in range(top + 1):
        for (i, _), mult in _degree_betti(pieces, j, n, p).items():
            entries[(i, j)] = entries.get((i, j), 0) + mult
    return BettiTable(entries, n)
