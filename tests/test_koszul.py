import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from carryideals.carry import Context, enumerate_patterns
from carryideals.ideals import MonomialIdeal, carry_ideal, ideal_from_labels
from carryideals.koszul import (
    _rank,
    koszul_betti,
    multigraded_betti,
    projective_dimension,
    quotient_basis,
    regularity,
)
from carryideals.twovars import betti_formula
from oracles import (
    block_betti,
    compositions,
    minor_rank,
    rank_mod_p,
    strand_betti,
    top_corner,
)

QUARTIC_TABLE = {
    (0, 0): 1,
    (1, 4): 9,
    (2, 5): 9,
    (2, 6): 3,
    (3, 6): 3,
    (3, 9): 1,
}


def test_quartic_fixture():
    ideal = carry_ideal((0,), 4, 3, 3)
    table = koszul_betti(ideal)
    assert dict(table.entries) == QUARTIC_TABLE
    assert table.projective_dimension == 3
    assert table.regularity == 6
    assert regularity(ideal) == 6
    assert projective_dimension(ideal) == 3
    assert quotient_basis(ideal, 6) == [(2, 2, 2)]
    assert quotient_basis(ideal, 7) == []


def test_top_corner():
    ideal = carry_ideal((0,), 4, 3, 3)
    reg, basis, weights = top_corner(ideal)
    assert (reg, basis, weights) == (6, ((2, 2, 2),), ((3, 3, 3),))
    maximal = MonomialIdeal([(1, 0), (0, 1)], 2, 5)
    assert top_corner(maximal) == (0, ((0, 0),), ((1, 1),))
    assert regularity(maximal) == 0


def test_formula_agreement_small():
    for p in (2, 3):
        for d in range(1, 26):
            for c in enumerate_patterns(Context(2, p, d)):
                ideal = carry_ideal(c, d, 2, p)
                assert koszul_betti(ideal) == betti_formula(c, d, p)


def test_generator_column():
    ideal = ideal_from_labels(
        [((0, 0, 0), 8), ((0, 0, 1), 9), ((1, 1, 1), 10)], 2, 2
    )
    table = koszul_betti(ideal)
    by_degree = {}
    for g in ideal.generators:
        by_degree[sum(g)] = by_degree.get(sum(g), 0) + 1
    ones = {j: v for (i, j), v in table.entries.items() if i == 1}
    assert ones == by_degree


def test_strand_euler_characteristic():
    ideal = carry_ideal((0,), 4, 3, 3)
    n = ideal.n
    table = koszul_betti(ideal)
    for j in range(regularity(ideal) + n + 1):
        lhs = sum(
            (-1) ** i * len(quotient_basis(ideal, j - i)) * math.comb(n, i)
            for i in range(n + 1)
        )
        rhs = sum((-1) ** i * table[i, j] for i in range(n + 1))
        assert lhs == rhs


def test_random_invariant_ideals_pd_reg():
    rng = random.Random(31)
    for _ in range(12):
        n = rng.choice((2, 3))
        p = rng.choice((2, 3, 5))
        dmax = 10 if n == 2 else 4
        labels = []
        for _ in range(rng.randint(1, 2)):
            d = rng.randint(1, dmax)
            c = rng.choice(enumerate_patterns(Context(n, p, d)))
            labels.append((c, d))
        ideal = ideal_from_labels(labels, n, p)
        table = koszul_betti(ideal)
        assert table.projective_dimension == n == projective_dimension(ideal)
        reg = regularity(ideal)
        assert table.regularity == reg
        assert table[n, reg + n] == len(quotient_basis(ideal, reg))


def test_requires_finite_colength():
    with pytest.raises(ValueError):
        koszul_betti(MonomialIdeal([(1, 0)], 2, 2))
    with pytest.raises(ValueError):
        regularity(MonomialIdeal([(2, 1), (1, 2)], 2, 3))


def _oracle_table(ideal, max_degree=None):
    if max_degree is None:
        max_degree = regularity(ideal) + ideal.n
    return strand_betti(ideal.generators, ideal.n, ideal.p, max_degree)


def _sums_of_carry_ideals(seed, count):
    """Seeded sums of one to three carry ideals in three and four variables."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice((3, 4))
        p = rng.choice((2, 3, 5))
        labels = []
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(1, 6 if n == 3 else 4)
            labels.append((rng.choice(enumerate_patterns(Context(n, p, d))), d))
        yield rng, ideal_from_labels(labels, n, p)


def test_blocks_match_strand_oracle():
    quartic = carry_ideal((0,), 4, 3, 3)
    assert koszul_betti(quartic).entries == _oracle_table(quartic)
    # not invariant, and with pure powers far above the least generator
    # degree: the default table must still reach regularity + n
    uneven = MonomialIdeal([(10, 0), (1, 1), (0, 10)], 2, 2)
    assert koszul_betti(uneven).entries == _oracle_table(uneven) == {
        (0, 0): 1, (1, 2): 1, (1, 10): 2, (2, 11): 2
    }
    uneven3 = MonomialIdeal(
        [(7, 0, 0), (1, 1, 0), (0, 4, 0), (0, 1, 2), (0, 0, 5)], 3, 3
    )
    assert koszul_betti(uneven3).entries == _oracle_table(uneven3)
    for max_degree in (-1, 0, 4, 5, 8):
        assert (
            koszul_betti(quartic, max_degree=max_degree).entries
            == _oracle_table(quartic, max_degree)
        )
    for rng, ideal in _sums_of_carry_ideals(47, 40):
        assert koszul_betti(ideal).entries == _oracle_table(ideal)
        cut = rng.randint(0, regularity(ideal) + ideal.n)
        assert (
            koszul_betti(ideal, max_degree=cut).entries
            == _oracle_table(ideal, cut)
        )


def test_multigraded_entries_match_block_oracle():
    # (x^2, xy) has infinite colength; its Tor spaces are still finite
    corner = MonomialIdeal([(2, 0), (1, 1)], 2, 3)
    assert multigraded_betti(corner, -1) == {}
    assert multigraded_betti(corner, 0) == {(0, (0, 0)): 1}
    assert multigraded_betti(corner, 2) == {(1, (2, 0)): 1, (1, (1, 1)): 1}
    assert multigraded_betti(corner, 3) == {(2, (2, 1)): 1}
    assert multigraded_betti(corner, 4) == {}
    for _, ideal in _sums_of_carry_ideals(59, 15):
        n = ideal.n
        graded = {}
        for j in range(regularity(ideal) + n + 2):
            entries = multigraded_betti(ideal, j)
            assert entries == {
                (i, a): mult
                for a in compositions(j, n)
                for i, mult in block_betti(ideal.generators, n, ideal.p, a).items()
            }
            for (i, _), mult in entries.items():
                graded[(i, j)] = graded.get((i, j), 0) + mult
        assert koszul_betti(ideal).entries == graded


def test_quotient_basis_in_composition_order():
    for _, ideal in _sums_of_carry_ideals(53, 20):
        for e in range(regularity(ideal) + 2):
            assert quotient_basis(ideal, e) == [
                m for m in sorted(compositions(e, ideal.n), reverse=True)
                if not ideal.contains_monomial(m)
            ]


PRIMES = (2, 3, 5, 7, 97)


def _matrices(max_dim=6, max_entry=200):
    return st.integers(1, max_dim).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-max_entry, max_entry), min_size=cols, max_size=cols),
            min_size=1,
            max_size=max_dim,
        )
    )


@given(_matrices(max_dim=4), st.sampled_from(PRIMES))
def test_rank_against_minor_oracle(rows, p):
    expected = minor_rank([[v % p for v in row] for row in rows], p)
    assert _rank(rows, p) == expected
    assert rank_mod_p(rows, p) == expected


@given(_matrices(max_dim=7), st.sampled_from(PRIMES))
def test_rank_transpose_invariant(rows, p):
    transpose = [list(col) for col in zip(*rows)]
    assert _rank(rows, p) == _rank(transpose, p)


def test_rank_fixed_cases():
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert _rank(identity, 5) == 3
    assert _rank([[0, 0], [0, 0]], 3) == 0
    assert _rank([], 3) == 0
    # divisible entries vanish mod p
    assert _rank([[6, 3], [2, 1]], 3) == 1
    assert _rank([[2, 4], [4, 2]], 2) == 0
    # characteristic matters
    sensitive = [[1, 1], [1, -1]]
    assert _rank(sensitive, 2) == 1
    assert _rank(sensitive, 3) == 2
