import random

import pytest

from carryideals.carry import Context, carry_pattern, enumerate_patterns, leq
from carryideals.ideals import MonomialIdeal, carry_ideal
from carryideals.twovars import (
    betti_formula,
    generator_factors,
    generators,
    hilbert_burch,
    is_simple_degree,
    pure_power_certificate,
    regularity_formula,
    segmentation,
    syzygy_offsets,
)
from oracles import (
    is_generator_exponent,
    poly_det,
    poly_mul,
    syzygy_degrees,
    two_var_patterns,
)

BIG = ((1, 1, 0, 1, 0, 0), 62102, 5)
SMALL = ((1, 0, 1), 30, 3)


def test_direct_enumeration_matches_lattice():
    for p in (2, 3, 5):
        for d in list(range(60)) + [97, 125, 242, 342]:
            assert two_var_patterns(d, p) == sorted(
                enumerate_patterns(Context(2, p, d))
            )


def test_two_var_fixtures():
    assert set(two_var_patterns(10, 2)) == {
        (0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1)
    }
    assert (1, 0, 1) in two_var_patterns(30, 3)
    for d, p in ((53, 3), (7, 2), (24, 5), (124, 5)):
        assert two_var_patterns(d, p) == [(0,) * len(two_var_patterns(d, p)[0])]


def test_simple_degrees():
    assert is_simple_degree(4, 5)
    assert is_simple_degree(53, 3)
    assert not is_simple_degree(10, 2)
    # 11 = 6*2 - 1, but its lattice has two elements
    assert not is_simple_degree(11, 2)
    for p in (2, 3, 5):
        for d in range(150):
            ctx = Context(2, p, d)
            only_zero = set(enumerate_patterns(ctx)) == {(0,) * ctx.length}
            assert is_simple_degree(d, p) == only_zero


def test_segmentation_fixtures():
    seg = segmentation(*BIG)
    assert seg.cut_points == (0, 3, 5)
    assert seg.segments == ((2, 0, 4), (1, 4), (4, 3))
    assert seg.contents == (102, 21, 19)
    seg30 = segmentation(*SMALL)
    assert seg30.cut_points == (0, 2)
    assert seg30.segments == ((0, 1), (0, 1))
    assert seg30.contents == (3, 3)


def test_segmentation_of_zero_pattern():
    # with no full digit below the top, the zero pattern cuts at every index
    seg = segmentation((0, 0), 31, 5)  # 31 = (1, 1, 1) base 5
    assert seg.cut_points == (0, 1, 2)
    assert seg.contents == (1, 1, 1)


def test_segmentation_needs_positive_degree():
    # the unit ideal is not a carry ideal; every formula goes through here
    for fn in (segmentation, betti_formula, regularity_formula):
        with pytest.raises(ValueError, match="positive degree"):
            fn((), 0, 2)


def test_generator_formula_fixtures():
    seg = segmentation(*BIG)
    assert generator_factors(seg) == ((102, 0), (21, 3), (19, 5))
    assert len(generators(seg)) == 45320
    seg30 = segmentation(*SMALL)
    assert generator_factors(seg30) == ((3, 0), (3, 2))
    assert generators(seg30) == list(carry_ideal((1, 0, 1), 30, 2, 3).generators)
    assert len(generators(seg30)) == 16


def test_generator_formula_against_naive():
    for p in (2, 3, 5):
        for d in range(1, 61):
            for c in enumerate_patterns(Context(2, p, d)):
                # as a list: the order is the canonical one of MonomialIdeal
                fast = generators(segmentation(c, d, p))
                assert fast == list(carry_ideal(c, d, 2, p).generators)


def test_generator_exponent_membership():
    assert is_generator_exponent(5, (1, 0, 1), 10, 2)
    assert not is_generator_exponent(7, (1, 0, 1), 10, 2)
    for c, d, p in (((1, 0, 1), 10, 2), ((0, 1), 25, 5), SMALL):
        assert is_generator_exponent(0, c, d, p)
        assert is_generator_exponent(d, c, d, p)
        for a in range(d + 1):
            expected = leq(carry_pattern((a, d - a), p), c)
            assert is_generator_exponent(a, c, d, p) == expected


def test_hilbert_burch_fixture():
    ideal = carry_ideal((0, 0), 5, 2, 2)
    res = hilbert_burch(ideal)
    assert res.generators == ((5, 0), (4, 1), (1, 4), (0, 5))
    assert res.columns == ((1, 1), (3, 3), (1, 1))
    assert sorted(res.column_degrees()) == [6, 6, 8]


def test_hilbert_burch_minors_against_determinant():
    rng = random.Random(3)
    ideals = [carry_ideal((0, 0), 5, 2, 2), carry_ideal((0, 1), 25, 2, 5)]
    for _ in range(6):
        d = rng.randint(2, 12)
        p = rng.choice((2, 3, 5))
        c = rng.choice(enumerate_patterns(Context(2, p, d)))
        ideals.append(carry_ideal(c, d, 2, p))
    for ideal in ideals:
        res = hilbert_burch(ideal)
        gens = res.generators
        r = len(gens)
        if r > 7:
            continue
        # dense polynomial syzygy matrix, then expansion minors
        matrix = [[{} for _ in range(r - 1)] for _ in range(r)]
        for j, (ystep, xstep) in enumerate(res.columns):
            matrix[j][j] = {(0, ystep): 1}
            matrix[j + 1][j] = {(xstep, 0): -1}
        # composition with the generator row vanishes
        for j in range(r - 1):
            total = {}
            for i in range(r):
                if matrix[i][j]:
                    term = poly_mul({gens[i]: 1}, matrix[i][j])
                    for m, coef in term.items():
                        total[m] = total.get(m, 0) + coef
            assert all(v == 0 for v in total.values())
        for k in range(r):
            minor = [row for i, row in enumerate(matrix) if i != k]
            det = poly_det(minor)
            assert set(det) == {gens[k]} and abs(det[gens[k]]) == 1


def test_hilbert_burch_rejections():
    with pytest.raises(ValueError):
        hilbert_burch(MonomialIdeal([(3, 0)], 2, 2))
    with pytest.raises(ValueError):
        hilbert_burch(MonomialIdeal([(3, 0), (2, 1)], 2, 2))
    with pytest.raises(ValueError):
        hilbert_burch(MonomialIdeal([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3, 2))


def test_betti_fixtures():
    table = betti_formula(*BIG)
    assert table[1, 62102] == 45320
    assert table[2, 62103] == 44880
    assert table[2, 62125] == 420
    assert table[2, 62500] == 19
    assert table[0, 0] == 1
    assert regularity_formula(*BIG) == 62498
    small = betti_formula(*SMALL)
    assert small[1, 30] == 16
    assert small[2, 31] == 12
    assert small[2, 36] == 3
    assert regularity_formula(*SMALL) == 34


def test_offsets_increase_and_multiplicities_sum():
    for p in (2, 3, 5):
        for d in range(1, 90):
            for c in enumerate_patterns(Context(2, p, d)):
                seg = segmentation(c, d, p)
                phis = syzygy_offsets(seg)
                assert all(a < b for a, b in zip(phis, phis[1:]))
                table = betti_formula(c, d, p)
                second = sum(v for (i, _), v in table.entries.items() if i == 2)
                assert second == table[1, d] - 1


def test_betti_against_hilbert_burch_gaps():
    for p in (2, 3, 5):
        for d in range(2, 81):
            for c in enumerate_patterns(Context(2, p, d)):
                ideal = MonomialIdeal(generators(segmentation(c, d, p)), 2, p)
                if len(ideal.generators) < 2:
                    continue
                table = betti_formula(c, d, p)
                expected = sorted(
                    j
                    for (i, j), v in table.entries.items()
                    for _ in range(v)
                    if i == 2
                )
                assert sorted(syzygy_degrees(ideal)) == expected


def test_hilbert_series_consistency():
    rng = random.Random(9)
    for _ in range(25):
        p = rng.choice((2, 3, 5))
        d = rng.randint(1, 50)
        c = rng.choice(enumerate_patterns(Context(2, p, d)))
        ideal = carry_ideal(c, d, 2, p)
        table = betti_formula(c, d, p)
        reg = regularity_formula(c, d, p)
        for e in range(0, reg + 4):
            quotient = sum(
                1
                for a in range(e + 1)
                if not ideal.contains_monomial((a, e - a))
            )
            alternating = 0
            for (i, j), v in table.entries.items():
                if e - j >= 0:
                    alternating += (-1) ** i * v * (e - j + 1)
            assert quotient == alternating
        assert regularity_formula(c, d, p) == max(
            e
            for e in range(reg + 3)
            if any(
                not ideal.contains_monomial((a, e - a)) for a in range(e + 1)
            )
        )


def test_purity():
    assert pure_power_certificate(MonomialIdeal([(2, 0), (0, 2)], 2, 2)) == (1, 1)
    assert pure_power_certificate(carry_ideal((0, 0), 5, 2, 2)) is None
    assert pure_power_certificate(carry_ideal((0, 1), 25, 2, 5)) == (5, 1)
    assert pure_power_certificate(MonomialIdeal([(3, 0), (2, 1), (1, 2), (0, 3)], 2, 5)) == (3, 0)
    assert pure_power_certificate(MonomialIdeal([(3, 0)], 2, 2)) is None
