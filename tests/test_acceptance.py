"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Expected values marked as worked examples elsewhere in the suite were frozen
from independent oracles (closed-form carries, determinantal ranks, gap
counts, factorial arithmetic) before the implementation existed.
"""

import random
import time
from contextlib import contextmanager
from itertools import combinations, permutations

from carryideals.carry import (
    Context,
    carry_pattern,
    cover_edges,
    enumerate_patterns,
    leq,
)
from carryideals.gl2 import tor_class
from carryideals.ideals import (
    MonomialIdeal,
    carry_ideal,
    decompose,
    ideal_from_labels,
    is_invariant,
    minimalize,
    product,
)
from carryideals.koszul import koszul_betti, projective_dimension, quotient_basis, regularity
from carryideals.multmap import carry_after_multiply, successor
from carryideals.twovars import (
    betti_formula,
    generator_factors,
    generators,
    regularity_formula,
    segmentation,
)
from oracles import (
    class_dimension,
    compositions,
    decompose_character,
    degree_character,
    is_invariant_oracle,
    oracle_patterns,
    quotient_character,
    syzygy_degrees,
)


@contextmanager
def verdict(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} ({name}): FAIL")
        raise
    print(f"criterion {num:02d} ({name}): PASS")


def test_criterion_01_carry_fixtures():
    with verdict(1, "carry-pattern fixtures"):
        cases = [
            (((4, 6), 3), (0, 1)),
            (((3, 3, 3), 2), (1, 2, 1)),
            (((7, 2), 2), (0, 1, 1)),
        ]
        for (args, p), expected in cases:
            carry_pattern(args, p)  # warmup
            best = min(
                _timed(carry_pattern, args, p, expected) for _ in range(5)
            )
            assert best < 1e-3


def _timed(fn, args, p, expected):
    start = time.perf_counter()
    result = fn(args, p)
    elapsed = time.perf_counter() - start
    assert result == expected
    return elapsed


def test_criterion_02_degree_ten_lattice():
    with verdict(2, "lattice at degree 10 with covers"):
        ctx = Context(2, 2, 10)
        pats = set(enumerate_patterns(ctx))
        assert pats == {(0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1)}
        assert (1, 1, 0) not in pats and (0, 1, 1) not in pats
        assert set(cover_edges(ctx)) == {
            ((0, 0, 0), (1, 0, 0)),
            ((0, 0, 0), (0, 0, 1)),
            ((1, 0, 0), (1, 0, 1)),
            ((0, 0, 1), (1, 0, 1)),
            ((1, 0, 1), (1, 1, 1)),
        }


def test_criterion_03_enumeration_oracle():
    with verdict(3, "enumeration equals brute-force image"):
        for p in (2, 3, 5):
            for n in (1, 2, 3, 4):
                for d in range(61):
                    ctx = Context(n, p, d)
                    assert set(enumerate_patterns(ctx)) == oracle_patterns(d, n, p)


DEGREE_35_ORBITS = {
    (35, 0, 0), (34, 1, 0), (33, 2, 0), (33, 1, 1), (32, 3, 0), (32, 2, 1),
    (31, 4, 0), (31, 3, 1), (31, 2, 2), (30, 5, 0), (30, 4, 1), (30, 3, 2),
    (29, 6, 0), (29, 5, 1), (29, 4, 2), (29, 3, 3), (28, 7, 0), (28, 6, 1),
    (28, 5, 2), (28, 4, 3), (27, 8, 0), (27, 7, 1), (27, 6, 2), (27, 5, 3),
    (27, 4, 4), (26, 9, 0), (26, 8, 1), (26, 7, 2), (26, 6, 3), (26, 5, 4),
    (25, 10, 0), (25, 9, 1), (25, 8, 2), (25, 7, 3), (25, 6, 4), (25, 5, 5),
}


def test_criterion_04_carry_ideal_fixtures():
    with verdict(4, "carry-ideal generator fixtures"):
        quintic = carry_ideal((0, 1), 25, 2, 5)
        assert set(quintic.generators) == {
            (25, 0), (20, 5), (15, 10), (10, 15), (5, 20), (0, 25)
        }
        big = carry_ideal((2, 0), 35, 3, 5)
        partitions = {tuple(sorted(g, reverse=True)) for g in big.generators}
        assert partitions == DEGREE_35_ORBITS
        assert not big.contains_monomial((24, 11, 0))
        assert not big.contains_monomial((5, 8, 22))


def test_criterion_05_decomposition():
    with verdict(5, "decomposition fixture and 200 round trips"):
        six = MonomialIdeal([(8, 0), (7, 3), (5, 4), (4, 5), (3, 7), (0, 8)], 2, 2)
        assert decompose(six) == [((0, 0, 0), 8), ((0, 0, 1), 9), ((1, 1, 1), 10)]
        rng = random.Random(20240515)
        for _ in range(200):
            n = rng.choice((1, 2, 3))
            p = rng.choice((2, 3, 5))
            labels = []
            for _ in range(rng.randint(1, 3)):
                d = rng.randint(1, 30)
                c = rng.choice(enumerate_patterns(Context(n, p, d)))
                labels.append((c, d))
            ideal = ideal_from_labels(labels, n, p)
            assert ideal_from_labels(decompose(ideal), n, p) == ideal


def test_criterion_06_multiplication_map():
    with verdict(6, "multiplication map: fixtures, monotonicity, identity"):
        b = (342, 48, 50)
        assert carry_after_multiply(b, 0, 7) == (1, 1, 0)
        assert carry_after_multiply(b, 1, 7) == (1, 1, 1)
        assert carry_after_multiply(b, 2, 7) == (2, 2, 1)
        for n in (2, 3):
            for p in (2, 3):
                for d in range(1, 41):
                    ctx = Context(n, p, d)
                    pats = enumerate_patterns(ctx)
                    succ = {c: successor(c, ctx) for c in pats}
                    for a in pats:
                        for bb in pats:
                            if a != bb and leq(a, bb):
                                assert leq(succ[a], succ[bb])
                    fibers = {}
                    for m in compositions(d, n):
                        fibers.setdefault(carry_pattern(m, p), set()).add(m)
                    fibers_up = {}
                    for m in compositions(d + 1, n):
                        fibers_up.setdefault(carry_pattern(m, p), set()).add(m)
                    for c in pats:
                        span = set()
                        for c2, fiber in fibers.items():
                            if leq(c2, c):
                                span |= fiber
                        image = {
                            m[:i] + (m[i] + 1,) + m[i + 1 :]
                            for m in span
                            for i in range(n)
                        }
                        expected = set()
                        for c2, fiber in fibers_up.items():
                            if leq(c2, succ[c]):
                                expected |= fiber
                        assert image == expected


def test_criterion_07_two_variable_generators():
    with verdict(7, "two-variable generator formula"):
        factors = generator_factors(segmentation((1, 1, 0, 1, 0, 0), 62102, 5))
        assert factors == ((102, 0), (21, 3), (19, 5))
        factors30 = generator_factors(segmentation((1, 0, 1), 30, 3))
        assert factors30 == ((3, 0), (3, 2))
        for p in (2, 3, 5):
            for d in range(1, 501):
                for c in enumerate_patterns(Context(2, p, d)):
                    # the shipped list, order included
                    fast = generators(segmentation(c, d, p))
                    assert fast == list(carry_ideal(c, d, 2, p).generators)


def test_criterion_08_betti_and_regularity():
    with verdict(8, "betti numbers: fixtures, gap counts, homology"):
        big = betti_formula((1, 1, 0, 1, 0, 0), 62102, 5)
        assert big[1, 62102] == 45320
        # the worked example's displayed 4488 drops a digit: the governing
        # product is 102*(21+1)*(19+1) and the multiplicities must sum to
        # one less than the generator count (45319)
        assert big[2, 62103] == 44880
        assert big[2, 62125] == 420
        assert big[2, 62500] == 19
        assert regularity_formula((1, 1, 0, 1, 0, 0), 62102, 5) == 62498
        small = betti_formula((1, 0, 1), 30, 3)
        assert small[1, 30] == 16
        assert small[2, 31] == 12
        assert small[2, 36] == 3
        assert regularity_formula((1, 0, 1), 30, 3) == 34
        for p in (2, 3, 5):
            for d in range(2, 301):
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
        for p in (2, 3):
            for d in range(1, 61):
                for c in enumerate_patterns(Context(2, p, d)):
                    ideal = carry_ideal(c, d, 2, p)
                    assert koszul_betti(ideal) == betti_formula(c, d, p)


def test_criterion_09_koszul_three_variables():
    with verdict(9, "koszul table of the quartic ideal"):
        ideal = carry_ideal((0,), 4, 3, 3)
        table = koszul_betti(ideal)
        assert dict(table.entries) == {
            (0, 0): 1,
            (1, 4): 9,
            (2, 5): 9,
            (2, 6): 3,
            (3, 6): 3,
            (3, 9): 1,
        }
        assert regularity(ideal) == 6


def test_criterion_10_grothendieck():
    with verdict(10, "character decomposition and tor classes"):
        assert decompose_character(degree_character(10), 2) == {
            (10, 0): 1, (9, 1): 1, (7, 3): 1, (6, 4): 1, (5, 5): 1
        }
        quintic = carry_ideal((0, 0), 5, 2, 2)
        assert tor_class(quintic, 1, 5) == {(5, 0): 1}
        assert tor_class(quintic, 2, 6) == {(5, 1): 1}
        assert tor_class(quintic, 2, 8) == {(4, 4): 1}
        for c, d, p in (
            ((0, 0), 5, 2),
            ((1, 0, 1), 30, 3),
            ((0, 1), 25, 5),
            ((1, 1, 1), 10, 2),
        ):
            ideal = carry_ideal(c, d, 2, p)
            table = betti_formula(c, d, p)
            assert class_dimension(tor_class(ideal, 1, d), p) == table[1, d]
            for (i, j), v in sorted(table.entries.items()):
                if i == 2:
                    assert class_dimension(tor_class(ideal, 2, j), p) == v
            assert (
                class_dimension(
                    decompose_character(quotient_character(ideal, d - 1), p), p
                )
                == d
            )


def _partitions(dmax, max_parts):
    out = []

    def rec(remaining, cap, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        if len(acc) == max_parts:
            return
        for part in range(min(remaining, cap), 0, -1):
            rec(remaining - part, part, acc + [part])

    for d in range(1, dmax + 1):
        rec(d, d, [])
    return out


def test_criterion_11_invariance():
    with verdict(11, "invariance tests agree with the action oracle"):
        squares = [(2, 0), (0, 2)]
        assert is_invariant(MonomialIdeal(squares, 2, 2))
        assert not is_invariant(MonomialIdeal(squares, 2, 3))
        assert not is_invariant(MonomialIdeal(squares, 2, 5))
        # the quartic is invariant only at p=3 (the stated p=2 case fails:
        # the transvection image of x^3 y needs x^2 y^2); both the lattice
        # test and the action oracle agree, and the sweep below re-verifies
        quartic = [(4, 0), (3, 1), (1, 3), (0, 4)]
        for p, expected in ((2, False), (3, True), (5, False)):
            ideal = MonomialIdeal(quartic, 2, p)
            assert is_invariant(ideal) is expected
            assert is_invariant_oracle(quartic, 2, p) is expected
        # exhaustive sweep: every ideal spanned by at most three orbits of
        # monomials of degree at most 12; combos whose minimal generators
        # already arise from fewer orbits dedupe to their canonical form
        for n in (1, 2, 3):
            orbits = [
                sorted(set(permutations(lam + (0,) * (n - len(lam)))))
                for lam in _partitions(12, n)
            ]
            seen = set()
            for k in (1, 2, 3):
                for combo in combinations(range(len(orbits)), k):
                    gens = set()
                    for idx in combo:
                        gens.update(orbits[idx])
                    key = tuple(minimalize(gens))
                    if key in seen:
                        continue
                    seen.add(key)
                    for p in (2, 3):
                        ideal = MonomialIdeal(key, n, p)
                        assert is_invariant(ideal) == is_invariant_oracle(key, n, p)
        # products of invariant ideals stay invariant
        rng = random.Random(7)
        for _ in range(25):
            n, p = rng.choice([(2, 2), (2, 3), (3, 2), (3, 3)])
            factors = []
            for _ in range(2):
                d = rng.randint(1, 8)
                c = rng.choice(enumerate_patterns(Context(n, p, d)))
                factors.append(carry_ideal(c, d, n, p))
            assert is_invariant(product(*factors))


def test_criterion_12_pd_and_regularity():
    with verdict(12, "projective dimension and regularity, 100 fixtures"):
        rng = random.Random(424242)
        for _ in range(100):
            n = rng.choice((2, 3))
            p = rng.choice((2, 3, 5))
            dmax = 16 if n == 2 else 5
            labels = []
            for _ in range(rng.randint(1, 2)):
                d = rng.randint(1, dmax)
                c = rng.choice(enumerate_patterns(Context(n, p, d)))
                labels.append((c, d))
            ideal = ideal_from_labels(labels, n, p)
            table = koszul_betti(ideal)
            assert projective_dimension(ideal) == n
            assert table.projective_dimension == n
            reg = regularity(ideal)
            assert table.regularity == reg
            assert reg == max(
                e for e in range(n * ideal.min_degree + 1) if quotient_basis(ideal, e)
            )
