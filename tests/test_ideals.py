import json
import random

import pytest

from carryideals.carry import Context, enumerate_patterns, max_pattern
from carryideals.ideals import (
    MonomialIdeal,
    _fibers,
    NotInvariantError,
    carry_ideal,
    decompose,
    frobenius_label,
    frobenius_power,
    ideal_from_json,
    ideal_from_labels,
    ideal_from_text,
    ideal_to_json,
    ideal_to_text,
    invariance_witness,
    is_invariant,
    is_invariant_oracle,
    labels_from_text,
    labels_to_text,
    minimalize,
    power,
    product,
)
from oracles import compositions, divides, oracle_carry

SIX_GENS = [(8, 0), (7, 3), (5, 4), (4, 5), (3, 7), (0, 8)]
SIX_LABELS = [((0, 0, 0), 8), ((0, 0, 1), 9), ((1, 1, 1), 10)]

DEGREE_35_ORBITS = {
    (35, 0, 0), (34, 1, 0), (33, 2, 0), (33, 1, 1), (32, 3, 0), (32, 2, 1),
    (31, 4, 0), (31, 3, 1), (31, 2, 2), (30, 5, 0), (30, 4, 1), (30, 3, 2),
    (29, 6, 0), (29, 5, 1), (29, 4, 2), (29, 3, 3), (28, 7, 0), (28, 6, 1),
    (28, 5, 2), (28, 4, 3), (27, 8, 0), (27, 7, 1), (27, 6, 2), (27, 5, 3),
    (27, 4, 4), (26, 9, 0), (26, 8, 1), (26, 7, 2), (26, 6, 3), (26, 5, 4),
    (25, 10, 0), (25, 9, 1), (25, 8, 2), (25, 7, 3), (25, 6, 4), (25, 5, 5),
}


def test_construction_and_minimalization():
    ideal = MonomialIdeal([(2, 0), (3, 1), (0, 2), (2, 0)], 2, 2)
    assert ideal.generators == ((2, 0), (0, 2))
    assert ideal.min_degree == 2 and ideal.max_degree == 2
    assert minimalize([(1, 0), (2, 0), (1, 1)]) == [(1, 0)]
    with pytest.raises(ValueError, match="the zero ideal is not supported"):
        MonomialIdeal([], 2, 2)
    with pytest.raises(ValueError, match="the unit ideal is not supported"):
        MonomialIdeal([(1, 0), (0, 0)], 2, 2)
    with pytest.raises(ValueError, match=r"generator \(1, 0, 0\) does not have 2 exponents"):
        MonomialIdeal([(1, 0), (1, 0, 0)], 2, 2)
    with pytest.raises(ValueError, match=r"bad exponent vector \(1, -1\)"):
        MonomialIdeal([(1, 0), (1, -1)], 2, 2)
    with pytest.raises(ValueError, match=r"bad exponent vector \(1, 0.5\)"):
        MonomialIdeal([(1, 0.5)], 2, 2)
    with pytest.raises(ValueError, match=r"bad exponent vector \(2, '1'\)"):
        MonomialIdeal([(2, "1")], 2, 2)
    # the first malformed generator, in input order, names the error
    with pytest.raises(ValueError, match="bad exponent vector"):
        MonomialIdeal([(1, 0), (2.0, 0), (0, 0), (1, 2, 3)], 2, 2)
    with pytest.raises(ValueError, match="does not have 2 exponents"):
        MonomialIdeal([(1, 2, 3), (0, 0), (-1, 0)], 2, 2)


def _canonical_antichain(gens):
    gens = set(gens)
    keep = [g for g in gens if not any(h != g and divides(h, g) for h in gens)]
    return sorted(keep, key=lambda e: (sum(e), tuple(-x for x in e)))


def test_minimalize_matches_brute_force():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 4)
        gens = [
            tuple(rng.randint(0, 6) for _ in range(n))
            for _ in range(rng.randint(1, 25))
        ]
        gens = [g for g in gens if any(g)] or [(1,) * n]
        assert minimalize(gens) == _canonical_antichain(gens), gens
        assert MonomialIdeal(gens, n, 3).generators == tuple(_canonical_antichain(gens))


def test_fibers_match_oracle_grouping():
    for n, p, degrees in (
        (1, 3, (1, 8, 9)),
        (2, 2, (7, 8, 13, 40)),
        (2, 5, (24, 25, 62)),
        (3, 3, (8, 9, 26, 27)),
        (4, 2, (7, 8, 11)),
        (4, 5, (24, 25)),
    ):
        for d in degrees:
            want = {}
            for b in sorted(compositions(d, n), reverse=True):
                want.setdefault(oracle_carry(b, p), []).append(b)
            got = _fibers(n, p, d)
            assert list(got) == list(want), (n, p, d)
            assert got == {c: tuple(ms) for c, ms in want.items()}, (n, p, d)


def test_carry_ideal_fixtures():
    quintic = carry_ideal((0, 1), 25, 2, 5)
    assert set(quintic.generators) == {
        (25, 0), (20, 5), (15, 10), (10, 15), (5, 20), (0, 25)
    }
    big = carry_ideal((2, 0), 35, 3, 5)
    partitions = {tuple(sorted(g, reverse=True)) for g in big.generators}
    assert partitions == DEGREE_35_ORBITS
    assert (24, 11, 0) not in partitions
    assert big.contains_monomial((4, 5, 26))
    assert not big.contains_monomial((5, 8, 22))
    # the top pattern generates the full power of the maximal ideal
    ctx = Context(3, 3, 4)
    top = carry_ideal(max_pattern(ctx), 4, 3, 3)
    m = MonomialIdeal([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3, 3)
    assert top == power(m, 4)


def test_ideal_from_labels_fixture():
    ideal = ideal_from_labels(SIX_LABELS, 2, 2)
    assert set(ideal.generators) == set(SIX_GENS)
    single = ideal_from_labels([((0, 1), 25)], 2, 5)
    assert single == carry_ideal((0, 1), 25, 2, 5)


def test_union_law():
    rng = random.Random(7)
    for _ in range(20):
        n, p = rng.choice([(2, 2), (2, 3), (3, 2)])
        pool = []
        for _ in range(4):
            d = rng.randint(1, 14)
            c = rng.choice(enumerate_patterns(Context(n, p, d)))
            pool.append((c, d))
        a, b = pool[:2], pool[2:]
        both = ideal_from_labels(a + b, n, p)
        left = ideal_from_labels(a, n, p)
        right = ideal_from_labels(b, n, p)
        union = MonomialIdeal(left.generators + right.generators, n, p)
        assert both == union


def test_decompose_fixture():
    ideal = MonomialIdeal(SIX_GENS, 2, 2)
    assert decompose(ideal) == SIX_LABELS
    assert ideal_from_labels(decompose(ideal), 2, 2) == ideal


def test_decompose_trivial_cases():
    assert decompose(carry_ideal((0, 1), 25, 2, 5)) == [((0, 1), 25)]
    m_cubed = power(MonomialIdeal([(1, 0), (0, 1)], 2, 5), 3)
    assert decompose(m_cubed) == [((), 3)]


def test_decompose_round_trip_random():
    rng = random.Random(2024)
    for _ in range(40):
        n = rng.choice((1, 2, 3))
        p = rng.choice((2, 3, 5))
        labels = []
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(1, 18 if n < 3 else 12)
            c = rng.choice(enumerate_patterns(Context(n, p, d)))
            labels.append((c, d))
        ideal = ideal_from_labels(labels, n, p)
        out = decompose(ideal)
        assert ideal_from_labels(out, n, p) == ideal
        # irredundant: dropping any label loses monomials
        if len(out) > 1:
            for k in range(len(out)):
                rest = out[:k] + out[k + 1 :]
                assert ideal_from_labels(rest, n, p) != ideal


def test_decompose_rejects_non_invariant():
    with pytest.raises(NotInvariantError) as info:
        decompose(MonomialIdeal([(1, 1)], 2, 2))
    err = info.value
    assert err.degree == 2
    assert err.present == (1, 1)
    assert sum(err.absent) == 2


def test_invariance_fixtures():
    assert not is_invariant(MonomialIdeal([(1, 1)], 2, 2))
    assert not is_invariant(MonomialIdeal([(1, 1)], 2, 7))
    assert is_invariant(MonomialIdeal([(2, 0), (0, 2)], 2, 2))
    assert not is_invariant(MonomialIdeal([(2, 0), (0, 2)], 2, 3))
    quartic = [(4, 0), (3, 1), (1, 3), (0, 4)]
    # invariant only in characteristic 3; over F_2 the transvection image of
    # x^3 y contains x^2 y^2, which the ideal misses
    assert not is_invariant(MonomialIdeal(quartic, 2, 2))
    assert is_invariant(MonomialIdeal(quartic, 2, 3))
    assert not is_invariant(MonomialIdeal(quartic, 2, 5))


def test_invariance_witness_shape():
    witness = invariance_witness(MonomialIdeal([(2, 0), (0, 2)], 2, 3))
    assert witness is not None
    degree, present, absent = witness
    assert degree == 2
    assert sum(present) == 2 and sum(absent) == 2


def test_oracle_agreement_small():
    rng = random.Random(5)
    fixtures = [
        MonomialIdeal([(1, 1)], 2, 2),
        MonomialIdeal([(2, 0), (0, 2)], 2, 2),
        MonomialIdeal([(2, 0), (0, 2)], 2, 3),
        MonomialIdeal([(4, 0), (3, 1), (1, 3), (0, 4)], 2, 2),
        MonomialIdeal([(4, 0), (3, 1), (1, 3), (0, 4)], 2, 3),
    ]
    for _ in range(60):
        n = rng.choice((2, 3))
        p = rng.choice((2, 3))
        gens = set()
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(1, 9)
            mono = [0] * n
            for _ in range(d):
                mono[rng.randrange(n)] += 1
            base = tuple(sorted(mono, reverse=True))
            if sum(base) == 0:
                continue
            # close under permutations so the symmetric-group action is free
            from itertools import permutations

            gens.update(set(permutations(base)))
        if not gens:
            continue
        fixtures.append(MonomialIdeal(sorted(gens), n, p))
    for ideal in fixtures:
        assert is_invariant(ideal) == is_invariant_oracle(ideal)


def test_products_and_powers():
    m3 = MonomialIdeal([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3, 3)
    assert power(m3, 3) == carry_ideal((1,), 3, 3, 3)
    left = carry_ideal((0,), 7, 2, 7)
    right = carry_ideal((), 3, 2, 7)
    assert product(left, right) == carry_ideal((0,), 10, 2, 7)
    with pytest.raises(ValueError):
        product(left, MonomialIdeal([(1, 0)], 2, 3))
    with pytest.raises(ValueError):
        power(left, 0)


def test_product_preserves_invariance():
    rng = random.Random(11)
    for _ in range(15):
        n, p = rng.choice([(2, 2), (2, 3), (3, 2)])
        ideals = []
        for _ in range(2):
            d = rng.randint(1, 10)
            c = rng.choice(enumerate_patterns(Context(n, p, d)))
            ideals.append(carry_ideal(c, d, n, p))
        assert is_invariant(product(*ideals))


def test_frobenius():
    base = carry_ideal((1,), 5, 2, 5)
    assert frobenius_label((1,), 5, 1, 5) == ((0, 1), 25)
    assert frobenius_power(base, 1) == carry_ideal((0, 1), 25, 2, 5)
    for c, d, n, p, e in (
        ((1,), 5, 2, 5, 1),
        ((1, 0, 1), 10, 2, 2, 2),
        ((1,), 3, 3, 3, 1),
    ):
        c2, d2 = frobenius_label(c, d, e, p)
        assert frobenius_power(carry_ideal(c, d, n, p), e) == carry_ideal(c2, d2, n, p)
    with pytest.raises(ValueError):
        frobenius_power(base, 0)
    with pytest.raises(ValueError):
        frobenius_label((1,), 5, 0, 5)


def test_saturation_properties():
    for ideal in (
        ideal_from_labels(SIX_LABELS, 2, 2),
        carry_ideal((0, 1), 25, 2, 5),
        carry_ideal((2, 0), 35, 3, 5),
    ):
        d1 = ideal.min_degree
        n = ideal.n
        for i in range(n):
            pure = tuple(d1 if k == i else 0 for k in range(n))
            assert ideal.contains_monomial(pure)
        full = n * d1
        piece = ideal.degree_piece(full)
        assert len(piece) == len(list(compositions(full, n)))


def test_text_round_trip():
    ideal = ideal_from_labels(SIX_LABELS, 2, 2)
    text = ideal_to_text(ideal)
    assert text.splitlines()[0] == "ring n=2 p=2"
    assert ideal_from_text(text) == ideal
    scrambled = "ring n=2 p=2\n0 8\n8 0\n3 7\n7 3\n4 5\n5 4\n"
    assert ideal_from_text(scrambled) == ideal
    with pytest.raises(ValueError):
        ideal_from_text("7 3 2\n")
    with pytest.raises(ValueError, match="no p= field"):
        ideal_from_text("ring n=2\n1 1\n")
    with pytest.raises(ValueError, match="no n= field"):
        ideal_from_text("ring p=3\n1 1\n")
    with pytest.raises(ValueError, match="expected key=value"):
        ideal_from_text("ring n=2 3\n1 1\n")


def test_json_round_trip():
    ideal = carry_ideal((2, 0), 35, 3, 5)
    blob = json.dumps(ideal_to_json(ideal))
    assert ideal_from_json(json.loads(blob)) == ideal


def test_labels_text_round_trip():
    text = labels_to_text(SIX_LABELS)
    assert "d=8 c=(0,0,0)" in text
    assert labels_from_text(text) == SIX_LABELS
    assert labels_from_text("n=2 p=2 d=8 c=(0,0,0)\n\n") == SIX_LABELS[:1]
    with pytest.raises(ValueError, match="no c= field"):
        labels_from_text("d=8 c=(0,0,0)\nd=9\n")
    with pytest.raises(ValueError, match="no d= field"):
        labels_from_text("c=(0,0,0)\n")
