import random

import pytest

from carryideals.basep import expand
from carryideals.carry import Context, carry_pattern, enumerate_patterns, leq
from carryideals.cli import format_class
from carryideals.gl2 import tor_class
from carryideals.ideals import MonomialIdeal, NotInvariantError, carry_ideal, ideal_from_labels
from carryideals.koszul import koszul_betti, regularity
from carryideals.twovars import betti_formula
from oracles import (
    char_dim,
    char_from_monomials,
    char_sum,
    class_dimension,
    compositions,
    decompose_character,
    degree_character,
    oracle_tor_class,
    quotient_character,
    rebuild_character,
    simple_character,
    simple_dimension,
    strand_tor_class,
)


def test_simple_character_fixtures():
    five = simple_character((5, 0), 2)
    assert five == {(5, 0): 1, (4, 1): 1, (1, 4): 1, (0, 5): 1}
    assert simple_dimension((5, 0), 2) == 4
    for p in (3, 5, 7):
        for d in range(p):
            assert simple_character((d, 0), p) == degree_character(d)
    assert simple_character((3, 3), 2) == {(3, 3): 1}
    assert simple_dimension((3, 3), 2) == 1


def test_simple_dimension_is_digit_product():
    for p in (2, 3, 5):
        for a in range(0, 64):
            ch = simple_character((a, 0), p)
            dim = 1
            for digit in expand(a, p):
                dim *= digit + 1
            assert char_dim(ch) == dim == simple_dimension((a, 0), p)


def test_decompose_degree_ten():
    factors = decompose_character(degree_character(10), 2)
    assert factors == {(10, 0): 1, (9, 1): 1, (7, 3): 1, (6, 4): 1, (5, 5): 1}


def test_decompose_round_trip():
    rng = random.Random(17)
    for _ in range(30):
        p = rng.choice((2, 3, 5))
        d = rng.randint(0, 64)
        ctx = Context(2, p, d)
        pats = enumerate_patterns(ctx)
        chosen = rng.sample(pats, k=rng.randint(1, len(pats)))
        monos = [
            (a, d - a)
            for a in range(d + 1)
            if any(leq(carry_pattern((a, d - a), p), c) for c in chosen)
        ]
        ch = char_from_monomials(monos)
        cls = decompose_character(ch, p)
        assert all(mult >= 0 for mult in cls.values())
        assert rebuild_character(cls, p) == ch
        assert class_dimension(cls, p) == len(monos)


def test_layers_give_composition_factors():
    # each carry class contributes one factor, at its largest exponent vector
    for p, dmax in ((2, 40), (3, 40), (5, 30)):
        for d in range(dmax + 1):
            layers = {}
            for b in compositions(d, 2):
                layers.setdefault(carry_pattern(b, p), []).append(b)
            expected = {max(fiber) for fiber in layers.values()}
            cls = decompose_character(degree_character(d), p)
            assert set(cls) == expected
            assert all(mult == 1 for mult in cls.values())


def test_quotient_and_tor_fixtures():
    ideal = carry_ideal((0, 0), 5, 2, 2)
    assert decompose_character(quotient_character(ideal, 5), 2) == {(3, 2): 1}
    assert tor_class(ideal, 1, 5) == {(5, 0): 1}
    assert tor_class(ideal, 2, 6) == {(5, 1): 1}
    assert tor_class(ideal, 2, 8) == {(4, 4): 1}
    assert tor_class(ideal, 2, 7) == {}
    assert tor_class(ideal, 1, 6) == {}


def test_tor_dimensions_match_betti():
    rng = random.Random(23)
    for _ in range(15):
        p = rng.choice((2, 3, 5))
        d = rng.randint(1, 40)
        c = rng.choice(enumerate_patterns(Context(2, p, d)))
        ideal = carry_ideal(c, d, 2, p)
        table = betti_formula(c, d, p)
        degrees = {j for (i, j) in table.entries if i == 2}
        absent = next(j for j in range(d + 1, d + 600) if (2, j) not in table.entries)
        for j in sorted(degrees) + [absent]:
            cls = tor_class(ideal, 2, j)
            assert class_dimension(cls, p) == table[2, j]
        assert class_dimension(tor_class(ideal, 1, d), p) == table[1, d]


def test_tor_class_matches_strand_oracle():
    # every nonzero entry in positions 1 and 2 of every two-variable carry
    # ideal of degree below 40
    checked = 0
    for p in (2, 3, 5):
        for d in range(1, 40):
            for c in enumerate_patterns(Context(2, p, d)):
                ideal = carry_ideal(c, d, 2, p)
                for i, j in betti_formula(c, d, p).entries:
                    if i in (1, 2):
                        assert tor_class(ideal, i, j) == strand_tor_class(ideal, i, j)
                        checked += 1
    assert checked == 1016


def test_tor_class_matches_koszul_peel_oracle():
    # every position 0..3 and internal degree up to regularity + 3 of 100
    # seeded sums of one to three two-variable carry ideals
    rng = random.Random(26)
    nonzero = 0
    for _ in range(100):
        p = rng.choice((2, 3, 5, 7))
        degrees = rng.sample(range(1, 51), rng.randint(1, 3))
        labels = [(rng.choice(enumerate_patterns(Context(2, p, d))), d) for d in degrees]
        ideal = ideal_from_labels(labels, 2, p)
        for j in range(regularity(ideal) + 4):
            for i in range(4):
                cls = tor_class(ideal, i, j)
                assert cls == oracle_tor_class(ideal, i, j), (labels, p, i, j)
                nonzero += bool(cls)
    assert nonzero == 343


def _sums_in_several_degrees(seed, count):
    """Seeded sums of two or three two-variable carry ideals whose minimal
    generators span several degrees, with the first one found by hand."""
    yield ideal_from_labels([((0, 0), 10), ((1, 1), 13)], 2, 3)
    rng = random.Random(seed)
    found = 0
    while found < count:
        p = rng.choice((2, 3, 5))
        degrees = rng.sample(range(2, 25), rng.randint(2, 3))
        labels = [(rng.choice(enumerate_patterns(Context(2, p, d))), d) for d in degrees]
        ideal = ideal_from_labels(labels, 2, p)
        if len({sum(g) for g in ideal.generators}) > 1:
            found += 1
            yield ideal


def test_tor_dimensions_match_koszul_in_several_degrees():
    # ideals outside the reach of the strand formula
    for ideal in _sums_in_several_degrees(41, 12):
        table = koszul_betti(ideal)
        for i in range(3):
            for j in range(regularity(ideal) + 3):
                cls = tor_class(ideal, i, j)
                assert all(mult > 0 for mult in cls.values())
                assert class_dimension(cls, ideal.p) == table[i, j]


def test_formatting():
    assert format_class({(5, 1): 1, (4, 4): 1}) == "1*L(5,1) + 1*L(4,4)"
    assert format_class({}) == "0"


def test_malformed_inputs():
    with pytest.raises(ValueError):
        simple_character((1, 2), 3)
    with pytest.raises(ValueError):
        simple_character((3, -1), 3)
    with pytest.raises(ValueError):
        decompose_character({(0, 1): 1}, 2)
    with pytest.raises(NotInvariantError):
        tor_class(MonomialIdeal([(2, 0), (0, 3)], 2, 2), 2, 4)
    # Tor_3 vanishes in two variables
    assert tor_class(carry_ideal((0, 0), 5, 2, 2), 3, 6) == {}
    with pytest.raises(ValueError):
        tor_class(MonomialIdeal([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3, 2), 2, 2)


def test_virtual_characters():
    # degree-4 forms at p=2 contain L(3,1) once, so subtracting it twice
    # leaves a virtual character with multiplicity -1 there
    p = 2
    virt = char_sum(degree_character(4), simple_character((3, 1), p), sign=-2)
    cls = decompose_character(virt, p)
    assert rebuild_character(cls, p) == virt
    assert cls[(3, 1)] == -1
    assert cls[(4, 0)] == 1 and cls[(2, 2)] == 1
