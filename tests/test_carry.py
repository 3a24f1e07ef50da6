import random
from itertools import product
from operator import le

import pytest
from hypothesis import given
from hypothesis import strategies as st

from carryideals.basep import full_run, top_index
from carryideals.carry import (
    Context,
    carry_pattern,
    cover_edges,
    enumerate_patterns,
    is_valid_pattern,
    join,
    leq,
    max_pattern,
    maximal_elements,
    meet,
    min_pattern,
    monomials_of_pattern,
    monomials_with_carry_leq,
)
from carryideals.cli import format_pattern, parse_pattern
from oracles import (
    compositions,
    down_closure,
    is_order_closed,
    oracle_carry,
    oracle_patterns,
)

C10 = {(0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1)}


def test_carry_fixtures():
    assert carry_pattern((4, 6), 3) == (0, 1)
    assert carry_pattern((3, 3, 3), 2) == (1, 2, 1)
    assert carry_pattern((7, 2), 2) == (0, 1, 1)
    assert carry_pattern((62102, 0), 5) == (0,) * 6
    for d in (1, 9, 40):
        assert carry_pattern((d, 0, 0, 0), 5) == (0,) * max(top_index(d, 5), 0)


@given(
    st.lists(st.integers(0, 3000), min_size=1, max_size=5),
    st.sampled_from((2, 3, 5, 7)),
)
def test_carry_matches_closed_form(exponents, p):
    assert carry_pattern(exponents, p) == oracle_carry(exponents, p)


@given(
    st.lists(st.integers(0, 500), min_size=2, max_size=4),
    st.sampled_from((2, 3, 5)),
    st.randoms(),
)
def test_carry_permutation_invariant(exponents, p, rng):
    shuffled = list(exponents)
    rng.shuffle(shuffled)
    assert carry_pattern(shuffled, p) == carry_pattern(exponents, p)


def test_enumerate_fixtures():
    assert set(enumerate_patterns(Context(2, 2, 10))) == C10
    assert (1, 1, 0) not in enumerate_patterns(Context(2, 2, 10))
    assert (0, 1, 1) not in enumerate_patterns(Context(2, 2, 10))
    for n in (1, 2, 5):
        assert enumerate_patterns(Context(n, 7, 3)) == ((),)
    nine = set(enumerate_patterns(Context(3, 2, 9)))
    assert nine == {(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1), (1, 2, 1)}


def test_enumerate_against_brute_force_small():
    for p in (2, 3, 5):
        for n in (1, 2, 3):
            for d in range(26):
                ctx = Context(n, p, d)
                assert set(enumerate_patterns(ctx)) == oracle_patterns(d, n, p)


def test_validity_fixtures():
    ten = Context(2, 2, 10)
    assert not is_valid_pattern((1, 1, 0), ten)
    assert is_valid_pattern((0, 0, 0), ten)
    assert is_valid_pattern((1, 0, 1), ten)
    # the column-0 inequality matters: without it this would pass
    assert not is_valid_pattern((2, 1), Context(2, 3, 9))
    assert not is_valid_pattern((0, 0), ten)  # wrong length


def test_validity_is_membership_in_box():
    # every tuple with entries in [-1, n], negative and over-cap ones included,
    # of the right length and one shorter or longer
    for n in (1, 2, 3, 4):
        for p in (2, 3, 5, 7):
            for d in range(30 if n < 4 else 16):
                ctx = Context(n, p, d)
                patterns = oracle_patterns(d, n, p)
                for length in range(max(ctx.length - 1, 0), ctx.length + 2):
                    for c in product(range(-1, n + 1), repeat=length):
                        assert is_valid_pattern(c, ctx) == (c in patterns)


def _pairs(ctx):
    pats = enumerate_patterns(ctx)
    return [(a, b) for a in pats for b in pats]


@given(
    st.sampled_from(
        [Context(2, 2, 10), Context(3, 2, 9), Context(2, 3, 30), Context(3, 3, 17)]
    ),
    st.randoms(use_true_random=False),
)
def test_lattice_laws(ctx, rng):
    pats = enumerate_patterns(ctx)
    a, b, c = (rng.choice(pats) for _ in range(3))
    assert is_valid_pattern(join(a, b), ctx)
    assert is_valid_pattern(meet(a, b), ctx)
    assert join(a, b) == join(b, a)
    assert meet(a, b) == meet(b, a)
    assert join(a, join(b, c)) == join(join(a, b), c)
    assert join(a, a) == a and meet(a, a) == a
    assert join(a, meet(a, b)) == a
    assert meet(a, join(a, b)) == a


def test_min_max():
    ten = Context(2, 2, 10)
    assert min_pattern(ten) == (0, 0, 0)
    assert max_pattern(ten) == (1, 1, 1)
    # two-variable closed form: zeros up to the full run, then ones; fixed
    # degrees, then seeded ones far beyond brute force
    rng = random.Random(10)
    seeded = [
        (rng.choice((2, 3, 5, 7, 11)), rng.randrange(1, 10 ** rng.randint(1, 12)))
        for _ in range(400)
    ]
    for p, d in [(2, 10), (2, 37), (3, 30), (5, 62102), (3, 53)] + seeded:
        ctx = Context(2, p, d)
        run = full_run(d, p)
        expected = tuple(0 if i <= run else 1 for i in range(1, ctx.length + 1))
        assert max_pattern(ctx) == expected, (p, d)
    # max is the join of everything
    for ctx in (Context(3, 2, 9), Context(3, 5, 35), Context(4, 3, 20)):
        pats = enumerate_patterns(ctx)
        top = min_pattern(ctx)
        for c in pats:
            top = join(top, c)
        assert max_pattern(ctx) == top
        assert maximal_elements(pats) == {top}
    for n, p in product(range(1, 5), (2, 3, 5, 7)):
        for d in range(20 if n == 4 else 40):
            join_all = tuple(map(max, zip(*oracle_patterns(d, n, p))))
            assert max_pattern(Context(n, p, d)) == join_all, (n, p, d)


def test_down_closure_fixture():
    ten = Context(2, 2, 10)
    assert down_closure({(1, 0, 1)}, ten) == {
        (0, 0, 0),
        (1, 0, 0),
        (0, 0, 1),
        (1, 0, 1),
    }
    assert is_order_closed({(0, 0, 0), (1, 0, 0), (0, 0, 1)}, ten)
    assert not is_order_closed({(1, 0, 0), (0, 0, 1)}, ten)
    assert maximal_elements({(0, 0, 0), (1, 0, 0), (0, 0, 1)}) == {
        (1, 0, 0),
        (0, 0, 1),
    }


def test_monomials_with_carry_leq():
    ten = Context(2, 2, 10)
    nine = monomials_with_carry_leq((1, 0, 1), ten)
    assert len(nine) == 9
    assert (5, 5) in nine and (7, 3) not in nine and (3, 7) not in nine
    everything = monomials_with_carry_leq(max_pattern(ten), ten)
    assert len(everything) == 11
    quartic = monomials_with_carry_leq((0,), Context(3, 3, 4))
    assert sorted(quartic) == sorted(
        [
            (4, 0, 0), (3, 1, 0), (3, 0, 1), (1, 3, 0), (1, 0, 3),
            (0, 4, 0), (0, 3, 1), (0, 1, 3), (0, 0, 4),
        ]
    )


def _oracle_scan(d, n, p):
    """Degree-d monomials in descending lexicographic order, with carries."""
    return [(b, oracle_carry(b, p)) for b in sorted(compositions(d, n), reverse=True)]


def _sweep_degrees(n, p):
    # a power of p and the degree just below it, where the lattices change
    # shape, plus degrees with nonzero low digits
    if n == 4:
        return sorted({p**2 - 1, p**2, 2 * p**2 + 1})
    return sorted({p**2 + 2, p**3 - 1, p**3, 3 * p**2 + 1})


def test_monomials_with_carry_leq_matches_oracle_scan():
    for n in (2, 3, 4):
        for p in (2, 3, 5):
            for d in _sweep_degrees(n, p):
                ctx = Context(n, p, d)
                scan = _oracle_scan(d, n, p)
                for c in enumerate_patterns(ctx):
                    want = [b for b, cb in scan if all(map(le, cb, c))]
                    assert monomials_with_carry_leq(c, ctx) == want, (n, p, d, c)
                    exact = sorted(monomials_of_pattern(c, ctx), reverse=True)
                    assert exact == [b for b, cb in scan if cb == c], (n, p, d, c)


def test_monomials_of_pattern_outside_the_lattice():
    ten = Context(2, 2, 10)
    assert monomials_of_pattern((1, 1, 0), ten) == []
    assert monomials_of_pattern((0, 2, 0), ten) == []
    with pytest.raises(ValueError):
        monomials_of_pattern((0, 0), ten)
    with pytest.raises(ValueError):
        monomials_with_carry_leq((1, 1, 0), ten)


def test_fiber_union_is_whole_space():
    for ctx in (Context(2, 2, 10), Context(3, 3, 8)):
        seen = {}
        for b in compositions(ctx.d, ctx.n):
            seen.setdefault(carry_pattern(b, ctx.p), []).append(b)
        assert set(seen) == set(enumerate_patterns(ctx))


def test_invariant_subspace_dimension_table():
    # dimensions of all six invariant subspaces of the degree-10 forms, p=2,
    # indexed by the maximal patterns of their down-sets
    ten = Context(2, 2, 10)
    sizes = {}
    for tops in [
        ((1, 1, 1),),
        ((1, 0, 1),),
        ((1, 0, 0), (0, 0, 1)),
        ((1, 0, 0),),
        ((0, 0, 1),),
        ((0, 0, 0),),
    ]:
        monomials = set()
        for top in tops:
            monomials.update(monomials_with_carry_leq(top, ten))
        sizes[tops] = len(monomials)
    assert list(sizes.values()) == [11, 9, 8, 6, 6, 4]


def test_cover_edges_fixture():
    assert set(cover_edges(Context(2, 2, 10))) == {
        ((0, 0, 0), (1, 0, 0)),
        ((0, 0, 0), (0, 0, 1)),
        ((1, 0, 0), (1, 0, 1)),
        ((0, 0, 1), (1, 0, 1)),
        ((1, 0, 1), (1, 1, 1)),
    }


def test_two_variable_entry_laws():
    for p in (2, 3, 5):
        for d in range(1, 90):
            ctx = Context(2, p, d)
            run = full_run(d, p)
            for c in enumerate_patterns(ctx):
                assert all(x in (0, 1) for x in c)
                assert all(x == 0 for x in c[: min(run, len(c))])


def test_pattern_formatting():
    assert format_pattern((1, 0, 1)) == "(1,0,1)"
    assert format_pattern(()) == "()"
    assert parse_pattern("(1, 0, 1)") == (1, 0, 1)
    assert parse_pattern("()") == ()
    with pytest.raises(ValueError):
        parse_pattern("1,0,1")


def test_context_validation():
    with pytest.raises(Exception):
        Context(2, 4, 10)
    with pytest.raises(ValueError):
        Context(0, 2, 10)
    with pytest.raises(ValueError):
        Context(2, 2, -1)
    with pytest.raises(ValueError):
        carry_pattern((), 2)
    with pytest.raises(ValueError):
        carry_pattern((1, -1), 2)
