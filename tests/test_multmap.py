import pytest
from hypothesis import given
from hypothesis import strategies as st

from carryideals.basep import full_run
from carryideals.carry import (
    Context,
    carry_pattern,
    enumerate_patterns,
    leq,
    max_pattern,
)
from carryideals.ideals import carry_ideal
from carryideals.multmap import (
    _grow,
    carry_after_multiply,
    contains,
    first_slack_column,
    successor,
)
from oracles import compositions, ideal_contains_ideal, oracle_shift


def test_multiply_fixtures():
    b = (342, 48, 50)
    assert carry_after_multiply(b, 0, 7) == (1, 1, 0)
    assert carry_after_multiply(b, 1, 7) == (1, 1, 1)
    assert carry_after_multiply(b, 2, 7) == (2, 2, 1)


@given(
    st.lists(st.integers(0, 200), min_size=2, max_size=4),
    st.integers(0, 3),
    st.sampled_from((2, 3, 5, 7)),
)
def test_multiply_matches_recomputation(exponents, index, p):
    index %= len(exponents)
    bumped = list(exponents)
    bumped[index] += 1
    got = carry_after_multiply(exponents, index, p)
    assert got == carry_pattern(bumped, p)
    c, d = carry_pattern(exponents, p), sum(exponents)
    assert got == oracle_shift(c, d, p, full_run(exponents[index], p))


def test_growth_refuses_a_carry_above_the_top():
    # (1,) is one entry too long for d = 3 at p = 5: its only column sum,
    # 3 + 5*1 = 8, is full but carries 5 more than the degree, and the
    # readback at d = 4 leaves that carry above the top digit
    with pytest.raises(RuntimeError):
        _grow((1,), Context(2, 5, 3), 0)


def test_slack_fixtures():
    # all four column sums at d=440 are below 18, so the first slack is 0;
    # cross-checked against the minimal full run over the carry class below
    assert first_slack_column((1, 1, 1), Context(3, 7, 440)) == 0
    assert first_slack_column((), Context(2, 5, 3)) == 0


def test_slack_against_brute_force():
    for n, p, dmax in ((2, 2, 20), (2, 3, 20), (3, 2, 12)):
        for d in range(1, dmax + 1):
            ctx = Context(n, p, d)
            best = {}
            for b in compositions(d, n):
                c = carry_pattern(b, p)
                run = min(full_run(x, p) for x in b)
                best[c] = min(best.get(c, run), run)
            for c, minimum in best.items():
                assert first_slack_column(c, ctx) == minimum


def test_successor_fixtures():
    assert successor((), Context(2, 2, 1)) == (1,)
    # starting from the least class at degree 5 over F_2, iteration saturates
    # at degree 7 already (a one-point lattice: 7 is one below a 2-power)
    cur, d = (0, 0), 5
    while cur != max_pattern(Context(2, 2, d)):
        cur = successor(cur, Context(2, 2, d))
        d += 1
        assert d <= 10
    assert d == 7
    assert successor(cur, Context(2, 2, 7)) == (1, 1, 1)


def test_successor_matches_shift_formula():
    cases = 0
    for n in (2, 3, 4):
        for p in (2, 3, 5, 7):
            for d in range(60 if n < 4 else 30):
                ctx = Context(n, p, d)
                for c in enumerate_patterns(ctx):
                    run = first_slack_column(c, ctx)
                    assert successor(c, ctx) == oracle_shift(c, d, p, run)
                    cases += 1
    assert cases == 3295


def test_successor_graded_piece_identity():
    for n, p, dmax in ((2, 2, 16), (2, 3, 16), (3, 2, 10), (3, 3, 8)):
        for d in range(1, dmax + 1):
            ctx = Context(n, p, d)
            fibers_up = {}
            for b in compositions(d + 1, n):
                fibers_up.setdefault(carry_pattern(b, p), set()).add(b)
            for c in enumerate_patterns(ctx):
                span = carry_ideal(c, d, n, p).generators
                image = {
                    m[:i] + (m[i] + 1,) + m[i + 1 :]
                    for m in span
                    for i in range(n)
                }
                nxt = successor(c, ctx)
                expected = set()
                for c2, fiber in fibers_up.items():
                    if leq(c2, nxt):
                        expected |= fiber
                assert image == expected


def test_successor_monotone():
    for n, p, dmax in ((2, 2, 20), (3, 2, 12), (2, 3, 20)):
        for d in range(1, dmax + 1):
            ctx = Context(n, p, d)
            pats = enumerate_patterns(ctx)
            succ = {c: successor(c, ctx) for c in pats}
            for a in pats:
                for b in pats:
                    if a != b and leq(a, b):
                        assert leq(succ[a], succ[b])


def test_contains_fixtures():
    assert contains((), 1, (1,), 2, 2, 2)
    assert contains((0, 0), 5, (0, 0), 5, 2, 2)
    # the three labels of the decomposition fixture are mutually irredundant
    assert not contains((0, 0, 0), 8, (1, 1, 1), 10, 2, 2)
    assert not contains((0, 0, 0), 8, (0, 0, 1), 9, 2, 2)
    assert contains((0, 0, 0), 8, (0, 0, 0), 9, 2, 2)


def test_contains_against_ideal_containment():
    for p in (2, 3):
        for d in range(1, 13):
            for d2 in range(d, 16):
                outer_ctx = Context(2, p, d)
                inner_ctx = Context(2, p, d2)
                for c in enumerate_patterns(outer_ctx):
                    outer = carry_ideal(c, d, 2, p).generators
                    for c2 in enumerate_patterns(inner_ctx):
                        inner = carry_ideal(c2, d2, 2, p).generators
                        assert contains(c, d, c2, d2, 2, p) == ideal_contains_ideal(
                            outer, inner
                        )


def test_lower_degree_is_never_contained():
    assert not contains((0,), 4, (), 2, 2, 3)


def test_huge_degree_gap_resolved_by_saturation():
    # the inner ideal sits far above the outer one's saturation degree,
    # so the answer arrives after a handful of successor steps
    big_d = 10**9
    c2 = carry_pattern((big_d, 0), 2)  # the all-zero pattern at that degree
    assert contains((0, 0), 5, c2, big_d, 2, 2)


def test_contains_is_a_partial_order():
    for p in (2, 3):
        # equal degree: reflexive and antisymmetric
        for d in (6, 10, 13):
            pats = enumerate_patterns(Context(2, p, d))
            for a in pats:
                assert contains(a, d, a, d, 2, p)
                for b in pats:
                    if contains(a, d, b, d, 2, p) and contains(b, d, a, d, 2, p):
                        assert a == b
        # transitive across degrees
        for d in (4, 5, 7):
            for da in enumerate_patterns(Context(2, p, d)):
                for db in enumerate_patterns(Context(2, p, d + 2)):
                    for dc in enumerate_patterns(Context(2, p, d + 5)):
                        if contains(da, d, db, d + 2, 2, p) and contains(
                            db, d + 2, dc, d + 5, 2, p
                        ):
                            assert contains(da, d, dc, d + 5, 2, p)


def test_one_variable_rejected():
    with pytest.raises(ValueError):
        first_slack_column((0,), Context(1, 2, 2))
    with pytest.raises(ValueError):
        successor((0,), Context(1, 2, 2))
    with pytest.raises(ValueError):
        carry_after_multiply((5,), 0, 2)
    with pytest.raises(ValueError):
        contains((0,), 2, (0,), 2, 1, 2)
