from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvsubset.bounds import (
    H_general_recurrence,
    H_simplex_upper,
    as_upper,
    expected_conflict_bound,
    g_upper,
    h_general_lower,
    h_simplex_lower,
    int_nth_root,
)
from dvsubset.rng import SplitMix64


# -------------------------------------------------------------- integer roots


def test_int_nth_root_small_cases():
    assert int_nth_root(0, 3) == 0
    assert int_nth_root(1, 5) == 1
    assert int_nth_root(7, 1) == 7
    assert int_nth_root(8, 3) == 2
    assert int_nth_root(9, 3) == 2
    assert int_nth_root(26, 3) == 2
    assert int_nth_root(27, 3) == 3
    assert int_nth_root(10**12, 6) == 100


def test_int_nth_root_validation():
    with pytest.raises(ValueError):
        int_nth_root(-1, 2)
    with pytest.raises(ValueError):
        int_nth_root(4, 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**40), st.integers(min_value=1, max_value=12))
def test_int_nth_root_is_floor(x, k):
    r = int_nth_root(x, k)
    assert r**k <= x
    assert (r + 1) ** k > x


# -------------------------------------------------------------- pinned values


def test_g_upper_values():
    assert g_upper(2, 1, 3) == 108
    assert g_upper(3, 2, 4) == 8192


def test_H_simplex_values():
    assert H_simplex_upper(2, 3) == 5832
    assert H_simplex_upper(3, 4) == 524288


def test_h_simplex_values():
    assert h_simplex_lower(2, 4096) == 2
    assert h_simplex_lower(2, 64) == 1
    assert h_simplex_lower(3, 1) == 0


def test_h_general_values():
    assert h_general_lower(2, 2, 4096, 1) == 4
    assert h_general_lower(3, 2, 10**10, 1) == 10
    assert h_general_lower(2, 1, 100, 0) == 0


def test_H_recurrence_values():
    assert H_general_recurrence(2, 1, 3, 1, 1) == 108
    assert H_general_recurrence(2, 2, 3, 1, 1) == 11664
    assert H_general_recurrence(2, 0, 3, 1, 7) == 7


# ----------------------------------------------------------------- identities


def test_H_simplex_equals_g_on_doubled_m():
    # g_upper(d+1, 2t, t) = 4 * 2t * t^(2d+1) = 8 * t^(2d+2)
    for d in (2, 3, 4):
        for t in (d + 1, 2 * d, 10):
            assert H_simplex_upper(d, t) == 8 * t ** (2 * d + 2)


def test_H_recurrence_closed_form():
    for a in (2, 3):
        for t in (2, 5):
            for j in (1, 3):
                h = 2  # H_0 = base
                for d in range(4):
                    assert H_general_recurrence(a, d, t, j, 2) == h
                    h = 4 * j * h * t ** (2 * a - 1)


def test_monotonicity():
    assert g_upper(2, 1, 4) > g_upper(2, 1, 3)
    assert g_upper(2, 2, 3) > g_upper(2, 1, 3)
    assert g_upper(3, 1, 3) > g_upper(2, 1, 3)
    prev = 0
    for n in (1, 10, 10**4, 10**8, 10**12):
        cur = h_simplex_lower(2, n)
        assert cur >= prev
        prev = cur


def test_h_general_is_exact_floor():
    # the direct definition: largest q with (q*den)^e <= n*num^e, on a seeded
    # grid of (a, d, c) against n = 1, small n and huge n
    from fractions import Fraction

    rng = SplitMix64(17)
    ns = [1, 2, 7, 4096, 10**9, 10**30, 10**60 + 7]
    cases = [(2, 1, 7, 2), (2, 1, 1, 5), (3, 2, 10**30, 0)]
    for _ in range(60):
        a, d = 2 + rng.below(3), 1 + rng.below(3)
        c = Fraction(rng.below(50), 1 + rng.below(20))
        cases += [(a, d, n, c) for n in ns]
    for a, d, n, c in cases:
        e = (2 * a - 1) * d
        q = h_general_lower(a, d, n, c)
        cf = Fraction(c)
        assert (q * cf.denominator) ** e <= n * cf.numerator**e
        assert ((q + 1) * cf.denominator) ** e > n * cf.numerator**e
    assert h_general_lower(2, 1, 7, 2) == 3  # floor(2 * 7^(1/3))


def test_round_trip_guarantee():
    # a ground set of size H_simplex_upper(d, t) must guarantee at least t/2
    # by the lower-bound formula (the pair differ by the constant 2 only)
    for d in (2, 3):
        for t in (d + 1, 8, 16, 32):
            n = H_simplex_upper(d, t)
            assert h_simplex_lower(d, n) >= t // 2


def test_validation():
    with pytest.raises(ValueError):
        g_upper(1, 1, 3)
    with pytest.raises(ValueError):
        g_upper(2, 0, 3)
    with pytest.raises(ValueError):
        H_simplex_upper(1, 4)
    with pytest.raises(ValueError):
        H_simplex_upper(2, 2)  # t below d+1
    with pytest.raises(ValueError):
        h_simplex_lower(1, 10)
    with pytest.raises(ValueError, match="n must be"):
        h_simplex_lower(2, 0)
    with pytest.raises(ValueError):
        h_general_lower(2, 1, 10, -1)
    with pytest.raises(ValueError):
        h_general_lower(1, 1, 10, 1)
    with pytest.raises(ValueError):
        H_general_recurrence(2, -1, 3, 1)


# ------------------------------------------------- sample-game pair bounds


def test_expected_conflict_bound_values():
    assert expected_conflict_bound(500, 2, 1, 5) == 5
    assert expected_conflict_bound(1000, 2, 1, 5) == F(5, 2)
    assert expected_conflict_bound(8192, 3, 2, 4) == 4


def test_as_upper_values():
    assert as_upper(2, 1, 10, 0) == 125
    assert as_upper(2, 1, 10, 1) == 50
    assert as_upper(3, 1, 10, 2) == 250


def test_formula_validation():
    with pytest.raises(ValueError):
        expected_conflict_bound(0, 2, 1, 5)
    with pytest.raises(ValueError):
        expected_conflict_bound(10, 1, 1, 5)
    with pytest.raises(ValueError):
        as_upper(2, 1, 10, 2)  # s must stay below k
    with pytest.raises(ValueError):
        as_upper(2, 1, 10, -1)
    with pytest.raises(ValueError):
        as_upper(1, 1, 10, 0)
