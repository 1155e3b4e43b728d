"""Closed-form bounds on rainbow-forcing ground-set sizes and subset sizes,
and on the same-color pair counts of the sampling game: every formula of
the `bounds` CLI verb.

All values are exact integers or Fractions; fractional exponents are
handled by integer root extraction (binary search on big ints), never by
floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


def int_nth_root(x, k):
    """floor(x ** (1/k)) for integers x >= 0, k >= 1, exactly."""
    if x < 0:
        raise ValueError("x must be >= 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1 or x in (0, 1):
        return x
    hi = 1 << ((x.bit_length() + k - 1) // k + 1)
    lo = 0
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if mid**k <= x:
            lo = mid
        else:
            hi = mid
    return lo


def g_upper(k, m, t):
    """Ground-set size 4*m*t^(2k-1) that forces a rainbow t-subset in any
    k-uniform coloring where every (k-1)-tuple sees each color at most m times."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if m < 1 or t < 1:
        raise ValueError("m and t must be >= 1")
    return 4 * m * t ** (2 * k - 1)


def H_simplex_upper(d, t):
    """Point count g_upper(d+1, 2t, t) = 8*t^(2d+2) forcing t points in R^d
    with pairwise distinct nonzero simplex volumes on d+1 vertices."""
    if d < 2:
        raise ValueError("d must be >= 2")
    if t < d + 1:
        raise ValueError("t must be >= d+1")
    return g_upper(d + 1, 2 * t, t)


def h_simplex_lower(d, n):
    """floor(n^(1/(2d+2)) / 2): guaranteed distinct-volume subset size among
    any n points in R^d for a = d+1 simplices."""
    if d < 2:
        raise ValueError("d must be >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    return int_nth_root(n, 2 * d + 2) // 2


def h_general_lower(a, d, n, c):
    """floor(c * n^(1/((2a-1)d))) for rational c >= 0, computed exactly.

    With c = num/den and e = (2a-1)d, q <= c * n^(1/e) exactly when
    q*den <= floor((n*num^e)^(1/e)), so one integer root gives the answer.
    """
    if a < 2 or d < 1 or n < 1:
        raise ValueError("need a >= 2, d >= 1, n >= 1")
    try:
        c = Fraction(c)
    except ZeroDivisionError:
        raise ValueError(f"c={c} has a zero denominator") from None
    if c < 0:
        raise ValueError("c must be >= 0")
    e = (2 * a - 1) * d
    return int_nth_root(n * c.numerator**e, e) // c.denominator


def H_general_recurrence(a, d, t, j, base=1):
    """H_d of the recurrence H_d = 4*j*H_{d-1}*t^(2a-1) from H_0 = base, in
    closed form: (4*j*t^(2a-1))^d * base."""
    if a < 2 or d < 0 or t < 1 or j < 1 or base < 1:
        raise ValueError("need a >= 2, d >= 0, t >= 1, j >= 1, base >= 1")
    return (4 * j * t ** (2 * a - 1)) ** d * base


def expected_conflict_bound(n, k, m, t):
    """Exact bound 4*m*t^(2k)/n on the expected same-color pair count in a sample."""
    if n < 1 or k < 2 or m < 1 or t < 1:
        raise ValueError("need n >= 1, k >= 2, m >= 1, t >= 1")
    return Fraction(4 * m * t ** (2 * k), n)


def as_upper(k, m, n, s):
    """Bound m*n^(2k-s-1) / (2*s!*((k-s)!)^2) on same-color edge pairs sharing s vertices."""
    if not 0 <= s <= k - 1:
        raise ValueError(f"s must be in 0..{k - 1}")
    if k < 2 or m < 1 or n < 1:
        raise ValueError("need k >= 2, m >= 1, n >= 1")
    return Fraction(m * n ** (2 * k - s - 1), 2 * factorial(s) * factorial(k - s) ** 2)
