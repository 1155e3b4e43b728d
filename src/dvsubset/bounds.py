"""Closed-form bounds on rainbow-forcing ground-set sizes and subset sizes.

All values are exact integers; fractional exponents are handled by integer
root extraction (binary search on big ints), never by floating point.
"""

from __future__ import annotations

from fractions import Fraction


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
