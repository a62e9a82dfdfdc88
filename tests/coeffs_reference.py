"""C_n and P_n one index at a time, for checking the divisor enumerators.

The package reads every a_{n,i} of one n off coeffs.divisor_intervals,
where each divisor's condition is linear in i.  divisor_coeff decides the
paper's interval for one i directly, by exact squared comparisons, so the
tests compare the runs against the interval as the paper states it.

The package reads C_n off the odd divisors of n.  trapezoidal_k decides
for one i whether n = k(k + 2i + 1)/2, and closed_form_row reads C_n's
row off one such probe per i, so the tests compare count_poly against the
trapezoidal cases as the paper states them.
"""

from math import isqrt

from hilbtorus import arith


def divisor_coeff(n: int, i: int) -> int:
    """a_{n,i}: the number of divisors d of n with

        (i + sqrt(2n + i^2)) / 2  <  d  <=  i + sqrt(2n + i^2),

    decided by exact squared comparisons (no radicals are ever formed).
    """
    if n < 1 or i < 0:
        raise ValueError("need n >= 1 and i >= 0")
    s = 2 * n + i * i
    count = 0
    for d in arith.divisors(n):
        lo = 2 * d - i
        if not (lo > 0 and lo * lo > s):
            continue
        hi = d - i
        if hi <= 0 or hi * hi <= s:
            count += 1
    return count


def trapezoidal_k(n: int, i: int) -> int | None:
    """The k >= 1 with n = k(k + 2i + 1)/2, if one exists.

    Such n are the sums (i+1) + (i+2) + ... + (i+k); at most one k fits.
    """
    if n < 1 or i < 0:
        raise ValueError("need n >= 1 and i >= 0")
    disc = 8 * n + (2 * i + 1) ** 2
    s = isqrt(disc)
    if s * s != disc:
        return None
    k = (s - 2 * i - 1) // 2
    if k >= 1 and k * (k + 2 * i + 1) == 2 * n:
        return k
    return None


def closed_form_row(n: int) -> list[int]:
    """[c_{n,0}, ..., c_{n,n}] from the sign row s(j) = (-1)^k when
    n = k(k + 2j + 1)/2, else 0, for j = 0..n: c_{n,0} = 2 s(0) and
    c_{n,i} = s(i) - s(i - 1) for i >= 1.  The two terms of c_{n,i} never
    fire together, which the code asserts rather than assumes.
    """
    ks = [trapezoidal_k(n, j) for j in range(n + 1)]
    s = [0 if k is None else 1 - 2 * (k % 2) for k in ks]
    for i in range(1, n + 1):
        if s[i] and s[i - 1]:
            raise AssertionError(f"trapezoidal cases collided at n={n}, "
                                 f"i={i}: k={ks[i]} and k={ks[i - 1]}")
    return [2 * s[0]] + [s[i] - s[i - 1] for i in range(1, n + 1)]
