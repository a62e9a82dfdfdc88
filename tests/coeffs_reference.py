"""a_{n,i} one index at a time, for checking P_n's divisor runs.

The package reads every a_{n,i} of one n off coeffs.divisor_intervals,
where each divisor's condition is linear in i.  This reference decides the
paper's interval for one i directly, by exact squared comparisons, so the
tests compare the runs against the interval as the paper states it.
"""

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
