"""Closed forms for the point-count polynomials C_n and P_n.

C_n(q) is the number of ideals of codimension n counted by the Hilbert
scheme of n points on a two-dimensional torus over F_q; it is palindromic
about q^n with coefficients c_{n,i} at q^(n +- i).  P_n = C_n / (q-1)^2 has
nonnegative coefficients a_{n,i} at q^(n-1 +- i): a_{n,i} is the number of
divisors d of n with (i + sqrt(2n + i^2))/2 < d <= i + sqrt(2n + i^2).

Each family comes from one divisor enumerator of n.  c_{n,i} is nonzero
only where n = k(k + 2i +- 1)/2, that is where 2n = k m with m > k and
m - k odd, one factorization per odd divisor of n (Sylvester's count of
the ways to write n as a sum of consecutive integers); count_poly reads
its four terms per odd divisor, one fewer for triangular n, off them.
Each divisor d of n counts towards a_{n,i} on one run lo <= i <= hi read
off the pair (d, e = n/d), lo = max(0, ceil(d/2) - e) and
hi = d - 1 - floor(e/2), which divisor_intervals returns, skipping the
d <= sqrt(n/2) whose run is empty; P_n's dense vector, exponent runs,
residue sums mod 12 (its sum, sections and values at roots of unity) and
sparse (q - 1)^2 P_n (its point counts, which verify's zeta suite reads)
derive from them, and reduced_generating_sides reads the runs times
1 - q^2.  Only the linking relation (second_difference), the tables and
compute pn read the dense P_n.
Every route here reads the divisors from arith.divisors, whose small
cache builds one n's list once however many routes ask.  This module only
computes: verify names each identity and compares its sides.  count_poly's
independent checks are the master product (verify's coeffs suite) and
(q - 1)^2 P_n from the runs; the per-i closed form, one trapezoidal probe
per i, is a test reference.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from math import isqrt
from typing import Iterator, NamedTuple

from .laurent import LaurentPoly, _raw
from . import arith


def divisor_intervals(n: int) -> list[tuple[int, int]]:
    """The run (lo, hi) of indices i on which each divisor d of n counts
    towards a_{n,i}, for the divisors whose run is not empty.

    With e = n / d, the conditions (i + sqrt(2n + i^2))/2 < d <=
    i + sqrt(2n + i^2) on a_{n,i}'s divisors are linear in i once
    squared: d <= i + sqrt(2n + i^2) is i >= d/2 - e, and
    d > (i + sqrt(2n + i^2))/2 is i < d - e/2, so each divisor's i form
    the run max(0, ceil(d/2) - e) <= i <= d - 1 - floor(e/2) inside
    0 <= i <= n-1, empty unless 2d^2 > n, that is d > isqrt(n // 2).
    No run it returns is empty: 2d^2 > n = de gives e <= 2d - 1, so
    hi >= 0, and ceil(d/2) - e <= hi since floor(d/2) + ceil(e/2) >= 1.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    ds = arith.divisors(n)
    runs = []
    for d in ds[bisect_right(ds, isqrt(n // 2)):]:
        e = n // d
        runs.append((max(0, (d + 1) // 2 - e), d - 1 - e // 2))
    return runs


def reduced_runs(n: int) -> list[tuple[int, int]]:
    """The exponent runs (A, B) whose indicators q^A + ... + q^B add up to
    P_n: each divisor's run lo..hi gives q^(n-1+i) for i in lo..hi and
    q^(n-1-i) for i in max(lo, 1)..hi, empty (A = B + 1) if lo = hi = 0."""
    runs = []
    for lo, hi in divisor_intervals(n):
        runs += (n - 1 + lo, n - 1 + hi), (n - 1 - hi, n - 1 - (lo or 1))
    return runs


def reduced_residue_sums(n: int) -> list[int]:
    """[the sum of P_n's coefficients at exponents e = r mod 12, r = 0..11]
    from its runs: a run of length L adds L // 12 to every residue, and 1 to
    the L % 12 from its start on (a difference array over two laps)."""
    laps, steps = 0, [0] * 24
    for a, b in reduced_runs(n):
        whole, part = divmod(b - a + 1, 12)
        laps += whole
        steps[a % 12] += 1
        steps[a % 12 + part] -= 1
    lap = list(accumulate(steps))
    return [laps + lap[r] + lap[r + 12] for r in range(12)]


def reduced_times_square(n: int) -> LaurentPoly:
    """(q - 1)^2 P_n from P_n's runs: a run q^A + ... + q^B is
    (q^(B+1) - q^A)/(q - 1), so (q - 1)^2 times it has four terms."""
    terms = {}
    for a, b in reduced_runs(n):
        for e, c in ((a, 1), (a + 1, -1), (b + 1, -1), (b + 2, 1)):
            terms[e] = terms.get(e, 0) + c
    return LaurentPoly(terms)


def divisor_coeff_vector(n: int) -> list[int]:
    """[a_{n,0}, ..., a_{n,n-1}]: the sum of the indicators of the runs of
    divisor_intervals, by one difference array and one prefix sum."""
    diff = [0] * (n + 1)
    for lo, hi in divisor_intervals(n):
        diff[lo] += 1
        diff[hi + 1] -= 1
    return list(accumulate(diff[:-1]))


def count_poly(n: int) -> LaurentPoly:
    """C_n(q) = c_{n,0} q^n + sum_i c_{n,i} (q^(n+i) + q^(n-i)), from the
    factorizations 2n = k m with m > k and m - k odd: each odd divisor o of
    n gives the one with {k, m} = {o, 2n/o}, as 2n/o is even.

    Each one is n = k(k + 2u + 1)/2 with u = (m - k - 1)/2: it puts
    s = (-1)^k at i = u (2s at q^n when u = 0) and -s at i = u + 1.  No two
    factorizations may land on the same i, which the code asserts rather
    than assumes.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    coeffs = {}
    for o in arith.divisors(n):
        if o % 2 == 0:
            continue
        k, m = o, 2 * n // o
        if m < k:
            k, m = m, k
        up = (m - k - 1) // 2
        s = -1 if k % 2 else 1
        for i, c in ((up, 2 * s if up == 0 else s), (up + 1, -s)):
            if n + i in coeffs:
                raise AssertionError(
                    f"trapezoidal cases collided at n={n}, i={i}")
            coeffs[n + i] = c
            coeffs[n - i] = c
    return _raw(coeffs)  # every term is already a nonzero int


def reduced_poly(n: int) -> LaurentPoly:
    """P_n(q) = a_{n,0} q^(n-1) + sum_i a_{n,i} (q^(n-1+i) + q^(n-1-i)).

    Satisfies C_n = (q - 1)^2 P_n; the tests enforce that identity."""
    if n < 1:
        raise ValueError("need n >= 1")
    a = divisor_coeff_vector(n)
    # exponents 0..2n-2 carry a_{n,n-1}, ..., a_{n,1}, a_{n,0}, ..., a_{n,n-1}
    return _raw({e: c for e, c in enumerate(a[:0:-1] + a) if c})


class CoeffTables(NamedTuple):
    """Both coefficient families of a single n.

    c[i] = c_{n,i} for 0 <= i <= n;  a[i] = a_{n,i} for 0 <= i <= n-1.
    """

    n: int
    c: tuple[int, ...]
    a: tuple[int, ...]

    @classmethod
    def build(cls, n: int, cn: LaurentPoly) -> "CoeffTables":
        """The tables of n from cn = count_poly(n), which the caller holds."""
        c = [0] * (n + 1)
        for e, value in cn.items():
            if e >= n:
                c[e - n] = value
        return cls(n, tuple(c), tuple(divisor_coeff_vector(n)))


def second_difference(a: tuple[int, ...]) -> tuple[int, ...]:
    """(a_{n,j+1} - 2a_{n,j} + a_{n,j-1} for j = 0..n) of the row
    a = (a_{n,0}, ..., a_{n,n-1}), with a_{n,n} = a_{n,n+1} = 0 and
    a_{n,-1} = a_{n,1} (P_n is palindromic about its central coefficient
    a_{n,0}).  The linking relation says it is C_n's row c_{n,0..n}: at
    j = 0 it reads c_{n,0} = -2a_{n,0} + 2a_{n,1}."""
    padded = (a[1] if len(a) > 1 else 0, *a, 0, 0)  # a_{n,j-1}, j = 0..n+2
    return tuple(x - 2 * y + z for x, y, z
                 in zip(padded, padded[1:], padded[2:]))


def reduced_generating_sides(order: int) -> Iterator[tuple[LaurentPoly, LaurentPoly]]:
    """Yield (left, right) at t^n for n = 1..order of the reduced
    generating identity

      sum_n (P_n(q)/q^(n-1)) t^n  =
      sum_{k>=1} (-1)^(k-1) t^(k(k+1)/2) (1 + t^k) / ((1 - q t^k)(1 - q^(-1) t^k))

    as series over Laurent polynomials, both sides times 1 - q^2
    (injective on Laurent polynomials), where both are sparse.

    1/((1-qs)(1-s/q)) expands to sum_j (q^j + q^(j-2) + ... + q^(-j)) s^j,
    and 1 - q^2 times that block is q^(-j) - q^(j+2); 1 - q^2 times a run
    q^A + ... + q^B of P_n is q^A + q^(A+1) - q^(B+1) - q^(B+2).
    The q^i slice of the right side, sum_k (-1)^(k-1) t^(k(k+1)/2 + k|i|)
    / (1 - t^k), is the generating series of the column a_(n,|i|), so
    the identity covers every column through t^order.
    """
    rhs: list[dict[int, int]] = [{} for _ in range(order + 1)]
    for k in range(1, (isqrt(8 * order + 1) - 1) // 2 + 1):
        base = k * (k + 1) // 2
        sgn = 1 if k % 2 == 1 else -1
        for j, at in enumerate(range(base, order + 1, k)):
            for row in rhs[at:at + k + 1:k]:  # t^at and t^(at + k)
                row[-j] = row.get(-j, 0) + sgn
                row[j + 2] = row.get(j + 2, 0) - sgn
    for n in range(1, order + 1):
        lhs: dict[int, int] = {}
        for a, b in reduced_runs(n):
            for e, c in ((a, 1), (a + 1, 1), (b + 1, -1), (b + 2, -1)):
                lhs[e + 1 - n] = lhs.get(e + 1 - n, 0) + c
        yield LaurentPoly(lhs), LaurentPoly(rhs[n])
