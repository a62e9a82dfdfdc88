"""Elementary arithmetic functions used by the closed-form counts.

Everything here is exact integer arithmetic.  factorize is the one
primitive: divisors, sigma, lambda and the lattice counts r, r', r'' are
read off the factorization, the counts as products over split and inert
primes (Jacobi's two-square theorem and its analogues for x^2 + 2y^2 and
x^2 + xy + y^2).  divisors and factorize keep their last few answers as
tuples, since their callers ask about one n several times in a row.
lattice_counts enumerates the lattice points themselves; it is the
independent route that verify's arith suite checks those products against.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from math import isqrt


def exact_div(num: int, den: int, what: str, *args) -> int:
    """num / den, raising ArithmeticError on a remainder, labelled by
    what.format(*args), which is built only then."""
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(
            f"{what.format(*args)}: {num} is not divisible by {den}")
    return q


# Callers ask about one n a few times in a row (verify's arith suite six
# times, its sections suite eight or nine, compute about n alone) and
# seldom later; keeping every n of a verify run (10^4) would hold 2.8 MB
# to save 3,844 trial divisions.
FACTORIZE_CACHE_SIZE = 16


@functools.lru_cache(maxsize=FACTORIZE_CACHE_SIZE)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization as ((p, e), ...) with p ascending.

    Plain trial division; the cofactor left after dividing out everything
    up to sqrt(n) is necessarily prime.
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    p = 5
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 2 if p % 6 == 5 else 4  # walk 5, 7, 11, 13, 17, ...
    if n > 1:
        out.append((n, 1))
    return tuple(out)


# Callers ask for one n several times in a row and rarely come back to it
# later, so a few entries catch the repeats.  Per n, verify's arith suite
# calls divisors four times, its sections and roots suites once, its zeta
# suite twice and its coeffs suite four times, the fourth (a later pass)
# a miss.  Its tables suite misses all 90 calls: it builds 18 n one table
# at a time, more than the 16 entries hold.  A small bound also keeps the
# footprint fixed, as an n near 10^14 can have thousands of divisors.
DIVISORS_CACHE_SIZE = 16


@functools.lru_cache(maxsize=DIVISORS_CACHE_SIZE)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors, ascending: the products of n's prime powers.

    A tuple, because the cache hands the same object to every caller, who
    must not be able to change it for the next one."""
    if n < 1:
        raise ValueError("divisors expects n >= 1")
    out = [1]
    for p, e in factorize(n):
        power = out
        for _ in range(e):
            power = [d * p for d in power]
            out += power
    out.sort()
    return tuple(out)


def sigma(n: int) -> int:
    """Sum of divisors."""
    total = 1
    for p, e in factorize(n):
        total *= (p ** (e + 1) - 1) // (p - 1)
    return total


def _form_count(n: int, name: str, units: int, modulus: int, split) -> int:
    """units * prod (e + 1) over the split primes p^e || n (p mod modulus in
    split), or 0 if an inert prime has an odd exponent e.  The one prime
    dividing modulus ramifies and contributes 1; every other prime is inert."""
    if n < 0:
        raise ValueError(f"{name} expects n >= 0")
    if n == 0:
        return 1
    total = units
    for p, e in factorize(n):
        if p % modulus in split:
            total *= e + 1
        elif modulus % p and e % 2:
            return 0
    return total


def r2(n: int) -> int:
    """Number of (x, y) in Z^2 with x^2 + y^2 = n; split p = 1 mod 4."""
    return _form_count(n, "r2", 4, 4, (1,))


def r_prime(n: int) -> int:
    """Number of (x, y) in Z^2 with x^2 + 2 y^2 = n; split p = 1, 3 mod 8."""
    return _form_count(n, "r_prime", 2, 8, (1, 3))


def r_hex(n: int) -> int:
    """Number of (x, y) in Z^2 with x^2 + x y + y^2 = n; split p = 1 mod 3."""
    return _form_count(n, "r_hex", 6, 3, (1,))


def lattice_counts(b: int, c: int, limit: int) -> list[int]:
    """[#{(x, y) in Z^2 : x^2 + b x y + c y^2 = m} for m in 0..limit] for a
    positive definite form, visiting each point of the ellipse once: with
    D = 4c - b^2 > 0, 4 (x^2 + bxy + cy^2) = (2x + by)^2 + D y^2."""
    disc = 4 * c - b * b
    counts = [0] * (limit + 1)
    ymax = isqrt(4 * limit // disc)
    for y in range(-ymax, ymax + 1):
        s = isqrt(4 * limit - disc * y * y)  # |2x + by| <= s
        cy2 = c * y * y
        for x in range(-((s + b * y) // 2), (s - b * y) // 2 + 1):
            counts[x * (x + b * y) + cy2] += 1
    return counts


def excess_e1(n: int) -> int:
    """(# divisors == 1 mod 3) - (# divisors == 2 mod 3); zero for n = 0."""
    if n < 0:
        raise ValueError("excess_e1 expects n >= 0")
    if n == 0:
        return 0
    residues = [d % 3 for d in divisors(n)]
    return residues.count(1) - residues.count(2)


def lambda_fn(n: int) -> int:
    """The multiplicative function with lambda(3^e) = -2,
    lambda(p^e) = e + 1 for p = 1 mod 6, and (1 + (-1)^e)/2 for p = 2, 5 mod 6.

    Equals excess_e1(n) - 3 * excess_e1(n / 3) (with the second term dropped
    when 3 does not divide n); tests check the two routes against each other.
    """
    total = 1
    for p, e in factorize(n):
        if p == 3:
            total *= -2
        elif p % 6 == 1:
            total *= e + 1
        else:  # p = 2 or 5 mod 6
            if e % 2 == 1:
                return 0
    return total


def middle_divisors(n: int) -> int:
    """Count divisors d of n with sqrt(n/2) < d <= sqrt(2n), exactly: the
    integer d with isqrt(n // 2) < d <= isqrt(2n), by two bisections."""
    if n < 1:
        raise ValueError("middle_divisors expects n >= 1")
    ds = divisors(n)
    return bisect_right(ds, isqrt(2 * n)) - bisect_right(ds, isqrt(n // 2))
