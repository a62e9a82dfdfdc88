"""Elementary arithmetic functions used by the closed-form counts.

Everything here is exact integer arithmetic; square roots go through
math.isqrt and lattice counts enumerate actual representations, so these
functions double as independent oracles for the q-series identities.
"""

from __future__ import annotations

import functools
from math import isqrt


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def exact_div(num: int, den: int, what: str) -> int:
    """num / den, raising ArithmeticError, labelled by what, on a remainder."""
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{what}: {num} is not divisible by {den}")
    return q


# Enough for every n <= 10^4 that verify's arith suite factorizes; a bound,
# so that long runs such as compute sections over a wide range keep a
# fixed footprint.
FACTORIZE_CACHE_SIZE = 1 << 14


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

def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == ((n, 1),)


def divisors(n: int) -> list[int]:
    """All positive divisors, ascending."""
    if n < 1:
        raise ValueError("divisors expects n >= 1")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def sigma(n: int) -> int:
    """Sum of divisors."""
    total = 1
    for p, e in factorize(n):
        total *= (p ** (e + 1) - 1) // (p - 1)
    return total


def r2(n: int) -> int:
    """Number of (x, y) in Z^2 with x^2 + y^2 = n."""
    if n < 0:
        raise ValueError("r2 expects n >= 0")
    if n == 0:
        return 1
    count = 0
    for x in range(isqrt(n) + 1):
        rem = n - x * x
        if rem == 0:
            count += 1 if x == 0 else 2
        elif is_square(rem):
            count += 2 if x == 0 else 4
    return count


def r_prime(n: int) -> int:
    """Number of (x, y) in Z^2 with x^2 + 2 y^2 = n."""
    if n < 0:
        raise ValueError("r_prime expects n >= 0")
    if n == 0:
        return 1
    count = 0
    y = 0
    while 2 * y * y <= n:
        rem = n - 2 * y * y
        if rem == 0:
            count += 1 if y == 0 else 2
        elif is_square(rem):
            count += 2 if y == 0 else 4
        y += 1
    return count


def r_hex(n: int) -> int:
    """Number of (x, y) in Z^2 with x^2 + x y + y^2 = n.

    For fixed x the equation is quadratic in y with discriminant 4n - 3x^2,
    so one pass over x with an exact square test covers the whole lattice.
    """
    if n < 0:
        raise ValueError("r_hex expects n >= 0")
    if n == 0:
        return 1
    count = 0
    x = 0
    while 3 * x * x <= 4 * n:
        disc = 4 * n - 3 * x * x
        d = isqrt(disc)
        if d * d == disc:
            for s in ((d,) if d == 0 else (d, -d)):
                if (s - x) % 2 == 0:
                    count += 1 if x == 0 else 2  # x and -x give distinct pairs
        x += 1
    return count


def excess_e1(n: int) -> int:
    """(# divisors == 1 mod 3) - (# divisors == 2 mod 3); zero for n = 0."""
    if n < 0:
        raise ValueError("excess_e1 expects n >= 0")
    if n == 0:
        return 0
    total = 0
    for d in divisors(n):
        r = d % 3
        if r == 1:
            total += 1
        elif r == 2:
            total -= 1
    return total


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
    """Count divisors d of n with sqrt(n/2) < d <= sqrt(2n), exactly."""
    if n < 1:
        raise ValueError("middle_divisors expects n >= 1")
    count = 0
    for d in divisors(n):
        sq = d * d
        if 2 * sq > n and sq <= 2 * n:
            count += 1
    return count
