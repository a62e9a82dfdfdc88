"""Tests for the elementary arithmetic layer.

The representation counts (r2, r_prime, r_hex) get independent brute-force
oracles here: literal loops over a lattice box, written as plainly as
possible so they cannot share a bug with the production product forms or
with the ellipse sweep lattice_counts.  divisors, built from factorize, is
checked against the trial-division loop it replaced, and hypothesis
properties tie divisors, sigma and r2 together at n <= 10^10.
"""

from math import isqrt, prod

import pytest

from hilbtorus.arith import (
    divisors,
    excess_e1,
    factorize,
    lambda_fn,
    lattice_counts,
    middle_divisors,
    r2,
    r_hex,
    r_prime,
    sigma,
)


def brute_r2(n):
    m = 0
    for x in range(-n, n + 1):
        for y in range(-n, n + 1):
            if x * x + y * y == n:
                m += 1
    return m


def brute_r_prime(n):
    m = 0
    for x in range(-n, n + 1):
        for y in range(-n, n + 1):
            if x * x + 2 * y * y == n:
                m += 1
    return m


def brute_r_hex(n):
    m = 0
    for x in range(-2 * n, 2 * n + 1):
        for y in range(-2 * n, 2 * n + 1):
            if x * x + x * y + y * y == n:
                m += 1
    return m


def brute_form_counts(b, c, limit):
    """#{(x, y) : x^2 + bxy + cy^2 = m} for m <= limit, over a box that
    holds the whole ellipse (the forms tested are >= (x^2 + y^2) / 2)."""
    box = isqrt(2 * limit) + 1
    counts = [0] * (limit + 1)
    for x in range(-box, box + 1):
        for y in range(-box, box + 1):
            m = x * x + b * x * y + c * y * y
            if m <= limit:
                counts[m] += 1
    return counts


def trial_divisors(n):
    """All divisors of n by trial division up to sqrt(n), ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


def test_factorize_small():
    assert factorize(1) == ()
    assert factorize(2) == ((2, 1),)
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(9973) == ((9973, 1),)
    assert factorize(2 * 3 * 5 * 7 * 11) == ((2, 1), (3, 1), (5, 1), (7, 1), (11, 1))
    with pytest.raises(ValueError):
        factorize(0)


def _sieve(limit):
    sieve = [True] * (limit + 1)
    sieve[0] = sieve[1] = False
    for p in range(2, limit + 1):
        if sieve[p]:
            for m in range(p * p, limit + 1, p):
                sieve[m] = False
    return sieve


def test_factorize_recomposes():
    sieve = _sieve(1000)
    for n in range(1, 1001):
        prod = 1
        for p, e in factorize(n):
            assert sieve[p]
            prod *= p ** e
        assert prod == n


def test_is_prime_matches_sieve():
    # n is prime exactly when factorize(n) is the single factor (n, 1).
    sieve = _sieve(1000)
    for n in range(1, 1001):
        assert (factorize(n) == ((n, 1),)) == sieve[n]


def test_divisors():
    assert divisors(1) == (1,)
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert divisors(49) == (1, 7, 49)
    with pytest.raises(ValueError):
        divisors(0)
    for n in range(1, 300):
        ds = divisors(n)
        assert list(ds) == sorted(ds)
        assert all(n % d == 0 for d in ds)
        assert len(ds) == sum(1 for d in range(1, n + 1) if n % d == 0)


def test_divisors_match_trial_division():
    for n in range(1, 20001):
        assert divisors(n) == trial_divisors(n), n


def test_divisor_properties():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, max_examples=50, deadline=None)
    @hypothesis.given(n=st.integers(1, 10 ** 10))
    def check(n):
        ds = divisors(n)
        assert list(ds) == sorted(ds)
        assert all(n % d == 0 for d in ds)
        assert len(ds) == prod(e + 1 for _, e in factorize(n))
        assert sum(ds) == sigma(n)
        chi = {1: 1, 3: -1}  # the character mod 4 of Q(i), 0 on even d
        assert r2(n) == 4 * sum(chi.get(d % 4, 0) for d in ds)

    check()


def test_sigma_frozen_and_brute():
    frozen = {1: 1, 2: 3, 3: 4, 4: 7, 5: 6, 6: 12, 12: 28, 28: 56, 100: 217}
    for n, want in frozen.items():
        assert sigma(n) == want
    for n in range(1, 300):
        assert sigma(n) == sum(divisors(n))


@pytest.mark.parametrize(
    "n, want",
    [(0, 1), (1, 4), (2, 4), (3, 0), (4, 4), (5, 8), (6, 0), (7, 0), (25, 12)],
)
def test_r2_frozen(n, want):
    assert r2(n) == want


@pytest.mark.parametrize(
    "n, want",
    [(0, 1), (1, 2), (2, 2), (3, 4), (4, 2), (5, 0), (6, 4), (9, 6), (11, 4)],
)
def test_r_prime_frozen(n, want):
    assert r_prime(n) == want


@pytest.mark.parametrize(
    "n, want",
    [(0, 1), (1, 6), (2, 0), (3, 6), (4, 6), (5, 0), (7, 12), (12, 6), (13, 12)],
)
def test_r_hex_frozen(n, want):
    assert r_hex(n) == want


def test_representation_counts_match_brute_force():
    for n in range(0, 60):
        assert r2(n) == brute_r2(n)
        assert r_prime(n) == brute_r_prime(n)
        assert r_hex(n) == brute_r_hex(n)


@pytest.mark.parametrize("b, c", [(0, 1), (0, 2), (1, 1)])
def test_lattice_counts_match_box(b, c):
    assert lattice_counts(b, c, 2000) == brute_form_counts(b, c, 2000)


def test_product_forms_match_lattice_counts():
    for form, b, c in ((r2, 0, 1), (r_prime, 0, 2), (r_hex, 1, 1)):
        counts = lattice_counts(b, c, 5000)
        assert [form(n) for n in range(5001)] == counts, form.__name__


def test_r2_negative_rejected():
    with pytest.raises(ValueError):
        r2(-1)
    with pytest.raises(ValueError):
        r_prime(-3)
    with pytest.raises(ValueError):
        r_hex(-2)


def test_excess_e1():
    # divisors of 12 are 1,2,3,4,6,12 with residues 1,2,0,1,0,0
    assert excess_e1(12) == 1
    assert excess_e1(0) == 0
    assert excess_e1(1) == 1
    assert excess_e1(7) == 2
    for n in range(1, 200):
        ones = sum(1 for d in divisors(n) if d % 3 == 1)
        twos = sum(1 for d in divisors(n) if d % 3 == 2)
        assert excess_e1(n) == ones - twos


def test_r_hex_is_six_times_divisor_excess():
    for n in range(1, 400):
        assert r_hex(n) == 6 * excess_e1(n)


@pytest.mark.parametrize(
    "n, want",
    [
        (1, 1),
        (2, 0),      # p = 2 mod 6, odd exponent
        (3, -2),
        (4, 1),      # 2^2, even exponent
        (7, 2),      # p = 1 mod 6
        (9, -2),     # any power of 3
        (13, 2),
        (49, 3),
        (6, 0),
        (12, -2),    # 2^2 * 3
        (91, 4),     # 7 * 13
    ],
)
def test_lambda_fn_frozen(n, want):
    assert lambda_fn(n) == want


def test_lambda_fn_divisor_route():
    for n in range(1, 600):
        want = excess_e1(n)
        if n % 3 == 0:
            want -= 3 * excess_e1(n // 3)
        assert lambda_fn(n) == want


def test_lambda_fn_multiplicative():
    # every coprime pair 2 <= m < n with mn <= 10^4
    from math import gcd

    top = 10**4
    lam = [0] + [lambda_fn(n) for n in range(1, top + 1)]
    pairs = [(m, n) for m in range(2, isqrt(top) + 1)
             for n in range(m + 1, top // m + 1) if gcd(m, n) == 1]
    assert len(pairs) == 21935
    assert [(m, n, lam[m * n], lam[m] * lam[n]) for m, n in pairs
            if lam[m * n] != lam[m] * lam[n]] == []


def test_middle_divisors():
    assert middle_divisors(1) == 1
    assert middle_divisors(5) == 0
    assert middle_divisors(6) == 2
    assert middle_divisors(12) == 2
    with pytest.raises(ValueError):
        middle_divisors(0)
    for n in range(1, 300):
        want = sum(
            1 for d in divisors(n) if 2 * d * d > n and d * d <= 2 * n
        )
        assert middle_divisors(n) == want
