"""Tests for the closed-form coefficient routines.

The twelve smallest count polynomials and their reduced forms are frozen
here verbatim; everything else (the divisor enumerators, the generating
identity, linking relations) is checked against those or against the
closed-form row of coeffs_reference, which also builds the per-i reference
polynomial below.  divisor_intervals is also checked against the clipped
loop it replaced, its a_(n,i) against the per-i interval count of
coeffs_reference, and C_n(p) against the number of ideals counted by
linear algebra over F_p.
"""

from math import isqrt

import pytest

from hilbtorus import arith, zeta
from hilbtorus.coeffs import (
    CoeffTables,
    check_reduced_generating_identity,
    count_poly,
    divisor_coeff_vector,
    divisor_intervals,
    reduced_poly,
    reduced_runs,
    reduced_times_square,
)
from hilbtorus.errors import VerificationError
from hilbtorus.laurent import LaurentPoly

import coeffs_reference
from coeffs_reference import closed_form_row, divisor_coeff, trapezoidal_k
from ideal_count_reference import ideal_count


def count_poly_per_i(n):
    """C_n from the closed-form row: one isqrt probe for every i <= n."""
    coeffs = {}
    for i, c in enumerate(closed_form_row(n)):
        if c:
            coeffs[n + i] = c
            coeffs[n - i] = c
    return LaurentPoly(coeffs)


def sign_at(n, j):
    """s(j) of closed_form_row at one j: (-1)^k when n = k(k + 2j + 1)/2."""
    k = trapezoidal_k(n, j)
    return 0 if k is None else (-1) ** k


def clipped_intervals(n):
    """divisor_intervals as it was before it skipped the d <= sqrt(n/2):
    every divisor's run, clipped to 0 <= i <= n - 1, kept when not empty."""
    runs = []
    for d in arith.divisors(n):
        num = d * d - 2 * n
        lo = max(0, -(-num // (2 * d)))
        hi = min(n - 1, (2 * d * d - n - 1) // (2 * d))
        if lo <= hi:
            runs.append((lo, hi))
    return runs


def ones(exponents):
    return {e: 1 for e in exponents}


FROZEN_C = {
    1: {2: 1, 1: -2, 0: 1},
    2: {4: 1, 3: -1, 1: -1, 0: 1},
    3: {6: 1, 5: -1, 4: -1, 3: 2, 2: -1, 1: -1, 0: 1},
    4: {8: 1, 7: -1, 1: -1, 0: 1},
    5: {10: 1, 9: -1, 7: -1, 6: 1, 4: 1, 3: -1, 1: -1, 0: 1},
    6: {12: 1, 11: -1, 7: 1, 6: -2, 5: 1, 1: -1, 0: 1},
    7: {14: 1, 13: -1, 10: -1, 9: 1, 5: 1, 4: -1, 1: -1, 0: 1},
    8: {16: 1, 15: -1, 1: -1, 0: 1},
    9: {18: 1, 17: -1, 13: -1, 12: 1, 11: 1, 10: -1,
        8: -1, 7: 1, 6: 1, 5: -1, 1: -1, 0: 1},
    10: {20: 1, 19: -1, 11: -1, 10: 2, 9: -1, 1: -1, 0: 1},
    11: {22: 1, 21: -1, 16: -1, 15: 1, 7: 1, 6: -1, 1: -1, 0: 1},
    12: {24: 1, 23: -1, 15: 1, 14: -1, 10: -1, 9: 1, 1: -1, 0: 1},
}

FROZEN_P = {
    1: ones([0]),
    2: ones([2, 1, 0]),
    3: ones([4, 3, 1, 0]),
    4: ones(range(7)),
    5: ones([8, 7, 6, 2, 1, 0]),
    6: {**ones([10, 9, 8, 7, 6, 4, 3, 2, 1, 0]), 5: 2},
    7: ones([12, 11, 10, 9, 3, 2, 1, 0]),
    8: ones(range(15)),
    9: ones([16, 15, 14, 13, 12, 9, 8, 7, 4, 3, 2, 1, 0]),
    10: ones(e for e in range(19) if e != 9),
    11: ones([20, 19, 18, 17, 16, 15, 5, 4, 3, 2, 1, 0]),
    12: {**ones(list(range(14, 23)) + list(range(9))),
         **{e: 2 for e in range(9, 14)}},
}


@pytest.mark.parametrize("n", sorted(FROZEN_C))
def test_count_poly_frozen(n):
    assert count_poly(n) == LaurentPoly(FROZEN_C[n])


@pytest.mark.parametrize("n", sorted(FROZEN_P))
def test_reduced_poly_frozen(n):
    assert reduced_poly(n) == LaurentPoly(FROZEN_P[n])


def test_trapezoidal_k():
    # 6 = 1+2+3, 9 = 2+3+4, 2 is not a sum of consecutive integers from 1
    assert trapezoidal_k(6, 0) == 3
    assert trapezoidal_k(9, 1) == 3
    assert trapezoidal_k(2, 0) is None
    assert trapezoidal_k(10, 0) == 4
    with pytest.raises(ValueError):
        trapezoidal_k(0, 0)
    with pytest.raises(ValueError):
        trapezoidal_k(5, -1)


def test_trapezoidal_k_matches_direct_sum():
    for n in range(1, 200):
        for i in range(0, 20):
            hits = [k for k in range(1, 2 * n + 2)
                    if k * (k + 2 * i + 1) == 2 * n]
            assert trapezoidal_k(n, i) == (hits[0] if hits else None)


def test_central_coeff():
    triangular = {1: -2, 3: 2, 6: -2, 10: 2, 15: -2, 21: 2, 28: -2}
    for n in range(1, 30):
        assert closed_form_row(n)[0] == triangular.get(n, 0)


def test_offcentral_coeff():
    assert closed_form_row(2)[1:] == [-1, 1]
    assert closed_form_row(5)[2] == -1
    assert closed_form_row(4)[2] == 0
    assert [len(closed_form_row(n)) for n in (1, 2, 7)] == [2, 3, 8]
    with pytest.raises(ValueError):
        closed_form_row(0)


def test_offcentral_cases_never_collide():
    # the two trapezoidal representations are mutually exclusive, so the
    # internal assertion must never fire
    for n in range(1, 400):
        closed_form_row(n)


def test_closed_form_row_collision_guard(monkeypatch):
    # 6 = 1 + 2 + 3 puts k = 3 at j = 0; a false k = 1 at j = 1 sits next
    # to it, so both terms of c_(6,1) fire
    real = coeffs_reference.trapezoidal_k
    monkeypatch.setattr(coeffs_reference, "trapezoidal_k",
                        lambda n, j: 1 if (n, j) == (6, 1) else real(n, j))
    with pytest.raises(AssertionError,
                       match="collided at n=6, i=1: k=1 and k=3"):
        closed_form_row(6)


def test_divisor_coeff():
    assert divisor_coeff(1, 0) == 1
    assert divisor_coeff(5, 0) == 0
    assert divisor_coeff(6, 0) == 2
    assert divisor_coeff(12, 2) == 2
    with pytest.raises(ValueError):
        divisor_coeff(0, 0)
    with pytest.raises(ValueError):
        divisor_coeff(4, -1)


def test_divisor_coeff_vector_matches_scalar():
    for n in range(1, 200):
        vec = divisor_coeff_vector(n)
        assert len(vec) == n
        assert vec == [divisor_coeff(n, i) for i in range(n)]
        # beyond the stored range the count is zero
        assert divisor_coeff(n, n) == 0
        assert divisor_coeff(n, n + 1) == 0


def test_count_poly_matches_per_i_reference():
    for n in range(1, 1001):
        assert count_poly(n) == count_poly_per_i(n), n
    # a prime, a round number and 3 * 2^16 (many even divisors, skipped)
    for n in (99991, 10 ** 5, 196608):
        assert count_poly(n) == count_poly_per_i(n), n


def test_count_poly_collision_guard(monkeypatch):
    divisors = arith.divisors
    monkeypatch.setattr(arith, "divisors", lambda n: (1,) + divisors(n))
    with pytest.raises(AssertionError, match="collided at n=6"):
        count_poly(6)


def test_count_poly_reads_one_factorization(monkeypatch):
    # C_n and its zeta function ask arith about n alone, never about 2n
    asked = set()
    for name in ("divisors", "factorize"):
        cached = getattr(arith, name)
        monkeypatch.setattr(arith, name,
                            lambda m, cached=cached: asked.add(m) or cached(m))
    for n in range(1, 301):
        asked.clear()
        count_poly(n)
        zeta.build_local_zeta(n)
        assert asked == {n}, (n, asked)


def test_count_poly_has_four_terms_per_odd_divisor():
    # one fewer when n is triangular, where k(k + 1) = 2n puts 2s at q^n
    for n in range(1, 5001):
        odd = sum(d % 2 for d in arith.divisors(n))
        triangular = isqrt(8 * n + 1) ** 2 == 8 * n + 1
        assert len(list(count_poly(n).items())) == 4 * odd - triangular, n


def test_divisor_intervals_rebuild_vector():
    for n in range(1, 300):
        runs = divisor_intervals(n)
        assert len(runs) <= len(arith.divisors(n))
        vec = [0] * n
        for lo, hi in runs:
            assert 0 <= lo <= hi <= n - 1, (n, lo, hi)
            for i in range(lo, hi + 1):
                vec[i] += 1
        assert vec == divisor_coeff_vector(n), n
    with pytest.raises(ValueError):
        divisor_intervals(0)


def test_divisor_intervals_one_run_per_large_divisor():
    # every divisor above isqrt(n // 2) has a run, and none is empty
    for n in range(1, 10001):
        runs = divisor_intervals(n)
        large = [d for d in arith.divisors(n) if d > isqrt(n // 2)]
        assert len(runs) == len(large), n
        assert all(lo <= hi for lo, hi in runs), n


def test_divisor_intervals_match_clipped_loop():
    # the large n have divisor pairs d, n/d far apart, which the run bounds
    # from (d, n/d) must handle as the squared comparisons do
    for n in (*range(1, 20001), 10 ** 12, 2 ** 40, 720720 * 10 ** 6,
              3 ** 25, 5 ** 17):
        assert divisor_intervals(n) == clipped_intervals(n), n


def test_count_is_reduced_times_square():
    square = LaurentPoly({2: 1, 1: -2, 0: 1})
    for n in range(1, 120):
        assert count_poly(n) == reduced_poly(n) * square


def test_reduced_runs_rebuild_reduced_poly():
    for n in range(1, 300):
        terms = {}
        for a, b in reduced_runs(n):
            assert 0 <= a <= b + 1 <= 2 * n - 1, (n, a, b)
            for e in range(a, b + 1):
                terms[e] = terms.get(e, 0) + 1
        assert LaurentPoly(terms) == reduced_poly(n), n
    # the middle divisors 2 and 3 of 6 start their runs at i = 0, and the
    # run of 2, lo = hi = 0, has an empty lower half
    assert divisor_intervals(6) == [(0, 0), (0, 1), (2, 5)]
    assert reduced_runs(6) == [(5, 5), (5, 4), (5, 6), (4, 4), (7, 10), (0, 3)]


def test_sparse_reduced_times_square_is_count():
    # (q - 1)^2 P_n from the divisor runs of n against C_n from the odd
    # divisors of n: two enumerations of different divisors, at
    # every n <= 2000 and at large n with many divisors or few
    for n in (*range(1, 2001), 10 ** 12, 2 ** 40, 720720 * 10 ** 6,
              3 ** 25, 5 ** 17):
        assert reduced_times_square(n) == count_poly(n), n


def test_count_is_the_number_of_ideals_over_small_fields():
    # C_n(p) and (p - 1)^2 P_n(p) against the ideals of codimension n of
    # F_p[x^±1, y^±1] counted by linear algebra, with no closed form
    counts = {(n, p): ideal_count(n, p)
              for n, p in [(1, 2), (1, 3), (1, 5), (2, 2), (2, 3), (2, 5), (3, 2)]}
    assert counts == {(1, 2): 1, (1, 3): 4, (1, 5): 16, (2, 2): 7, (2, 3): 52,
                      (2, 5): 496, (3, 2): 27}
    for (n, p), count in counts.items():
        assert count_poly(n).evaluate_int(p) == count, (n, p)
        assert reduced_times_square(n).evaluate_int(p) == count, (n, p)


def test_frozen_numeric_columns():
    c_at_minus_one = [4, 4, 0, 4, 8, 0, 0, 4, 4, 8, 0, 0]
    p_at_one = [1, 3, 4, 7, 6, 12, 8, 15, 13, 18, 12, 28]
    p_at_minus_one = [1, 1, 0, 1, 2, 0, 0, 1, 1, 2, 0, 0]
    a_zero = [1, 1, 0, 1, 0, 2, 0, 1, 1, 0, 0, 2]
    for n in range(1, 13):
        assert count_poly(n).evaluate_int(-1) == c_at_minus_one[n - 1]
        assert reduced_poly(n).evaluate_int(1) == p_at_one[n - 1]
        assert reduced_poly(n).evaluate_int(-1) == p_at_minus_one[n - 1]
        assert divisor_coeff(n, 0) == a_zero[n - 1]


def test_coeff_tables_boundaries():
    t = CoeffTables.build(5, count_poly(5))
    assert t.a_at(-1) == 0
    assert t.a_at(5) == 0
    assert t.a_at(6) == 0
    assert t.a_at(0) == t.a[0]


def test_corrupted_linking_detected():
    t = CoeffTables.build(6, count_poly(6))
    for i in (0, 3):  # the boundary form at i = 0, the interior form at i >= 1
        bad = CoeffTables(6, t.c[:i] + (t.c[i] + 1,) + t.c[i + 1:], t.a)
        with pytest.raises(VerificationError) as info:
            bad.check_linking()
        exc = info.value
        assert (exc.index, exc.got, exc.want) == (f"n=6, i={i}", t.c[i] + 1, t.c[i])
        assert str(exc) == f"{exc.identity} at n=6, i={i}: {t.c[i] + 1} != {t.c[i]}"


def test_reduced_generating_identity():
    check_reduced_generating_identity(40)


def test_enumerators_property_at_large_n():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, max_examples=60, deadline=None)
    @hypothesis.given(n=st.integers(1, 10 ** 6), data=st.data())
    def check(n, data):
        cn = count_poly(n)
        assert cn.evaluate_int(1) == 0
        drawn = data.draw(st.lists(st.integers(0, n), max_size=5))
        for i in {abs(e - n) for e, _ in cn.items()} | set(drawn):
            want = (2 * sign_at(n, 0) if i == 0
                    else sign_at(n, i) - sign_at(n, i - 1))
            assert cn.coeff(n + i) == cn.coeff(n - i) == want, (n, i)

    check()


def test_count_is_reduced_times_square_at_integers_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, max_examples=30, deadline=None)
    @hypothesis.given(n=st.integers(1, 2000), q0=st.integers(2, 5))
    def check(n, q0):
        assert (q0 - 1) ** 2 * reduced_poly(n).evaluate_int(q0) \
            == count_poly(n).evaluate_int(q0)

    check()
