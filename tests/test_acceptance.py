"""Acceptance suite: the eight gate criteria, one test and one printed
pass/fail line each (run with -s to see the lines as they happen).

Each criterion re-runs its checks from scratch at the stated sizes and
asserts the stated wall-clock budget.  Frozen expected values are imported
from the per-module test files so there is a single copy of each grid.
"""

import time

from hilbtorus import coeffs, rootvalues, tables, verify, zeta
from hilbtorus.laurent import LaurentPoly

from coeffs_reference import closed_form_row, trapezoidal_k
from test_coeffs import FROZEN_C, FROZEN_P
from test_tables import ABS_ROOT_ROWS, C_AT_MINUS_ONE, REDUCED_COLUMNS, SECTION_ROWS
from zeta_reference import denominator_exponents, numerator_exponents


def criterion(num, label, budget, work):
    start = time.perf_counter()
    try:
        work()
    except BaseException:
        print(f"FAIL criterion {num}: {label}")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label} "
          f"({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {num} exceeded its budget: {elapsed:.2f}s"


def test_criterion_1_table_reproduction():
    def work():
        data = tables.table_data(1)
        assert len(data["rows"]) == 12
        for n, row in enumerate(data["rows"], start=1):
            assert row == (n, LaurentPoly(FROZEN_C[n]).pretty(),
                           C_AT_MINUS_ONE[n - 1]), n

        data = tables.table_data(2)
        assert len(data["rows"]) == 12
        for n, row in enumerate(data["rows"], start=1):
            want = (n, LaurentPoly(FROZEN_P[n]).pretty()) + REDUCED_COLUMNS[n - 1]
            assert row == want, n

        data = tables.table_data(3)
        assert len(data["rows"]) == 18
        for col, d in enumerate((2, 3, 4, 6), start=1):
            assert [row[col] for row in data["rows"]] == ABS_ROOT_ROWS[d], d

        data = tables.table_data(4)
        assert len(data["rows"]) == 18
        for col, k in enumerate((2, 3, 4, 6), start=1):
            assert [row[col] for row in data["rows"]] == SECTION_ROWS[k], k

    criterion(1, "tables 1-4 cell-for-cell", 1.0, work)


def test_criterion_2_triple_oracle_coefficients():
    criterion(2, "product/closed-form/reduced agreement to n = 300", 60.0,
              lambda: verify.verify_coeffs(max_n=300))


def test_criterion_3_root_value_three_way():
    criterion(3, "root-of-unity three-way agreement to n = 2000", 60.0,
              lambda: verify.verify_roots(max_n=2000))


def test_criterion_4_q_series_identities():
    criterion(4, "q-series identities to order 2000", 30.0,
              lambda: verify.verify_qseries(order=2000))


def test_criterion_5_zeta_certificates():
    def work():
        verify.verify_zeta(max_n=100)
        displayed = {
            3: ([1, 2, 4, 5], [0, 3, 3, 6]),
            5: ([1, 3, 7, 9], [0, 4, 6, 10]),
            6: ([1, 6, 6, 11], [0, 5, 7, 12]),
        }
        for n, (num, den) in displayed.items():
            z = zeta.build_local_zeta(n)
            assert sorted(numerator_exponents(z)) == num, n
            assert sorted(denominator_exponents(z)) == den, n

    criterion(5, "zeta certificates, series checks, worked factorizations",
              10.0, work)


def test_criterion_6_arithmetic_laws():
    criterion(6, "arithmetic-function laws to n = 10^4", 30.0,
              lambda: verify.verify_arith(max_n=10000))


def a_at(vec, i):
    """a_(n,i) from vec = [a_(n,0), ..., a_(n,n-1)], with a_(n,n) = a_(n,n+1) = 0."""
    return vec[i] if 0 <= i < len(vec) else 0


def test_criterion_7_property_suite():
    def work():
        # coefficient nonnegativity, size bounds, smoothness, and C_n(1) = 0
        for n in range(1, 1001):
            vec = coeffs.divisor_coeff_vector(n)
            assert all(v >= 0 for v in vec), n
            c = closed_form_row(n)
            assert abs(c[0]) in (0, 2), n
            assert all(abs(ci) <= 1 for ci in c[1:]), n
            for i in range(n + 1):
                prev = a_at(vec, 1) if i == 0 else a_at(vec, i - 1)
                assert abs(2 * a_at(vec, i) - prev - a_at(vec, i + 1)) <= 2, (n, i)
            assert c[0] + 2 * sum(c[1:]) == 0, n  # C_n(1) = 0

        # the two trapezoidal cases never coincide (the closed form asserts)
        for n in range(1, 10001):
            ks = [trapezoidal_k(n, j) for j in range(101)]
            for i in range(1, 101):
                assert ks[i] is None or ks[i - 1] is None, (n, i)

        # some n force a repeated reduced coefficient
        for n in (6, 12, 18, 20, 24, 28, 30):
            assert max(coeffs.divisor_coeff_vector(n)) >= 2, n

        # growth bound at small prime powers
        for q0 in (2, 3, 5):
            for n in range(1, 51):
                bound = q0 ** n + (q0 ** (2 * n + 1) - 1) // (q0 - 1)
                assert abs(coeffs.count_poly(n).evaluate_int(q0)) <= bound, (q0, n)

        # C_n(1) = 0 straight off the polynomial as well
        for n in range(1, 301):
            assert coeffs.count_poly(n).evaluate_int(1) == 0, n

    criterion(7, "coefficient property suite", 30.0, work)


def test_criterion_8_punctual_values():
    def work():
        assert coeffs.count_poly(1).evaluate_int(-1) == 4
        assert coeffs.count_poly(5).evaluate_int(-1) == 8
        assert coeffs.reduced_poly(6).evaluate_int(1) == 12
        assert coeffs.reduced_poly(12).evaluate_int(1) == 28
        assert coeffs.divisor_coeff_vector(6)[0] == 2
        assert abs(rootvalues.root_sequence(9, 4)) == 6
        assert rootvalues.section_formula(12, 2) == 14
        assert rootvalues.section_formula(12, 3) == 10

    criterion(8, "punctual table values", 1.0, work)
