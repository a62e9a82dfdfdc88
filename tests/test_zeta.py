"""Tests for the local zeta factorizations.

The four worked factorizations (n = 1, 3, 5, 6) are frozen as exponent
multisets, and n = 1 also as its rational function and its Hasse-Weil
product; the factored form matches the point counts at every prime
power, one identity of Laurent polynomials against the divisor route, and
the zeta suite fails when one coefficient of the factored form is off.
The functional-equation certificate reads off each of its three
conditions, also for an exponent whose partner is missing.
"""

import pytest

from hilbtorus import verify, zeta
from hilbtorus.errors import VerificationError
from hilbtorus.laurent import LaurentPoly
from hilbtorus.zeta import (
    ZetaRational,
    build_local_zeta,
    functional_equation_certificate,
)

from laurent_ring import Poly
from zeta_reference import denominator_exponents, numerator_exponents


def test_one_point_factorization():
    z = build_local_zeta(1)
    assert z.factors == ((0, 1), (1, -2), (2, 1))
    assert numerator_exponents(z) == [1, 1]
    assert denominator_exponents(z) == [0, 2]
    assert z.pretty() == "(1 - q t)^2 / ((1 - t)(1 - q^2 t))"


def test_hasse_weil_one_point():
    assert build_local_zeta(1).hasse_weil() == (
        "zeta(s) zeta(s - 2) / zeta(s - 1)^2")


def test_frozen_exponent_multisets():
    frozen = {
        1: ([1, 1], [0, 2]),
        3: ([1, 2, 4, 5], [0, 3, 3, 6]),
        5: ([1, 3, 7, 9], [0, 4, 6, 10]),
        6: ([1, 6, 6, 11], [0, 5, 7, 12]),
    }
    for n, (num, den) in frozen.items():
        z = build_local_zeta(n)
        assert sorted(numerator_exponents(z)) == num, n
        assert sorted(denominator_exponents(z)) == den, n


def test_three_point_pretty():
    assert build_local_zeta(3).pretty() == (
        "(1 - q t)(1 - q^2 t)(1 - q^4 t)(1 - q^5 t)"
        " / ((1 - t)(1 - q^3 t)^2(1 - q^6 t))"
    )


def test_multiplicity_lookup():
    m = dict(build_local_zeta(3).factors)
    assert m.get(3, 0) == 2
    assert m.get(1, 0) == -1
    assert m.get(17, 0) == 0


def test_series_check_small():
    # spot values first: C_1(q0) = (q0 - 1)^2
    from hilbtorus.coeffs import count_poly, reduced_times_square

    c1 = count_poly(1)
    assert [c1.evaluate_int(v) for v in (2, 4, 8)] == [1, 9, 49]
    c2 = count_poly(2)
    assert [c2.evaluate_int(v) for v in (2, 4)] == [7, 189]
    for n in range(1, 12):
        z = build_local_zeta(n)
        assert LaurentPoly(dict(z.factors)) == reduced_times_square(n), n
        # the identity it checks, read as series: the t^m coefficient of
        # t Z'/Z is the point count over F_(q0^m)
        for q0 in (2, 3):
            for m in range(1, 9):
                x = q0 ** m
                assert sum(mult * x ** e for e, mult in z.factors) \
                    == reduced_times_square(n).evaluate_int(x), (n, q0, m)


def test_series_check_detects_corruption(monkeypatch):
    # c_(5,1) off by one in the factored form, with c_(5,0) moved so that
    # the certificate still holds, must fail the point counts
    good = zeta.coeffs.count_poly

    def corrupted(n):
        return good(n) + Poly({6: 1, 5: -2, 4: 1} if n == 5 else {})

    monkeypatch.setattr(zeta.coeffs, "count_poly", corrupted)
    with pytest.raises(VerificationError) as info:
        verify.verify_zeta(max_n=5)
    exc = info.value
    assert (exc.identity, exc.index) == ("zeta log-derivative vs point count",
                                         "n=5")
    # the three corrupted factors
    assert Poly(exc.got) - exc.want == Poly({6: 1, 5: -2, 4: 1})
    assert str(exc) == f"{exc.identity} at {exc.index}: {exc.got!r} != {exc.want!r}"


def test_certificate_fails_on_asymmetry():
    cases = (
        (((0, 1), (1, -1)), (False, 0, 0)),         # m(0) != m(4)
        (((0, 1),), (False, 1, 0)),                  # m(0) = 1, no m(4)
        (((0, 1), (4, 1)), (True, 2, 0)),            # total degree 2
        (((0, 1), (2, -3), (4, 1)), (True, -1, 1)),  # odd central multiplicity
        (((0, 1), (2, -2), (4, 1)), (True, 0, 0)),   # all three hold
    )
    for factors, got in cases:
        assert functional_equation_certificate(ZetaRational(2, factors)) == got


def test_hasse_weil_symmetry():
    for n in range(1, 30):
        z = build_local_zeta(n)
        mm = dict(z.factors)
        for s0, m in z.factors:
            assert mm.get(2 * n - s0, 0) == m, (n, s0)


def test_pretty_degenerate_forms():
    assert ZetaRational(1, ((2, -1),)).pretty() == "(1 - q^2 t)"
    assert ZetaRational(1, ((0, 1),)).pretty() == "1 / (1 - t)"
    assert ZetaRational(1, ((0, 2),)).pretty() == "1 / (1 - t)^2"
