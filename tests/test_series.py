import pytest

from hilbtorus.laurent import LaurentPoly
from hilbtorus.series import TruncatedSeries

from series_reference import invert


def test_constructor_pads_and_truncates():
    s = TruncatedSeries(4, [1, 2])
    assert s.coeffs == (1, 2, 0, 0, 0)
    assert TruncatedSeries(1, [5, 6, 7]).coeffs == (5, 6)


def test_coeff_bounds():
    s = TruncatedSeries(3, [1])
    assert s.coeff(0) == 1
    with pytest.raises(IndexError):
        s.coeff(4)
    with pytest.raises(IndexError):
        s.coeff(-1)


def test_arithmetic():
    t = TruncatedSeries(5, [0, 1])
    s = (1 - t) * (1 + t)
    assert s.coeffs == (1, 0, -1, 0, 0, 0)
    assert (s - s).coeffs == (0,) * 6
    assert (2 * t).coeffs == (0, 2, 0, 0, 0, 0)


def test_mul_truncates_to_smaller_order():
    a = TruncatedSeries(5, [1] * 6)
    b = TruncatedSeries(3, [1] * 4)
    assert (a * b).order == 3


def test_invert_quadratic_denominator_gives_balanced_sums():
    # 1/(1 - (q + 1/q) t + t^2) = sum_k (q^k + q^(k-2) + ... + q^-k) t^k
    q = LaurentPoly({1: 1})
    u = q + LaurentPoly({-1: 1})
    order = 8
    ut = TruncatedSeries(order, [0, u])
    t2 = TruncatedSeries(order, [0, 0, 1])
    inv = invert(1 - ut + t2)
    assert inv.coeff(1) == u
    assert inv.coeff(2) == LaurentPoly({2: 1, 0: 1, -2: 1})
    for k in range(order + 1):  # q^k + q^(k-2) + ... + q^(-k)
        assert inv.coeff(k) == LaurentPoly(dict.fromkeys(range(-k, k + 1, 2), 1))


def test_shift():
    s = TruncatedSeries(4, [1, 2, 3])
    assert s.shift(2).coeffs == (0, 0, 1, 2, 3)
    with pytest.raises(ValueError):
        s.shift(-1)


def test_structural_equality_requires_same_order():
    assert TruncatedSeries(3, [1]) != TruncatedSeries(4, [1])
    assert TruncatedSeries(3, [1]) == TruncatedSeries(3, [1, 0])
