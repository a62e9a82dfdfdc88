"""Tests for root-of-unity values and section sums.

The closed forms, and the residue-class fold evaluate_at_roots, are checked
against the one route that cannot be argued with: build the count
polynomial itself and evaluate it at an exact cyclotomic root, power by
power (LaurentPoly.evaluate), with the roots and their powers built here
from CycInt rather than read from rootvalues' literal table; the fold for
all four roots at once is also checked against the one-d-at-a-time fold it
replaced.  The closed forms a_d(n) are also checked against the
coefficients of the root products at every n <= 2000.  Every value must
stay exact: an int at d = 2, a cyclotomic integer otherwise, never a float.
"""

import re

import pytest

from hilbtorus import arith
from hilbtorus.arith import exact_div
from hilbtorus.coeffs import count_poly, reduced_poly, reduced_residue_sums
from hilbtorus.cyclotomic import CycInt
from hilbtorus.laurent import LaurentPoly
from hilbtorus.qseries import expand_root_product
from hilbtorus.rootvalues import (
    ROOT_ORDERS,
    SECTION_KS,
    count_at_root,
    evaluate_at_roots,
    fold_at_roots,
    root_sequence,
    section_direct,
    section_formula,
    section_formulas,
)

from laurent_ring import Poly

W3 = CycInt(3, 0, 1)


def omega(d):
    """The primitive d-th root w that rootvalues' table holds the powers of:
    -1, the order-3 root, i, and minus the order-3 root."""
    return {2: -1, 3: W3, 4: CycInt(4, 0, 1), 6: CycInt(3, 0, -1)}[d]


# POWERS[d][k] = w^k for 0 <= k < d, raised with the ring arithmetic
POWERS = {d: [omega(d) ** k for k in range(d)] for d in ROOT_ORDERS}


def reduced_at_root(n, d):
    """P_n(w) = w^(n-1) a_d(n) / (w + 1/w - 2) at w = omega(d), since
    P_n = C_n/(q-1)^2 and (w - 1)^2 = w (w + 1/w - 2)."""
    t = {2: -4, 3: -3, 4: -2, 6: -1}[d]  # w + 1/w - 2
    return omega(d) ** ((n - 1) % d) * exact_div(root_sequence(n, d), t,
                                                 f"P_{n} at the order-{d} root")


def test_omega_orders():
    assert omega(2) == -1
    for d in (3, 4, 6):
        w = omega(d)
        assert w ** d == 1
        for m in range(1, d):
            assert w ** m != 1, (d, m)


@pytest.mark.parametrize("d", ROOT_ORDERS)
def test_count_at_root_matches_direct_evaluation(d):
    w = omega(d)
    for n in range(1, 60):
        direct = count_poly(n).evaluate(w)
        assert count_at_root(n, d) == direct, (n, d)


@pytest.mark.parametrize("d", ROOT_ORDERS)
def test_reduced_at_root_matches_direct_evaluation(d):
    w = omega(d)
    for n in range(1, 60):
        assert reduced_at_root(n, d) == reduced_poly(n).evaluate(w), (n, d)


@pytest.mark.parametrize("d", ROOT_ORDERS)
def test_evaluate_at_root_matches_direct_evaluation(d):
    w = omega(d)
    for n in range(1, 60):
        cn = Poly(count_poly(n))
        for poly in (cn, reduced_poly(n), cn.shift(-n), cn.shift(-3 * n - 1)):
            assert evaluate_at_roots(poly)[d] == poly.evaluate(w), (n, d)
    assert evaluate_at_roots(LaurentPoly())[d] == 0


@pytest.mark.parametrize("d", ROOT_ORDERS)
def test_root_values_stay_exact(d):
    kind = int if d == 2 else CycInt
    for n in range(1, 201):
        values = (count_at_root(n, d),
                  evaluate_at_roots(Poly(count_poly(n)).shift(-n))[d])
        for value in values:
            assert type(value) is kind, (n, d, value)
            if kind is CycInt:
                assert type(value.a) is int and type(value.b) is int, (n, d)


@pytest.mark.parametrize("d", ROOT_ORDERS)
def test_reduced_times_square_is_count(d):
    w = omega(d)
    square = (w + -1) ** 2
    for n in range(1, 60):
        pn_at_w = evaluate_at_roots(reduced_poly(n))[d]
        assert pn_at_w * square == count_at_root(n, d), (n, d)


@pytest.mark.parametrize("d", ROOT_ORDERS)
def test_root_sequence_carries_the_root_power(d):
    w = omega(d)
    for n in range(1, 60):
        assert count_at_root(n, d) == w ** n * root_sequence(n, d), (n, d)


def test_root_sequence_frozen_values():
    assert root_sequence(4, 2) == 4
    assert root_sequence(13, 3) == -6
    assert abs(root_sequence(3, 4)) == 4
    assert abs(root_sequence(9, 4)) == 6
    assert root_sequence(5, 6) == 4
    assert abs(root_sequence(17, 6)) == 4


@pytest.mark.parametrize("d", ROOT_ORDERS)
def test_root_sequence_matches_product_expansion(d):
    order = 2000
    s = expand_root_product(d, order)
    for n in range(1, order + 1):
        assert s.coeff(n) == root_sequence(n, d), (n, d)


def test_order_six_vanishes_with_order_two():
    for n in range(1, 500):
        assert (root_sequence(n, 6) == 0) == (root_sequence(n, 2) == 0)


def test_input_validation():
    bad = [(0, d) for d in ROOT_ORDERS] + [(3, d) for d in (0, 1, 5, 12)]
    for fn in (count_at_root, root_sequence):
        for n, d in bad:
            with pytest.raises(ValueError):
                fn(n, d)


def test_section_frozen_values():
    assert [section_formula(12, k) for k in SECTION_KS] == [28, 14, 10, 7, 5]
    assert section_formula(9, 6) == 2
    assert section_formula(1, 6) == 1


def test_section_direct_small():
    # P_6 has coefficients 1,1,1,1,1,2,1,1,1,1,1 at q^0..q^10
    assert section_direct(reduced_residue_sums(6)) \
        == {1: 12, 2: 6, 3: 4, 4: 3, 6: 2}


def test_sections_direct_equals_formula():
    for n in range(1, 200):
        direct = section_direct(reduced_residue_sums(n))
        assert direct == section_formulas(n), n
        for k in SECTION_KS:
            assert direct[k] == section_formula(n, k), (n, k)
    # large n, fixed: odd with r'(n) != 0 and with r'(n) = 0, and even,
    # the cases of s_4's r' term
    assert arith.r_prime(3 ** 25) != 0 and arith.r_prime(5 ** 17) == 0
    for n in (3 ** 25, 5 ** 17, 2 ** 40, 720720 * 10 ** 6):
        assert section_direct(reduced_residue_sums(n)) \
            == section_formulas(n), n


def test_section_direct_matches_reduced_poly_sums():
    # the sections and the residue sums read straight off the dense
    # polynomial, one P_n per n, and the values at the roots folded from
    # the residue sums against those of the dense polynomial
    for n in range(1, 1001):
        pn = reduced_poly(n)
        sums = {k: 0 for k in SECTION_KS}
        by12 = [0] * 12
        for e, c in pn.items():
            by12[e % 12] += c
            for k in SECTION_KS:
                if e % k == 0:
                    sums[k] += c
        runs_by12 = reduced_residue_sums(n)
        assert section_direct(runs_by12) == sums, n
        assert runs_by12 == by12, n
        assert fold_at_roots(runs_by12) == evaluate_at_roots(pn), n


def test_residue_sums_add_up_to_sigma():
    for n in (*range(1, 1001), 10 ** 12, 2 ** 40, 720720 * 10 ** 6,
              3 ** 25, 5 ** 17):
        assert sum(reduced_residue_sums(n)) == arith.sigma(n), n


def test_count_poly_at_roots_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, max_examples=40, deadline=None)
    @hypothesis.given(n=st.integers(1, 10 ** 6), d=st.sampled_from(ROOT_ORDERS))
    def check(n, d):
        assert evaluate_at_roots(count_poly(n))[d] == count_at_root(n, d)

    check()


def per_d_evaluation(poly, d):
    """poly(w) at one root as it was computed before evaluate_at_roots: the
    coefficients summed by exponent residue mod d, one pass per d."""
    sums = [0] * d
    for e, c in poly.items():
        sums[e % d] += c
    if d == 2:
        return sums[0] - sums[1]
    powers = POWERS[d]
    return CycInt(powers[0].order, sum(s * w.a for s, w in zip(sums, powers)),
                  sum(s * w.b for s, w in zip(sums, powers)))


def assert_all_roots_agree(poly, power_by_power=True):
    values = evaluate_at_roots(poly)
    assert list(values) == list(ROOT_ORDERS)
    for d in ROOT_ORDERS:
        want = per_d_evaluation(poly, d)
        assert values[d] == want and type(values[d]) is type(want), d
        if power_by_power:
            assert values[d] == poly.evaluate(omega(d)), d
    # w^12 = 1: dividing by w^shift rotates the residue sums
    for shift in (-13, 31):
        assert evaluate_at_roots(poly, shift=shift) \
            == evaluate_at_roots(Poly(poly).shift(-shift)), shift


def test_evaluate_at_roots_matches_per_d_loop():
    # P_n has ~2n terms, and power-by-power evaluation of all of them for
    # every n <= 300 takes seconds, so that route stops at n = 100 for P_n
    for n in range(1, 301):
        assert_all_roots_agree(count_poly(n))
        assert_all_roots_agree(reduced_poly(n), power_by_power=n <= 100)
    assert evaluate_at_roots(LaurentPoly()) == {2: 0, 3: 0, 4: 0, 6: 0}


def test_evaluate_at_root_property():
    # random sparse Laurent polynomials, negative exponents included,
    # against evaluation power by power and the per-d fold, for every d
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
    @hypothesis.given(coeffs=st.dictionaries(st.integers(-50, 50),
                                             st.integers(-10 ** 6, 10 ** 6),
                                             max_size=12))
    def check(coeffs):
        assert_all_roots_agree(LaurentPoly(coeffs))

    check()


def test_section_direct_equals_formula_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, max_examples=40, deadline=None)
    @hypothesis.given(n=st.integers(1, 10 ** 6))
    def check(n):
        assert section_direct(reduced_residue_sums(n)) == section_formulas(n)

    check()


def test_section_input_validation():
    # k = 1 is a section (the divisor sum), so it is not among the bad k
    bad = [(0, k) for k in SECTION_KS] + [(4, k) for k in (0, 5, 12)]
    for n, k in bad:
        with pytest.raises(ValueError):
            section_formula(n, k)
    with pytest.raises(ValueError):
        reduced_residue_sums(0)


def test_first_section_is_divisor_sum():
    from hilbtorus.arith import sigma

    for n in range(1, 200):
        assert section_formula(n, 1) == sigma(n)
        assert reduced_poly(n).evaluate_int(1) == sigma(n)


@pytest.mark.parametrize("count, value, k, message", [
    ("r2", 5, 2, "r(5)/4: 5 is not divisible by 4"),
    ("r_hex", 5, 3, "r''(5)/3: 5 is not divisible by 3"),
    ("sigma", 4, 3, "s_3(5): 4 is not divisible by 3"),  # r''(5) = 0
])
def test_section_remainder_names_its_division(monkeypatch, count, value, k,
                                              message):
    monkeypatch.setattr(arith, count, lambda n: value)
    with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$"):
        section_formula(5, k)
