"""Tests for the exact product expansions.

Small product coefficients are frozen by hand (the first few factors can be
multiplied out on paper), every expander is cross-checked against naive
TruncatedSeries arithmetic, and the eta-quotient expander is pinned to the
classical discriminant series and to the sparse sums of Euler's and Jacobi's
identities.  The master product runs the q-difference recurrence
f[n][e] = f[n-1][e-1] + f[n-e][e] - f[n-e-1][e+1] (e >= 1) of
(1 - 1/q) F(t, tq) = (1 - tq) F(t, q), which needs no division: the
factor-by-factor product is checked to obey that recurrence, palindromy and
F(t, 1) = 1, the three facts the kernel is built from, and the kernel is
pinned to the log-derivative master kernel it replaced.  The log-derivative
recurrence behind the root and Gauss products is checked against the
literal factor-by-factor kernels it replaced, against the pull-style form
of the same recurrence (a property test draws the root order and
truncation) and, on drawn log-derivatives, against the push that
multiplied afresh for every coefficient instead of reusing a row per
distinct |c_n|; the eta expander is checked against its in-place loop at
order 2000; a second property test draws (d, n <= 2000) against the closed
form a_d(n), and qseries must import none of the closed-form modules it is
an oracle for.
"""

import ast
from operator import add, mul
from pathlib import Path

import pytest

import hilbtorus.qseries
from hilbtorus.arith import exact_div
from hilbtorus.laurent import LaurentPoly
from hilbtorus.qseries import (
    _log_derivative_series,
    _pentagonal_terms,
    ABS_QUARTIC_ETA_SPEC,
    ROOT_ETA_SPECS,
    ROOT_TRACE,
    eta_prefactor,
    eta_quotient_series,
    expand_master_product,
    expand_root_product,
    gauss_series,
    phi_series,
    psi_series,
)
from hilbtorus.rootvalues import root_sequence
from hilbtorus.series import TruncatedSeries

from laurent_ring import Poly
from series_reference import invert


def _literal_feedback(u, one, order):
    """prod_i (1 - t^i)^2 / (1 - u t^i + t^{2i}) one factor at a time: multiply
    by (1 - t^i) twice walking down, then divide out the denominator walking
    up.  u and one are ints for a root product, Polys for the master."""
    c = [one] + [one - one] * order
    for i in range(1, order + 1):
        for _ in range(2):
            for m in range(order, i - 1, -1):
                c[m] = c[m] - c[m - i]
        for m in range(i, order + 1):
            acc = c[m] + u * c[m - i]
            if m >= 2 * i:
                acc = acc - c[m - 2 * i]
            c[m] = acc
    return TruncatedSeries(order, c)


def _log_derivative_master(order):
    """The master product as it was before the q-difference recurrence:
    n c_n = sum_k b_k c_(n-k) with b_k = h_k(q) + h_k(1/q),
    h_k = sum_{ij=k} i (q^j - 1), each c_n summed on a dense row of
    exponents -n..n plus its reverse, every division by n checked exact."""
    h = [[] for _ in range(order + 1)]  # (exponent, coefficient) terms
    for i in range(1, order + 1):
        for j in range(1, order // i + 1):
            h[i * j].append((j, i))
    for k in range(1, order + 1):
        h[k].append((0, -sum(i for _, i in h[k])))
    rows = [[(0, 1)]]  # the nonzero (exponent, coefficient) terms of c_m
    for n in range(1, order + 1):
        acc = [0] * (2 * n + 1)  # exponent e at index n + e
        for k in range(1, n + 1):
            row = rows[n - k]
            for e1, v1 in h[k]:
                base = n + e1
                for e2, v2 in row:
                    acc[base + e2] += v1 * v2
        rows.append([(e, exact_div(v, n, "log-derivative recurrence"))
                     for e, v in enumerate(map(add, acc, reversed(acc)), -n)
                     if v])
    return TruncatedSeries(order, [LaurentPoly(dict(row)) for row in rows])


def _pull_root_product(d, order):
    """The root product by the pull-style recurrence: each c_n is one dot
    product of b_1..b_n with c_(n-1)..c_0."""
    u = ROOT_TRACE[d]
    p = [2, u]
    for _ in range(2, order + 1):
        p.append(u * p[-1] - p[-2])
    b = [0] * (order + 1)
    for i in range(1, order + 1):
        for j in range(1, order // i + 1):
            b[i * j] += i * (p[j] - 2)
    c = [1]
    for n in range(1, order + 1):
        c.append(exact_div(sum(map(mul, b[1:n + 1], reversed(c))), n,
                           "log-derivative recurrence"))
    return TruncatedSeries(order, c)


def _multiply_push(b, order):
    """The push-style recurrence as it was before rows were cached:
    c_n times b_1..b_(order-n), multiplied afresh for every nonzero c_n."""
    acc = [0] * (order + 1)
    c = []
    for n in range(order + 1):
        cn = exact_div(acc[n], n, "log-derivative recurrence") if n else 1
        c.append(cn)
        if cn:
            acc[n + 1:] = map(add, acc[n + 1:], map(cn.__mul__, b[1:order - n + 1]))
    return c


def _in_place_eta(spec, order):
    """eta_quotient_series as it was before its multiply passes became
    slice adds: x * P in place walking down, x / P walking up."""
    pre = eta_prefactor(spec)
    n1 = order + 1
    x = [0] * n1
    x[0] = 1
    for scale, e in spec:
        terms = _pentagonal_terms(scale, order)
        steps = range(order, 0, -1) if e > 0 else range(1, n1)
        sign = 1 if e > 0 else -1
        for _ in range(abs(e)):
            for m in steps:
                acc = 0
                for j, p in terms:
                    if j > m:
                        break
                    acc += p * x[m - j]
                x[m] += sign * acc
    return TruncatedSeries(order, x).shift(pre)


def _literal_gauss(order):
    """prod_{i>=1} (1 - t^i)/(1 + t^i) factor by factor: multiply by
    (1 - t^i) walking down, then divide by (1 + t^i) walking up."""
    n1 = order + 1
    c = [0] * n1
    c[0] = 1
    for i in range(1, n1):
        for m in range(order, i - 1, -1):
            c[m] -= c[m - i]
        for m in range(i, n1):
            c[m] -= c[m - i]
    return TruncatedSeries(order, c)


def expand_master_product_reference(order: int) -> TruncatedSeries:
    """The master product by generic series multiply and invert (quadratic
    coefficient cost per factor; small orders only)."""
    u = Poly({1: 1, -1: 1})  # q + 1/q
    acc = TruncatedSeries(order, [Poly(1)])
    for i in range(1, order + 1):
        num = TruncatedSeries(order, _monomial_row(order, i))
        den = _denominator_row(order, i, u)
        acc = acc * num * num * invert(den)
    return acc


def _monomial_row(order: int, i: int) -> list:
    row: list = [0] * (order + 1)
    row[0] = Poly(1)
    if i <= order:
        row[i] = Poly(-1)
    return row


def _denominator_row(order: int, i: int, u: Poly) -> TruncatedSeries:
    row: list = [0] * (order + 1)
    row[0] = Poly(1)
    if i <= order:
        row[i] = -u
    if 2 * i <= order:
        row[2 * i] = Poly(1)
    return TruncatedSeries(order, row)


def test_master_product_first_rows():
    s = expand_master_product(6)
    assert s.coeff(0) == LaurentPoly({0: 1})
    assert s.coeff(1) == LaurentPoly({1: 1, 0: -2, -1: 1})
    assert s.coeff(2) == LaurentPoly({2: 1, 1: -1, -1: -1, -2: 1})


def test_master_product_rows_are_balanced():
    s = expand_master_product(16)
    for n in range(1, 17):
        row = s.coeff(n)
        assert row == LaurentPoly({-e: c for e, c in row.items()})
        assert row.evaluate_int(1) == 0
        assert max(e for e, _ in row.items()) == n


def test_master_product_matches_reference():
    assert expand_master_product(12) == expand_master_product_reference(12)


def test_master_product_matches_literal_feedback():
    order = 40
    assert expand_master_product(order) == _literal_feedback(
        Poly({1: 1, -1: 1}), Poly(1), order)


@pytest.mark.parametrize("order", [0, 1, 2, 5, 50, 150])
def test_master_product_matches_log_derivative_kernel(order):
    assert expand_master_product(order) == _log_derivative_master(order)


def test_literal_master_product_obeys_the_q_difference_facts():
    # the three facts the q-difference kernel is built from, read off the
    # factor-by-factor product: f[n][e] = [t^n q^e] F
    order = 40
    rows = _literal_feedback(Poly({1: 1, -1: 1}), Poly(1), order).coeffs

    def f(n, e):
        return rows[n].coeff(e) if n >= 0 else 0

    for n in range(order + 1):
        # (1 - 1/q) F(t, tq) = (1 - tq) F(t, q), at t^n q^e for e >= 1
        for e in range(1, n + 2):
            assert f(n, e) == f(n - 1, e - 1) + f(n - e, e) - f(n - e - 1, e + 1), (n, e)
        # F(t, q) = F(t, 1/q)
        assert rows[n] == LaurentPoly({-e: c for e, c in rows[n].items()}), n
        # F(t, 1) = 1
        assert rows[n].evaluate_int(1) == (1 if n == 0 else 0), n


# signed root-sequence prefixes, n = 1..10, multiplied out by hand from the
# first few product factors
ROOT_PREFIXES = {
    2: [-4, 4, 0, 4, -8, 0, 0, 4, -4, 8],
    3: [-3, 0, 6, -3, 0, 0, -6, 0, 6, 0],
    4: [-2, -2, 4, 2, 0, -4, 0, 2, -6, 0],
    6: [-1, -2, 0, 1, 4, 0, 0, -2, -4, 2],
}


@pytest.mark.parametrize("d", sorted(ROOT_TRACE))
def test_root_product_prefixes(d):
    s = expand_root_product(d, 10)
    assert s.coeff(0) == 1
    assert [s.coeff(n) for n in range(1, 11)] == ROOT_PREFIXES[d]


def test_root_product_rejects_other_orders():
    with pytest.raises(ValueError):
        expand_root_product(5, 10)


def test_root_product_matches_naive_series():
    order = 40
    for d, u in ROOT_TRACE.items():
        acc = one = TruncatedSeries(order, [1])
        for i in range(1, order + 1):
            ti = TruncatedSeries(order, [0] * i + [1])
            num = one - ti
            den = one - u * ti + ti * ti
            acc = acc * num * num * invert(den)
        assert acc == expand_root_product(d, order), d


def test_recurrence_division_is_checked():
    assert exact_div(-12, 4, "recurrence") == -3
    with pytest.raises(ArithmeticError, match="^recurrence: 7 is not divisible by 2$"):
        exact_div(7, 2, "recurrence")


@pytest.mark.parametrize("d", sorted(ROOT_TRACE))
def test_root_product_matches_pull_recurrence_to_2000(d):
    assert expand_root_product(d, 2000) == _pull_root_product(d, 2000)


def test_recurrence_rejects_corrupted_divisor_sums():
    # Gauss's b_k with b_2 off by one: 2 c_2 = b_1 c_1 + b_2 = 4 - 3 is odd
    b = [0, -2, -3, -8]
    with pytest.raises(ArithmeticError,
                       match="^log-derivative recurrence: 1 is not divisible by 2$"):
        _log_derivative_series(b, 3)
    assert _log_derivative_series([0, -2, -4, -8], 3) == [1, -2, 0, 0]


def test_cached_rows_match_multiply_push():
    # b_k = -sum_{i | k} i e_i is the log-derivative of prod (1 - t^i)^e_i,
    # whose coefficients are integers: b takes zero and negative entries,
    # and c_n repeats values, so rows are reused and signs alternate.  The
    # same b, off by one at some k >= 2, makes k c_k = (integer) + 1 fail
    # to divide at n = k in both kernels alike.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, max_examples=60, deadline=None)
    @hypothesis.given(order=st.integers(0, 400),
                      exps=st.dictionaries(st.integers(1, 400),
                                           st.integers(-3, 3), max_size=8),
                      bad=st.integers(2, 400))
    def check(order, exps, bad):
        b = [0] * (order + 1)
        for i, e in exps.items():
            for k in range(i, order + 1, i):
                b[k] -= i * e
        assert _log_derivative_series(b, order) == _multiply_push(b, order)
        if bad <= order:
            b[bad] += 1
            errors = []
            for kernel in (_log_derivative_series, _multiply_push):
                with pytest.raises(ArithmeticError) as info:
                    kernel(b, order)
                errors.append(str(info.value))
            assert errors[0] == errors[1]

    check()


@pytest.mark.parametrize("spec", [*ROOT_ETA_SPECS.values(), ABS_QUARTIC_ETA_SPEC],
                         ids=["d=2", "d=3", "d=4", "d=6", "abs4"])
def test_eta_quotient_matches_in_place_loop_to_2000(spec):
    assert eta_quotient_series(spec, 2000) == _in_place_eta(spec, 2000)


def test_root_product_matches_literal_feedback():
    for d, u in ROOT_TRACE.items():
        assert expand_root_product(d, 300) == _literal_feedback(u, 1, 300), d


def test_root_product_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, max_examples=20, deadline=None)
    @hypothesis.given(d=st.sampled_from(sorted(ROOT_TRACE)),
                      order=st.integers(0, 400))
    def check(d, order):
        s = expand_root_product(d, order)
        assert s == _literal_feedback(ROOT_TRACE[d], 1, order)
        assert [s.coeff(n) for n in range(1, order + 1)] == [
            root_sequence(n, d) for n in range(1, order + 1)]

    check()


def test_root_product_matches_closed_form_to_2000():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
    @hypothesis.given(d=st.sampled_from(sorted(ROOT_TRACE)),
                      n=st.integers(1, 2000))
    def check(d, n):
        assert expand_root_product(d, 2000).coeff(n) == root_sequence(n, d)

    check()


def test_gauss_series_is_signed_square_theta():
    order = 300
    assert gauss_series(order) == phi_series(1, order, negate_arg=True)


def test_gauss_series_matches_literal_product_to_2000():
    assert gauss_series(2000) == _literal_gauss(2000)


def test_gauss_theta_prefix():
    s = phi_series(1, 9, negate_arg=True)
    assert s.coeffs == (1, -2, 0, 0, 2, 0, 0, 0, 0, -2)


def test_gauss_series_matches_naive_quotient():
    order = 40
    num = den = one = TruncatedSeries(order, [1])
    for i in range(1, order + 1):
        ti = TruncatedSeries(order, [0] * i + [1])
        num = num * (one - ti)
        den = den * (one + ti)
    assert num * invert(den) == gauss_series(order)


def test_phi_series():
    assert phi_series(1, 10).coeffs == (1, 2, 0, 0, 2, 0, 0, 0, 0, 2, 0)
    assert phi_series(1, 10, negate_arg=True).coeffs == (1, -2, 0, 0, 2, 0, 0, 0, 0, -2, 0)
    assert phi_series(2, 10).coeffs == (1, 0, 2, 0, 0, 0, 0, 0, 2, 0, 0)
    with pytest.raises(ValueError):
        phi_series(0, 5)


def test_psi_series():
    assert psi_series(1, 10).coeffs == (1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1)
    assert psi_series(2, 10).coeffs == (1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        psi_series(0, 5)


def test_phi_split_identity():
    # phi(q^4) + 2q psi(q^8) collects the even and odd squares of phi(q)
    order = 200
    even = phi_series(4, order)
    odd = psi_series(8, order).shift(1) * 2
    assert even + odd == phi_series(1, order)
    assert even - odd == phi_series(1, order, negate_arg=True)


def test_eta_spec_prefactors():
    for spec in (*ROOT_ETA_SPECS.values(), ABS_QUARTIC_ETA_SPEC):
        assert eta_prefactor(spec) == 0
    assert eta_prefactor(((1, 24),)) == 1


def test_eta_spec_rejects_bad_prefactor():
    with pytest.raises(ValueError):
        eta_prefactor(((1, 1),))
    with pytest.raises(ValueError):
        eta_prefactor(((1, -24),))
    with pytest.raises(ValueError):
        eta_prefactor(((0, 24),))


def test_eta_discriminant_series():
    # eta(z)^24 expands to the discriminant series, whose first coefficients
    # are the classical 1, -24, 252, -1472, 4830, -6048
    s = eta_quotient_series(((1, 24),), 6)
    assert s.coeffs == (0, 1, -24, 252, -1472, 4830, -6048)


def test_eta_quotient_matches_naive_product():
    order = 40
    for spec in (*ROOT_ETA_SPECS.values(), ABS_QUARTIC_ETA_SPEC,
                 ((1, 24),)):
        acc = one = TruncatedSeries(order, [1])
        for scale, e in spec:
            for j in range(scale, order + 1, scale):
                factor = one - TruncatedSeries(order, [0] * j + [1])
                if e > 0:
                    for _ in range(e):
                        acc = acc * factor
                else:
                    for _ in range(-e):
                        acc = acc * invert(factor)
        assert acc.shift(eta_prefactor(spec)) == eta_quotient_series(spec, order), spec


def test_eta_cubed_is_jacobi_sum():
    # t eta(8z)^3 = sum_{k>=0} (-1)^k (2k+1) t^((2k+1)^2)
    order = 2000
    want = [0] * (order + 1)
    k = 0
    while (2 * k + 1) ** 2 <= order:
        want[(2 * k + 1) ** 2] = (-1) ** k * (2 * k + 1)
        k += 1
    spec = ((8, 3),)
    assert eta_quotient_series(spec, order) == TruncatedSeries(order, want)


def test_eta_is_euler_sum():
    # t eta(24z) = sum_{k in Z} (-1)^k t^((6k+1)^2)
    order = 2000
    want = [0] * (order + 1)
    for k in range(-20, 21):
        if (6 * k + 1) ** 2 <= order:
            want[(6 * k + 1) ** 2] += (-1) ** k
    spec = ((24, 1),)
    assert eta_quotient_series(spec, order) == TruncatedSeries(order, want)


@pytest.mark.parametrize("d", sorted(ROOT_ETA_SPECS))
def test_root_products_equal_eta_quotients(d):
    order = 200
    assert eta_quotient_series(ROOT_ETA_SPECS[d], order) == expand_root_product(d, order)


def test_abs_quartic_eta_series():
    order = 200
    quartic = expand_root_product(4, order)
    absolute = eta_quotient_series(ABS_QUARTIC_ETA_SPEC, order)
    for n in range(order + 1):
        assert absolute.coeff(n) == abs(quartic.coeff(n)), n


def test_qseries_imports_no_closed_form_module():
    # the product expansions are the oracle for these modules, so they may
    # not consult them
    forbidden = {"coeffs", "rootvalues", "verify", "zeta", "tables"}
    tree = ast.parse(Path(hilbtorus.qseries.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.update(alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
    assert imported, "no imports found; is this the qseries source?"
    assert not imported & forbidden, imported & forbidden
