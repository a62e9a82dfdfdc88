"""Tests for the check primitives and the verify harness around them.

expect and expect_rows are the only places a VerificationError is raised,
so a failed identity always carries its name, index and both values; a row
check reports the first differing position, as a check per position would,
and formats no index unless a check fails.  Each mutation test below puts
one route off by one, some in the middle of a row, and checks the witness
the suite raises; the harness must reject unknown suite names before
running any suite, every suite must take exactly one size keyword (order
for qseries, max_n for the rest), and the roots suite must expand its root
products to its own max_n, which at equal sizes qseries then reuses.
"""

import inspect

import pytest

from hilbtorus import arith, coeffs, qseries, rootvalues, verify
from hilbtorus.cyclotomic import CycInt
from hilbtorus.errors import VerificationError, expect, expect_rows
from hilbtorus.laurent import LaurentPoly
from hilbtorus.series import TruncatedSeries


def assert_witness(exc, identity, index):
    assert (exc.identity, exc.index) == (identity, index)
    assert exc.got != exc.want
    assert str(exc) == f"{identity} at {index}: {exc.got!r} != {exc.want!r}"


def test_expect_raises_only_on_inequality():
    expect("x vs y", "n=1", LaurentPoly({1: 2}), LaurentPoly({1: 2}))
    with pytest.raises(VerificationError) as info:
        expect("x vs y", "n=3", LaurentPoly({1: 2}), LaurentPoly({1: 3}))
    assert str(info.value) == (
        "x vs y at n=3: LaurentPoly({1: 2}) != LaurentPoly({1: 3})")
    assert info.value.args == ("x vs y", "n=3", LaurentPoly({1: 2}),
                               LaurentPoly({1: 3}))


class Unprintable:
    def __format__(self, spec):
        raise AssertionError("an index was formatted for a check that passed")


def refuse_index(p):
    raise AssertionError("an index was formatted for a check that passed")


def test_expect_formats_a_pair_index_only_on_failure():
    expect("x vs y", (("n", Unprintable()),), 3, 3)
    with pytest.raises(VerificationError) as info:
        expect("x vs y", (("n", 7), ("d", 3)), 1, 2)
    assert_witness(info.value, "x vs y", "n=7, d=3")


def test_expect_rows_passes_equal_rows_without_formatting():
    expect_rows("x vs y", refuse_index, [1, 2, 3], [1, 2, 3])
    expect_rows("x vs y", refuse_index, (LaurentPoly({1: 2}),),
                (LaurentPoly({1: 2}),))
    expect_rows("x vs y", refuse_index, [], [])
    expect_rows("x vs y", refuse_index, [1, 2], (1, 2))  # equal, only slower


def test_expect_rows_reports_the_first_mismatch():
    with pytest.raises(VerificationError) as info:
        expect_rows("x vs y", lambda p: f"n={p + 1}", [1, 2, 3, 4],
                    [1, 5, 3, 6])
    assert_witness(info.value, "x vs y", "n=2")
    assert (info.value.got, info.value.want) == (2, 5)
    assert info.value.args == ("x vs y", "n=2", 2, 5)


def test_expect_rows_fails_rows_of_different_lengths():
    with pytest.raises(VerificationError) as info:
        expect_rows("x vs y", refuse_index, [1, 2], [1, 2, 3])
    assert_witness(info.value, "x vs y", "length")
    assert (info.value.got, info.value.want) == (2, 3)
    with pytest.raises(VerificationError) as info:
        expect_rows("x vs y", refuse_index, (1, 2, 3), (1, 2))
    assert (info.value.index, info.value.got, info.value.want) == ("length", 3, 2)
    # a difference before the shorter row ends is reported first
    with pytest.raises(VerificationError) as info:
        expect_rows("x vs y", lambda p: f"t^{p}", [1, 9], [1, 2, 3])
    assert (info.value.index, info.value.got, info.value.want) == ("t^1", 9, 2)


def test_offcentral_coeff_mid_row_fails_coeffs(monkeypatch):
    good = coeffs.offcentral_coeff
    monkeypatch.setattr(coeffs, "offcentral_coeff",
                        lambda n, i: good(n, i) + ((n, i) == (7, 3)))
    with pytest.raises(VerificationError) as info:
        verify.verify_coeffs(max_n=10)
    assert_witness(info.value,
                   "c_(n,i): divisor enumerator vs per-i closed form",
                   "n=7, i=3")
    assert (info.value.got, info.value.want) == (good(7, 3), good(7, 3) + 1)


def test_linking_entry_fails_coeffs(monkeypatch):
    # a_(9,4) one too high moves the second difference at i = 3, 4 and 5;
    # only the linking check reads the table's a row before i = 3 fails
    good = coeffs.CoeffTables.build.__func__

    def bumped(cls, n, cn):
        table = good(cls, n, cn)
        if n != 9:
            return table
        a = list(table.a)
        a[4] += 1
        return cls(n, table.c, tuple(a))

    monkeypatch.setattr(coeffs.CoeffTables, "build", classmethod(bumped))
    with pytest.raises(VerificationError) as info:
        verify.verify_coeffs(max_n=12)
    assert_witness(info.value, "c_(n,i) vs second difference of a_(n,i)",
                   "n=9, i=3")
    c93 = good(coeffs.CoeffTables, 9, coeffs.count_poly(9)).c[3]
    assert (info.value.got, info.value.want) == (c93, c93 + 1)


def test_eta_quotient_coefficient_mid_row_fails_qseries(monkeypatch):
    good = qseries.eta_quotient_series
    spec = qseries.ROOT_ETA_SPECS[3]

    def bumped(s, order):
        series = good(s, order)
        if s != spec:
            return series
        cs = list(series.coeffs)
        cs[17] += 1
        return TruncatedSeries(order, cs)

    monkeypatch.setattr(qseries, "eta_quotient_series", bumped)
    with pytest.raises(VerificationError) as info:
        verify.verify_qseries(order=40)
    assert_witness(info.value, "eta quotient vs root product, d=3", "t^17")
    want = qseries.expand_root_product(3, 40).coeffs[17]
    assert (info.value.got, info.value.want) == (want + 1, want)


def test_psi_coefficient_off_by_one_fails_the_signed_recombination(monkeypatch):
    # psi(q^16) enters only the blocks psi(q^16) phi(q^4) and
    # psi(q^8) psi(q^16), where a bump at t^16 stays on the exponents 4k
    # and nonnegative, so only the recombination sees it
    good = qseries.psi_series

    def bumped(scale, order):
        series = good(scale, order)
        if scale != 16:
            return series
        cs = list(series.coeffs)
        cs[16] += 1
        return TruncatedSeries(order, cs)

    monkeypatch.setattr(qseries, "psi_series", bumped)
    with pytest.raises(VerificationError) as info:
        verify.verify_qseries(order=60)
    assert_witness(info.value, "multisection recombination, signed", "t^18")
    assert (info.value.got, info.value.want) == (-8, -6)


def test_lambda_value_breaking_a_coprime_pair_fails_arith(monkeypatch):
    # lambda(91) one too high, with E_1(91), r''(91) and the hexagonal
    # lattice count moved to agree, passes every per-n law; 91 = 7 * 13 is
    # then caught only by multiplicativity, mid-way through the m = 7 row
    bumps = {arith.lambda_fn: 1, arith.excess_e1: 1, arith.r_hex: 6}
    for f, bump in bumps.items():
        monkeypatch.setattr(arith, f.__name__,
                            lambda n, f=f, bump=bump: f(n) + bump * (n == 91))
    good_counts = arith.lattice_counts

    def counts(b, c, limit):
        out = good_counts(b, c, limit)
        if (b, c) == (1, 1):
            out[91] += 6
        return out

    monkeypatch.setattr(arith, "lattice_counts", counts)
    with pytest.raises(VerificationError) as info:
        verify.verify_arith(max_n=150)
    assert_witness(info.value, "lambda(mn) vs lambda(m) lambda(n)",
                   "m=7, n=13")
    assert (info.value.got, info.value.want) == (5, 4)


def test_sigma_off_by_one_fails_arith(monkeypatch):
    good = arith.sigma
    monkeypatch.setattr(arith, "sigma", lambda n: good(n) + (n == 7))
    with pytest.raises(VerificationError) as info:
        verify.verify_arith(max_n=10)
    assert_witness(info.value, "P_n(1) over divisor runs vs sigma(n)", "n=7")
    assert (info.value.got, info.value.want) == (8, 9)
    [result] = verify.run_suites(["arith"], max_n=10)
    assert not result.ok
    assert result.detail == str(info.value)


def test_product_form_off_by_one_fails_arith(monkeypatch):
    good = arith.r_prime
    monkeypatch.setattr(arith, "r_prime", lambda n: good(n) + (n == 9))
    with pytest.raises(VerificationError) as info:
        verify.verify_arith(max_n=10)
    assert_witness(info.value, "r'(n): product form vs lattice sweep", "n=9")
    assert (info.value.got, info.value.want) == (7, 6)


def test_dropped_divisor_fails_arith(monkeypatch):
    # 3 = 0 mod 3 leaves E_1(6) as it is, so the divisor sieve is what fails
    good = arith.divisors
    monkeypatch.setattr(arith, "divisors",
                        lambda n: [d for d in good(n) if (n, d) != (6, 3)])
    with pytest.raises(VerificationError) as info:
        verify.verify_arith(max_n=10)
    assert_witness(info.value, "divisors(n): count and sum vs divisor sieve",
                   "n=6")
    assert (info.value.got, info.value.want) == ((3, 9), (4, 12))


def test_table_cell_off_by_one_fails_tables(monkeypatch):
    good = rootvalues.section_formulas

    def shifted(n, ks=rootvalues.SECTION_KS):
        values = good(n, ks)
        if n == 5:
            values[4] += 1
        return values

    monkeypatch.setattr(rootvalues, "section_formulas", shifted)
    with pytest.raises(VerificationError) as info:
        verify.verify_tables(max_n=6)
    assert_witness(info.value, "table 4 s_k(n) vs divisor runs", "n=5, k=4")
    assert info.value.got == info.value.want + 1


def test_count_value_off_at_a_cube_root_fails_roots(monkeypatch):
    # q^7 (1 + q) vanishes at w = -1 but not at the cube root: C_7 moved by
    # it fails the evaluated row at d = 3, its second position
    good = coeffs.count_poly
    monkeypatch.setattr(coeffs, "count_poly", lambda n: good(n) + (
        LaurentPoly({7: 1, 8: 1}) if n == 7 else 0))
    with pytest.raises(VerificationError) as info:
        verify.verify_roots(max_n=10)
    assert_witness(info.value, "C_n(w)/w^n evaluated vs a_d(n)", "n=7, d=3")
    want = rootvalues.root_sequence(7, 3)
    assert (info.value.got, info.value.want) == (CycInt(3, want + 1, 1), want)


def test_product_coefficient_off_by_one_fails_roots(monkeypatch):
    good = qseries.expand_root_product

    def bumped(d, order):
        series = good(d, order)
        if d != 4:
            return series
        cs = list(series.coeffs)
        cs[9] += 1
        return TruncatedSeries(order, cs)

    monkeypatch.setattr(qseries, "expand_root_product", bumped)
    with pytest.raises(VerificationError) as info:
        verify.verify_roots(max_n=12)
    assert_witness(info.value, "a_d(n): product expansion vs closed form",
                   "n=9, d=4")
    want = rootvalues.root_sequence(9, 4)
    assert (info.value.got, info.value.want) == (want + 1, want)


def test_reduced_value_off_at_i_fails_roots(monkeypatch):
    # q^4 (1 + q)(1 + q + q^2) vanishes at w = -1 and at the cube root but
    # not at w = i, where P_5(w)/w^4 moves by i - 1: the relation's row
    # fails at d = 4, its third position; the relation reads P_n's residue
    # sums mod 12, so the bump adds 1, 2, 2, 1 at the residues 4..7
    good = coeffs.reduced_residue_sums
    bump = [0, 0, 0, 0, 1, 2, 2, 1, 0, 0, 0, 0]
    monkeypatch.setattr(coeffs, "reduced_residue_sums",
                        lambda n: [s + b * (n == 5) for s, b in zip(good(n), bump)])
    with pytest.raises(VerificationError) as info:
        verify.verify_roots(max_n=8)
    assert_witness(info.value, "(w + 1/w - 2) P_n(w)/w^(n-1) vs a_d(n)",
                   "n=5, d=4")
    want = rootvalues.root_sequence(5, 4)
    # (i + 1/i - 2)(i - 1) = -2i + 2
    assert (info.value.got, info.value.want) == (CycInt(4, want + 2, -2), want)


def test_run_suites_rejects_unknown_names_before_running(monkeypatch):
    ran = []
    monkeypatch.setitem(verify.SUITES, "zeta", lambda **kwargs: ran.append("zeta"))
    with pytest.raises(ValueError, match=r"^unknown suite\(s\): nope, bad; known: "):
        verify.run_suites(["zeta", "nope", "tables", "bad"])
    assert ran == []


def test_flag_keywords_are_suite_parameters():
    assert list(verify._SIZE_KEYWORD) == list(verify.SUITES)
    for name, keyword in verify._SIZE_KEYWORD.items():
        params = inspect.signature(getattr(verify, f"verify_{name}")).parameters
        assert list(params) == [keyword], (name, list(params))
        assert keyword == ("order" if name == "qseries" else "max_n"), name


def test_roots_expands_its_products_to_max_n_only(monkeypatch):
    asked = []
    good = qseries.expand_root_product
    monkeypatch.setattr(qseries, "expand_root_product",
                        lambda d, order: asked.append((d, order)) or good(d, order))
    [result] = verify.run_suites(["roots"], max_n=50, order=300)
    assert result.ok, result.detail
    assert sorted(asked) == [(d, 50) for d in rootvalues.ROOT_ORDERS]


@pytest.mark.parametrize("max_n", [10, 100])
def test_coeffs_checks_the_reduced_identity_to_max_n(monkeypatch, max_n):
    orders = []
    monkeypatch.setattr(coeffs, "check_reduced_generating_identity",
                        orders.append)
    detail = verify.verify_coeffs(max_n=max_n)
    assert orders == [max_n]
    assert detail.endswith(f"reduced generating identity holds to order {max_n}")


def test_roots_and_qseries_share_the_root_products():
    qseries.expand_root_product.cache_clear()
    results = verify.run_suites(["roots", "qseries"], max_n=120, order=120)
    assert [r.ok for r in results] == [True, True], results
    assert qseries.expand_root_product.cache_info().misses == 4


def test_arith_builds_each_divisor_list_once():
    arith.divisors.cache_clear()
    verify.verify_arith(max_n=200)
    info = arith.divisors.cache_info()
    assert info.misses == 200
    assert info.hits == 4 * 200  # five asks per n: one build, four reads


def test_arith_factorizes_each_n_once():
    # lambda, divisors, sigma, r, r' and r'' ask about one n in a row, so a
    # cache of a few entries factorizes each n once
    arith.factorize.cache_clear()
    verify.verify_arith(max_n=200)
    info = arith.factorize.cache_info()
    assert info.misses == 200
    assert info.hits == 5 * 200
    assert info.maxsize == arith.FACTORIZE_CACHE_SIZE


def test_coeffs_builds_each_count_poly_once(monkeypatch):
    # the tables of n are built from the C_n that the suite already holds
    calls = []
    good = coeffs.count_poly

    def counted(n):
        calls.append(n)
        return good(n)

    monkeypatch.setattr(coeffs, "count_poly", counted)
    verify.verify_coeffs(max_n=30)
    assert calls == list(range(1, 31))


def test_only_the_root_products_are_cached_in_qseries():
    cached = [name for name, member in vars(qseries).items()
              if hasattr(member, "cache_info")]
    assert cached == ["expand_root_product"]


def test_roots_raises_no_cyclotomic_power(monkeypatch):
    def refuse(self, k):
        raise AssertionError("CycInt.__pow__ called")

    monkeypatch.setattr(CycInt, "__pow__", refuse)
    verify.verify_roots(max_n=60)
