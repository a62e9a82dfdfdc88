"""Tests for the check primitive and the verify harness around it.

expect is the one place a VerificationError is raised, so a failed
identity always carries its name, index and both values.  Each mutation
test below puts one route off by one and checks the witness the suite
raises; the harness must reject unknown suite names before running any
suite, the --max-n/--order table must name exactly the keyword parameters
of each suite, and the roots and qseries suites must share one expansion
of each root product.
"""

import inspect

import pytest

from hilbtorus import arith, qseries, rootvalues, verify
from hilbtorus.cyclotomic import CycInt
from hilbtorus.errors import VerificationError, expect
from hilbtorus.laurent import LaurentPoly


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


def test_run_suites_rejects_unknown_names_before_running(monkeypatch):
    ran = []
    monkeypatch.setitem(verify.SUITES, "zeta", lambda **kwargs: ran.append("zeta"))
    with pytest.raises(ValueError, match=r"^unknown suite\(s\): nope, bad; known: "):
        verify.run_suites(["zeta", "nope", "tables", "bad"])
    assert ran == []


def test_flag_keywords_are_suite_parameters():
    assert list(verify._FLAG_KEYWORDS) == list(verify.SUITES)
    for name, keywords in verify._FLAG_KEYWORDS.items():
        params = inspect.signature(getattr(verify, f"verify_{name}")).parameters
        assert set(keywords) <= {"max_n", "order"}, name
        assert set(keywords) == set(params), (name, keywords, list(params))


def test_roots_and_qseries_share_the_root_products():
    qseries.expand_root_product.cache_clear()
    results = verify.run_suites(["roots", "qseries"], max_n=60, order=120)
    assert [r.ok for r in results] == [True, True], results
    assert qseries.expand_root_product.cache_info().misses == 4


def test_arith_builds_each_divisor_list_once():
    arith.divisors.cache_clear()
    verify.verify_arith(max_n=200)
    info = arith.divisors.cache_info()
    assert info.misses == 200
    assert info.hits == 4 * 200  # five asks per n: one build, four reads


def test_roots_raises_no_cyclotomic_power(monkeypatch):
    def refuse(self, k):
        raise AssertionError("CycInt.__pow__ called")

    monkeypatch.setattr(CycInt, "__pow__", refuse)
    verify.verify_roots(max_n=60, order=60)
