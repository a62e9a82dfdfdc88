"""Tests for the check primitives and the verify harness around them.

expect and expect_rows are the only places a VerificationError is raised,
so a failed identity always carries its name, index and both values; a row
check reports the first differing position, as a check per position would,
and formats no index unless a check fails.  The mutation table
(tests/test_mutations.py) checks each identity's witness; here one of its
rows checks that a failed suite's detail is that witness.  The harness
must reject unknown suite names before running any suite, every suite must
take exactly one size keyword (order for qseries, max_n for the rest) with
the default that README's counts hold at, and check every n up to it, the
suites' seconds must fit in the wall time around them, and the roots suite
must expand its root products to its own max_n, which at equal sizes
qseries then reuses.  The tables suite must check which rows each table
has, and the zeta suite must build each local zeta once.
"""

import inspect
import time

import pytest

from hilbtorus import arith, coeffs, qseries, rootvalues, tables, verify, zeta
from hilbtorus.cyclotomic import CycInt
from hilbtorus.errors import VerificationError, expect, expect_rows
from hilbtorus.laurent import LaurentPoly

from laurent_ring import Poly
from test_mutations import bump, check_row, moved_in_p, reduced_value_off_at_i


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


def refuse_index(p):
    raise AssertionError("an index was formatted for a check that passed")


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


def test_sigma_off_by_one_fails_arith(monkeypatch):
    # run_suites reports the witness of a failed suite as its detail
    check_row(monkeypatch, "P_n(1) over divisor runs vs sigma(n)")
    [result] = verify.run_suites(["arith"], max_n=10)
    assert not result.ok
    assert result.detail == "P_n(1) over divisor runs vs sigma(n) at n=7: 8 != 9"


# each suite checks every n up to its one size, so a fault at any such n,
# here at n above the old sub-sizes 300, 20 and 12, is caught first by its
# own identity

def test_sections_checks_the_relation_at_every_n(monkeypatch):
    reduced_value_off_at_i(monkeypatch, at=301)
    with pytest.raises(VerificationError) as info:
        verify.verify_sections(max_n=310)
    assert_witness(info.value, "(w + 1/w - 2) P_n(w)/w^(n-1) vs a_d(n)",
                   "n=301, d=4")


@pytest.mark.parametrize("n", range(21, 26))
def test_zeta_checks_the_point_counts_at_every_n(monkeypatch, n):
    # one more q^(n-1) in P_n, as one more divisor run, adds (q - 1)^2
    # q^(n-1) to the point counts
    bump(monkeypatch, coeffs, "reduced_runs", (n,), [(n - 1, n - 1)])
    with pytest.raises(VerificationError) as info:
        verify.verify_zeta(max_n=30)
    exc = info.value
    assert_witness(exc, "zeta log-derivative vs point count", f"n={n}")
    assert Poly(exc.want) - exc.got == LaurentPoly({n + 1: 1, n: -2, n - 1: 1})


def test_run_bound_fault_fails_middle_divisors_first(monkeypatch):
    # an extra run from i = 0 raises a_(8,0) and P_8(1) alike; a_(n,0) is
    # read off the same runs and checked first
    bump(monkeypatch, coeffs, "divisor_intervals", (8,), [(0, 0)])
    with pytest.raises(VerificationError) as info:
        verify.verify_arith(max_n=10)
    assert str(info.value) == "middle divisors vs a_(n,0) at n=8: 1 != 2"


@pytest.mark.parametrize("which, identity", [
    (1, "table 1 C_n(-1) vs r(n)"),
    (2, "table 2 P_n(1) vs sigma(n)"),
    (3, "table 3 |a_d(n)| vs |C_n(w)|"),
    (4, "table 4 s_k(n) vs divisor runs"),
])
def test_tables_check_the_set_of_rows(monkeypatch, which, identity):
    # a table that loses its last row fails its first identity, whose
    # first check reads the n column
    good = tables.table_data

    def dropped(table, max_n=None):
        data = good(table, max_n)
        if table == which:
            data["rows"] = data["rows"][:-1]
        return data

    monkeypatch.setattr(tables, "table_data", dropped)
    with pytest.raises(VerificationError) as info:
        verify.verify_tables(max_n=8)
    exc = info.value
    assert_witness(exc, identity, "rows")
    assert (exc.got, exc.want) == (list(range(1, 8)), list(range(1, 9)))


@pytest.mark.parametrize("n", range(13, 19))
def test_tables_check_table_2_at_every_n(monkeypatch, n):
    # a move by 12 keeps P_n's values at the roots; from q^(n-1) it lowers
    # the central coefficient a_(n,0)
    moved_in_p(n, n - 1, n + 11)(monkeypatch)
    with pytest.raises(VerificationError) as info:
        verify.verify_tables(max_n=18)
    exc = info.value
    assert_witness(exc, "table 2 a_(n,0) vs middle divisors", f"n={n}")
    assert exc.got == exc.want - 1 == arith.middle_divisors(n) - 1


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


def test_default_sizes():
    # README's count of identities and checked positions holds at these
    defaults = {name: inspect.signature(suite).parameters[
                    verify._SIZE_KEYWORD[name]].default
                for name, suite in verify.SUITES.items()}
    assert defaults == {"coeffs": 300, "roots": 2000, "zeta": 100,
                        "qseries": 2000, "arith": 10000, "sections": 1000,
                        "tables": 18}


def test_suite_seconds_fit_in_the_wall_time():
    start = time.perf_counter()
    results = verify.run_suites(max_n=20, order=40)
    wall = time.perf_counter() - start
    assert all(r.ok and r.seconds >= 0 for r in results), results
    assert sum(r.seconds for r in results) <= wall


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
    assert info.hits == 3 * 200  # four asks per n: one build, three reads


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


def test_zeta_builds_each_local_zeta_once(monkeypatch):
    # both zeta identities of n read the one factored form
    calls = []
    good = zeta.build_local_zeta

    def counted(n):
        calls.append(n)
        return good(n)

    monkeypatch.setattr(zeta, "build_local_zeta", counted)
    verify.verify_zeta(max_n=30)
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
