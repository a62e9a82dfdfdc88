"""The mutation table: every identity that verify certifies can fail.

A check that no fault can trip proves nothing, so each identity has one row
here: a suite run at a small size, one fault that puts one value off at one
index (a function's result at one argument, one coefficient of one series,
one run of P_n), and the witness that the fault must raise, the identity
and index that catch it first and both values.  The fault must be caught
first by the row's identity, not by a check that runs before it.

A recorder that counts the calls of expect and expect_rows (one check per
call, one per position of a row) runs every suite at max_n=20, order=40:
the identities it sees must be the table's, so an identity added to a
suite without a row fails here, and the count of each is pinned.  The
number of identities README says verify certifies must be the number of
rows, so that it cannot drift from the suites, and identity_kills.txt, the
kill table of tests/mutation_sweep.py, must give each identity its line
and a reason to stay; one that stays only because perfbench/spans.py
wraps the code it alone runs ("goes with item 4") must name that code.

RETIRED keeps the rows of the identities that verify no longer certifies,
because the kill matrix showed that another check catches every fault
they caught outside their own checking code: each row's fault, in code
the retired identity read and a remaining one still reads, must now be
caught first by the identity that took it over.
"""

import re
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from hilbtorus import arith, coeffs, qseries, rootvalues, verify, zeta
from hilbtorus.cyclotomic import CycInt
from hilbtorus.errors import VerificationError, expect, expect_rows
from hilbtorus.series import TruncatedSeries

from laurent_ring import Poly
from test_perfbench_spans import spans


def bump(monkeypatch, module, name, at, by=1):
    """module.name(*at) returns its value plus by; other arguments are
    left alone."""
    good = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: good(*args) + by
                        if args == at else good(*args))


def bump_entry(monkeypatch, module, name, at, key, by=1):
    """module.name(*at) returns its value with the entry key moved by by:
    the t^key coefficient of a series, or the item key of a list or dict."""
    good = getattr(module, name)

    def bumped(*args):
        value = good(*args)
        if args != at:
            return value
        if isinstance(value, TruncatedSeries):
            cs = list(value.coeffs)
            cs[key] += by
            return TruncatedSeries(value.order, cs)
        value = value.copy()
        value[key] += by
        return value

    monkeypatch.setattr(module, name, bumped)


def extra_run_of_p5(monkeypatch):
    # one more q^4 in P_5, as one more divisor run (4, 4)
    bump(monkeypatch, coeffs, "reduced_runs", (5,), [(4, 4)])


def master_entry_of_5(monkeypatch):
    # one entry of the master product's half row n = 5 one too high
    good = qseries.expand_master_product

    def bumped(order):
        half = good(order)
        half[5][3] += 1
        return half

    monkeypatch.setattr(qseries, "expand_master_product", bumped)


def linking_entry_of_9(monkeypatch):
    # a_(9,4) one too high moves the second difference at i = 3, 4 and 5;
    # only the linking check reads the table's a row
    good = coeffs.CoeffTables.build.__func__

    def bumped(cls, n, cn):
        table = good(cls, n, cn)
        if n != 9:
            return table
        a = list(table.a)
        a[4] += 1
        return cls(n, table.c, tuple(a))

    monkeypatch.setattr(coeffs.CoeffTables, "build", classmethod(bumped))


def reduced_value_off_at_i(monkeypatch, at=5):
    # q^4 (1 + q)(1 + q + q^2) vanishes at w = -1 and at the cube root but
    # not at w = i, where P_5(w)/w^4 moves by i - 1, and (i + 1/i - 2)(i - 1)
    # = -2i + 2; the relation reads P_n's residue sums mod 12, so the bump
    # adds 1, 2, 2, 1 at the residues 4..7
    good = coeffs.reduced_residue_sums
    step = [0, 0, 0, 0, 1, 2, 2, 1, 0, 0, 0, 0]
    monkeypatch.setattr(coeffs, "reduced_residue_sums", lambda n: [
        s + b * (n == at) for s, b in zip(good(n), step)])


def dropped_divisor(monkeypatch):
    # 3 = 0 mod 3 leaves E_1(6) as it is, so the divisor sieve is what fails
    good = arith.divisors
    monkeypatch.setattr(arith, "divisors",
                        lambda n: [d for d in good(n) if (n, d) != (6, 3)])


def moved_in_p(n, old, new):
    """A fault that moves one unit of P_n's dense coefficients from q^old
    to q^new; a move by 12 keeps P_n(w) at every root w of order 2, 3, 4
    or 6."""
    return lambda mp: bump(mp, coeffs, "reduced_poly", (n,),
                           Poly({old: -1, new: 1}))


def suite(name, size):
    return lambda: verify.SUITES[name](size)


class Row(NamedTuple):
    identity: str
    index: str
    got: object
    want: object
    run: Callable[[], object]  # the code under test, at a small size
    fault: Callable[[pytest.MonkeyPatch], None]


C5 = Poly({5: 1, 4: -1, 2: -1, 1: 1,  # C_5 / q^5
           -1: 1, -2: -1, -4: -1, -5: 1})
ROWS = [
    # -- coeffs
    # c_(5,3) = 0: the master product's half row of C_5 / q^5 is
    # [0, 1, -1, 0, -1, 1]
    Row("master product t^n vs closed-form C_n / q^n", "n=5, e=3", 1, 0,
        suite("coeffs", 10), master_entry_of_5),
    # one more q^4 in P_5 adds (q - 1)^2 q^4
    Row("(q - 1)^2 P_n vs C_n", "n=5",
        C5.shift(5) + Poly({6: 1, 5: -2, 4: 1}), C5.shift(5),
        suite("coeffs", 10), extra_run_of_p5),
    Row("c_(n,i) vs second difference of a_(n,i)", "n=9, i=3", 1, 2,
        suite("coeffs", 12), linking_entry_of_9),
    # inside the coeffs suite a fault in P_n's runs fails "(q - 1)^2 P_n vs
    # C_n" at the same n first, so this row calls the identity's check
    # itself; q^4 of P_5 is q^0 of P_5 / q^4, and 1 - q^2 times it is 1 - q^2
    Row("reduced generating identity", "t^5",
        Poly({6: -1, 5: -1, 3: 1, -1: -1, -3: 1, -4: 1}),
        Poly({6: -1, 5: -1, 3: 1, -1: -1, -3: 1, -4: 1, 2: 1, 0: -1}),
        lambda: coeffs.check_reduced_generating_identity(10), extra_run_of_p5),
    # -- roots
    # q^7 (1 + q) vanishes at w = -1 but not at the cube root v, where C_7
    # moves by v^7 (1 + v) = v + v^2 = -1: the evaluated row fails at d = 3
    Row("C_n(w)/w^n evaluated vs a_d(n)", "n=7, d=3", CycInt(3, -5, 1), -6,
        suite("roots", 10),
        lambda mp: bump(mp, coeffs, "count_poly", (7,), Poly({7: 1, 8: 1}))),
    Row("a_d(n): product expansion vs closed form", "n=9, d=4", -5, -6,
        suite("roots", 12),
        lambda mp: bump_entry(mp, qseries, "expand_root_product", (4, 12), 9)),
    # -- zeta
    # a constant term in C_4 breaks the palindromy m(0) = m(8)
    Row("functional-equation certificate (palindromic, sum m(e), m(n) mod 2)",
        "n=4", (False, 1, 0), (True, 0, 0), suite("zeta", 10),
        lambda mp: bump(mp, coeffs, "count_poly", (4,), Poly({0: 1}))),
    # the point counts come from P_n's runs: one more q^4 in P_5 adds
    # (x - 1)^2 x^4 to C_5(x)
    Row("zeta log-derivative vs point count", "n=5", C5.shift(5),
        C5.shift(5) + Poly({6: 1, 5: -2, 4: 1}),
        suite("zeta", 10), extra_run_of_p5),
    # -- qseries
    Row("Gauss product vs theta sum", "t^7", 1, 0, suite("qseries", 40),
        lambda mp: bump_entry(mp, qseries, "gauss_series", (40,), 7)),
    *(Row(f"eta quotient vs root product, d={d}", "t^17", got, got - 1,
          suite("qseries", 40),
          lambda mp, spec=spec: bump_entry(mp, qseries, "eta_quotient_series",
                                           (spec, 40), 17))
      for (d, spec), got in zip(qseries.ROOT_ETA_SPECS.items(), (1, 5))),
    Row("phi(q) phi(q^2) vs absolute order-4 sequence", "t^8", 3, 2,
        suite("qseries", 40),
        lambda mp: bump_entry(mp, qseries, "phi_series", (2, 40), 8)),
    # psi(q^16) enters only the blocks psi(q^16) phi(q^4) and
    # psi(q^8) psi(q^16), so only the recombination sees it
    Row("multisection recombination, signed", "t^18", -8, -6,
        suite("qseries", 60),
        lambda mp: bump_entry(mp, qseries, "psi_series", (16, 60), 16)),
    # -- arith
    Row("lambda(n) vs E_1(n) - 3 E_1(n/3)", "n=7", 3, 2, suite("arith", 10),
        lambda mp: bump(mp, arith, "lambda_fn", (7,))),
    Row("r(n): product form vs lattice sweep", "n=5", 9, 8, suite("arith", 10),
        lambda mp: bump(mp, arith, "r2", (5,))),
    Row("r'(n): product form vs lattice sweep", "n=9", 7, 6, suite("arith", 10),
        lambda mp: bump(mp, arith, "r_prime", (9,))),
    Row("r''(n): product form vs lattice sweep", "n=7", 12, 13,
        suite("arith", 10),
        lambda mp: bump_entry(mp, arith, "lattice_counts", (1, 1, 10), 7)),
    Row("divisors(n): count and sum vs divisor sieve", "n=6", (3, 9), (4, 12),
        suite("arith", 10), dropped_divisor),
    Row("middle divisors vs a_(n,0)", "n=8", 2, 1, suite("arith", 10),
        lambda mp: bump(mp, arith, "middle_divisors", (8,))),
    Row("P_n(1) over divisor runs vs sigma(n)", "n=7", 8, 9, suite("arith", 10),
        lambda mp: bump(mp, arith, "sigma", (7,))),
    # -- sections; the relation's fault moves s_1 too, so within each n the
    # relation is checked before the sections
    Row("(w + 1/w - 2) P_n(w)/w^(n-1) vs a_d(n)", "n=5, d=4",
        CycInt(4, 2, -2), 0, suite("sections", 8), reduced_value_off_at_i),
    Row("s_k(n): divisor runs vs closed formula", "n=9, k=3", 5, 6,
        suite("sections", 10),
        lambda mp: bump_entry(mp, rootvalues, "section_formulas", (9,), 3)),
    # -- tables; each table 2 row moves one unit of the dense P_n so that
    # its column is the first that changes and |P_n(j)|, |P_n(i)| stay
    # integers: q^3 = 1 at j, so q^0 -> q^3 moves P_4(-1) and P_4(i) only
    Row("table 1 C_n(-1) vs r(n)", "n=5", 9, 8, suite("tables", 8),
        lambda mp: bump(mp, coeffs, "count_poly", (5,), Poly({0: 1}))),
    Row("table 2 P_n(1) vs sigma(n)", "n=5", 5, 6, suite("tables", 8),
        lambda mp: bump(mp, coeffs, "reduced_poly", (5,), Poly({0: -1}))),
    Row("table 2 4 P_n(-1) vs r(n)", "n=4", -4, 4, suite("tables", 8),
        moved_in_p(4, 0, 3)),
    Row("table 2 |P_n(j)| vs |lambda(n)|", "n=7", 1, 2, suite("tables", 8),
        moved_in_p(7, 0, 4)),
    Row("table 2 2 |P_n(i)| vs r'(n)", "n=5", 4, 0, suite("tables", 8),
        moved_in_p(5, 0, 6)),
    Row("table 2 a_(n,0) vs middle divisors", "n=6", 1, 2, suite("tables", 8),
        moved_in_p(6, 5, 17)),
    # a_3(7) = -6 moved to -3
    Row("table 3 |a_d(n)| vs |C_n(w)|", "n=7, d=3", 3, 6, suite("tables", 8),
        lambda mp: bump_entry(mp, rootvalues, "root_sequences", (7,), 3, 3)),
    Row("table 4 s_k(n) vs divisor runs", "n=5, k=4", 3, 2, suite("tables", 6),
        lambda mp: bump_entry(mp, rootvalues, "section_formulas", (5,), 4)),
]
ROW = {row.identity: row for row in ROWS}
# retired identity -> its row's fault, now caught first by another identity
RETIRED = {
    # c_(7,3) = -1 moved to 0 in C_7, as it was moved in the per-i closed
    # form that the retired identity compared C_7 with
    "c_(n,i): divisor enumerator vs per-i closed form": Row(
        "master product t^n vs closed-form C_n / q^n", "n=7, e=3", -1, 0,
        suite("coeffs", 10),
        lambda mp: bump(mp, coeffs, "count_poly", (7,), Poly({10: 1, 4: 1}))),
    "r''(n) vs 6 E_1(n)": Row(
        "r''(n): product form vs lattice sweep", "n=7", 13, 12,
        suite("arith", 10), lambda mp: bump(mp, arith, "r_hex", (7,))),
    # phi(q^4) enters the blocks phi(q^4) phi(q^8) and psi(q^16) phi(q^4)
    "phi(q^4) + 2q psi(q^8) vs phi(q)": Row(
        "multisection recombination, signed", "t^16", 3, 2,
        suite("qseries", 40),
        lambda mp: bump_entry(mp, qseries, "phi_series", (4, 40), 16)),
    # a_2(9) = -r(9) = -4 moved to -3 in the order-2 root product, which the
    # retired identity compared with phi(-q)^2
    "theta-square vs order-2 root product": Row(
        "a_d(n): product expansion vs closed form", "n=9, d=2", -3, -4,
        suite("roots", 40),
        lambda mp: bump_entry(mp, qseries, "expand_root_product", (2, 40), 9)),
    # a_4(8) = r'(8) = 2 moved to 3 in the order-4 root product, which the
    # retired identity compared with phi(-q) phi(-q^2)
    "phi(-q) phi(-q^2) vs order-4 root product": Row(
        "phi(q) phi(q^2) vs absolute order-4 sequence", "t^8", 2, 3,
        suite("qseries", 40),
        lambda mp: bump_entry(mp, qseries, "expand_root_product", (4, 40), 8)),
}


def check_row(monkeypatch, identity):
    """Put the fault of the identity's row (in ROW, or in RETIRED for a
    retired one) in, run its code and check the witness."""
    row = ROW[identity] if identity in ROW else RETIRED[identity]
    row.fault(monkeypatch)
    with pytest.raises(VerificationError) as info:
        row.run()
    exc = info.value
    assert (exc.identity, exc.index) == (row.identity, row.index)
    assert (exc.got, exc.want) == (row.got, row.want)
    assert exc.got != exc.want


@pytest.mark.parametrize("identity", list(ROW))
def test_fault_is_first_caught_by_its_identity(monkeypatch, identity):
    check_row(monkeypatch, identity)


@pytest.mark.parametrize("retired", list(RETIRED))
def test_retired_fault_is_caught(monkeypatch, retired):
    # by the identity that took it over, as RETIRED names it
    assert retired not in ROW
    check_row(monkeypatch, retired)


@pytest.fixture(scope="module")
def checks():
    """{identity: positions checked} over every suite at max_n=20, order=40."""
    counts = Counter()

    def counted(identity, index, got, want):
        counts[identity] += 1
        expect(identity, index, got, want)

    def counted_rows(identity, index, got, want):
        counts[identity] += len(got)
        expect_rows(identity, index, got, want)

    with pytest.MonkeyPatch.context() as mp:
        for module in (verify, coeffs, zeta):  # each imports them by name
            for name, check in (("expect", counted),
                                ("expect_rows", counted_rows)):
                if hasattr(module, name):
                    mp.setattr(module, name, check)
        results = verify.run_suites(max_n=20, order=40)
    assert all(r.ok for r in results), results
    return counts


def test_every_identity_has_a_row(checks):
    assert len(ROW) == len(ROWS)
    assert set(checks) == set(ROW)


# positions at max_n=20, order=40: one per n of a per-n law, n + 1 per n of
# a row over c_(n,0..n), 4 or 5 per n of a row over the roots or the
# sections, order + 1 per series identity (t^0..t^order), one
# more for each table's first identity (its n column); every suite checks
# every n up to its one size
POSITIONS_AT_20_40 = {
    'master product t^n vs closed-form C_n / q^n': 230,
    '(q - 1)^2 P_n vs C_n': 20,
    'c_(n,i) vs second difference of a_(n,i)': 230,
    'reduced generating identity': 20,
    'C_n(w)/w^n evaluated vs a_d(n)': 80,
    'a_d(n): product expansion vs closed form': 80,
    '(w + 1/w - 2) P_n(w)/w^(n-1) vs a_d(n)': 80,
    'functional-equation certificate (palindromic, sum m(e), m(n) mod 2)': 20,
    'zeta log-derivative vs point count': 20,
    'Gauss product vs theta sum': 41,
    'eta quotient vs root product, d=3': 41,
    'eta quotient vs root product, d=6': 41,
    'phi(q) phi(q^2) vs absolute order-4 sequence': 41,
    'multisection recombination, signed': 41,
    'lambda(n) vs E_1(n) - 3 E_1(n/3)': 20,
    'r(n): product form vs lattice sweep': 20,
    "r'(n): product form vs lattice sweep": 20,
    "r''(n): product form vs lattice sweep": 20,
    'divisors(n): count and sum vs divisor sieve': 20,
    'middle divisors vs a_(n,0)': 20,
    'P_n(1) over divisor runs vs sigma(n)': 20,
    's_k(n): divisor runs vs closed formula': 100,
    'table 1 C_n(-1) vs r(n)': 21,
    'table 2 P_n(1) vs sigma(n)': 21,
    'table 2 4 P_n(-1) vs r(n)': 20,
    'table 2 |P_n(j)| vs |lambda(n)|': 20,
    "table 2 2 |P_n(i)| vs r'(n)": 20,
    'table 2 a_(n,0) vs middle divisors': 20,
    'table 3 |a_d(n)| vs |C_n(w)|': 81,
    'table 4 s_k(n) vs divisor runs': 81,
}


def test_checked_positions_per_identity(checks):
    assert checks == POSITIONS_AT_20_40


def test_readme_counts_one_identity_per_row():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    counts = re.findall(r"certifies (\d+) identities", readme)
    assert counts == [str(len(ROWS))]


# the kinds of reason an identity in identity_kills.txt stays for
KEPT_FOR = ("unique kills", "the paper's claim",
            "covers sizes the sweep does not reach", "own route by item 14",
            "goes with item 4")


def test_kill_matrix_has_one_line_with_a_reason_per_row():
    # "identity | kills | unique kills | where | kind: reason" lines
    text = Path(__file__).with_name("identity_kills.txt").read_text()
    lines = [line.split(" | ") for line in text.splitlines()
             if line.strip() and not line.startswith("#")]
    assert all(len(fields) == 5 for fields in lines)
    kinds = {fields[0]: fields[4].split(": ", 1) for fields in lines}
    assert all(kind[0] in KEPT_FOR and kind[1:] for kind in kinds.values())
    # an identity that goes with item 4 names the code it alone runs that
    # perfbench/spans.py wraps, which is why it waits for that change
    assert all(any(name in kind[1] for name in spans.QSERIES)
               for kind in kinds.values() if kind[0] == "goes with item 4")
    assert sorted(fields[0] for fields in lines) == sorted(ROW)
