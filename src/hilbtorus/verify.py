"""Cross-verification harness.

Each suite checks one family of identities by computing the same numbers
along genuinely different routes (closed form, polynomial evaluation,
product expansion, number-theoretic formula) and insisting on exact
agreement.  Every check is errors.expect(identity, index, got, want), or
errors.expect_rows for one n's, one i's or one series' row of values: a
suite stops at the first failure with a VerificationError whose message,
"identity at index: got != want", names the identity, where it failed and
both values; within a row the first differing position is the one
reported.  run_suites checks the suite names before running any, then
collects results instead of stopping, for the CLI, and reports any other
exception a suite raises as that suite's failure, named by its type.
"""

from __future__ import annotations

import os
import time
from typing import Callable, NamedTuple

from . import arith, coeffs, qseries, rootvalues, tables, zeta
from .errors import VerificationError, expect, expect_rows
from .series import TruncatedSeries


# -- suites ----------------------------------------------------------------

def verify_coeffs(max_n: int = 300) -> str:
    """C_n's odd-divisor route (count_poly) against two oracles: the master
    product expansion, read as its half rows c_(n,0), ..., c_(n,n), and
    (q - 1)^2 P_n from P_n's divisor runs; the linking relation of the c
    and a rows; and the reduced-side generating identity to order max_n,
    whose q^i slices are the generating series of every coefficient column
    a_(n,i).  That identity is never the first witness of a fault here (a
    fault in P_n's runs fails "(q - 1)^2 P_n vs C_n" at the same n first);
    it stays because it certifies the paper's generating function for the
    a-columns, and its row in the mutation table calls
    check_reduced_generating_identity alone.  A fault in count_poly fails
    the master product at the same n, so the per-i closed form, one
    trapezoidal probe per i, is a test reference, not a check here."""
    master = qseries.expand_master_product(max_n)
    for n in range(1, max_n + 1):
        cn = coeffs.count_poly(n)
        table = coeffs.CoeffTables.build(n, cn)  # table.c[i] is cn's q^(n+i)
        expect_rows("master product t^n vs closed-form C_n / q^n",
                    lambda e: f"n={n}, e={e}", master[n], list(table.c))
        expect("(q - 1)^2 P_n vs C_n", f"n={n}",
               coeffs.reduced_times_square(n), cn)
        table.check_linking()
    coeffs.check_reduced_generating_identity(max_n)
    return (f"n <= {max_n}: master product, C_n's odd divisors and P_n's "
            f"divisor runs agree; reduced generating identity holds to order "
            f"{max_n}")


def verify_roots(max_n: int = 2000) -> str:
    """Three-way agreement for the root-of-unity sequences a_d(n): closed
    form, cyclotomic evaluation of C_n(w)/w^n, and product expansion.  w^n
    is a unit, so each route is compared with the integer a_d(n) itself."""
    ds = rootvalues.ROOT_ORDERS
    products = [qseries.expand_root_product(d, max_n) for d in ds]
    for n in range(1, max_n + 1):
        seqs = rootvalues.root_sequences(n)
        want = [seqs[d] for d in ds]

        def at(p):
            return f"n={n}, d={ds[p]}"

        cn_at = rootvalues.evaluate_at_roots(coeffs.count_poly(n), shift=n)
        expect_rows("C_n(w)/w^n evaluated vs a_d(n)", at,
                    [cn_at[d] for d in ds], want)
        expect_rows("a_d(n): product expansion vs closed form", at,
                    [product.coeff(n) for product in products], want)
    return (f"n <= {max_n}: closed forms, cyclotomic evaluation and product "
            "expansion agree for d in 2, 3, 4, 6")


def verify_zeta(max_n: int = 100) -> str:
    """Functional-equation certificates, and the log-derivative series of
    the factored zeta against the point counts at every prime power, one
    identity of Laurent polynomials per n; both read one factored zeta."""
    for n in range(1, max_n + 1):
        z = zeta.build_local_zeta(n)
        zeta.functional_equation_check(z)
        zeta.zeta_series_check(z)
    return (f"n <= {max_n}: functional-equation certificates pass; "
            "log-derivative series match point counts at every prime power")


def verify_qseries(order: int = 2000) -> str:
    """The generating-function identities, each one row of coefficients
    t^0..t^order: Gauss's product against the theta series phi(-q), the
    eta-quotient forms of the order-3 and order-6 root products, phi(q)
    phi(q^2) against the absolute values of the order-4 sequence, and the
    four-way multisection of the order-4 sequence as a series identity,
    B_0 - 2t B_1 - 2t^2 B_2 + 4t^3 B_3, each block B_j a product of phi and
    psi at t^4, t^8 and t^16, so nonnegative and supported on the exponents
    4k by construction.  The order-2 and order-4 root products' theta forms
    phi(-q)^2 and phi(-q) phi(-q^2) are the lattice counts r(n) and r'(n)
    with signs, which the roots suite and the arith sweeps certify, so they
    are not checked again here; nor is phi(q) = phi(q^4) + 2q psi(q^8): a
    fault in phi or psi at t^4, t^8 or t^16 fails the recombination."""
    def at(n):
        return f"t^{n}"

    phi, psi = qseries.phi_series, qseries.psi_series
    expect_rows("Gauss product vs theta sum", at,
                qseries.gauss_series(order).coeffs, phi(1, order, True).coeffs)
    rp = {d: qseries.expand_root_product(d, order).coeffs for d in (3, 4, 6)}
    for d, spec in qseries.ROOT_ETA_SPECS.items():
        expect_rows(f"eta quotient vs root product, d={d}", at,
                    qseries.eta_quotient_series(spec, order).coeffs, rp[d])
    # built as a series, so that the constructor's padding is checked too
    abs4 = TruncatedSeries(order, [abs(c) for c in rp[4]])
    expect_rows("phi(q) phi(q^2) vs absolute order-4 sequence", at,
                (phi(1, order) * phi(2, order)).coeffs, abs4.coeffs)
    blocks = (
        phi(4, order) * phi(8, order),
        psi(8, order) * phi(8, order),
        psi(16, order) * phi(4, order),
        psi(8, order) * psi(16, order),
    )
    expect_rows("multisection recombination, signed", at,
                (blocks[0] - 2 * blocks[1].shift(1) - 2 * blocks[2].shift(2)
                 + 4 * blocks[3].shift(3)).coeffs, rp[4])
    return (f"order {order}: Gauss identity, eta quotients, phi/psi "
            f"identities and multisection recombination all hold")


def verify_arith(max_n: int = 10000) -> str:
    """Number-theoretic laws used by the closed forms, and the product forms
    of divisors and the lattice counts against routes that never factorize:
    a lattice sweep for each form, and a divisor sieve.  a_(n,0), the number
    of P_n's divisor runs from i = 0, and P_n(1) are read off one run list,
    so a fault in the run bounds fails the middle divisors first.  "P_n(1)
    over divisor runs vs sigma(n)" is the k = 1 case of the sections
    identity; at the default sizes it alone covers 1000 < n <= max_n, so
    it stays until a suite checks the sections at large n.  lambda is a
    product over factorize(n), so multiplicative by construction: no law
    here checks that.  Nor is r''(n) = 6 E_1(n) checked: the lattice sweep
    checks r'' at the same n, and E_1 meets lambda in the excess formula."""
    sweeps = [(f"{name}(n): product form vs lattice sweep",
               arith.lattice_counts(b, c, max_n))
              for name, b, c in (("r", 0, 1), ("r'", 0, 2), ("r''", 1, 1))]
    dcount, dsum = [0] * (max_n + 1), [0] * (max_n + 1)
    for d in range(1, max_n + 1):
        for m in range(d, max_n + 1, d):
            dcount[m] += 1
            dsum[m] += d
    e1 = [0]  # E_1(0) = 0 stands in for E_1(n/3) when 3 does not divide n
    for n in range(1, max_n + 1):
        at = f"n={n}"
        e1.append(arith.excess_e1(n))
        expect("lambda(n) vs E_1(n) - 3 E_1(n/3)", at, arith.lambda_fn(n),
               e1[n] - 3 * e1[n // 3 if n % 3 == 0 else 0])
        for (what, counts), count in zip(sweeps, (arith.r2, arith.r_prime,
                                                  arith.r_hex)):
            expect(what, at, count(n), counts[n])
        ds = arith.divisors(n)
        expect("divisors(n): count and sum vs divisor sieve", at,
               (len(ds), sum(ds)), (dcount[n], dsum[n]))
        runs = coeffs.divisor_intervals(n)
        expect("middle divisors vs a_(n,0)", at, arith.middle_divisors(n),
               sum(lo == 0 for lo, _ in runs))
        # P_n(1): a run lo..hi of a_(n,i) adds q^(n-1+i) for each i in it and
        # q^(n-1-i) for each i >= 1 in it
        total = sum(2 * (hi - lo) + 1 + (lo > 0) for lo, hi in runs)
        expect("P_n(1) over divisor runs vs sigma(n)", at, total, arith.sigma(n))
    return (f"n <= {max_n}: excess formula, middle-divisor law, sigma law, "
            f"product forms of r, r' and r'' vs lattice sweeps, divisors vs "
            f"divisor sieve")


def verify_sections(max_n: int = 1000) -> str:
    """Two linear functionals of P_n's residue sums mod 12, counted once per
    n on its divisor runs: its values at the roots of unity against a_d(n)
    through the reduced-polynomial relation, then its section sums against
    the closed section formulas in sigma, r, r', r'' and lambda."""
    ds = rootvalues.ROOT_ORDERS
    factors = [qseries.ROOT_TRACE[d] - 2 for d in ds]  # w + 1/w - 2
    for n in range(1, max_n + 1):
        by12 = coeffs.reduced_residue_sums(n)
        seqs = rootvalues.root_sequences(n)
        pn_at = rootvalues.fold_at_roots(by12, shift=n - 1)
        expect_rows("(w + 1/w - 2) P_n(w)/w^(n-1) vs a_d(n)",
                    lambda p: f"n={n}, d={ds[p]}",
                    [f * pn_at[d] for f, d in zip(factors, ds)],
                    [seqs[d] for d in ds])
        # whole rows: section_formulas writes its keys literally, and
        # section_direct reads them off SECTION_KS
        formulas = rootvalues.section_formulas(n)
        expect_rows("s_k(n): divisor runs vs closed formula",
                    lambda p: f"n={n}, k={list(formulas)[p]}",
                    list(rootvalues.section_direct(by12).values()),
                    list(formulas.values()))
    return (f"n <= {max_n}: reduced-polynomial relation holds for d in 2, 3, "
            "4, 6; direct and closed-form sections agree for k in 1, 2, 3, 4, 6")


def _table_rows(which: int, max_n: int, identity: str) -> list[tuple]:
    """Table which's rows, once its n column is checked to read 1..max_n in
    order, at index "rows" of the table's first identity."""
    rows = tables.table_data(which, max_n)["rows"]
    expect(identity, "rows", [row[0] for row in rows], list(range(1, max_n + 1)))
    return rows


def verify_tables(max_n: int = 18) -> str:
    """Every table has one row per n <= max_n, and every cell recomputed
    along an independent route."""
    for (n, _text, at_minus1) in _table_rows(1, max_n, "table 1 C_n(-1) vs r(n)"):
        expect("table 1 C_n(-1) vs r(n)", f"n={n}", at_minus1, arith.r2(n))
    for (n, _text, at1, atm1, absj, absi, central) in _table_rows(
            2, max_n, "table 2 P_n(1) vs sigma(n)"):
        at = f"n={n}"
        expect("table 2 P_n(1) vs sigma(n)", at, at1, arith.sigma(n))
        expect("table 2 4 P_n(-1) vs r(n)", at, 4 * atm1, arith.r2(n))
        expect("table 2 |P_n(j)| vs |lambda(n)|", at, absj, abs(arith.lambda_fn(n)))
        expect("table 2 2 |P_n(i)| vs r'(n)", at, 2 * absi, arith.r_prime(n))
        expect("table 2 a_(n,0) vs middle divisors", at, central,
               arith.middle_divisors(n))
    ds = rootvalues.ROOT_ORDERS
    for n, *cells in _table_rows(3, max_n, "table 3 |a_d(n)| vs |C_n(w)|"):
        cn_at = rootvalues.evaluate_at_roots(coeffs.count_poly(n))
        expect_rows("table 3 |a_d(n)| vs |C_n(w)|", lambda p: f"n={n}, d={ds[p]}",
                    cells, [tables.abs_cyclotomic(cn_at[d]) for d in ds])
    ks = (2, 3, 4, 6)
    for n, *cells in _table_rows(4, max_n, "table 4 s_k(n) vs divisor runs"):
        direct = rootvalues.section_direct(coeffs.reduced_residue_sums(n))
        expect_rows("table 4 s_k(n) vs divisor runs", lambda p: f"n={n}, k={ks[p]}",
                    cells, [direct[k] for k in ks])
    return f"tables 1-4 (n <= {max_n}) consistent with the independent routes"


# -- registry --------------------------------------------------------------

class SuiteResult(NamedTuple):
    name: str
    ok: bool
    seconds: float
    detail: str


SUITES: dict[str, Callable[..., str]] = {
    "coeffs": verify_coeffs,
    "roots": verify_roots,
    "zeta": verify_zeta,
    "qseries": verify_qseries,
    "arith": verify_arith,
    "sections": verify_sections,
    "tables": verify_tables,
}

# the one size keyword of each suite, read before anything wraps SUITES:
# --order sets it for qseries and --max-n for every other suite
_SIZE_KEYWORD = {name: suite.__code__.co_varnames[0]
                 for name, suite in SUITES.items()}


def run_suites(names: list[str] | None = None,
               max_n: int | None = None,
               order: int | None = None) -> list[SuiteResult]:
    """Run the named suites (all by default), each once in the order it is
    first named, and collect results; a suite that raises fails alone and
    the rest still run.  Raises ValueError, naming every unknown suite,
    before any suite runs."""
    chosen = list(dict.fromkeys(SUITES if names is None else names))
    unknown = [name for name in chosen if name not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}; "
                         f"known: {', '.join(SUITES)}")
    results = []
    for name in chosen:
        keyword = _SIZE_KEYWORD[name]
        size = order if keyword == "order" else max_n
        kwargs = {} if size is None else {keyword: size}
        start = time.perf_counter()
        try:
            detail = SUITES[name](**kwargs)
            ok = True
        except VerificationError as exc:
            detail = str(exc)
            ok = False
        except Exception as exc:  # any other fault fails this suite only
            tb = exc.__traceback__
            while tb.tb_next:
                tb = tb.tb_next
            code = tb.tb_frame.f_code
            detail = (f"{type(exc).__name__}: {exc} (raised in {code.co_name}, "
                      f"{os.path.basename(code.co_filename)}:{tb.tb_lineno})")
            ok = False
        results.append(SuiteResult(name, ok, time.perf_counter() - start, detail))
    return results
