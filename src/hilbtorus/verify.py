"""Cross-verification harness.

Each suite checks one family of identities by computing the same numbers
along genuinely different routes (closed form, polynomial evaluation,
product expansion, number-theoretic formula) and insisting on exact
agreement.  Suites raise VerificationError at the first failure with
enough context to reproduce it; run_suites collects results instead of
stopping, for the CLI, and reports any other exception a suite raises as
that suite's failure, named by its type.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Callable

from . import arith, coeffs, qseries, rootvalues, tables, zeta
from .errors import VerificationError
from .laurent import LaurentPoly
from .series import TruncatedSeries


def _require_series_equal(got: TruncatedSeries, want: TruncatedSeries,
                          what: str) -> None:
    if got.order != want.order:
        raise VerificationError(
            f"{what}: order mismatch {got.order} != {want.order}")
    for n, (a, b) in enumerate(zip(got.coeffs, want.coeffs)):
        if a != b:
            raise VerificationError(
                f"{what}: first mismatch at t^{n}: {a!r} != {b!r}")


# -- suites ----------------------------------------------------------------

def verify_coeffs(max_n: int = 300, identity_order: int = 64,
                  max_i: int = 20) -> str:
    """Triple-oracle agreement: the master product expansion, the
    closed-form coefficients, and the divisor-count route must produce
    the same polynomials; the divisor enumerator behind count_poly must
    match the per-i closed form at every i; plus the generating series per
    coefficient column and the reduced-side generating identity."""
    master = qseries.expand_master_product(max_n)
    square = LaurentPoly({2: 1, 1: -2, 0: 1})  # (q - 1)^2
    table_cache = []
    for n in range(1, max_n + 1):
        cn = coeffs.count_poly(n)
        for i in range(n + 1):
            want = (coeffs.central_coeff(n) if i == 0
                    else coeffs.offcentral_coeff(n, i))
            if cn.coeff(n + i) != want:
                raise VerificationError(
                    f"c_({n},{i}): divisor enumerator {cn.coeff(n + i)} "
                    f"!= per-i closed form {want}")
        recentered = cn.shift(-n)
        if master.coeff(n) != recentered:
            raise VerificationError(
                f"master product t^{n} disagrees with closed-form C_{n}")
        if square * coeffs.reduced_poly(n) != cn:
            raise VerificationError(
                f"(q-1)^2 * P_{n} != C_{n} (closed forms inconsistent)")
        table = coeffs.CoeffTables.build(n)
        table.check_linking()
        table_cache.append(table)
    for i in range(0, max_i + 1):
        a_series = coeffs.divisor_coeff_series(i, max_n)
        c_series = coeffs.c_coeff_series(i, max_n)
        for n in range(1, max_n + 1):
            table = table_cache[n - 1]
            if a_series.coeff(n) != table.a_at(i):
                raise VerificationError(
                    f"a-generating series disagrees at n={n}, i={i}: "
                    f"{a_series.coeff(n)} != {table.a_at(i)}")
            want_c = table.c[i] if i <= n else 0
            if c_series.coeff(n) != want_c:
                raise VerificationError(
                    f"c-generating series disagrees at n={n}, i={i}: "
                    f"{c_series.coeff(n)} != {want_c}")
    coeffs.check_reduced_generating_identity(identity_order)
    return (f"n <= {max_n}: master product, closed forms, divisor route and "
            f"generating series (i <= {max_i}) agree; reduced generating "
            f"identity holds to order {identity_order}")


def verify_roots(max_n: int = 2000, expansion_max_n: int = 500,
                 relation_max_n: int = 300) -> str:
    """Three-way agreement for the root-of-unity sequences: closed form,
    cyclotomic evaluation of C_n, and product expansion; plus the
    reduced-polynomial relation and the shared-vanishing property of the
    order-2 and order-6 sequences."""
    expansion_max_n = min(expansion_max_n, max_n)
    relation_max_n = min(relation_max_n, max_n)
    products = {d: qseries.expand_root_product(d, expansion_max_n)
                for d in rootvalues.ROOT_ORDERS}
    roots = {d: rootvalues.omega(d) for d in rootvalues.ROOT_ORDERS}
    for n in range(1, max_n + 1):
        cn = coeffs.count_poly(n)
        pn = coeffs.reduced_poly(n) if n <= relation_max_n else None
        seqs = rootvalues.root_sequences(n)
        for d in rootvalues.ROOT_ORDERS:
            evaluated = rootvalues.evaluate_at_root(cn, d)
            seq = seqs[d]
            if evaluated != seq * roots[d] ** (n % d):
                raise VerificationError(
                    f"a_{d}({n}) = {seq} inconsistent with C_{n} evaluation")
            if n <= expansion_max_n and products[d].coeff(n) != seq:
                raise VerificationError(
                    f"a_{d}({n}): product expansion {products[d].coeff(n)} "
                    f"!= closed form {seq}")
            if pn is not None:
                lhs = (qseries.ROOT_TRACE[d] - 2) * rootvalues.evaluate_at_root(pn, d)
                if lhs != seq * roots[d] ** ((n - 1) % d):
                    raise VerificationError(
                        f"(w + 1/w - 2) P_{n}(w) != a_{d}({n}) w^(n-1) "
                        f"for d={d}")
        if (seqs[6] == 0) != (seqs[2] == 0):
            raise VerificationError(
                f"a_6({n}) and a_2({n}) do not vanish together")
    return (f"n <= {max_n}: closed forms, cyclotomic evaluation and product "
            f"expansion (n <= {expansion_max_n}) agree for d in 2, 3, 4, 6; "
            f"reduced-polynomial relation holds for n <= {relation_max_n}")


def verify_zeta(max_n: int = 100, series_max_n: int = 20,
                series_terms: int = 10) -> str:
    """Functional-equation certificates, and the log-derivative series of
    the factored zeta against direct point counts."""
    for n in range(1, max_n + 1):
        zeta.functional_equation_check(n)
    for n in range(1, min(series_max_n, max_n) + 1):
        for q0 in (2, 3):
            zeta.zeta_series_check(n, q0, series_terms)
    return (f"n <= {max_n}: functional-equation certificates pass; "
            f"log-derivative series match point counts for "
            f"n <= {min(series_max_n, max_n)}, q0 in (2, 3), "
            f"{series_terms} terms")


def _theta_square(order: int) -> TruncatedSeries:
    """(sum_k (-1)^k t^(k^2))^2 by direct convolution of the supports."""
    out = [0] * (order + 1)
    kmax = math.isqrt(order)
    for k in range(-kmax, kmax + 1):
        k2 = k * k
        for l in range(-kmax, kmax + 1):
            e = k2 + l * l
            if e <= order:
                out[e] += -1 if (k + l) % 2 else 1
    return TruncatedSeries(order, out)


def verify_qseries(order: int = 2000) -> str:
    """The generating-function identities: Gauss's product/theta identity
    and its square, the eta-quotient forms of all four root products, the
    phi/psi expressions for the order-4 sequence and its absolute values,
    and the four-way multisection recombination behind them."""
    gauss = qseries.gauss_series(order)
    _require_series_equal(gauss, qseries.gauss_theta_series(order),
                          "Gauss product vs theta sum")
    rp = {d: qseries.expand_root_product(d, order)
          for d in rootvalues.ROOT_ORDERS}
    _require_series_equal(_theta_square(order), rp[2],
                          "theta-square vs order-2 root product")
    for d in rootvalues.ROOT_ORDERS:
        _require_series_equal(
            qseries.eta_quotient_series(qseries.ROOT_ETA_SPECS[d], order),
            rp[d], f"eta quotient vs root product, d={d}")
    abs4 = TruncatedSeries(order, [abs(c) for c in rp[4].coeffs])
    _require_series_equal(
        qseries.eta_quotient_series(qseries.ABS_QUARTIC_ETA_SPEC, order),
        abs4, "eta quotient vs absolute order-4 sequence")
    phi = qseries.phi_series
    psi = qseries.psi_series
    _require_series_equal(phi(1, order, True) * phi(2, order, True), rp[4],
                          "phi(-q) phi(-q^2) vs order-4 root product")
    _require_series_equal(phi(1, order) * phi(2, order), abs4,
                          "phi(q) phi(q^2) vs absolute order-4 sequence")
    _require_series_equal(phi(4, order) + 2 * psi(8, order).shift(1),
                          phi(1, order), "phi(q^4) + 2q psi(q^8) vs phi(q)")
    _require_series_equal(phi(4, order) - 2 * psi(8, order).shift(1),
                          phi(1, order, True),
                          "phi(q^4) - 2q psi(q^8) vs phi(-q)")
    blocks = (
        phi(4, order) * phi(8, order),
        psi(8, order) * phi(8, order),
        psi(16, order) * phi(4, order),
        psi(8, order) * psi(16, order),
    )
    for which, block in enumerate(blocks):
        for e, c in enumerate(block.coeffs):
            if c and e % 4:
                raise VerificationError(
                    f"multisection block {which} has a t^{e} term")
            if c < 0:
                raise VerificationError(
                    f"multisection block {which} has negative t^{e} term")
    signs = (1, -2, -2, 4)
    signed = [0] * (order + 1)
    unsigned = [0] * (order + 1)
    for m in range(order + 1):
        r = m % 4
        value = blocks[r].coeff(m - r)
        signed[m] = signs[r] * value
        unsigned[m] = abs(signs[r]) * value
    _require_series_equal(TruncatedSeries(order, signed), rp[4],
                          "multisection recombination, signed")
    _require_series_equal(TruncatedSeries(order, unsigned), abs4,
                          "multisection recombination, absolute")
    return (f"order {order}: Gauss identity, eta quotients, phi/psi "
            f"identities and multisection recombination all hold")


def verify_arith(max_n: int = 10000) -> str:
    """Number-theoretic laws used by the closed forms."""
    for n in range(1, max_n + 1):
        m3 = n // 3 if n % 3 == 0 else 0
        if arith.lambda_fn(n) != arith.excess_e1(n) - 3 * arith.excess_e1(m3):
            raise VerificationError(f"excess formula fails at n={n}")
        if arith.r2(n) % 4:
            raise VerificationError(f"r({n}) = {arith.r2(n)} not divisible by 4")
        if arith.r_hex(n) != 6 * arith.excess_e1(n):
            raise VerificationError(f"hexagonal count at n={n} is not 6 E_1")
        if arith.middle_divisors(n) != coeffs.divisor_coeff(n, 0):
            raise VerificationError(
                f"middle-divisor count disagrees with a_({n},0)")
        # P_n(1): a run lo..hi adds 1 at i = 0 and 2 at each i >= 1
        total = sum(2 * (hi - lo) + (1 if lo == 0 else 2)
                    for lo, hi in coeffs.divisor_intervals(n))
        if total != arith.sigma(n):
            raise VerificationError(
                f"coefficient sum of P_{n} differs from sigma({n})")
    pairs = 0
    for m in range(2, math.isqrt(max_n) + 1):
        for n in range(m + 1, max_n // m + 1):
            if math.gcd(m, n) == 1:
                pairs += 1
                if arith.lambda_fn(m * n) != arith.lambda_fn(m) * arith.lambda_fn(n):
                    raise VerificationError(
                        f"multiplicativity fails at ({m}, {n})")
    return (f"n <= {max_n}: excess formula, divisibility, hexagonal and "
            f"middle-divisor laws, sigma law; multiplicativity on "
            f"{pairs} coprime pairs")


def verify_sections(max_n: int = 1000) -> str:
    """Section sums counted on the divisor runs of P_n's coefficients
    against the closed section formulas in sigma, r, r', r'' and lambda."""
    for n in range(1, max_n + 1):
        formulas = rootvalues.section_formulas(n)
        for k in rootvalues.SECTION_KS:
            direct = rootvalues.section_direct(n, k)
            formula = formulas[k]
            if direct != formula:
                raise VerificationError(
                    f"s_{k}({n}): direct {direct} != formula {formula}")
    return f"n <= {max_n}: direct and closed-form sections agree for k in 1, 2, 3, 4, 6"


def verify_tables(max_n: int = 18) -> str:
    """Every table cell recomputed along an independent route."""
    small = min(max_n, 12)
    for (n, _text, at_minus1) in tables.table_data(1, small)["rows"]:
        if at_minus1 != arith.r2(n):
            raise VerificationError(f"C_{n}(-1) != r({n})")
    for (n, _text, at1, atm1, absj, absi, central) in tables.table_data(2, small)["rows"]:
        if at1 != arith.sigma(n):
            raise VerificationError(f"P_{n}(1) != sigma({n})")
        if 4 * atm1 != arith.r2(n):
            raise VerificationError(f"P_{n}(-1) != r({n})/4")
        if absj != abs(arith.lambda_fn(n)):
            raise VerificationError(f"|P_{n}| at the third root is off")
        if 2 * absi != arith.r_prime(n):
            raise VerificationError(f"|P_{n}| at the fourth root is off")
        if central != arith.middle_divisors(n):
            raise VerificationError(f"central coefficient of P_{n} is off")
    for row in tables.table_data(3, max_n)["rows"]:
        n = row[0]
        for d, cell in zip(rootvalues.ROOT_ORDERS, row[1:]):
            value = rootvalues.evaluate_at_root(coeffs.count_poly(n), d)
            if (value != rootvalues.count_at_root(n, d)
                    or abs(rootvalues.root_sequence(n, d)) != cell):
                raise VerificationError(f"|a_{d}({n})| cell is off")
    for row in tables.table_data(4, max_n)["rows"]:
        n = row[0]
        for k, cell in zip((2, 3, 4, 6), row[1:]):
            if cell != rootvalues.section_direct(n, k):
                raise VerificationError(f"s_{k}({n}) cell is off")
    return (f"tables 1-2 (n <= {small}) and 3-4 (n <= {max_n}) consistent "
            f"with the independent routes")


# -- registry --------------------------------------------------------------

@dataclass(frozen=True)
class SuiteResult:
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

# which keyword each suite understands, for the CLI overrides
_SIZE_KEYWORD = {
    "coeffs": "max_n",
    "roots": "max_n",
    "zeta": "max_n",
    "qseries": None,
    "arith": "max_n",
    "sections": "max_n",
    "tables": "max_n",
}
_ORDER_KEYWORD = {
    "coeffs": "identity_order",
    "roots": "expansion_max_n",
    "zeta": None,
    "qseries": "order",
    "arith": None,
    "sections": None,
    "tables": None,
}


def run_suites(names: list[str] | None = None,
               max_n: int | None = None,
               order: int | None = None) -> list[SuiteResult]:
    """Run the named suites (all by default) and collect results; a suite
    that raises fails alone and the rest still run."""
    chosen = list(SUITES) if names is None else names
    results = []
    for name in chosen:
        if name not in SUITES:
            raise ValueError(
                f"unknown suite {name!r}; known: {', '.join(SUITES)}")
        kwargs = {}
        if max_n is not None and _SIZE_KEYWORD[name]:
            kwargs[_SIZE_KEYWORD[name]] = max_n
        if order is not None and _ORDER_KEYWORD[name]:
            kwargs[_ORDER_KEYWORD[name]] = order
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
