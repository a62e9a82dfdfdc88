"""Product-side oracles: exact expansions of the generating products.

The master identity expanded here is

    1 + sum_{n>=1} (C_n(q)/q^n) t^n
        = prod_{i>=1} (1 - t^i)^2 / (1 - (q + 1/q) t^i + t^{2i}),

together with its root-of-unity specializations (q + 1/q -> -2, -1, 0, 1),
Gauss's product (1 - t^i)/(1 + t^i), the classical theta series phi and psi,
and eta-quotient expansions.  Everything is exact integer arithmetic; these
expansions are the independent oracle against which the closed forms in
coeffs.py and rootvalues.py are checked, so none of them may consult those
closed forms.

Performance notes.  Factor i only touches t^i and above, so factors beyond
the truncation order are skipped.  Integer-coefficient products are plain
recurrences on lists of Python ints, one pass per binomial factor; an eta
factor prod_n (1 - t^(scale n)) is Euler's pentagonal series, with only
~2 sqrt(2N / (3 scale)) nonzero terms below order N.

Only the master product packs each t-row into one big int, its Laurent
coefficients as balanced base-2^B digits, so that multiplying by q or 1/q
is a shift.  B is chosen so digits can never collide: every intermediate
coefficient is bounded by that of prod_i (1 - t^i)^(-k), k = 4, and for
0 < t < 1

    log p_k(m) <= m log(1/t) + k sum_j t^j / (j (1 - t^j))
               <= 2 m (1-t) / t ... choosing 1 - t = sqrt(k pi^2 / (12 m))
               <= 2 pi sqrt(k m / 3),

with the crude cap  m + k pi^2 / 3  covering the small-m regime.  B adds 16
guard bits, is rounded up to whole bytes and is computed in integers only;
unpacking raises ArithmeticError if a digit reaches a quarter of its range.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .laurent import LaurentPoly
from .series import TruncatedSeries

# q + 1/q at a primitive d-th root of unity, for the orders with
# quadratic-integer values
ROOT_TRACE = {2: -2, 3: -1, 4: 0, 6: 1}


def _digit_bits(order: int) -> int:
    """Digit width B for the master product (k = 4 in the module docstring),
    in integers only: 2 pi / ln 2 < 9065/1000 puts the saddle bound, in bits,
    below the isqrt term, and with pi < 22/7 the crude cap below
    4 * 9065 * 22 / (1000 * 21) < 38."""
    saddle = math.isqrt(4 * order * 9065 ** 2 // (3 * 1000 ** 2)) + 1
    bits = max(saddle, 38) + 16
    return -(-bits // 8) * 8


def _unpack_row(x: int, bits: int, count: int) -> list[int]:
    """The count balanced base-2^bits digits of x, bits a multiple of 8.

    Adding half the range to every digit makes them all nonnegative with no
    carries, so one to_bytes and a byte slice per digit recover them.  Raises
    ArithmeticError if x does not fit or a digit reaches a quarter of the range."""
    width = bits // 8
    biased = x + int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    if biased < 0 or biased.bit_length() > bits * count:
        raise ArithmeticError(f"packed row does not fit {count} digits of {bits} bits")
    raw = biased.to_bytes(width * count, "little")
    half = 1 << (bits - 1)
    digits = [int.from_bytes(raw[k:k + width], "little") - half
              for k in range(0, width * count, width)]
    quarter = half >> 1
    if max(digits) >= quarter or min(digits) <= -quarter:
        raise ArithmeticError(f"packed digit reached a quarter of its {bits}-bit range")
    return digits


@functools.lru_cache(maxsize=16)
def expand_root_product(d: int, order: int) -> TruncatedSeries:
    """prod_i (1 - t^i)^2 / (1 - u t^i + t^{2i}) with u = ROOT_TRACE[d].

    The t^n coefficient is the integer sequence a_d(n) = C_n(w)/w^n for w a
    primitive d-th root of unity.  The denominator is divided out by its
    literal feedback recurrence, not through any product rewriting, so this
    stays an independent route from the eta-quotient expansions.
    """
    if d not in ROOT_TRACE:
        raise ValueError(f"d must be one of {sorted(ROOT_TRACE)}, got {d}")
    u = ROOT_TRACE[d]
    n1 = order + 1
    c = [0] * n1
    c[0] = 1
    for i in range(1, n1):
        for _ in range(2):
            for m in range(order, i - 1, -1):
                c[m] -= c[m - i]
        i2 = 2 * i
        if u:
            for m in range(i, n1):
                acc = c[m] + u * c[m - i]
                if m >= i2:
                    acc -= c[m - i2]
                c[m] = acc
        else:
            for m in range(i2, n1):
                c[m] -= c[m - i2]
    return TruncatedSeries(order, c)


@functools.lru_cache(maxsize=4)
def expand_master_product(order: int) -> TruncatedSeries:
    """The two-variable master product, coefficients Laurent in q.

    The t^n coefficient equals C_n(q)/q^n (support [-n, n]).  Each t-row is
    packed along the q direction; position e + (order + 1) holds the q^e
    digit, so multiplying by q or 1/q is one shift.  1/q never drops bits:
    the support bound keeps the bottom digit position empty (e >= -n > -off
    whenever a row is shifted down).
    """
    bits = _digit_bits(order)
    off = n1 = order + 1
    c = [0] * n1
    c[0] = 1 << (bits * off)
    for i in range(1, n1):
        for _ in range(2):
            for m in range(order, i - 1, -1):
                c[m] -= c[m - i]
        i2 = 2 * i
        for m in range(i, n1):
            x = c[m - i]
            acc = c[m] + (x << bits) + (x >> bits)
            if m >= i2:
                acc -= c[m - i2]
            c[m] = acc
    rows = []
    for m, packed in enumerate(c):
        digits = _unpack_row(packed, bits, 2 * off + 1)
        rows.append(LaurentPoly({pos - off: v for pos, v in enumerate(digits) if v}))
    return TruncatedSeries(order, rows)


def expand_master_product_reference(order: int) -> TruncatedSeries:
    """Slow reference expansion by generic series multiply and invert.

    Same mathematical content as expand_master_product, kept as the
    cross-check for the packed kernel (quadratic coefficient cost per
    factor; use small orders only).
    """
    u = LaurentPoly({1: 1, -1: 1})  # q + 1/q
    acc = TruncatedSeries(order, [LaurentPoly.one()])
    for i in range(1, order + 1):
        num = TruncatedSeries(order, _monomial_row(order, i))
        den = _denominator_row(order, i, u)
        acc = acc * num * num * den.invert()
    return acc


def _monomial_row(order: int, i: int) -> list:
    row: list = [0] * (order + 1)
    row[0] = LaurentPoly.one()
    if i <= order:
        row[i] = -LaurentPoly.one()
    return row


def _denominator_row(order: int, i: int, u: LaurentPoly) -> TruncatedSeries:
    row: list = [0] * (order + 1)
    row[0] = LaurentPoly.one()
    if i <= order:
        row[i] = -u
    if 2 * i <= order:
        row[2 * i] = LaurentPoly.one()
    return TruncatedSeries(order, row)


# -- Gauss's product and the theta series ----------------------------------

@functools.lru_cache(maxsize=4)
def gauss_series(order: int) -> TruncatedSeries:
    """prod_{i>=1} (1 - t^i)/(1 + t^i) expanded factor by factor: multiply
    by (1 - t^i) walking down, then divide by (1 + t^i) walking up."""
    n1 = order + 1
    c = [0] * n1
    c[0] = 1
    for i in range(1, n1):
        for m in range(order, i - 1, -1):
            c[m] -= c[m - i]
        for m in range(i, n1):
            c[m] -= c[m - i]
    return TruncatedSeries(order, c)


def gauss_theta_series(order: int) -> TruncatedSeries:
    """sum_{k in Z} (-1)^k t^(k^2) = 1 + 2 sum_{k>=1} (-1)^k t^(k^2)."""
    out = [0] * (order + 1)
    out[0] = 1
    k = 1
    while k * k <= order:
        out[k * k] += -2 if k % 2 else 2
        k += 1
    return TruncatedSeries(order, out)


def phi_series(scale: int, order: int, negate_arg: bool = False) -> TruncatedSeries:
    """phi(q^scale) = 1 + 2 sum_{n>=1} q^(scale n^2); with negate_arg, the
    argument is -q^scale and the n-th term picks up (-1)^n."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    out = [0] * (order + 1)
    out[0] = 1
    n = 1
    while scale * n * n <= order:
        out[scale * n * n] += -2 if (negate_arg and n % 2) else 2
        n += 1
    return TruncatedSeries(order, out)


def psi_series(scale: int, order: int) -> TruncatedSeries:
    """psi(q^scale) = sum_{n>=0} q^(scale n(n+1)/2)."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    out = [0] * (order + 1)
    n = 0
    while scale * n * (n + 1) // 2 <= order:
        out[scale * n * (n + 1) // 2] += 1
        n += 1
    return TruncatedSeries(order, out)


# -- eta quotients ---------------------------------------------------------

@dataclass(frozen=True)
class EtaQuotientSpec:
    """A finite product prod eta(scale * z)^exp, factors = ((scale, exp), ...).

    The series expansion in t = q^(1/1) exists when the prefactor exponent
    sum(scale * exp) / 24 is a nonnegative integer.
    """

    factors: tuple[tuple[int, int], ...]

    @property
    def prefactor_exponent(self) -> Fraction:
        return Fraction(sum(s * e for s, e in self.factors), 24)

    def validate(self) -> int:
        pre = self.prefactor_exponent
        if pre.denominator != 1 or pre < 0:
            raise ValueError(
                f"eta quotient has no power-series expansion: prefactor "
                f"exponent {pre} is not a nonnegative integer")
        for s, _ in self.factors:
            if s < 1:
                raise ValueError(f"eta scale must be >= 1, got {s}")
        return int(pre)


# eta-quotient forms of the four root products, and of the
# absolute-value variant of the d=4 sequence
ROOT_ETA_SPECS = {
    2: EtaQuotientSpec(((1, 4), (2, -2))),
    3: EtaQuotientSpec(((1, 3), (3, -1))),
    4: EtaQuotientSpec(((1, 2), (2, 1), (4, -1))),
    6: EtaQuotientSpec(((1, 1), (2, 1), (3, 1), (6, -1))),
}
ABS_QUARTIC_ETA_SPEC = EtaQuotientSpec(((2, 3), (4, 3), (1, -2), (8, -2)))


def _pentagonal_terms(scale: int, order: int) -> list[tuple[int, int]]:
    """(exponent, coefficient), ascending, of the terms up to t^order of
    prod_{n>=1} (1 - t^(scale n)) - 1 = sum_{k != 0} (-1)^k t^(scale k(3k-1)/2)
    (Euler's pentagonal theorem); k(3k-1)/2 >= k^2 bounds |k|."""
    return [(scale * g, -1 if k % 2 else 1)
            for k in range(1, math.isqrt(order // scale) + 1)
            for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2)
            if scale * g <= order]


@functools.lru_cache(maxsize=16)
def eta_quotient_series(spec: EtaQuotientSpec, order: int) -> TruncatedSeries:
    """Expand prod_i prod_{n>=1} (1 - t^(scale n))^exp, shifted by the
    integer prefactor exponent.

    With P = 1 + sum_j p_j t^j a factor's pentagonal series, x * P is taken
    in place walking down, and x / P walking up by x[m] -= sum_j p_j x[m-j].
    """
    pre = spec.validate()
    n1 = order + 1
    x = [0] * n1
    x[0] = 1
    for scale, e in spec.factors:
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
