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

The master product and its root specializations share one recurrence,
Euler's logarithmic derivative.  With p_j = w^j + w^-j for the roots w, 1/w
of 1 - u x + x^2, the expansion F = sum c_n t^n has c_0 = 1 and

    n c_n = sum_{k=1..n} b_k c_{n-k},    b_k = sum_{ij=k} i (p_j - 2),

since t F'/F = sum b_k t^k; each division by n is checked exact.  At a root
of unity p_j is an int from the literal trace u (p_0 = 2, p_1 = u,
p_j = u p_{j-1} - p_{j-2}), so no eta rewriting enters; for the master
product p_j = q^j + q^-j, on sparse {exponent: coeff} rows.  An eta factor
prod_n (1 - t^(scale n)) is Euler's pentagonal series, with only
~2 sqrt(2N / (3 scale)) nonzero terms below order N.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .arith import exact_div
from .laurent import LaurentPoly
from .series import TruncatedSeries

# q + 1/q at a primitive d-th root of unity, for the orders with
# quadratic-integer values
ROOT_TRACE = {2: -2, 3: -1, 4: 0, 6: 1}


def _log_derivative_product(b: list, order: int, one, dot) -> list:
    """c_0..c_order with c_0 = one and n c_n = sum_{k=1..n} b_k c_{n-k}, where
    dot(bs, cs, n) returns c_n from bs = b_1..b_n and cs = c_{n-1}..c_0."""
    c = [one]
    for n in range(1, order + 1):
        c.append(dot(b[1:n + 1], reversed(c), n))
    return c


def _laurent_dot(hs, cs, n: int) -> dict:
    """c_n for Laurent rows, from the halves h_k of b_k = h_k(q) + h_k(1/q):
    every row is palindromic (F is invariant under q -> 1/q), so b_k c_m is
    h_k c_m plus its mirror image and only h_k c_m is multiplied out."""
    acc = defaultdict(int)
    for h, row in zip(hs, cs):
        row = row.items()
        for e1, v1 in h.items():
            for e2, v2 in row:
                acc[e1 + e2] += v1 * v2
    out = {}
    for e in set(map(abs, acc)):
        v = acc.get(e, 0) + acc.get(-e, 0)
        if v:
            out[e] = out[-e] = exact_div(v, n, "log-derivative recurrence")
    return out


@functools.lru_cache(maxsize=16)
def expand_root_product(d: int, order: int) -> TruncatedSeries:
    """prod_i (1 - t^i)^2 / (1 - u t^i + t^{2i}) with u = ROOT_TRACE[d]; the
    t^n coefficient is a_d(n) = C_n(w)/w^n, w a primitive d-th root of unity."""
    if d not in ROOT_TRACE:
        raise ValueError(f"d must be one of {sorted(ROOT_TRACE)}, got {d}")
    u = ROOT_TRACE[d]
    p = [2, u]
    for _ in range(2, order + 1):
        p.append(u * p[-1] - p[-2])
    b = [0] * (order + 1)
    for i in range(1, order + 1):
        for j in range(1, order // i + 1):
            b[i * j] += i * (p[j] - 2)
    return TruncatedSeries(order, _log_derivative_product(
        b, order, 1, lambda bs, cs, n: exact_div(
            sum(map(mul, bs, cs)), n, "log-derivative recurrence")))


@functools.lru_cache(maxsize=4)
def expand_master_product(order: int) -> TruncatedSeries:
    """The two-variable master product: the t^n coefficient is C_n(q)/q^n,
    with b_k = h_k(q) + h_k(1/q) for h_k = sum_{ij=k} i (q^j - 1)."""
    h = [{} for _ in range(order + 1)]
    for i in range(1, order + 1):
        for j in range(1, order // i + 1):
            row = h[i * j]
            row[j] = i
            row[0] = row.get(0, 0) - i
    rows = _log_derivative_product(h, order, {0: 1}, _laurent_dot)
    return TruncatedSeries(order, [LaurentPoly(row) for row in rows])


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
