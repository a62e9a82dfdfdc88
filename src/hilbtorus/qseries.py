"""Product-side oracles: exact expansions of the generating products.

The master identity expanded here is

    1 + sum_{n>=1} (C_n(q)/q^n) t^n
        = prod_{i>=1} (1 - t^i)^2 / (1 - (q + 1/q) t^i + t^{2i}),

together with its root-of-unity specializations (q + 1/q -> -2, -1, 0, 1),
Gauss's product (1 - t^i)/(1 + t^i), the classical theta series phi and psi
(Gauss's product equals phi(-t)), and the eta quotients of the order-3 and
order-6 specializations.  Everything is exact integer arithmetic; these
expansions are the independent oracle against which the closed forms in
coeffs.py and rootvalues.py are checked, so none of them may consult those
closed forms.  Only the root products are cached per argument, as verify's
roots and qseries suites share them; every other expansion is built once
per run by the one suite that reads it.

The root specializations and Gauss's product share one recurrence, Euler's
logarithmic derivative.  With p_j = w^j + w^-j for the roots w, 1/w of
1 - u x + x^2, the expansion F = sum c_n t^n has c_0 = 1 and

    n c_n = sum_{k=1..n} b_k c_{n-k},    b_k = sum_{ij=k} i (p_j - 2),

since t F'/F = sum b_k t^k; each division by n is checked exact.  At a root
of unity p_j is an int from the literal trace u (p_0 = 2, p_1 = u,
p_j = u p_{j-1} - p_{j-2}), so no eta rewriting enters, and the scalar
recurrence pushes each nonzero c_n into every later sum at once, adding or
subtracting a row |c_n| b that is built once per distinct |c_n| (these
coefficients take few values: +-2 and 0 for Gauss, lattice counts for the
roots).  For Gauss's product b_k = -2 sum_{ij=k, j odd} i.

The master product needs no division.  With
theta(x) = prod_{i>=0} (1 - x t^i) prod_{i>=1} (1 - t^i/x), it is
F(t, q) = (1 - q) prod_i (1 - t^i)^2 / theta(q), and shifting the index i
gives theta(tq) = -theta(q)/q, hence the q-difference equation

    (1 - 1/q) F(t, tq) = (1 - tq) F(t, q):

a three-term recurrence of integer adds on the coefficients [t^n q^e] F
for e >= 1, with F(t, 1) = 1 fixing the q^0 terms.  F(t, q) = F(t, 1/q)
mirrors them to the negative exponents, so the expansion is returned as
its half rows e >= 0, lists of ints.

An eta factor prod_n (1 - t^(scale n)) is Euler's pentagonal series, with only
~2 sqrt(2N / (3 scale)) nonzero terms +-1 below order N, so a positive
power multiplies by it with one shifted slice add or subtract per term.
"""

from __future__ import annotations

import functools
import math
from operator import add, sub

from .arith import exact_div
from .series import TruncatedSeries

# q + 1/q at a primitive d-th root of unity, for the orders with
# quadratic-integer values
ROOT_TRACE = {2: -2, 3: -1, 4: 0, 6: 1}


def _log_derivative_series(b: list, order: int) -> list:
    """c_0..c_order with c_0 = 1 and n c_n = sum_{k=1..n} b_k c_{n-k}.

    Push style: acc[m] collects the sum for c_m, and once c_n is final it is
    added, times b_1..b_(order-n), into acc[n+1..order] in one pass; a zero
    c_n costs nothing.  The row |c_n| b_1, ..., |c_n| b_order is built once
    per distinct |c_n|, on first use, and added or subtracted by the sign of
    c_n: the coefficients here take few distinct values, so most pushes
    multiply nothing."""
    acc = [0] * (order + 1)
    rows = {}  # |c_n| -> [|c_n| b_1, ..., |c_n| b_order]
    c = []
    for n in range(order + 1):
        cn = exact_div(acc[n], n, "log-derivative recurrence") if n else 1
        c.append(cn)
        if cn:
            size = abs(cn)
            row = rows.get(size)
            if row is None:
                row = rows[size] = [size * x for x in b[1:order + 1]]
            acc[n + 1:] = map(add if cn > 0 else sub, acc[n + 1:], row)
    return c


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
    return TruncatedSeries(order, _log_derivative_series(b, order))


def expand_master_product(order: int) -> list[list[int]]:
    """The two-variable master product, whose t^n coefficient is C_n(q)/q^n,
    as its half rows half[n] = [c_(n,0), ..., c_(n,n)], n = 0..order.

    half[n][e] is [t^n q^e] F for 0 <= e <= n, and zero for e > n; the q^-e
    coefficient equals the q^e one, since F(t, q) = F(t, 1/q).  The
    q-difference equation (1 - 1/q) F(t, tq) = (1 - tq) F(t, q) gives, for
    e >= 1,

        half[n][e] = half[n-1][e-1] + half[n-e][e] - half[n-e-1][e+1],

    and F(t, 1) = 1 gives half[n][0] = -2 sum_{e>=1} half[n][e] for n >= 1."""
    half = [[1]]
    for n in range(1, order + 1):
        row = [0, *half[n - 1]]
        for e in range(1, n // 2 + 1):
            row[e] += half[n - e][e]
            if 2 * e + 2 <= n:
                row[e] -= half[n - e - 1][e + 1]
        row[0] = -2 * sum(row)
        half.append(row)
    return half


# -- Gauss's product and the theta series ----------------------------------

def gauss_series(order: int) -> TruncatedSeries:
    """prod_{i>=1} (1 - t^i)/(1 + t^i) by the log-derivative recurrence:
    t d/dt log of the product is sum_k b_k t^k, b_k = -2 sum_{ij=k, j odd} i."""
    b = [0] * (order + 1)
    for i in range(1, order + 1):
        for k in range(i, order + 1, 2 * i):
            b[k] -= 2 * i
    return TruncatedSeries(order, _log_derivative_series(b, order))


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

# eta-quotient forms of the root products of orders 3 and 6, the only
# other forms of those two products verify checks, as ((scale, exp), ...)
ROOT_ETA_SPECS = {
    3: ((1, 3), (3, -1)),
    6: ((1, 1), (2, 1), (3, 1), (6, -1)),
}


def _pentagonal_terms(scale: int, order: int) -> list[tuple[int, int]]:
    """(exponent, coefficient), ascending, of the terms up to t^order of
    prod_{n>=1} (1 - t^(scale n)) - 1 = sum_{k != 0} (-1)^k t^(scale k(3k-1)/2)
    (Euler's pentagonal theorem); k(3k-1)/2 >= k^2 bounds |k|."""
    return [(scale * g, -1 if k % 2 else 1)
            for k in range(1, math.isqrt(order // scale) + 1)
            for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2)
            if scale * g <= order]


def eta_quotient_series(spec: tuple[tuple[int, int], ...],
                        order: int) -> TruncatedSeries:
    """Expand prod prod_{n>=1} (1 - t^(scale n))^exp over
    spec = ((scale, exp), ...), scale >= 1: the eta quotient
    prod eta(scale * z)^exp without its prefactor t^(w/24), w = sum scale * exp.
    Every spec verify expands has weight w = 0, where the two are equal.

    With P = 1 + sum_j p_j t^j a factor's pentagonal series (p_j = +-1),
    x * P adds or subtracts the old x, shifted by j, into x for each term,
    and x / P walks up by x[m] -= sum_j p_j x[m-j].
    """
    n1 = order + 1
    x = [0] * n1
    x[0] = 1
    for scale, e in spec:
        terms = _pentagonal_terms(scale, order)
        for _ in range(e):
            old = x[:]
            for j, p in terms:
                x[j:] = map(add if p > 0 else sub, x[j:], old)
        for _ in range(-e):
            for m in range(1, n1):
                acc = 0
                for j, p in terms:
                    if j > m:
                        break
                    acc += p * x[m - j]
                x[m] -= acc
    return TruncatedSeries(order, x)
