"""Values of C_n and P_n at roots of unity, and section sums of P_n.

The value of C_n at the primitive d-th root w = omega(d) (d = 2, 3, 4, 6)
is a_d(n) w^n, where the integer sequence a_d(n) has a closed form in the
lattice representation counts r (x^2 + y^2), r' (x^2 + 2y^2) and lambda;
root_sequences is the one place that case analysis lives, and every
division in it is checked exact, never rounded.  The values of C_n and P_n
at w derive from it: since (w - 1)^2 = w (w + 1/w - 2),
P_n(w) = w^(n-1) a_d(n) / (w + 1/w - 2), again an exact integer division.
Order-6 values live in the order-3 basis since -w3 generates the same
ring.  evaluate_at_root computes the same values from a polynomial itself.

The k-section of P_n (sum of coefficients at exponents divisible by k) has
closed forms in sigma, r, r', r'' and lambda (section_formulas, which
computes each count once for all k asked for); section_direct counts the
same sums on the divisor runs of P_n's coefficients instead.
"""

from __future__ import annotations

from .cyclotomic import CycInt
from .laurent import LaurentPoly
from . import arith
from . import coeffs

ROOT_ORDERS = (2, 3, 4, 6)
SECTION_KS = (1, 2, 3, 4, 6)


def _exact_div(num: int, den: int, what: str) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{what}: {num} is not divisible by {den}")
    return q


def omega(d: int) -> int | CycInt:
    """The primitive d-th root of unity w at which C_n and P_n are valued:
    -1 for d = 2, an order-3 or order-4 cyclotomic integer for d = 3 or 4,
    and -w3 (in the order-3 ring) for d = 6."""
    if d == 2:
        return -1
    if d == 3:
        return CycInt.root(3)
    if d == 4:
        return CycInt.root(4)
    if d == 6:
        return -CycInt.root(3)
    raise ValueError(f"d must be one of {ROOT_ORDERS}, got {d}")


# [w^0, ..., w^(d-1)] for w = omega(d)
_POWERS = {d: [omega(d) ** k for k in range(d)] for d in ROOT_ORDERS}


def evaluate_at_root(poly: LaurentPoly, d: int) -> int | CycInt:
    """poly(w) at w = omega(d), exactly: a plain int for d = 2, else a
    cyclotomic integer.

    Uses w^d = 1: the integer coefficients are summed by exponent residue
    mod d (negative exponents included), then combined with the d powers
    of w in one short cyclotomic sum.
    """
    if d not in _POWERS:
        raise ValueError(f"d must be one of {ROOT_ORDERS}, got {d}")
    powers = _POWERS[d]
    sums = [0] * d
    for e, c in poly.items():
        sums[e % d] += c
    total = sums[0] * powers[0]
    for k in range(1, d):
        if sums[k]:
            total = total + sums[k] * powers[k]
    return total


def count_at_root(n: int, d: int) -> int | CycInt:
    """C_n(w) = a_d(n) w^n at w = omega(d).

    Plain int for d = 2, an order-4 cyclotomic integer for d = 4, and an
    order-3 one for d = 3 and d = 6.
    """
    a = root_sequence(n, d)
    return _POWERS[d][n % d] * a


def reduced_at_root(n: int, d: int) -> int | CycInt:
    """P_n(w) = w^(n-1) a_d(n) / (w + 1/w - 2) at w = omega(d), since
    P_n = C_n/(q-1)^2 and (w - 1)^2 = w (w + 1/w - 2)."""
    a = root_sequence(n, d)
    t = {2: -4, 3: -3, 4: -2, 6: -1}[d]  # w + 1/w - 2
    return _POWERS[d][(n - 1) % d] * _exact_div(a, t, f"P_{n} at the order-{d} root")


def root_sequence(n: int, d: int) -> int:
    """a_d(n) = C_n(w)/w^n as a rational integer; see root_sequences."""
    return root_sequences(n, (d,))[d]


def root_sequences(n: int, ds=ROOT_ORDERS) -> dict[int, int]:
    """{d: a_d(n)} for each d in ds, each lattice count computed once.

        a_2(n) = (-1)^n r(n)
        a_3(n) = -3 lambda(n)
        a_4(n) = (-1)^floor((n+1)/2) r'(n)
        a_6(n) = (-1)^n r(n), (-1)^n r(n)/4, (-1)^(n+1) r(n)/2
                 for n = 0, 1, 2 mod 3
    """
    if n < 1:
        raise ValueError("need n >= 1")
    for d in ds:
        if d not in ROOT_ORDERS:
            raise ValueError(f"d must be one of {ROOT_ORDERS}, got {d}")
    r = arith.r2(n) if 2 in ds or 6 in ds else None
    sign = -1 if n % 2 else 1
    values = {}
    for d in ds:
        if d == 2:
            values[d] = sign * r
        elif d == 3:
            values[d] = -3 * arith.lambda_fn(n)
        elif d == 4:
            values[d] = (-1 if ((n + 1) // 2) % 2 else 1) * arith.r_prime(n)
        elif n % 3 == 0:
            values[d] = sign * r
        elif n % 3 == 1:
            values[d] = sign * _exact_div(r, 4, f"a_6({n})")
        else:
            values[d] = -sign * _exact_div(r, 2, f"a_6({n})")
    return values


# -- sections of P_n -------------------------------------------------------

def section_direct(n: int, k: int) -> int:
    """Sum of the coefficients of P_n at exponents divisible by k, counted
    on the divisor runs of coeffs.divisor_intervals without building P_n.

    A divisor whose run is lo <= i <= hi puts a one at q^(n-1+i) for each i
    in it, and another at q^(n-1-i) for each i >= 1 in it; the i that land
    on multiples of k form one residue class mod k in each case, counted in
    O(1) per run.
    """
    if k not in SECTION_KS:
        raise ValueError(f"k must be one of {SECTION_KS}, got {k}")
    up, down = (1 - n) % k, (n - 1) % k
    total = 0
    for lo, hi in coeffs.divisor_intervals(n):
        total += (_residue_count(lo, hi, up, k)
                  + _residue_count(max(lo, 1), hi, down, k))
    return total


def _residue_count(lo: int, hi: int, r: int, k: int) -> int:
    """The number of i in lo..hi with i = r mod k (0 when lo > hi)."""
    return (hi - r) // k - (lo - 1 - r) // k


def section_formula(n: int, k: int) -> int:
    """The k-section of P_n from the closed formulas; see section_formulas."""
    return section_formulas(n, (k,))[k]


def section_formulas(n: int, ks=SECTION_KS) -> dict[int, int]:
    """{k: s_k(n)} for each k in ks from the closed formulas, computing
    each of sigma, r, r', r'' and lambda at most once.

    Every division is checked exact; a remainder would mean a wrong input
    to the formula and raises instead of rounding.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    for k in ks:
        if k not in SECTION_KS:
            raise ValueError(f"k must be one of {SECTION_KS}, got {k}")
    sig = arith.sigma(n)
    if 2 in ks or 4 in ks or 6 in ks:
        quarter = _exact_div(arith.r2(n), 4, f"r({n})/4")
    values = {}
    for k in ks:
        if k == 1:
            values[k] = sig
        elif k == 2:
            values[k] = _exact_div(sig + quarter, 2, f"s_2({n})")
        elif k == 3:
            third = _exact_div(arith.r_hex(n), 3, f"r''({n})/3")
            values[k] = _exact_div(sig + third, 3, f"s_3({n})")
        elif k == 4:
            # i^(n-1) + i^(1-n) is 2, 0, -2, 0 as n-1 = 0, 1, 2, 3 mod 4
            trace = (2, 0, -2, 0)[(n - 1) % 4]
            sign = -1 if ((n - 1) // 2) % 2 else 1
            term = sign * _exact_div(arith.r_prime(n) * trace, 2, f"r'({n}) term")
            values[k] = _exact_div(sig + quarter + term, 4, f"s_4({n})")
        else:  # k == 6, by residue of n mod 3
            lam = arith.lambda_fn(n)
            m = n % 3
            if m == 0:
                total = sig - 3 * quarter - lam
            elif m == 1:
                total = sig + 3 * quarter + 2 * lam
            else:
                total = sig + 3 * quarter - lam
            values[k] = _exact_div(total, 6, f"s_6({n})")
    return values
