"""Values of C_n and P_n at roots of unity, and section sums of P_n.

The value of C_n at the primitive d-th root w (w = -1, v, i and -v for
d = 2, 3, 4, 6, v the primitive third root) is a_d(n) w^n, where the integer
sequence a_d(n) has a closed form in the lattice representation counts
r (x^2 + y^2), r' (x^2 + 2y^2) and lambda; root_sequences is the one place
that case analysis lives, and every division in it is checked exact.
Since (w - 1)^2 = w (w + 1/w - 2), P_n(w) (w + 1/w - 2) = w^(n-1) a_d(n).
Order-6 values live in the order-3 ring, which -v generates too, and the
literal table _FOLDS holds the coordinates of w^r for r mod 12, so no
power is ever raised.  Every d divides 12, so fold_at_roots gives a
polynomial's values at all four roots from its 12 coefficient sums by
exponent residue mod 12, which evaluate_at_roots takes from a polynomial
and coeffs.reduced_residue_sums from P_n's divisor runs.

The k-section of P_n (sum of coefficients at exponents divisible by k) has
closed forms in sigma, r, r', r'' and lambda (section_formulas, which
computes each count once for every k in SECTION_KS); section_direct adds
up P_n's residue sums instead, which the caller counts once on P_n's
divisor runs (coeffs.reduced_residue_sums) and may fold at the roots
too.  Each function answers for every root order or every k at once;
root_sequence, section_formula and count_at_root pick one value and
reject any other d or k.
"""

from __future__ import annotations

from operator import mul

from .cyclotomic import CycInt
from .laurent import LaurentPoly
from . import arith
from .arith import exact_div

ROOT_ORDERS = (2, 3, 4, 6)
SECTION_KS = (1, 2, 3, 4, 6)


# _FOLDS[d] = (ring, a, b): w^r = a[r] + b[r] v for r = 0..11, v the root
# of the order-`ring` CycInt ring; for d = 2, w = -1 has no ring and b = 0
_FOLDS = {
    2: (None, (1, -1) * 6, (0,) * 12),
    3: (3, (1, 0, -1) * 4, (0, 1, -1) * 4),
    4: (4, (1, 0, -1, 0) * 3, (0, 1, 0, -1) * 3),
    6: (3, (1, 0, -1, -1, 0, 1) * 2, (0, -1, -1, 0, 1, 1) * 2),
}


def evaluate_at_roots(poly: LaurentPoly,
                      shift: int = 0) -> dict[int, int | CycInt]:
    """{d: poly(w)/w^shift at the primitive d-th root w} for d in
    ROOT_ORDERS: fold_at_roots of poly's coefficient sums by exponent
    residue mod 12."""
    by12 = [0] * 12
    for e, c in poly.items():
        by12[e % 12] += c
    return fold_at_roots(by12, shift)


def fold_at_roots(by12: list[int], shift: int = 0) -> dict[int, int | CycInt]:
    """{d: poly(w)/w^shift at the primitive d-th root w} for d in ROOT_ORDERS
    (an int for d = 2), from by12[r], the sum of poly's coefficients at the
    exponents r mod 12, rotated by shift (w^12 = 1) and weighted by _FOLDS."""
    by12 = by12[shift % 12:] + by12[:shift % 12]
    values = {}
    for d, (ring, fold_a, fold_b) in _FOLDS.items():
        a = sum(map(mul, by12, fold_a))
        values[d] = a if ring is None else CycInt(
            ring, a, sum(map(mul, by12, fold_b)))
    return values


def count_at_root(n: int, d: int) -> int | CycInt:
    """C_n(w) = a_d(n) w^n at the primitive d-th root w: the fold of a_d(n)
    at q^0, times w^n (a plain int for d = 2, else a cyclotomic integer)."""
    return fold_at_roots([root_sequence(n, d)] + [0] * 11, -n)[d]


def root_sequence(n: int, d: int) -> int:
    """a_d(n) = C_n(w)/w^n as a rational integer; see root_sequences."""
    if d not in ROOT_ORDERS:
        raise ValueError(f"d must be one of {ROOT_ORDERS}, got {d}")
    return root_sequences(n)[d]


def root_sequences(n: int) -> dict[int, int]:
    """{d: a_d(n)} for d in ROOT_ORDERS, each lattice count computed once.

        a_2(n) = (-1)^n r(n)
        a_3(n) = -3 lambda(n)
        a_4(n) = (-1)^floor((n+1)/2) r'(n)
        a_6(n) = (-1)^n r(n), (-1)^n r(n)/4, (-1)^(n+1) r(n)/2
                 for n = 0, 1, 2 mod 3
    """
    if n < 1:
        raise ValueError("need n >= 1")
    r = arith.r2(n)
    sign = -1 if n % 2 else 1
    return {
        2: sign * r,
        3: -3 * arith.lambda_fn(n),
        4: (-1 if ((n + 1) // 2) % 2 else 1) * arith.r_prime(n),
        6: (sign * r if n % 3 == 0
            else sign * exact_div(r, 4, "a_6({})", n) if n % 3 == 1
            else -sign * exact_div(r, 2, "a_6({})", n)),
    }


# -- sections of P_n -------------------------------------------------------

def section_direct(by12: list[int]) -> dict[int, int]:
    """{k: s_k(n)} for k in SECTION_KS, the sum of the coefficients of P_n
    at exponents divisible by k: every k divides 12, so it is the sum of
    every k-th of by12, P_n's residue sums mod 12, which
    coeffs.reduced_residue_sums counts on the divisor runs without building
    P_n."""
    return {k: sum(by12[::k]) for k in SECTION_KS}


def section_formula(n: int, k: int) -> int:
    """The k-section of P_n from the closed formulas; see section_formulas."""
    if k not in SECTION_KS:
        raise ValueError(f"k must be one of {SECTION_KS}, got {k}")
    return section_formulas(n)[k]


def section_formulas(n: int) -> dict[int, int]:
    """{k: s_k(n)} for k in SECTION_KS from the closed formulas, computing
    each of sigma, r, r', r'' and lambda once.

    Every division is checked exact; a remainder would mean a wrong input
    to the formula and raises instead of rounding.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    sig = arith.sigma(n)
    quarter = exact_div(arith.r2(n), 4, "r({})/4", n)
    # P_n(i) + P_n(-i) is r'(n) for odd n and 0 for even n
    at_i = arith.r_prime(n) if n % 2 else 0
    # s_6 weighs r(n)/4 and lambda(n) by n mod 3; lambda(n) = 0 for
    # n = 2 mod 3, so that w_lam multiplies zero
    w_r, w_lam = ((-3, -1), (3, 2), (3, -1))[n % 3]
    return {
        1: sig,
        2: exact_div(sig + quarter, 2, "s_2({})", n),
        3: exact_div(sig + exact_div(arith.r_hex(n), 3, "r''({})/3", n), 3,
                     "s_3({})", n),
        4: exact_div(sig + quarter + at_i, 4, "s_4({})", n),
        6: exact_div(sig + w_r * quarter + w_lam * arith.lambda_fn(n), 6,
                     "s_6({})", n),
    }
