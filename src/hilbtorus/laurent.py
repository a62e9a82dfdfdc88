"""Laurent polynomials in one variable with exact integer coefficients.

The counting polynomials handled here are sparse (a handful of terms spread
over a wide exponent range), so coefficients are stored as a dict from
exponent to nonzero integer coefficient.  C_n has O(d(2n)) terms, and the
checks read P_n as (q - 1)^2 P_n or (1 - q^2) P_n, four terms per divisor
run (coeffs.reduced_runs); only the dense P_n of the linking check, the
tables and compute pn has Theta(n) terms.

A LaurentPoly is a value: the commands build, read, compare, shift, print
and evaluate_int one, with no arithmetic; the product and evaluate stay
while perfbench/spans.py times them.  A constant equals its int, so a
LaurentPoly is unhashable, and the zero polynomial tests false.
"""

from __future__ import annotations

from operator import index
from typing import Iterator, Mapping


class LaurentPoly:
    """An immutable Laurent polynomial  sum_e c_e q^e  with integer c_e.

    >>> p = LaurentPoly({2: 1, 0: -2, -2: 1})
    >>> str(p)
    'q^2 - 2 + q^-2'
    >>> p * LaurentPoly({2: 1})
    LaurentPoly({4: 1, 2: -2, 0: 1})
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        # operator.index raises TypeError on a float instead of rounding it
        self._coeffs = {index(e): v for e, c in (coeffs or {}).items()
                        if (v := index(c))}

    # -- inspection --------------------------------------------------------

    def coeff(self, exponent: int) -> int:
        return self._coeffs.get(exponent, 0)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(self._coeffs.items())

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._coeffs == other._coeffs
        if isinstance(other, int):
            if other == 0:
                return not self._coeffs
            return self._coeffs == {0: other}
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{e}: {c}" for e, c in sorted(self._coeffs.items(), reverse=True))
        return "LaurentPoly({%s})" % inner

    # -- product -----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly()
            return _raw({e: c * other for e, c in self._coeffs.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, int] = {}
        if len(self._coeffs) > len(other._coeffs):
            a, b = other._coeffs, self._coeffs
        else:
            a, b = self._coeffs, other._coeffs
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return _raw(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q^k (shift every exponent by k)."""
        if k == 0:
            return self
        return _raw({e + k: c for e, c in self._coeffs.items()})

    # -- evaluation --------------------------------------------------------

    def evaluate_int(self, q0: int) -> int:
        """Exact value at an integer point.

        Negative exponents only make sense at q0 = 1 or -1; anything else
        (including q0 = 0) is rejected rather than rounded.
        """
        if q0 == 0:
            raise ValueError("evaluation at 0 is undefined for Laurent polynomials")
        total = 0
        for e, c in self._coeffs.items():
            if e >= 0:
                total += c * q0 ** e
            elif q0 == 1:
                total += c
            elif q0 == -1:
                total += c if e % 2 == 0 else -c
            else:
                raise ValueError(
                    f"negative exponent {e} cannot be evaluated exactly at q0={q0}")
        return total

    def evaluate(self, x):
        """Value at x, for any x with ** by an int, * by an int and +.

        Used with cyclotomic integers, where roots of unity are units and
        negative exponents are fine.
        """
        total = None
        for e, c in self._coeffs.items():
            term = (x ** e) * c
            total = term if total is None else total + term
        if total is None:
            return 0 * x  # the zero of x's kind
        return total

    # -- formatting --------------------------------------------------------

    def pretty(self) -> str:
        """Human layout, descending exponents:  q^4 - q^3 - q + 1.

        >>> LaurentPoly({4: 1, 3: -1, 1: -1, 0: 1}).pretty()
        'q^4 - q^3 - q + 1'
        >>> LaurentPoly({1: 1, 0: -2, -1: 1}).pretty()
        'q - 2 + q^-1'
        >>> LaurentPoly().pretty()
        '0'
        """
        if not self._coeffs:
            return "0"
        parts = []
        for e in sorted(self._coeffs, reverse=True):
            c = self._coeffs[e]
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                power = "q" if e == 1 else f"q^{e}"
                body = power if mag == 1 else f"{mag}{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.pretty()


def _raw(coeffs: dict[int, int]) -> LaurentPoly:
    # internal constructor for dicts already free of zeros
    p = LaurentPoly.__new__(LaurentPoly)
    p._coeffs = coeffs
    return p

