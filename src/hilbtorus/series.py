"""Truncated power series with exact coefficients.

A series is a tuple of coefficients for t^0 .. t^order (order inclusive);
int 0 doubles as the zero pad.  The package's series have int coefficients
only; the tests also build series of polynomials.
"""

from __future__ import annotations

from typing import Sequence


class TruncatedSeries:
    """A power series known exactly up to and including t^order.

    >>> t = TruncatedSeries(4, [0, 1])
    >>> one_minus_t = TruncatedSeries(4, [1]) - t
    >>> (one_minus_t * one_minus_t).coeffs
    (1, -2, 1, 0, 0)
    >>> (t * t + 2).shift(1).coeffs
    (0, 2, 0, 1, 0)
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence = ()):
        if order < 0:
            raise ValueError("order must be >= 0")
        cs = list(coeffs)
        if len(cs) > order + 1:
            cs = cs[: order + 1]
        else:
            cs.extend([0] * (order + 1 - len(cs)))
        self.order = order
        self.coeffs = tuple(cs)

    def coeff(self, n: int):
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient t^{n} outside truncation order {self.order}")
        return self.coeffs[n]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other, self.order)
        if other is None:
            return NotImplemented
        n = min(self.order, other.order)
        return TruncatedSeries(n, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return TruncatedSeries(self.order, [-c if c else 0 for c in self.coeffs])

    def __sub__(self, other):
        other = _coerce(other, self.order)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return TruncatedSeries(self.order, [c * other for c in self.coeffs])
        other = _coerce(other, self.order)
        if other is None:
            return NotImplemented
        n = min(self.order, other.order)
        out = [0] * (n + 1)
        terms = [(j, b) for j, b in enumerate(other.coeffs[: n + 1]) if b]
        for i, a in enumerate(self.coeffs[: n + 1]):
            if not a:
                continue
            for j, b in terms:
                if i + j > n:
                    break
                out[i + j] = out[i + j] + a * b
        return TruncatedSeries(n, out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by t^k (k >= 0), truncating at the same order."""
        if k < 0:
            raise ValueError("t-shift must be by a nonneg exponent")
        return TruncatedSeries(self.order, [0] * k + list(self.coeffs[: self.order + 1 - k]))


def _coerce(x, order: int) -> TruncatedSeries | None:
    if isinstance(x, TruncatedSeries):
        return x
    if isinstance(x, int):
        return TruncatedSeries(order, [x])
    return None

