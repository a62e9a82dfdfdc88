"""Exact arithmetic in Z[w] for w a primitive third or fourth root of unity.

Elements are a + b*w with integer a, b.  The reduction rule depends on the
order of w:

    order 3:  w^2 = -1 - w      (w = exp(2 pi i / 3))
    order 4:  w^2 = -1          (w = i)

Order-6 values are expressed in the order-3 basis by the caller (the
primitive sixth root is minus the primitive third root), so only these two
rings are ever constructed.
"""

from __future__ import annotations

_ORDERS = (3, 4)


class CycInt:
    """a + b*w with w a primitive root of unity of the given order (3 or 4).

    >>> w = CycInt(3, 0, 1)
    >>> w * w
    CycInt(order=3, a=-1, b=-1)
    >>> w ** 3
    CycInt(order=3, a=1, b=0)
    >>> CycInt(4, 0, 1) ** 2 == -1
    True
    """

    __slots__ = ("order", "a", "b")

    def __init__(self, order: int, a: int, b: int):
        if order not in _ORDERS:
            raise ValueError(f"order must be one of {_ORDERS}, got {order}")
        self.order, self.a, self.b = order, a, b

    def __repr__(self) -> str:
        return f"CycInt(order={self.order}, a={self.a}, b={self.b})"

    # -- helpers -----------------------------------------------------------

    def _check(self, other: "CycInt") -> None:
        if self.order != other.order:
            raise ValueError(
                f"mixed cyclotomic orders {self.order} and {other.order}")

    def _wrap(self, x) -> "CycInt | None":
        if isinstance(x, CycInt):
            self._check(x)
            return x
        if isinstance(x, int):
            return CycInt(self.order, x, 0)
        return None

    def conjugate(self) -> "CycInt":
        if self.order == 4:
            return CycInt(4, self.a, -self.b)
        # complex conjugate of w is w^2 = -1 - w
        return CycInt(3, self.a - self.b, -self.b)

    def norm(self) -> int:
        """Squared complex absolute value; a nonnegative rational integer."""
        if self.order == 4:
            return self.a * self.a + self.b * self.b
        return self.a * self.a - self.a * self.b + self.b * self.b

    @property
    def is_unit(self) -> bool:
        return self.norm() == 1

    def inverse(self) -> "CycInt":
        if not self.is_unit:
            raise ValueError(f"{self!r} is not a unit")
        return self.conjugate()

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return CycInt(self.order, self.a + o.a, self.b + o.b)

    def __mul__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.a, self.b, o.a, o.b
        if self.order == 4:
            return CycInt(4, a * c - b * d, a * d + b * c)
        return CycInt(3, a * c - b * d, a * d + b * c - b * d)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "CycInt":
        if not isinstance(k, int):
            return NotImplemented
        base = self
        if k < 0:
            base = self.inverse()
            k = -k
        result = CycInt(self.order, 1, 0)
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CycInt):
            return (self.order, self.a, self.b) == (other.order, other.a, other.b)
        if isinstance(other, int):
            return self.b == 0 and self.a == other
        return NotImplemented
