"""Addition, subtraction and negation of Laurent polynomials, for tests.

The package's LaurentPoly multiplies but does not add: no command adds two
polynomials.  The master-product references, series inversion and the
fault injections do, so they build their polynomials as Poly.
"""

from hilbtorus.laurent import LaurentPoly


class Poly(LaurentPoly):
    """A LaurentPoly (or an int, as a constant) that also adds, subtracts
    and negates; sums, differences and products are Polys again.  Any other
    operand gets NotImplemented, so its reflected operation is tried."""

    __slots__ = ()

    def __init__(self, coeffs=None):
        super().__init__({0: coeffs} if isinstance(coeffs, int) else coeffs)

    def __add__(self, other):
        if not isinstance(other, (int, LaurentPoly)):
            return NotImplemented
        out = dict(self.items())
        for e, c in Poly(other).items():
            out[e] = out.get(e, 0) + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({e: -c for e, c in self.items()})

    def __sub__(self, other):
        if not isinstance(other, (int, LaurentPoly)):
            return NotImplemented
        return self + -Poly(other)

    def __mul__(self, other):
        # LaurentPoly's product is a plain LaurentPoly
        product = LaurentPoly.__mul__(self, other)
        return product if product is NotImplemented else Poly(product)

    __rmul__ = __mul__
