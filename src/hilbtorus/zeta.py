"""Local zeta functions of the Hilbert schemes, and their global shadow.

Over F_q the motive decomposes so that

    Z_n(t) = prod_e (1 - q^e t)^(-m(e)),    m(n + i) = m(n - i) = c_{n,i},

i.e. positive multiplicity means the factor sits in the denominator.  The
exponent list satisfies a functional-equation certificate (palindromy,
total degree zero, even central multiplicity), and replacing each local
factor by a shifted Riemann zeta gives the Hasse-Weil product
zeta_H(s) = prod_s0 zeta(s - s0)^m(s0) with the same exponents.  The
factored form comes from C_n's factorization enumerator; verify's zeta
suite checks its certificate, and its point counts at every prime power
against P_n's divisor runs.
"""

from __future__ import annotations

from typing import NamedTuple

from . import coeffs


class ZetaRational(NamedTuple):
    """Factored form of the local zeta function of the n-point Hilbert scheme.

    factors maps the q-exponent e to its multiplicity m(e); m(e) > 0 is a
    denominator factor (1 - q^e t)^m, m(e) < 0 a numerator factor.
    """

    n: int
    factors: tuple[tuple[int, int], ...]  # (e, m), e ascending, m != 0

    def pretty(self) -> str:
        """Display like (1 - q t)(1 - q^2 t) / ((1 - t)(1 - q^3 t)^2)."""
        den, num = self._split(lambda e: ("(1 - t)" if e == 0 else "(1 - q t)"
                                          if e == 1 else f"(1 - q^{e} t)"))
        top = "".join(num) or "1"
        if not den:
            return top
        bottom = "".join(den)
        return f"{top} / ({bottom})" if len(den) > 1 else f"{top} / {bottom}"

    def hasse_weil(self) -> str:
        """Display zeta_H(s) = prod_s0 zeta(s - s0)^m(s0), the product of
        shifted Riemann zetas with the local multiplicities (s0 = e), like
        zeta(s) zeta(s - 2) / zeta(s - 1)^2."""
        num, den = self._split(
            lambda s0: "zeta(s)" if s0 == 0 else f"zeta(s - {s0})")
        top = " ".join(num) or "1"
        if not den:
            return top
        return f"{top} / {' '.join(den)}"

    def _split(self, base) -> tuple[list[str], list[str]]:
        """Each factor as base(e) or base(e)^|m|, split into m > 0 and m < 0."""
        positive, negative = [], []
        for e, m in self.factors:
            text = base(e) if abs(m) == 1 else f"{base(e)}^{abs(m)}"
            (positive if m > 0 else negative).append(text)
        return positive, negative


def build_local_zeta(n: int) -> ZetaRational:
    """Assemble Z_n(t) from the closed-form coefficients of C_n: m(e) is
    the coefficient of q^e."""
    return ZetaRational(n, tuple(sorted(coeffs.count_poly(n).items())))


def functional_equation_certificate(z: ZetaRational) -> tuple[bool, int, int]:
    """(palindromic, sum m(e), m(n) mod 2): the three finite conditions
    behind the functional equation Z(1/(q^2n t)) = Z(t) up to the usual
    monomial hold when this is (True, 0, 0):

      (1) m(e) = m(2n - e) for every e,
      (2) sum_e m(e) = 0 (the rational function has total degree zero),
      (3) m(n) is even (the central factor splits symmetrically).
    """
    n, mm = z.n, dict(z.factors)
    return (all(mm.get(2 * n - e, 0) == m for e, m in mm.items()),
            sum(mm.values()), mm.get(n, 0) % 2)
