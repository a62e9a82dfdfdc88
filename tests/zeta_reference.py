"""Exponent multisets of a zeta factorization, for the frozen tests.

The package renders ZetaRational.factors directly; the worked
factorizations in the tests are frozen as the multisets of q-exponents
that sit in the numerator and the denominator, each exponent repeated by
its multiplicity.
"""

from hilbtorus.zeta import ZetaRational


def numerator_exponents(z: ZetaRational) -> list[int]:
    """q-exponents of numerator factors (m < 0), repeated |m| times."""
    return [e for e, m in z.factors for _ in range(-m)]


def denominator_exponents(z: ZetaRational) -> list[int]:
    """q-exponents of denominator factors (m > 0), repeated m times."""
    return [e for e, m in z.factors for _ in range(m)]
