"""Exact point counts for the Hilbert schemes of points on the plane torus.

The number of codimension-n ideals of the Laurent polynomial ring in two
variables over F_q is a polynomial C_n(q); this package computes C_n and
its quotient P_n = C_n / (q - 1)^2 exactly, builds the associated local
zeta functions, evaluates everything at roots of unity, and cross-checks
each closed form against independent product expansions.

The top level re-exports the names the README's Library section shows;
everything else is reached through its module (hilbtorus.qseries, ...).
"""

from .coeffs import count_poly, reduced_poly
from .laurent import LaurentPoly
from .rootvalues import root_sequence
from .zeta import build_local_zeta

__version__ = "0.1.0"

__all__ = [
    "LaurentPoly",
    "build_local_zeta",
    "count_poly",
    "reduced_poly",
    "root_sequence",
]
