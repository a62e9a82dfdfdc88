"""The four built-in numeric tables.

table 1: the count polynomials C_n(q) together with C_n(-1), for n <= 12;
table 2: the reduced polynomials P_n(q), their values at q = 1 and q = -1,
         the absolute values at the third and fourth roots of unity, and
         the central coefficient a_{n,0}, for n <= 12;
table 3: absolute values |a_d(n)| of the root-of-unity sequences,
         d in {2, 3, 4, 6}, for n <= 18;
table 4: the k-sections s_k(n) of P_n(q), k in {2, 3, 4, 6}, for n <= 18.

Cells are recomputed on every call.  Tables 1 and 2 evaluate the built
polynomials directly (integer or cyclotomic evaluation), so they cross
the closed-form routes used elsewhere; tables 3 and 4 use the closed
forms.  Renderings are deterministic tab-separated text.
"""

from __future__ import annotations

from math import isqrt
from operator import itemgetter

from . import coeffs, rootvalues

TABLE_NUMBERS = (1, 2, 3, 4)
DEFAULT_MAX_N = {1: 12, 2: 12, 3: 18, 4: 18}


def abs_cyclotomic(z) -> int:
    """|z| for a cyclotomic integer of square norm, or for an int."""
    norm = z * z if isinstance(z, int) else z.norm()
    root = isqrt(norm)
    if root * root != norm:
        raise ArithmeticError(f"|{z}| is irrational (norm {norm})")
    return root


def table_data(which: int, max_n: int | None = None) -> dict:
    """Column names plus one row per n, all cells ints or strings."""
    if which not in TABLE_NUMBERS:
        raise ValueError(f"no table {which}; choose one of {TABLE_NUMBERS}")
    if max_n is None:
        max_n = DEFAULT_MAX_N[which]
    if which == 1:
        columns = ("n", "C_n(q)", "C_n(-1)")
        rows = []
        for n in range(1, max_n + 1):
            cn = coeffs.count_poly(n)
            rows.append((n, cn.pretty(), cn.evaluate_int(-1)))
    elif which == 2:
        columns = ("n", "P_n(q)", "P_n(1)", "P_n(-1)",
                   "|P_n(j)|", "|P_n(i)|", "a_{n,0}")
        rows = []
        for n in range(1, max_n + 1):
            pn = coeffs.reduced_poly(n)
            at = rootvalues.evaluate_at_roots(pn)
            rows.append((
                n,
                pn.pretty(),
                pn.evaluate_int(1),
                pn.evaluate_int(-1),
                abs_cyclotomic(at[3]),
                abs_cyclotomic(at[4]),
                pn.coeff(n - 1),
            ))
    elif which == 3:
        columns = ("n",) + tuple(f"|a_{d}(n)|" for d in rootvalues.ROOT_ORDERS)
        rows = [
            (n,) + tuple(abs(a) for a in rootvalues.root_sequences(n).values())
            for n in range(1, max_n + 1)
        ]
    else:
        ks = (2, 3, 4, 6)
        columns = ("n",) + tuple(f"s_{k}(n)" for k in ks)
        pick = itemgetter(*ks)
        rows = [
            (n, *pick(rootvalues.section_formulas(n)))
            for n in range(1, max_n + 1)
        ]
    return {"columns": columns, "rows": rows}


def render_table(which: int, max_n: int | None = None) -> str:
    """Tab-separated text: a header line, then one line per n."""
    data = table_data(which, max_n)
    lines = ["\t".join(data["columns"])]
    for row in data["rows"]:
        lines.append("\t".join(str(cell) for cell in row))
    return "\n".join(lines)
