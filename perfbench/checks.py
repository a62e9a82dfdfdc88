"""Output checks: each printed answer is tested along another route.

Nothing here imports hilbtorus. The arithmetic functions are the classical
divisor-character sums, while hilbtorus counts lattice points or uses
multiplicative formulas:

    r(n)  = #{x^2 + y^2 = n}   = 4 sum_{d | n} chi_4(d)
    r'(n) = #{x^2 + 2y^2 = n}  = 2 sum_{d | n} (-2 / d)
    lambda(n) = E(n) - 3 E(n/3),  E(n) = sum_{d | n} chi_3(d)

Each check_* function takes (n, text) for one polynomial or value line and
returns None when the output is right, else a one-line reason.
"""

import json
import re
from math import isqrt

VERIFY_SUITES = ("coeffs", "roots", "zeta", "qseries", "arith", "sections",
                 "tables")
SECTION_KS = (1, 2, 3, 4, 6)


def divisors(n):
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
    return small + large[::-1]


def sigma(n):
    return sum(divisors(n))


def r2(n):
    return 4 * sum((1 if d % 4 == 1 else -1) for d in divisors(n) if d % 2)


def r_prime(n):
    return 2 * sum({1: 1, 3: 1, 5: -1, 7: -1}.get(d % 8, 0)
                   for d in divisors(n))


def _excess(n):
    return sum({1: 1, 2: -1}.get(d % 3, 0) for d in divisors(n))


def lambda_fn(n):
    return _excess(n) - (3 * _excess(n // 3) if n % 3 == 0 else 0)


def root_values(n):
    """{d: a_d(n)} for d = 2, 3, 4, 6 from the divisor sums above."""
    r = r2(n)
    sign = -1 if n % 2 else 1
    a6 = (sign * r, sign * r // 4, -sign * r // 2)[n % 3]
    return {2: sign * r, 3: -3 * lambda_fn(n),
            4: (-1 if ((n + 1) // 2) % 2 else 1) * r_prime(n), 6: a6}


def sections(n):
    """{k: s_k(n)}, the coefficient sums of P_n at exponents divisible by k,
    counted from the divisor intervals that define its coefficients: a_{n,i}
    (at q^(n-1+i) and q^(n-1-i)) counts the divisors d of n with
    (i + sqrt(2n + i^2))/2 < d <= i + sqrt(2n + i^2), and squaring turns
    that into ceil((d^2 - 2n)/(2d)) <= i <= (2d^2 - n - 1) // (2d)."""
    def count(lo, hi, residue, k):  # i in [lo, hi] with i = residue mod k
        return (hi - residue) // k - (lo - 1 - residue) // k

    out = dict.fromkeys(SECTION_KS, 0)
    for d in divisors(n):
        lo = max(0, -((2 * n - d * d) // (2 * d)))
        hi = min(n - 1, (2 * d * d - n - 1) // (2 * d))
        if lo > hi:
            continue
        for k in SECTION_KS:
            out[k] += count(lo, hi, (1 - n) % k, k)
            if hi >= 1:
                out[k] += count(max(lo, 1), hi, (n - 1) % k, k)
    return out


# -- parsing --------------------------------------------------------------

_TERM = re.compile(r"(-?)(\d*)(?:q(?:\^(-?\d+))?)?")
_FACTOR = re.compile(r"\(1 - (?:q(?:\^(\d+))? )?t\)(?:\^(\d+))?")


def parse_poly(text):
    """{exponent: coefficient} of a pretty-printed Laurent polynomial."""
    poly = {}
    for term in text.replace(" - ", " + -").split(" + "):
        m = _TERM.fullmatch(term)
        if m is None or term in ("", "-"):
            raise ValueError(f"bad term {term!r}")
        sign, digits, exp = m.groups()
        has_q = "q" in term
        coeff = int(digits) if digits else 1
        e = (int(exp) if exp else 1) if has_q else 0
        if e in poly:
            raise ValueError(f"repeated exponent {e}")
        poly[e] = -coeff if sign else coeff
    return poly


def _json_poly(n, text):
    obj = json.loads(text)
    if obj["n"] != n:
        raise ValueError(f"n is {obj['n']}")
    return {c["e"]: int(c["v"]) for c in obj["coeffs"]}


def _factor_counts(part):
    counts = {}
    for m in _FACTOR.finditer(part):
        e = 0 if m.group(0).startswith("(1 - t") else int(m.group(1) or 1)
        counts[e] = counts.get(e, 0) + int(m.group(2) or 1)
    return counts


def parse_zeta(text):
    """{e: m(e)} of '(1 - q t)... / ((1 - t)...)': m > 0 in the denominator."""
    num, _, den = text.partition(" / ")
    mult = {e: -m for e, m in _factor_counts(num).items()}
    for e, m in _factor_counts(den).items():
        mult[e] = mult.get(e, 0) + m
    return mult


# -- checks ---------------------------------------------------------------

def _check_cn(n, poly):
    if any(poly.get(e) != poly.get(2 * n - e) for e in poly):
        return "not palindromic about q^n"
    if poly.get(2 * n) != 1 or poly.get(0) != 1 or min(poly) != 0:
        return "does not run from 1 to q^(2n)"
    if sum(poly.values()) != 0:
        return "C_n(1) != 0"
    if sum(c if e % 2 == 0 else -c for e, c in poly.items()) != r2(n):
        return "C_n(-1) != r(n)"
    return None


def _check_zeta(n, mult):
    if any(m != mult.get(2 * n - e) for e, m in mult.items()):
        return "exponents not palindromic about n"
    if sum(mult.values()) != 0:
        return "total degree is not 0"
    if mult.get(n, 0) % 2:
        return "central multiplicity is odd"
    if sum(m if e % 2 == 0 else -m for e, m in mult.items()) != r2(n):
        return "sum of m(e) (-1)^e != r(n) = C_n(-1)"
    return None


def check_compute(kind, fmt, n, text):
    """Reason the output of `compute <kind> n --format <fmt>` is wrong."""
    text = text.rstrip("\n")
    try:
        if kind == "cn":
            poly = parse_poly(text) if fmt == "pretty" else _json_poly(n, text)
            return _check_cn(n, poly)
        if kind == "zeta":
            if fmt == "pretty":
                mult = parse_zeta(text)
            else:
                obj = json.loads(text)
                mult = {f["e"]: f["m"] for f in obj["factors"]}
            return _check_zeta(n, mult)
        if kind == "ad":
            got = _values(text, fmt, "a")
            want = root_values(n)
        elif kind == "sections":
            got = _values(text, fmt, "s")
            want = sections(n)
        else:
            return f"no check for kind {kind!r}"
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable output: {exc}"
    if got != want:
        return f"{got} != {want}"
    return None


def _values(text, fmt, letter):
    """{index: value} from 'a_2(9) = -4, a_3(9) = 6' or the JSON form."""
    if fmt == "json":
        return {int(k): int(v) for k, v in json.loads(text)["values"].items()}
    out = {}
    for part in text.split(", "):
        m = re.fullmatch(letter + r"_(\d+)\(\d+\) = (-?\d+)", part)
        if m is None:
            raise ValueError(f"bad value {part!r}")
        out[int(m.group(1))] = int(m.group(2))
    return out


# Reduced polynomials are dense (up to 2n - 1 terms), so their check reads
# only what P_n(1) = sigma(n) and P_n(-1) = r(n)/4 need: each coefficient
# and the parity of its exponent. All coefficients of P_n are positive, its
# top term is q^(2n-2) and its constant term is 1.

def check_pn(n, text):
    """Reason a pretty-printed P_n is wrong, or None."""
    if "-" in text:
        return "negative coefficient or exponent"
    terms = text.split(" + ")
    if terms[0] != (f"q^{2 * n - 2}" if n > 1 else "1") or terms[-1] != "1":
        return "does not run from 1 to q^(2n-2)"
    at_one = at_minus_one = 0
    for term in terms:
        head, q, power = term.partition("q")
        coeff = int(head) if head else 1
        if q and (not power or power[-1] in "13579"):  # q or q^odd
            coeff = -coeff
        at_one += abs(coeff)
        at_minus_one += coeff
    if at_one != sigma(n):
        return "P_n(1) != sigma(n)"
    if 4 * at_minus_one != r2(n):
        return "P_n(-1) != r(n)/4"
    return None


def check_verify(rc, text):
    """(suites attempted, failed suites as reasons) of a `verify` run."""
    seen = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 2:
            seen[parts[1]] = parts[0]
    reasons = [f"suite {name}: {seen.get(name, 'missing')}"
               for name in VERIFY_SUITES if seen.get(name) != "ok"]
    if rc != 0 and not reasons:
        reasons.append(f"exit status {rc} with every suite ok")
    return len(VERIFY_SUITES), reasons
