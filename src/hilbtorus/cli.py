"""Command-line interface.

Subcommands: compute (polynomials, zeta factorizations, root sequences,
sections; pretty text or JSON), table (the four built-in tables), verify
(the cross-verification suites), and oeis-compare (check a downloaded
b-file against the matching generator).

Exit codes: 0 on success, 1 when a verification or comparison fails or an
exact division in compute leaves a remainder, 2 on usage or input-parse
errors, and for compute pn above PN_MAX_N (P_n has Theta(n) terms, so its
cost and output grow linearly; the other compute kinds cost O(sqrt n) per
index and have no limit).

main(argv) may be called any number of times in one process, as the tests
and the benchmark do: build_parser builds the parser on the first call (not
at import) and returns the same one afterwards, so later calls pay only for
parsing and the request itself.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import bfile, coeffs, rootvalues, tables, verify, zeta
from .errors import BFileError

COMPUTE_KINDS = ("cn", "pn", "zeta", "hasse-weil", "ad", "sections")
PN_MAX_N = 10 ** 6


def _parse_n_range(text: str) -> tuple[int, int]:
    """'5' -> (5, 5); '3..8' -> (3, 8)."""
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected N or A..B, got {text!r}") from None
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(
            f"need 1 <= A <= B, got {text!r}")
    return lo, hi


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _poly_json(n: int, poly) -> dict:
    return {"n": n,
            "coeffs": [{"e": e, "v": str(poly.coeff(e))}
                       for e in sorted(poly.support())]}


def _values(n: int, name: str, values: dict, fmt: str):
    """Pretty "name_k(n) = v, ..." text or the JSON object for {k: v}."""
    if fmt == "pretty":
        return ", ".join(f"{name}_{k}({n}) = {v}" for k, v in values.items())
    return {"n": n, "values": {str(k): str(v) for k, v in values.items()}}


def _compute_one(kind: str, n: int, d: int | None, fmt: str):
    """Return (pretty text, json object) for one n; only one is used."""
    if kind == "cn":
        poly = coeffs.count_poly(n)
        return poly.pretty() if fmt == "pretty" else _poly_json(n, poly)
    if kind == "pn":
        poly = coeffs.reduced_poly(n)
        return poly.pretty() if fmt == "pretty" else _poly_json(n, poly)
    if kind == "zeta":
        z = zeta.build_local_zeta(n)
        if fmt == "pretty":
            return z.pretty()
        return {"n": n, "factors": [{"e": e, "m": m} for e, m in z.factors]}
    if kind == "hasse-weil":
        h = zeta.hasse_weil(n)
        if fmt == "pretty":
            return h.pretty()
        return {"n": n, "factors": [{"s0": s0, "m": m} for s0, m in h.exponents]}
    if kind == "ad":
        ds = (d,) if d is not None else rootvalues.ROOT_ORDERS
        return _values(n, "a", rootvalues.root_sequences(n, ds), fmt)
    if kind == "sections":
        return _values(n, "s", rootvalues.section_formulas(n), fmt)
    raise AssertionError(kind)


def _cmd_compute(args) -> int:
    lo, hi = args.n
    if args.d is not None and args.kind != "ad":
        print("--d only applies to 'ad'", file=sys.stderr)
        return 2
    if args.kind == "pn" and hi > PN_MAX_N:
        print(f"compute pn: n = {hi} is above the limit {PN_MAX_N}: P_n has "
              f"2n - 1 coefficients", file=sys.stderr)
        return 2
    try:
        results = [_compute_one(args.kind, n, args.d, args.format)
                   for n in range(lo, hi + 1)]
    except ArithmeticError as exc:
        print(f"compute {args.kind}: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        payload = results[0] if lo == hi else results
        print(json.dumps(payload, indent=2))
    elif lo == hi:
        print(results[0])
    else:
        for n, text in zip(range(lo, hi + 1), results):
            print(f"{n}: {text}")
    return 0


def _cmd_table(args) -> int:
    print(tables.render_table(args.which, args.max_n))
    return 0


def _cmd_verify(args) -> int:
    names = None
    if args.suite:
        names = [part for chunk in args.suite for part in chunk.split(",") if part]
        if not names:
            print(f"verify: --suite names no suite; known: "
                  f"{', '.join(verify.SUITES)}", file=sys.stderr)
            return 2
        unknown = [name for name in names if name not in verify.SUITES]
        if unknown:
            print(f"unknown suite(s): {', '.join(unknown)}; "
                  f"known: {', '.join(verify.SUITES)}", file=sys.stderr)
            return 2
    results = verify.run_suites(names, max_n=args.max_n, order=args.order)
    for result in results:
        status = "ok  " if result.ok else "FAIL"
        print(f"{status} {result.name:<9} {result.seconds:8.2f}s  {result.detail}")
    return 0 if all(r.ok for r in results) else 1


def _cmd_oeis_compare(args) -> int:
    try:
        report = bfile.compare_bfile(args.sequence, args.bfile, args.max_terms)
    except (BFileError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2
    print(report.summary())
    return 0 if report.ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The hilbtorus argument parser, built on the first call and the same
    object afterwards. It is never changed once built: parse_args returns
    a fresh Namespace each time and the append action copies its default."""
    parser = argparse.ArgumentParser(
        prog="hilbtorus",
        description="Point counts of the Hilbert schemes of the plane torus: "
                    "exact polynomials, zeta factorizations, root-of-unity "
                    "sequences, and their cross-checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser(
        "compute", help="print C_n, P_n, zeta factorizations, root "
                        "sequences, or sections")
    compute.add_argument("kind", choices=COMPUTE_KINDS)
    compute.add_argument("n", type=_parse_n_range,
                         help="an index N, or an inclusive range A..B")
    compute.add_argument("--format", choices=("pretty", "json"),
                         default="pretty")
    compute.add_argument("--d", type=int, choices=(2, 3, 4, 6), default=None,
                         help="restrict 'ad' to one root order")
    compute.set_defaults(func=_cmd_compute)

    table = sub.add_parser("table", help="print one of the built-in tables")
    table.add_argument("which", type=int, choices=tables.TABLE_NUMBERS)
    table.add_argument("--max-n", type=_positive, default=None)
    table.set_defaults(func=_cmd_table)

    verify_cmd = sub.add_parser("verify", help="run cross-verification suites")
    verify_cmd.add_argument("--suite", action="append", default=None,
                            metavar="NAME[,NAME...]",
                            help=f"suites to run (default all): "
                                 f"{', '.join(verify.SUITES)}")
    verify_cmd.add_argument(
        "--max-n", type=_positive, default=None,
        help="sets max_n of coeffs, roots, zeta, arith, sections and tables; "
             "qseries ignores it")
    verify_cmd.add_argument(
        "--order", type=_positive, default=None,
        help="sets identity_order of coeffs, expansion_max_n of roots and "
             "order of qseries; the other suites ignore it")
    verify_cmd.set_defaults(func=_cmd_verify)

    oeis = sub.add_parser("oeis-compare",
                          help="compare a downloaded OEIS b-file against "
                               "the matching generator")
    oeis.add_argument("sequence", choices=sorted(bfile.SEQUENCES))
    oeis.add_argument("bfile", help="path to the b-file")
    oeis.add_argument("--max-terms", type=_positive, default=None)
    oeis.set_defaults(func=_cmd_oeis_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
