"""Command-line interface.

Subcommands: compute (polynomials, zeta factorizations, root sequences,
sections; pretty text or JSON), table (the four built-in tables), verify
(the cross-verification suites), and oeis-compare (check a downloaded
b-file against the matching generator).

Exit codes: 0 on success, 1 when a verification or comparison fails, an
exact division in compute leaves a remainder, or the reader closes stdout
(no traceback), 2 on usage or input-parse errors, and for compute pn above
PN_MAX_N (P_n has Theta(n) terms, so its cost and output grow linearly).
Other compute kinds have no enforced limit: each index costs one cached
trial-division factorization, of 2n or of n, O(sqrt n) at worst, n prime
(README's worst measured case: 6.3 s, compute cn at the prime 10^16 + 61).

main(argv) may be called any number of times in one process, as the tests
and the benchmark do.  It takes one of three routes: a canonical compute
argv (compute KIND SPEC, then at most one --format and one --d, every word
valid) is read by _parse_compute without argparse, which it never imports;
any other argv whose argv[0] names a subcommand is parsed by that
subcommand's parser alone; everything else goes through the top-level
parser.  build_parser builds the parsers on its first call, not at import,
and verify, tables and bfile are imported only by the commands that run
them.  --format json is written by _json, a small writer whose output is
byte-identical to json.dumps(..., indent=2) (a test pins it), without the
pure-Python indenting encoder that CPython 3.10-3.12 use (3.13 and later
indent in C, faster than _json).
"""

from __future__ import annotations

import functools
import os
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from . import coeffs, rootvalues, zeta
from .errors import BFileError

COMPUTE_KINDS = ("cn", "pn", "zeta", "hasse-weil", "ad", "sections")
# compute's options, as add_argument keywords; _parse_compute reads them too
COMPUTE_OPTIONS = {"--format": {"choices": ("pretty", "json"), "default": "pretty"},
                   "--d": {"type": int, "choices": (2, 3, 4, 6), "default": None,
                           "help": "restrict 'ad' to one root order"}}
PN_MAX_N = 10 ** 6
# each subcommand's parser by name, filled by build_parser
_COMMAND_PARSERS: dict[str, argparse.ArgumentParser] = {}


def _parse_n_range(text: str) -> tuple[int, int]:
    """'5' -> (5, 5); '3..8' -> (3, 8)."""
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        import argparse  # here only: a valid compute argv never imports it
        raise argparse.ArgumentTypeError(
            f"expected N or A..B, got {text!r}") from None
    if lo < 1 or hi < lo:
        import argparse
        raise argparse.ArgumentTypeError(
            f"need 1 <= A <= B, got {text!r}")
    return lo, hi


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        import argparse
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        import argparse
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _poly_json(n: int, poly) -> dict:
    return {"n": n,
            "coeffs": [{"e": e, "v": str(v)} for e, v in sorted(poly.items())]}


def _json(obj, newline: str = "\n") -> str:
    """The text json.dumps(obj, indent=2) gives for the values compute
    builds (dicts with str keys, lists, ints and strs), byte for byte; any
    other type, bool included, raises TypeError."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    inner = newline + "  "
    if kind is list:
        items = [_json(value, inner) for value in obj]
        return f"[{inner}{(',' + inner).join(items)}{newline}]" if items else "[]"
    if kind is dict:
        items = [f"{encode_basestring_ascii(key)}: {_json(value, inner)}"
                 for key, value in obj.items()]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}" if items else "{}"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _values(n: int, name: str, values: dict, fmt: str):
    """Pretty "name_k(n) = v, ..." text or the JSON object for {k: v}."""
    if fmt == "pretty":
        return ", ".join(f"{name}_{k}({n}) = {v}" for k, v in values.items())
    return {"n": n, "values": {str(k): str(v) for k, v in values.items()}}


def _compute_one(kind: str, n: int, d: int | None, fmt: str):
    """The pretty text of one n, or its JSON object when fmt is "json"."""
    if kind in ("cn", "pn"):
        poly = (coeffs.count_poly if kind == "cn" else coeffs.reduced_poly)(n)
        return poly.pretty() if fmt == "pretty" else _poly_json(n, poly)
    if kind in ("zeta", "hasse-weil"):
        z = zeta.build_local_zeta(n)
        if fmt == "pretty":
            return z.pretty() if kind == "zeta" else z.hasse_weil()
        key = "e" if kind == "zeta" else "s0"  # hasse-weil: zeta(s - s0)^m
        return {"n": n, "factors": [{key: e, "m": m} for e, m in z.factors]}
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
        print(_json(payload))
    elif lo == hi:
        print(results[0])
    else:
        for n, text in zip(range(lo, hi + 1), results):
            print(f"{n}: {text}")
    return 0


def _cmd_table(args) -> int:
    from . import tables
    print(tables.render_table(args.which, args.max_n))
    return 0


def _cmd_verify(args) -> int:
    from . import verify
    names = None
    if args.suite:
        names = [part for chunk in args.suite for part in chunk.split(",") if part]
        if not names:
            print(f"verify: --suite names no suite; known: "
                  f"{', '.join(verify.SUITES)}", file=sys.stderr)
            return 2
    try:
        results = verify.run_suites(names, max_n=args.max_n, order=args.order)
    except ValueError as exc:  # unknown suite names, before any suite runs
        print(exc, file=sys.stderr)
        return 2
    for result in results:
        status = "ok  " if result.ok else "FAIL"
        print(f"{status} {result.name:<9} {result.seconds:8.2f}s  {result.detail}")
    return 0 if all(r.ok for r in results) else 1


def _cmd_oeis_compare(args) -> int:
    from . import bfile
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
    import argparse
    from . import bfile, tables, verify
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
    for name, keywords in COMPUTE_OPTIONS.items():
        compute.add_argument(name, **keywords)
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
        help="sets order of qseries; the other suites ignore it")
    verify_cmd.set_defaults(func=_cmd_verify)

    oeis = sub.add_parser("oeis-compare",
                          help="compare a downloaded OEIS b-file against "
                               "the matching generator")
    oeis.add_argument("sequence", type=str.lower, choices=sorted(bfile.SEQUENCES))
    oeis.add_argument("bfile", help="path to the b-file")
    oeis.add_argument("--max-terms", type=_positive, default=None)
    oeis.set_defaults(func=_cmd_oeis_compare)
    _COMMAND_PARSERS.update(sub.choices)
    return parser


def _parse_compute(argv: list[str]) -> SimpleNamespace | None:
    """The compute parser's Namespace for compute KIND SPEC, then each option
    at most once, as NAME VALUE or NAME=VALUE, all words valid; else None."""
    if len(argv) < 3 or argv[0] != "compute" or argv[1] not in COMPUTE_KINDS:
        return None
    try:
        n = _parse_n_range(argv[2])
    except Exception:  # argparse's ArgumentTypeError: argparse reports it
        return None
    given, rest = {}, iter(argv[3:])
    for token in rest:
        name, eq, value = token.partition("=")
        keywords = COMPUTE_OPTIONS.get(name, {"choices": ()})
        value = value if eq else next(rest, None)
        if name in given or value not in map(str, keywords["choices"]):
            return None
        given[name] = keywords.get("type", str)(value)
    return SimpleNamespace(func=_cmd_compute, kind=argv[1], n=n, **{
        option[2:]: given.get(option, keywords["default"])
        for option, keywords in COMPUTE_OPTIONS.items()})


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse_compute(argv)
        if args is None:
            parser = build_parser()
            command = _COMMAND_PARSERS.get(argv[0]) if argv else None
            args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader left: the recipe in Python's signal docs
        if sys.stdout is not sys.__stdout__:  # in-process (StringIO, capsys)
            raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
