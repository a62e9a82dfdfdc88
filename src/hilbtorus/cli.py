"""Command-line interface.

Subcommands: compute (polynomials, zeta factorizations, root sequences,
sections; pretty text or JSON), table (the four built-in tables) and verify
(the cross-verification suites).

A compute range prints each index as soon as it is computed, so its
memory is that of one index and a reader gets the first line at once.

Exit codes: 0 on success, 1 when a verification fails, an exact division
in compute leaves a remainder (the indices of a range before it stay
printed; a JSON range is left unclosed), or the reader closes stdout (no
traceback), 2 on usage errors, and for compute pn above PN_MAX_N (P_n
has Theta(n) terms, so its cost and output grow linearly),
130 on Ctrl-C (KeyboardInterrupt: one stderr line, no traceback).
Other compute kinds have no enforced limit: each index costs one cached
trial-division factorization of n, O(sqrt n) at worst, n prime (compute
cn at the prime 10^16 + 61: 4.4 s, best of two, 2-vCPU Xeon, Python 3.11.7).

main(argv) may be called any number of times in one process, as the tests
and the benchmark do.  It takes one of three routes: a canonical compute
argv (compute KIND SPEC, then at most one --format and one --d, every word
valid) is read by _parse_compute without argparse, which it never imports;
any other argv whose argv[0] names a subcommand is parsed by that
subcommand's parser alone; everything else goes through the top-level
parser.  build_parser builds the parsers on its first call, not at import,
and imports tables and verify (and with it qseries) for their choices, so a
canonical compute imports none of argparse, json, tables, verify or
qseries, and any other argv imports tables and verify with the parser.
--format json has three shapes, {"n", "coeffs" or "factors": [records]}
and {"n", "values": {k: v}}, whose every value is an int or its decimal
string, so nothing needs escaping: _json fills one % template per record,
built once per answer at its nesting depth, and compute never imports json.
Its text is byte-identical to json.dumps(..., indent=2) (a test pins it).
It took 25 us for C_16533, count_poly included, on CPython 3.13.13 (2-vCPU
Xeon), where json.dumps(indent=2) runs in C and took 58-60 us.
"""

from __future__ import annotations

import functools
import os
import sys
from types import SimpleNamespace

from . import coeffs, rootvalues, zeta

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


# one record of each kind's JSON, as json.dumps(..., indent=2) writes it at
# depth 0: every field is an int, so %d fills it and nothing needs escaping
_RECORDS = {"cn": '{\n  "e": %d,\n  "v": "%d"\n}', "zeta": '{\n  "e": %d,\n  "m": %d\n}',
            "hasse-weil": '{\n  "s0": %d,\n  "m": %d\n}',  # zeta(s - s0)^m
            "ad": '"%d": "%d"'}
_RECORDS.update(pn=_RECORDS["cn"], sections=_RECORDS["ad"])


def _json(kind: str, n: int, name: str, rows, newline: str) -> str:
    """json.dumps({"n": n, name: records}, indent=2), each line after the
    first starting with newline; the records fill kind's template, which
    is built at their depth once, from the rows' (key, value) pairs."""
    inner, deep = newline + "  ", newline + "    "
    record = _RECORDS[kind].replace("\n", deep)
    body = ("," + deep).join([record % row for row in rows])
    start, end = "{}" if name == "values" else "[]"
    return f'{{{inner}"n": {n},{inner}"{name}": {start}{deep}{body}{inner}{end}{newline}}}'


def _compute_one(kind: str, n: int, d: int | None, fmt: str, newline: str = "\n") -> str:
    """The pretty or JSON text of one n; a JSON range passes its deeper
    newline, "\\n" and the list's indent."""
    if kind in ("cn", "pn"):
        poly = (coeffs.count_poly if kind == "cn" else coeffs.reduced_poly)(n)
        if fmt == "pretty":
            return poly.pretty()
        return _json(kind, n, "coeffs", sorted(poly.items()), newline)
    if kind in ("zeta", "hasse-weil"):
        z = zeta.build_local_zeta(n)
        if fmt == "pretty":
            return z.pretty() if kind == "zeta" else z.hasse_weil()
        return _json(kind, n, "factors", z.factors, newline)
    if kind in ("ad", "sections"):
        values = (rootvalues.root_sequences if kind == "ad"
                  else rootvalues.section_formulas)(n)
        values = values if d is None else {d: values[d]}
        if fmt == "pretty":
            letter = "a" if kind == "ad" else "s"
            return ", ".join(f"{letter}_{k}({n}) = {v}" for k, v in values.items())
        return _json(kind, n, "values", values.items(), newline)
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
        if lo == hi:
            print(_compute_one(args.kind, lo, args.d, args.format))
        elif args.format == "json":  # json.dumps(list, indent=2), streamed
            separator = "[\n  "
            for n in range(lo, hi + 1):
                item = _compute_one(args.kind, n, args.d, "json", "\n  ")
                sys.stdout.write(separator + item)
                separator = ",\n  "
            print("\n]")
        else:
            for n in range(lo, hi + 1):
                print(f"{n}: {_compute_one(args.kind, n, args.d, 'pretty')}")
    except ArithmeticError as exc:
        print(f"compute {args.kind}: {exc}", file=sys.stderr)
        return 1
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The hilbtorus argument parser, built on the first call and the same
    object afterwards. It is never changed once built: parse_args returns
    a fresh Namespace each time and the append action copies its default."""
    import argparse
    from . import tables, verify
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
    except KeyboardInterrupt:  # Ctrl-C: 128 + SIGINT, as a shell reports it
        print("hilbtorus: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
