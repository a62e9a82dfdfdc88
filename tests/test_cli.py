"""Tests for the command-line interface.

Runs main() in-process with capsys so exit codes and exact output can be
asserted without subprocess overhead; main() reuses one parser across
calls, so consecutive calls are also checked for leaking options.  main()
reads a canonical compute argv with its own front parser, hands any other
argv with a known subcommand straight to that subcommand's parser, and
sends the rest to the top-level parser.  The parses of the argparse routes
are compared on a table of argv drawn from each subcommand's grammar; the
front parser is compared with the compute parser on that table and on a
generated product of words (it must give the same values or decline), and
the routes are checked by making the parsers refuse to run.  The JSON
that compute prints, for single indices and a range of every kind, is
checked byte for byte against json.dumps(..., indent=2) of the Python that
runs the tests, and its decoded values against the library's answers; the
writer is also checked that way on synthetic rows of every record shape.
compute pn's limit is checked on both sides of 10^6, written out, and
table and verify must accept --max-n 1.  Four subprocess tests check that importing the cli builds no parser and
loads neither fractions nor decimal, that importing every module loads
neither dataclasses nor inspect (the package needs none of them, and each
slows every start), and that canonical compute requests, pretty and JSON,
import neither argparse, json nor verify, qseries or tables, while
table imports argparse and those three modules.  At the end, a closed
stdout must give exit status 1 and an empty stderr, Ctrl-C
(KeyboardInterrupt) exit status 130 and one stderr line, and two tests
check the entry points:
``python -m hilbtorus``, and the console script, for which the entry point
that pyproject.toml declares for ``hilbtorus`` is always run the way an
installer's wrapper calls it, and the installed ``hilbtorus`` script too
when one is on PATH.
"""

import io
import itertools
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import hilbtorus
from hilbtorus import arith, cli, coeffs, rootvalues, verify, zeta
from hilbtorus.arith import r2
from hilbtorus.cli import COMPUTE_KINDS, main
from hilbtorus.laurent import LaurentPoly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_cn_pretty(capsys):
    code, out, err = run(capsys, "compute", "cn", "2")
    assert code == 0
    assert out == "q^4 - q^3 - q + 1\n"
    assert err == ""


def test_compute_pn_pretty(capsys):
    code, out, _ = run(capsys, "compute", "pn", "1")
    assert code == 0
    assert out == "1\n"


def test_compute_json_single(capsys):
    code, out, _ = run(capsys, "compute", "cn", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "n": 1,
        "coeffs": [{"e": 0, "v": "1"}, {"e": 1, "v": "-2"}, {"e": 2, "v": "1"}],
    }


def test_compute_json_range(capsys):
    code, out, _ = run(capsys, "compute", "pn", "1..3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list)
    assert [item["n"] for item in payload] == [1, 2, 3]
    assert payload[1]["coeffs"] == [
        {"e": 0, "v": "1"}, {"e": 1, "v": "1"}, {"e": 2, "v": "1"}]


def test_compute_range_pretty(capsys):
    code, out, _ = run(capsys, "compute", "pn", "2..3")
    assert code == 0
    assert out == "2: q^2 + q + 1\n3: q^4 + q^3 + q + 1\n"


def test_compute_zeta_pretty(capsys):
    code, out, _ = run(capsys, "compute", "zeta", "5")
    assert code == 0
    assert out == ("(1 - q t)(1 - q^3 t)(1 - q^7 t)(1 - q^9 t)"
                   " / ((1 - t)(1 - q^4 t)(1 - q^6 t)(1 - q^10 t))\n")


def test_compute_zeta_json(capsys):
    code, out, _ = run(capsys, "compute", "zeta", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "n": 1,
        "factors": [{"e": 0, "m": 1}, {"e": 1, "m": -2}, {"e": 2, "m": 1}],
    }


def test_compute_hasse_weil(capsys):
    code, out, _ = run(capsys, "compute", "hasse-weil", "1")
    assert code == 0
    assert out == "zeta(s) zeta(s - 2) / zeta(s - 1)^2\n"


def test_compute_ad_all_orders(capsys):
    code, out, _ = run(capsys, "compute", "ad", "5")
    assert code == 0
    assert out == "a_2(5) = -8, a_3(5) = 0, a_4(5) = 0, a_6(5) = 4\n"


def test_compute_ad_single_order(capsys):
    code, out, _ = run(capsys, "compute", "ad", "5", "--d", "2")
    assert code == 0
    assert out == "a_2(5) = -8\n"


@pytest.mark.parametrize("fmt", ["pretty", "json"])
@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_compute_ad_range_selects_one_order(capsys, d, fmt):
    # --d D prints exactly the D entries of the all-orders range
    code, full, _ = run(capsys, "compute", "ad", "1..300", "--format", fmt)
    assert code == 0
    code, out, err = run(capsys, "compute", "ad", "1..300", "--d", str(d),
                         "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "json":
        want = [{"n": item["n"], "values": {str(d): item["values"][str(d)]}}
                for item in json.loads(full)]
        assert json.loads(out) == want
        return
    want = []
    for line in full.splitlines():
        n, entries = line.split(": ", 1)
        want += [f"{n}: {entry}" for entry in entries.split(", ")
                 if entry.startswith(f"a_{d}(")]
    assert len(want) == 300
    assert out.splitlines() == want


def test_compute_ad_json(capsys):
    code, out, _ = run(capsys, "compute", "ad", "5", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "n": 5, "values": {"2": "-8", "3": "0", "4": "0", "6": "4"}}


def test_compute_sections(capsys):
    code, out, _ = run(capsys, "compute", "sections", "12")
    assert code == 0
    assert out == ("s_1(12) = 28, s_2(12) = 14, s_3(12) = 10, "
                   "s_4(12) = 7, s_6(12) = 5\n")


def test_compute_arithmetic_error_exits_1(capsys, monkeypatch):
    # a lattice count that 4 does not divide trips a_6's exact division
    monkeypatch.setattr(arith, "r2", lambda n: 5)
    code, out, err = run(capsys, "compute", "ad", "7", "--d", "6")
    assert code == 1
    assert out == ""
    assert err == "compute ad: a_6(7): 5 is not divisible by 4\n"


@pytest.mark.parametrize("fmt", ["pretty", "json"])
def test_compute_range_error_keeps_the_indices_before_it(capsys, monkeypatch, fmt):
    # a range prints each index as it is computed, so a remainder at n = 7
    # leaves n = 1..6 on stdout; a JSON range stays unclosed
    code, before, _ = run(capsys, "compute", "ad", "1..6", "--d", "6", "--format", fmt)
    assert code == 0
    r2 = arith.r2
    monkeypatch.setattr(arith, "r2", lambda n: 5 if n == 7 else r2(n))
    code, out, err = run(capsys, "compute", "ad", "1..10", "--d", "6", "--format", fmt)
    assert code == 1
    assert out == (before if fmt == "pretty" else before.removesuffix("\n]\n"))
    assert err == "compute ad: a_6(7): 5 is not divisible by 4\n"


# the limit is written out, so that a change to PN_MAX_N fails here
@pytest.mark.parametrize("n", ["1000001", "1..1000001"])
def test_compute_pn_above_limit_exits_2(capsys, monkeypatch, n):
    def never(n):
        raise AssertionError("compute pn built P_n above its limit")

    monkeypatch.setattr(coeffs, "reduced_poly", never)
    code, out, err = run(capsys, "compute", "pn", n)
    assert code == 2
    assert out == ""
    assert err == ("compute pn: n = 1000001 is above the limit 1000000: P_n "
                   "has 2n - 1 coefficients\n")


def test_compute_pn_at_the_limit_passes_its_check(capsys, monkeypatch):
    # P_n is not built: a one-term stand-in takes its place
    monkeypatch.setattr(coeffs, "reduced_poly", lambda n: LaurentPoly({n - 1: 1}))
    assert run(capsys, "compute", "pn", "1000000") == (0, "q^999999\n", "")


@pytest.mark.parametrize("argv", [["table", "1", "--max-n", "1"],
                                  ["verify", "--suite", "arith", "--max-n", "1"]])
def test_max_n_of_one_is_accepted(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert (code, err) == (0, "")


def test_compute_cn_at_a_billion(capsys):
    n = 10 ** 9
    code, out, _ = run(capsys, "compute", "cn", str(n), "--format", "json")
    assert code == 0
    terms = {t["e"]: int(t["v"]) for t in json.loads(out)["coeffs"]}
    assert min(terms) == 0 and max(terms) == 2 * n
    assert terms[0] == terms[2 * n] == 1
    assert all(terms.get(2 * n - e) == c for e, c in terms.items())
    assert sum(terms.values()) == 0  # C_n(1)
    assert sum(c if e % 2 == 0 else -c for e, c in terms.items()) == r2(n)


def _payload(kind, n, d=None):
    """The object compute prints for one n, built from the library."""
    if kind in ("cn", "pn"):
        poly = (coeffs.count_poly if kind == "cn" else coeffs.reduced_poly)(n)
        return {"n": n, "coeffs": [{"e": e, "v": str(v)} for e, v in sorted(poly.items())]}
    if kind in ("zeta", "hasse-weil"):
        key = "e" if kind == "zeta" else "s0"
        return {"n": n, "factors": [{key: e, "m": m}
                                    for e, m in zeta.build_local_zeta(n).factors]}
    values = (rootvalues.root_sequences if kind == "ad" else rootvalues.section_formulas)(n)
    return {"n": n, "values": {str(k): str(v) for k, v in values.items()
                               if d is None or k == d}}


@pytest.mark.parametrize("kind", COMPUTE_KINDS)
def test_json_writer_matches_json_dumps(capsys, kind):
    # the printed text of each index and of a range is json.dumps(indent=2)
    # of what it decodes to, which is the library's answer
    ns = [*range(1, 41), 5040]
    if kind != "pn":
        ns += [720720, 10 ** 12]
    for d in ([None, 3] if kind == "ad" else [None]):
        option = [] if d is None else ["--d", str(d)]
        cases = [(str(n), _payload(kind, n, d)) for n in ns]
        cases.append(("1..40", [_payload(kind, n, d) for n in range(1, 41)]))
        for spec, want in cases:
            code, out, err = run(capsys, "compute", kind, spec, "--format", "json", *option)
            assert (code, err) == (0, "")
            assert json.loads(out) == want, spec
            assert out == json.dumps(want, indent=2) + "\n", spec


_FIELDS = {"cn": ("coeffs", "e", "v"), "pn": ("coeffs", "e", "v"),
           "zeta": ("factors", "e", "m"), "hasse-weil": ("factors", "s0", "m")}


@pytest.mark.parametrize("payload", [
    ("cn", 1, [(0, 1)]),
    ("pn", 2, [(-2, 1), (-1, -2), (0, 1)]),
    ("cn", 10 ** 12, [(0, 10 ** 40), (1, -(10 ** 25))]),
    ("zeta", 1, [(0, 1)]),
    ("zeta", 5040, [(0, 1), (1, -2), (2, 3)]),
    ("hasse-weil", 7, [(0, 1), (1, 2)]),
    ("hasse-weil", 10 ** 12, [(-3, -1), (12345678901234567890123, 10 ** 40)]),
    ("ad", 1, [(1, 1)]),
    ("ad", 12, [(1, 0), (2, -7), (3, 10 ** 25)]),
    ("sections", 3, [(0, -1)]),
    ("sections", 720720, [(k, (-1) ** k * 10 ** k) for k in range(1, 9)]),
])
def test_json_writer_matches_json_dumps_on_synthetic_payloads(payload):
    # rows no index has produced (signs, zeros, ints past 2**64, one row and
    # many) fill each kind's template as json.dumps(indent=2) writes them,
    # alone and at the depth of a range's items
    kind, n, rows = payload
    if kind in _FIELDS:
        name, key, value = _FIELDS[kind]
        want = {"n": n, name: [{key: k, value: str(v) if value == "v" else v}
                               for k, v in rows]}
    else:
        name = "values"
        want = {"n": n, name: {str(k): str(v) for k, v in rows}}
    assert cli._json(kind, n, name, rows, "\n") == json.dumps(want, indent=2)
    item = cli._json(kind, n, name, rows, "\n  ")
    assert "[\n  " + item + "\n]" == json.dumps([want], indent=2)


def test_compute_json_does_not_call_json_dumps(capsys, monkeypatch):
    expected = json.dumps(_payload("cn", 5040), indent=2)

    def refuse(*args, **kwargs):
        raise AssertionError("compute called json.dumps")

    monkeypatch.setattr(json, "dumps", refuse)
    code, out, err = run(capsys, "compute", "cn", "5040", "--format", "json")
    assert (code, out, err) == (0, expected + "\n", "")


def test_d_flag_requires_ad(capsys):
    code, out, err = run(capsys, "compute", "cn", "3", "--d", "2")
    assert code == 2
    assert out == ""
    assert "--d only applies" in err


def test_bad_range_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "cn", "8..3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["compute", "cn", "zero"])
    assert exc.value.code == 2


def test_table_output(capsys):
    code, out, _ = run(capsys, "table", "4", "--max-n", "3")
    assert code == 0
    assert out == ("n\ts_2(n)\ts_3(n)\ts_4(n)\ts_6(n)\n"
                   "1\t1\t1\t1\t1\n2\t2\t1\t1\t1\n3\t2\t2\t2\t1\n")


def test_verify_selected_suites(capsys):
    code, out, err = run(capsys, "verify", "--suite", "zeta,tables", "--max-n", "30")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[0].startswith("ok   zeta")
    assert lines[1].startswith("ok   tables")


def test_verify_runs_each_named_suite_once(capsys, monkeypatch):
    ran = []
    zeta = verify.SUITES["zeta"]
    monkeypatch.setitem(verify.SUITES, "zeta",
                        lambda **kwargs: ran.append("zeta") or zeta(**kwargs))
    code, out, err = run(capsys, "verify", "--suite", "zeta,tables,zeta",
                         "--suite", "tables", "--suite", "zeta", "--max-n", "30")
    assert code == 0
    lines = out.strip().split("\n")
    assert [line.split()[1] for line in lines] == ["zeta", "tables"]
    assert ran == ["zeta"]


def test_verify_reports_unexpected_exception_as_suite_failure(capsys, monkeypatch):
    def overflow(**kwargs):
        raise ArithmeticError("remainder in an exact division")

    monkeypatch.setitem(verify.SUITES, "zeta", overflow)
    code, out, err = run(capsys, "verify", "--suite", "zeta,tables", "--max-n", "30")
    assert code == 1
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[0].startswith("FAIL zeta")
    assert ("ArithmeticError: remainder in an exact division "
            "(raised in overflow, test_cli.py:") in lines[0]
    assert lines[1].startswith("ok   tables")


def test_verify_help_names_what_each_flag_sets(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    options = " ".join(capsys.readouterr().out.split()).split("options:", 1)[1]
    helps = options.split("--max-n MAX_N", 1)[1].split("--order ORDER")
    for keyword, text in zip(("max_n", "order"), helps):
        # "sets KEYWORD of a, b and c; ..." names the suites the flag sets
        head, rest = text.split(";", 1)
        named = head.split(f"sets {keyword} of ", 1)[1]
        named = set(named.replace(" and ", ", ").split(", "))
        takers = {name for name, taken in verify._SIZE_KEYWORD.items()
                  if taken == keyword}
        assert named == takers, (keyword, named)
        for name in set(verify.SUITES) - takers:
            assert (f"{name} ignores it" in rest
                    or "the other suites ignore it" in rest), (keyword, name)


def test_verify_unknown_suite(capsys):
    code, out, err = run(capsys, "verify", "--suite", "nonsense,zeta", "--suite", "bogus")
    assert code == 2
    assert out == ""
    assert err == (f"unknown suite(s): nonsense, bogus; "
                   f"known: {', '.join(verify.SUITES)}\n")


@pytest.mark.parametrize("suite", [",", ""])
def test_verify_empty_suite_selection_is_usage_error(capsys, suite):
    code, out, err = run(capsys, "verify", "--suite", suite)
    assert code == 2
    assert out == ""
    assert err == f"verify: --suite names no suite; known: {', '.join(verify.SUITES)}\n"


@pytest.mark.parametrize("kind", ["sections", "ad"])
@pytest.mark.parametrize("n", ["1", "12", "999983", "1000000"])
def test_compute_counts_r2_once_per_n(capsys, monkeypatch, kind, n):
    calls = []

    def counting_r2(m):
        calls.append(m)
        return r2(m)

    monkeypatch.setattr(arith, "r2", counting_r2)
    code, _, _ = run(capsys, "compute", kind, n)
    assert code == 0
    assert calls == [int(n)]


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


# command: (the words each positional may take, the values each option may
# take); the first word of each list is valid, most of the rest are not
GRAMMAR = {
    "compute": ([[*COMPUTE_KINDS, "bogus"],
                 ["7", "2..9", "1..1", "0", "-1", "zero", "8..3", "3..", "1..2..3"]],
                {"--format": ["json", "pretty", "xml"], "--form": ["json"],
                 "--d": ["2", "3", "4", "6", "5", "x"]}),
    "table": ([["1", "2", "3", "4", "0", "9", "x"]],
              {"--max-n": ["3", "0", "x", ""], "--max": ["60"]}),
    "verify": ([], {"--suite": [*verify.SUITES, "zeta,tables", ",", "", "bogus"],
                    "--max-n": ["5", "0", "x"], "--max": ["5"],
                    "--order": ["40", "-1", "1.5"]}),
}


def _argv_table(command):
    """Each positional word and option value in turn, each option both as
    two tokens and as NAME=VALUE before the positionals, every option twice,
    a missing positional and extra arguments."""
    positionals, options = GRAMMAR[command]
    base = [command, *(words[0] for words in positionals)]
    for i, words in enumerate(positionals, 1):
        yield from ([*base[:i], word, *base[i + 1:]] for word in words)
    for name, values in options.items():
        for value in values:
            yield [*base, name, value]
            yield [command, f"{name}={value}", *base[1:]]
    yield [*base, *[t for name, values in options.items()
                    for t in (name, values[0]) * 2]]
    if positionals:
        yield base[:-1]
    for extra in ("--bogus", "extra", "-h", "--help"):
        yield [*base, extra]


def _parse_outcome(parse, argv):
    """(exit status, vars of the Namespace, stdout, last stderr line) of one
    parse; the status is None when it returns, the vars None when it exits."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            found = vars(parse(argv))
    except SystemExit as exc:
        return exc.code, None, out.getvalue(), err.getvalue().splitlines()[-1:]
    return None, found, out.getvalue(), err.getvalue().splitlines()[-1:]


@pytest.mark.parametrize("command", sorted(GRAMMAR))
def test_direct_dispatch_parses_as_the_top_level_parser(command):
    top_level = cli.build_parser()  # also fills cli._COMMAND_PARSERS
    assert sorted(cli._COMMAND_PARSERS) == sorted(GRAMMAR)
    outcomes = set()
    for argv in _argv_table(command):
        direct = _parse_outcome(cli._COMMAND_PARSERS[command].parse_args, argv[1:])
        code, found, out, err = _parse_outcome(top_level.parse_args, argv)
        if found is not None:
            assert found.pop("command") == command
        # the one intended difference: the subcommand's prog on extra arguments
        err = [line.replace("hilbtorus: error: unrecognized",
                            f"hilbtorus {command}: error: unrecognized")
               for line in err]
        assert direct == (code, found, out, err), argv
        outcomes.add(code)
    assert outcomes == {None, 0, 2}  # parsed, help, usage error


def test_known_subcommand_skips_the_top_level_parser(capsys, monkeypatch):
    class TopLevelParse(Exception):
        pass

    def refuse(*args, **kwargs):
        raise TopLevelParse

    monkeypatch.setitem(vars(cli.build_parser()), "parse_known_args", refuse)
    for argv in (["compute", "cn", "3"], ["table", "4", "--max-n", "3"],
                 ["verify", "--suite", "tables", "--max-n", "5"]):
        assert run(capsys, *argv)[0] == 0, argv
    for argv in ([], ["--help"], ["bogus"], ["-h", "compute"]):
        with pytest.raises(TopLevelParse):
            main(argv)


def test_unknown_argument_after_subcommand_gets_its_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "cn", "3", "--bogus"])
    assert exc.value.code == 2
    # the usage lines above it wrap differently across Python versions
    assert ("hilbtorus compute: error: unrecognized arguments: --bogus"
            in capsys.readouterr().err.splitlines())


def test_removed_oeis_compare_is_an_invalid_choice(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oeis-compare", "a004018", "b004018.txt"])
    assert exc.value.code == 2
    # the list of choices after it is quoted differently across Python versions
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "hilbtorus: error: argument command: invalid choice: 'oeis-compare'")


# words for generated compute argv: ["compute", *up to 4 of FRONT_WORDS],
# and each (kind, spec) of FRONT_HEADS followed by up to 4 of FRONT_OPTIONS
FRONT_WORDS = ["cn", "bogus", "7", " 5", "1_000", "-1", "--format", "json",
               "--d", "3", "--format=json", "--form"]
FRONT_HEADS = [("ad", "7"), ("cn", "2..4"), ("bogus", "7"), ("zeta", "0")]
FRONT_OPTIONS = ["--format", "json", "pretty", "--d", "3", "03", "--format=json",
                 "--d=3", "--form", "--", "-h", "=json"]


def _front_table():
    yield from _argv_table("compute")
    for k in range(5):
        yield from (["compute", *words]
                    for words in itertools.product(FRONT_WORDS, repeat=k))
    for head, k in itertools.product(FRONT_HEADS, range(5)):
        yield from (["compute", *head, *words]
                    for words in itertools.product(FRONT_OPTIONS, repeat=k))


def _compute_parse(argv):
    """vars of the compute parser's Namespace for argv, None on exit."""
    return _parse_outcome(cli._COMMAND_PARSERS["compute"].parse_args, argv[1:])[1]


def test_front_parser_agrees_with_the_compute_parser():
    cli.build_parser()  # fills cli._COMMAND_PARSERS
    accepted = []
    for argv in _front_table():
        front = cli._parse_compute(argv)
        if front is not None:
            assert vars(front) == _compute_parse(argv), argv
            accepted.append(argv)
    for argv in (["compute", "cn", "7", "--format=json"],
                 ["compute", "ad", "7", "--d=3", "--format", "json"],
                 ["compute", "ad", "7", "--format", "json", "--d", "3"],
                 ["compute", "cn", " 5"], ["compute", "cn", "1_000", "--d", "3"]):
        assert argv in accepted, argv
    # the table exercises the front parser, which still declines most of it
    assert 50 < len(accepted) < 1000, len(accepted)


@pytest.mark.parametrize("fmt", ["pretty", "json"])
@pytest.mark.parametrize("kind", COMPUTE_KINDS)
def test_front_parser_takes_the_sparse_sweep_shape(kind, fmt):
    cli.build_parser()
    argv = ["compute", kind, "5040", "--format", fmt]
    front = cli._parse_compute(argv)
    assert front is not None
    assert vars(front) == _compute_parse(argv)


def test_canonical_compute_builds_no_parser(capsys, monkeypatch):
    canonical = [["compute", kind, "12", *fmt, *d]
                 for kind in COMPUTE_KINDS
                 for fmt in ([], ["--format", "json"], ["--format=pretty"])
                 for d in ([], ["--d", "3"], ["--d=6"])]
    expected = []
    for argv in canonical:
        args = cli.build_parser().parse_args(argv)
        expected.append((args.func(args), *capsys.readouterr()))

    class ParserBuilt(Exception):
        pass

    def refuse():
        raise ParserBuilt

    monkeypatch.setattr(cli, "build_parser", refuse)
    for argv, want in zip(canonical, expected):
        assert run(capsys, *argv) == want, argv
    assert {want[0] for want in expected} == {0, 2}  # --d away from ad: 2
    for argv in (["compute", "--form", "json", "cn", "3"],
                 ["compute", "cn", "3", "--form", "json"],
                 ["compute", "cn", "3", "--format", "json", "--format", "pretty"],
                 ["compute", "cn", "3", "--d", "3", "--d=2"],
                 ["compute", "cn", "3", "--", "--d", "3"],
                 ["compute", "cn", "3", "-h"], ["compute", "cn", "3", "--d", "03"],
                 ["compute", "--format", "json", "cn", "3"], ["compute", "cn"]):
        with pytest.raises(ParserBuilt):
            main(argv)


def test_compute_imports_only_what_it_runs():
    src = Path(hilbtorus.__file__).resolve().parents[1]
    # what a bare interpreter (site included) already holds is not ours
    probe = """if True:
        import contextlib, io, sys
        unwanted = {"argparse", "json", "hilbtorus.verify", "hilbtorus.qseries",
                    "hilbtorus.tables"}
        bare = unwanted & set(sys.modules)
        from hilbtorus import cli
        with contextlib.redirect_stdout(io.StringIO()):
            codes = {cli.main(["compute", kind, spec, "--format", fmt, *d])
                     for kind in cli.COMPUTE_KINDS for spec in ("12", "1..3")
                     for fmt in ("pretty", "json") for d in ([], ["--d=3"])
                     if kind == "ad" or not d}
        print(codes, sorted(unwanted & set(sys.modules) - bare))
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["table", "1"])
        print(sorted(unwanted & set(sys.modules) - bare))
    """
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("{0} []\n['argparse', 'hilbtorus.qseries', "
                           "'hilbtorus.tables', 'hilbtorus.verify']\n")


def test_import_builds_no_parser():
    src = Path(hilbtorus.__file__).resolve().parents[1]
    probe = ("from hilbtorus import cli; "
             "print(cli.build_parser.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_import_loads_no_fractions_or_decimal():
    src = Path(hilbtorus.__file__).resolve().parents[1]
    probe = ("import sys, hilbtorus.cli; "
             "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_import_of_every_module_loads_no_dataclasses_or_inspect():
    package = Path(hilbtorus.__file__).resolve().parent
    modules = sorted(f"hilbtorus.{p.stem}" for p in package.glob("*.py"))
    assert "hilbtorus.verify" in modules and "hilbtorus.__main__" in modules
    # what a bare interpreter (site included) already holds is not ours
    probe = ("import sys; unwanted = {'dataclasses', 'inspect'}; "
             "bare = unwanted & set(sys.modules); "
             f"import {', '.join(modules)}; "
             "print(sorted(unwanted & set(sys.modules) - bare))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(package.parent)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_consecutive_calls_do_not_share_options(capsys):
    assert run(capsys, "compute", "ad", "9", "--d", "2")[1] == "a_2(9) = -4\n"
    assert run(capsys, "compute", "ad", "9")[1] == (
        "a_2(9) = -4, a_3(9) = 6, a_4(9) = -6, a_6(9) = -4\n")
    assert json.loads(run(capsys, "compute", "cn", "3", "--format", "json")[1])["n"] == 3
    assert run(capsys, "compute", "cn", "3")[1] == (
        "q^6 - q^5 - q^4 + 2q^3 - q^2 - q + 1\n")
    first = run(capsys, "verify", "--suite", "zeta", "--max-n", "5")[1]
    assert [line.split()[1] for line in first.splitlines()] == ["zeta"]
    code, second, _ = run(capsys, "verify", "--suite", "tables", "--max-n", "5")
    assert code == 0
    assert [line.split()[1] for line in second.splitlines()] == ["tables"]


def test_console_script_installed():
    argv = ["compute", "cn", "1"]

    exe = shutil.which("hilbtorus")
    if exe:
        proc = subprocess.run([exe, *argv], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "q^2 - 2q + 1\n"

    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["hilbtorus"]
    module, _, attr = target.partition(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    src = Path(hilbtorus.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", wrapper, *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "q^2 - 2q + 1\n"


def test_python_dash_m_runs_cli():
    src = Path(hilbtorus.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "hilbtorus", "compute", "cn", "1"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "q^2 - 2q + 1\n"


@pytest.mark.parametrize("argv", [["compute", "pn", "1..300"], ["table", "1"]])
def test_closed_stdout_exits_1_without_a_traceback(argv):
    # compute pn 1..300 prints 0.5 MB, more than a pipe holds, after the
    # reader has taken 10 bytes; table 1 finds the pipe closed at once
    src = Path(hilbtorus.__file__).resolve().parents[1]
    with subprocess.Popen([sys.executable, "-m", "hilbtorus", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": str(src)}) as proc:
        if argv[0] == "compute":
            assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (1, b"")


def test_ctrl_c_exits_130_with_one_line_and_no_traceback(monkeypatch, capsys):
    def interrupt(n):
        raise KeyboardInterrupt

    monkeypatch.setattr(coeffs, "count_poly", interrupt)
    assert main(["compute", "cn", "5"]) == 130
    out, err = capsys.readouterr()
    assert (out, err) == ("", "hilbtorus: interrupted\n")
