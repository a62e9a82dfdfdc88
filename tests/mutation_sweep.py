"""Mutation sweep: which code in src/hilbtorus can change and no check notice,
and which identities of verify catch the rest?

Each mutant makes one change in one module: it flips one operator (+ and -,
* and //, / to *, < and <=, > and >=, == and !=) or adds 1 to one int
constant.  The sweep copies the tree to a temporary directory once, writes
each mutant into the copy (never into this checkout) and runs

    hilbtorus verify --max-n 120 --order 200
    hilbtorus verify --suite qseries --order 169
    hilbtorus verify --suite arith --max-n 400

on it through cli.main, all three in one fresh process per mutant, one
process at a time: 169 is an order at which the top coefficients of the psi
series and of the shifted phi/psi blocks are nonzero (at 200 and at the
default 2000 they are zero), and below 400 trial division reaches the
primes 11, 13, 17 and 19, whose squares 121 to 361 exceed 120.  In that
process expect and expect_rows are wrapped where errors, verify, coeffs and
zeta bind them, so that a failed identity is recorded and the suite goes
on, and run_suites is wrapped to record the type of any other exception
per suite.  The run has a timeout of ten times the unmutated run (at least
5 s).  The three commands are fixed: the survivor list and the kill table
hold at them and at no others.  A mutant that fails an identity or raises
is killed, and the script prints what caught it; one that runs past the
timeout is hung; one that passes survives.  With --tier1 each survivor is
run again against Tier-1 (pytest in the copy).

Every survivor should have a line in mutation_survivors.txt, beside this
script, that says why it lives, with one of these reasons:
  equivalent: no input can tell the mutant apart;
  equivalent on command inputs: only inputs that no command passes can;
  only tests reach it: no command runs the mutated code;
  printed text: only the text a command prints changes, and verify
    certifies values, not their layout (Tier-1 checks it);
  gap: a check is missing, and a ROADMAP item closes it.
The script prints each survivor with its listed reason, or UNLISTED, then
each line of a swept module whose label no survivor printed, as STALE (the
mutant is killed now, or the line has moved).  Lines of modules it did not
sweep are ignored.

Then it prints the kill table, one line per identity:

    identity | kills | unique kills | where the unique kills are

where a kill is a mutant that the identity fails on, and a unique kill is
one that no other identity and no exception catches.  The table counts the
mutants of all nine modules in MODULES, which the script sweeps when it is
named no module, so only such a sweep compares it with identity_kills.txt,
beside this script, which adds why each identity stays; a line that
differs is printed as DIFFERS.  The script exits 1 if the unmutated tree
fails verify, or if any survivor is unlisted, any line is stale or any
table line differs.  It is not a Tier-1 test.

    PYTHONPATH=src python tests/mutation_sweep.py
    PYTHONPATH=src python tests/mutation_sweep.py --tier1 cyclotomic.py
"""

import argparse
import ast
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SURVIVORS = Path(__file__).with_name("mutation_survivors.txt")
KILLS = Path(__file__).with_name("identity_kills.txt")
# the modules swept by default, whose mutants identity_kills.txt counts
MODULES = ("laurent.py", "series.py", "cyclotomic.py", "qseries.py", "zeta.py",
           "tables.py", "coeffs.py", "arith.py", "rootvalues.py")
SYMBOL = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//",
          ast.Div: "/", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
          ast.Eq: "==", ast.NotEq: "!="}
FLIP = {"+": "-", "-": "+", "*": "//", "//": "*", "/": "*", "<": "<=",
        "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "=="}
OUTCOME = {"fail": "killed", "hung": "hung", "pass": "survived"}
# the verify commands that each mutant runs
CHECKS = (["verify", "--max-n", "120", "--order", "200"],
          ["verify", "--suite", "qseries", "--order", "169"],
          ["verify", "--suite", "arith", "--max-n", "400"])
MEMORY_LIMIT = 1 << 30  # bytes of address space per run
# run the argv lists of sys.argv[1] through cli.main, recording every
# identity checked, every identity failed and, per suite, the type of any
# other exception; print the three as one JSON list
CHILD = """
import contextlib, io, json, sys
seen, failed, raised = set(), set(), set()

def recording(check):
    def recorded(identity, *args):
        seen.add(identity)
        try:
            check(identity, *args)
        except errors.VerificationError:
            failed.add(identity)
    return recorded

def recording_suites(run_suites):
    def recorded(*args, **kwargs):
        results = run_suites(*args, **kwargs)
        raised.update(f"{r.name}: {r.detail.split(':', 1)[0]}"
                      for r in results if not r.ok)
        return results
    return recorded

try:
    from hilbtorus import cli, coeffs, errors, verify, zeta
    for module in (errors, verify, coeffs, zeta):
        for name in ("expect", "expect_rows"):
            if hasattr(module, name):
                setattr(module, name, recording(getattr(module, name)))
    verify.run_suites = recording_suites(verify.run_suites)
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in json.loads(sys.argv[1]):
            cli.main(argv)
except Exception as exc:
    raised.add(f"verify: {type(exc).__name__}")
print(json.dumps([sorted(seen), sorted(failed), sorted(raised)]))
"""


def _edits(tree, offset):
    """(start, end, new text) byte edits of the source, one per mutant.
    offset(line, col) is the byte offset of an AST position.  An operator
    sits in the gap between its operands; f-strings are left alone."""
    in_fstring = {id(inner) for node in ast.walk(tree)
                  if isinstance(node, ast.JoinedStr) for inner in ast.walk(node)}
    for node in ast.walk(tree):
        if id(node) in in_fstring:
            continue
        if isinstance(node, ast.Constant) and type(node.value) is int:
            yield (offset(node.lineno, node.col_offset),
                   offset(node.end_lineno, node.end_col_offset), str(node.value + 1))
            continue
        if isinstance(node, ast.BinOp):
            gaps = [(node.left, node.op, node.right, "")]
        elif isinstance(node, ast.AugAssign):
            gaps = [(node.target, node.op, node.value, "=")]
        elif isinstance(node, ast.Compare):
            gaps = zip([node.left, *node.comparators], node.ops,
                       node.comparators, [""] * len(node.ops))
        else:
            continue
        for left, op, right, suffix in gaps:
            symbol = SYMBOL.get(type(op))
            if symbol is None:
                continue
            yield (offset(left.end_lineno, left.end_col_offset),
                   offset(right.lineno, right.col_offset),
                   (symbol + suffix, FLIP[symbol] + suffix))


def mutants(source, module):
    """Yield (label, mutated source) for every mutant of one module; the
    label is "module:line: line before -> line after"."""
    data = source.encode()
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    edits = _edits(ast.parse(source), lambda line, col: starts[line - 1] + col)
    for start, end, new in sorted(edits, key=lambda edit: edit[0]):
        if isinstance(new, tuple):  # an operator: find its token in the gap
            token, flipped = (t.encode() for t in new)
            gap = data[start:end]
            at = gap.find(token)
            if at < 0 or b"#" in gap[:at]:
                continue
            start, end, new = start + at, start + at + len(token), flipped
        else:
            new = new.encode()
        mutated = data[:start] + new + data[end:]
        line = data.count(b"\n", 0, start)
        before = data.splitlines()[line].decode().strip()
        after = mutated.splitlines()[line].decode().strip()
        yield f"{module}:{line + 1}: {before} -> {after}", mutated.decode()


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run(cmd, tree, timeout):
    """('pass', 'fail' or 'hung', stdout) for cmd run in tree with tree/src
    on the path."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(cmd, cwd=tree, env=env, timeout=timeout, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return "hung", ""
    return ("pass" if done.returncode == 0 else "fail"), done.stdout


def run_checks(tree, timeout):
    """(outcome, identities seen, what caught the mutant) for CHILD run on
    CHECKS: the failed identities, then the exceptions as "suite: type"."""
    cmd = [sys.executable, "-c", CHILD, json.dumps(CHECKS)]
    outcome, out = run(cmd, tree, timeout)
    if outcome == "hung":
        return outcome, [], []
    try:
        seen, failed, raised = json.loads(out)
    except ValueError:
        return "fail", [], ["child: no report"]
    return ("fail" if failed or raised else "pass"), seen, failed + raised


def kill_table(caught, identities):
    """{identity: "kills | unique kills | where"} from caught, a list of
    (label, what caught it): a unique kill is caught by the identity alone,
    and "where" lists the module:line of each, "-" if none."""
    table = {}
    for identity in identities:
        kills = [label for label, catchers in caught if identity in catchers]
        unique = [label for label, catchers in caught if catchers == [identity]]
        lines = sorted({tuple(label.split(":")[:2]) for label in unique},
                       key=lambda at: (at[0], int(at[1])))
        where = " ".join(f"{module}:{line}" for module, line in lines) or "-"
        table[identity] = f"{len(kills)} | {len(unique)} | {where}"
    return table


def committed_kills():
    """identity -> "kills | unique kills | where" from identity_kills.txt,
    whose lines add " | reason"."""
    lines = KILLS.read_text().splitlines() if KILLS.exists() else []
    rows = (line.split(" | ") for line in lines
            if line.strip() and not line.startswith("#"))
    return {identity: " | ".join(counts) for identity, *counts, _reason in rows}


def listed_reasons():
    """label -> reason from mutation_survivors.txt ("label | reason" lines)."""
    if not SURVIVORS.exists():
        return {}
    lines = SURVIVORS.read_text().splitlines()
    return dict(line.rsplit(" | ", 1) for line in lines
                if line.strip() and not line.startswith("#"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="*", default=MODULES,
                        help="file names under src/hilbtorus (default: all nine)")
    parser.add_argument("--tier1", action="store_true",
                        help="re-run each survivor against Tier-1")
    args = parser.parse_args(argv)
    tier1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    reasons = listed_reasons()
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        start = time.perf_counter()
        outcome, identities, _ = run_checks(tree, None)
        if outcome != "pass":
            print("the unmutated tree fails verify")
            return 1
        timeout = max(5.0, 10 * (time.perf_counter() - start))
        survivors, caught, unlisted = [], [], 0
        for module in args.modules:
            path = tree / "src" / "hilbtorus" / module
            source = path.read_text()
            tally = dict.fromkeys(OUTCOME, 0)
            for label, mutated in mutants(source, module):
                path.write_text(mutated)
                outcome, _, catchers = run_checks(tree, timeout)
                tally[outcome] += 1
                if outcome == "pass":
                    survivors.append((path, mutated, label))
                else:
                    caught.append((label, catchers))
                    by = f" | {'; '.join(catchers)}" if catchers else ""
                    print(f"{OUTCOME[outcome]:<9} {label}{by}")
            path.write_text(source)
            print(f"{module}: {sum(tally.values())} mutants, {tally['fail']} killed, "
                  f"{tally['hung']} hung, {tally['pass']} survived")
        for path, mutated, label in survivors:
            reason = reasons.get(label)
            unlisted += reason is None
            print(f"survived  {label} | {reason or 'UNLISTED'}")
            if args.tier1:
                source = path.read_text()
                path.write_text(mutated)
                print(f"          Tier-1: {OUTCOME[run(tier1, tree, 60 * timeout)[0]]}")
                path.write_text(source)
        printed = {label for _, _, label in survivors}
        stale = [label for label in reasons if label not in printed
                 and label.split(":", 1)[0] in args.modules]
        for label in stale:
            print(f"STALE     {label} | {reasons[label]}")
    table = kill_table(caught, identities)
    for identity, counts in table.items():
        print(f"{identity} | {counts}")
    differs = []
    if set(args.modules) == set(MODULES):
        committed = committed_kills()
        differs = [identity for identity in {*table, *committed}
                   if table.get(identity) != committed.get(identity)]
        for identity in sorted(differs):
            print(f"DIFFERS   {identity} | {committed.get(identity, 'no line')}")
    else:
        print("kill table not compared: identity_kills.txt counts all nine modules")
    return 1 if unlisted or stale or differs else 0

if __name__ == "__main__":
    sys.exit(main())
