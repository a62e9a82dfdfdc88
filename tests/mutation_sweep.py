"""Mutation sweep: which code in src/hilbtorus can change and no check notice?

Each mutant makes one change in one module: it flips one operator (+ and -,
* and //, / to *, < and <=, > and >=, == and !=) or adds 1 to one int
constant.  The sweep copies the tree to a temporary directory once, writes
each mutant into the copy (never into this checkout) and runs

    python -m hilbtorus verify --max-n 120 --order 200

on it in a fresh process, one process at a time, with a per-mutant
timeout of ten times the unmutated run (at least 5 s).  The sizes are
fixed: the survivor list holds at them and at no others.  A mutant that
makes verify exit nonzero is killed; one that runs past the timeout is
hung; one that passes survives.  With --tier1 each survivor is run again
against Tier-1 (pytest in the copy).

Every survivor should have a line in mutation_survivors.txt, beside this
script, that says why it lives, with one of these reasons:
  equivalent: no input can tell the mutant apart;
  equivalent on command inputs: only inputs that no command passes can;
  only tests reach it: no command runs the mutated code;
  printed text: only the text a command prints changes, and verify
    certifies values, not their layout (Tier-1 checks it);
  gap: a check is missing, and a ROADMAP item closes it.
The script prints each survivor with its listed reason, or UNLISTED, and
exits 1 if the unmutated tree fails verify or any survivor is unlisted.
It is not a Tier-1 test.

    PYTHONPATH=src python tests/mutation_sweep.py laurent.py series.py cyclotomic.py
    PYTHONPATH=src python tests/mutation_sweep.py --tier1 cyclotomic.py
"""

import argparse
import ast
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
SYMBOL = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//",
          ast.Div: "/", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
          ast.Eq: "==", ast.NotEq: "!="}
FLIP = {"+": "-", "-": "+", "*": "//", "//": "*", "/": "*", "<": "<=",
        "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "=="}
OUTCOME = {"fail": "killed", "hung": "hung", "pass": "survived"}
MEMORY_LIMIT = 1 << 30  # bytes of address space per run


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
    """'pass', 'fail' or 'hung' for cmd run in tree with tree/src on the path."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(cmd, cwd=tree, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return "hung"
    return "pass" if done.returncode == 0 else "fail"


def listed_reasons():
    """label -> reason from mutation_survivors.txt ("label | reason" lines)."""
    if not SURVIVORS.exists():
        return {}
    lines = SURVIVORS.read_text().splitlines()
    return dict(line.rsplit(" | ", 1) for line in lines
                if line.strip() and not line.startswith("#"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", help="file names under src/hilbtorus")
    parser.add_argument("--tier1", action="store_true",
                        help="re-run each survivor against Tier-1")
    args = parser.parse_args(argv)
    verify = [sys.executable, "-m", "hilbtorus", "verify", "--max-n", "120", "--order", "200"]
    tier1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    reasons = listed_reasons()
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        start = time.perf_counter()
        if run(verify, tree, None) != "pass":
            print("the unmutated tree fails verify")
            return 1
        timeout = max(5.0, 10 * (time.perf_counter() - start))
        survivors, unlisted = [], 0
        for module in args.modules:
            path = tree / "src" / "hilbtorus" / module
            source = path.read_text()
            tally = dict.fromkeys(OUTCOME, 0)
            for label, mutated in mutants(source, module):
                path.write_text(mutated)
                outcome = run(verify, tree, timeout)
                tally[outcome] += 1
                if outcome == "pass":
                    survivors.append((path, mutated, label))
                else:
                    print(f"{OUTCOME[outcome]:<9} {label}")
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
                print(f"          Tier-1: {OUTCOME[run(tier1, tree, 60 * timeout)]}")
                path.write_text(source)
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
