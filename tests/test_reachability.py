"""Every function, class and method under src/ is named outside tests/.

A member that only tests call is code that the CLI, the verify suites and
README's Library never run.  So the name of each def and class in
src/hilbtorus must appear, as a whole word, somewhere other than on its
own def line: in src/, in README.md, or in perfbench/spans.py, which wraps
package members by name.  Dunder methods are exempt, since Python calls
them by protocol.  The search is textual, so a docstring mention counts as
a use; it catches members that nothing names at all.

The census covers what the static check cannot: every member of the value
types LaurentPoly, TruncatedSeries and CycInt, dunders included, is either
called by a command or listed in tests/value_type_census.py with its
reason to stay.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import value_type_census

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "hilbtorus").glob("*.py"))
ALSO_READ = (ROOT / "README.md", ROOT / "perfbench" / "spans.py")


def _words(text: str) -> Counter:
    return Counter(re.findall(r"\w+", text))


def _definitions(path: Path):
    """(qualified name, name, def line) of each def and class in path."""
    lines = path.read_text().splitlines()
    stack = [(ast.parse(path.read_text()), path.stem)]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qualname = f"{prefix}.{child.name}"
                yield qualname, child.name, lines[child.lineno - 1]
                stack.append((child, qualname))
            else:
                stack.append((child, prefix))


def test_every_member_is_named_outside_tests():
    corpus = _words("\n".join(p.read_text() for p in (*SOURCES, *ALSO_READ)))
    found, unnamed = [], []
    for path in SOURCES:
        for qualname, name, def_line in _definitions(path):
            found.append(qualname)
            if name.startswith("__") and name.endswith("__"):
                continue
            if corpus[name] <= _words(def_line)[name]:
                unnamed.append(qualname)
    assert "rootvalues.count_at_root" in found
    assert "laurent.LaurentPoly.pretty" in found
    assert not unnamed, unnamed


def test_value_type_members_run_or_have_a_reason():
    found = value_type_census.census()
    idle = {member for member, command in found.items() if command is None}
    assert "CycInt.norm" in found and "CycInt.norm" not in idle
    assert idle == set(value_type_census.KEPT)
    spans = {member for member, reason in value_type_census.KEPT.items()
             if reason == value_type_census.SPANS}
    assert spans <= value_type_census.spans_wrapped()
