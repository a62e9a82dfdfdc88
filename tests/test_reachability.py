"""Every function under src/ runs, or has a reason to stay.

census() runs RUNS, the commands, README's examples and the fault rows of
tests/test_mutations.py, under sys.setprofile from cold caches.  A function
that no run calls, or that only code under tests/ calls back, needs a KEPT
entry: SPANS if perfbench/spans.py wraps it, "<member> calls it" with the
member in KEPT too, or a dunder's protocol.  A name in a docstring, README
or spans.py keeps nothing alive.  As a script it prints each function with
the first run that reached it, or its reason, and exits 1 if one has none:

    PYTHONPATH=src python tests/test_reachability.py
"""

import contextlib
import inspect
import io
import sys
from pathlib import Path

import pytest

import hilbtorus
import test_mutations
import test_readme
from hilbtorus import cli, qseries
from test_perfbench_spans import spans

SOURCES = sorted(Path(hilbtorus.__file__).parent.glob("*.py"))


def _key(code):
    return code.co_filename, code.co_firstlineno, code.co_name


def functions(sources=SOURCES) -> dict[tuple, str]:
    """{(file, first line, name): qualified name} of each def and lambda in
    source order, not of class bodies or comprehensions (3.12 inlines them)."""
    found, todo = {}, [(compile(p.read_text(), str(p), "exec"), p.stem)
                       for p in sources]
    while todo:
        code, prefix = todo.pop()
        for inner in filter(inspect.iscode, code.co_consts):
            name = f"{prefix}.{inner.co_name}"
            if not inner.co_flags & inspect.CO_NEWLOCALS:  # a class body
                todo.append((inner, name))
            elif inner.co_name.startswith("<") and inner.co_name != "<lambda>":
                todo.append((inner, prefix))  # a comprehension
            else:
                assert _key(inner) not in found, _key(inner)
                found[_key(inner)] = name
                todo.append((inner, f"{name}.<locals>"))
    return dict(sorted(found.items()))


def _command(*argv, code=0, fault=None):
    """cli.main(argv) returns code, with test_mutations.ROW[fault]'s fault in."""
    def run(mp):
        if fault:
            test_mutations.ROW[fault].fault(mp)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()):
            try:
                got = cli.main(list(argv))
            except SystemExit as exc:  # argparse's usage errors and --help
                got = exc.code
        assert got == code, (argv, got)
    return " ".join(argv), run


RUNS = (
    *(_command("compute", kind, n, *form) for kind in cli.COMPUTE_KINDS
      for n in ("7", "1..12") for form in ((), ("--format", "json"))),
    _command("compute", "ad", "9", "--d", "3"),
    *(_command("table", str(k)) for k in range(1, 5)),
    _command("verify", "--max-n", "20", "--order", "40"),
    _command("verify", "--suite", "arith", "--max-n", "400"),
    *(_command(*argv, code=2) for argv in (
        (), ("compute", "cn", "0"), ("compute", "cn", "5", "--d", "3"),
        ("table", "1", "--max-n", "0"), ("verify", "--suite", ","),
        ("verify", "--suite", "nosuch"), ("compute", "pn", str(cli.PN_MAX_N + 1)))),
    _command("--help"),
    ("README Library", lambda mp: test_readme.test_readme_library_block_runs()),
    *(_command(*argv) for argv, _ in test_readme._shell_examples()),
    *((f"fault row {i!r}", lambda mp, i=i: test_mutations.check_row(mp, i))
      for i in test_mutations.ROW),
    _command("verify", "--suite", "arith", "--max-n", "10", code=1,  # a witness line
             fault="lambda(n) vs E_1(n) - 3 E_1(n/3)"),
)

SPANS = "perfbench/spans.py wraps it"
# qualified name -> why it stays although no run calls it
KEPT = {
    "laurent.LaurentPoly.__bool__": "the zero polynomial equals 0, so it tests false",
    "laurent.LaurentPoly.__repr__": "a failing witness shows its repr",
    "laurent.LaurentPoly.__mul__": SPANS,
    "laurent.LaurentPoly.evaluate": SPANS,
    "laurent.LaurentPoly.__str__": "str() shows the pretty() form the commands print",
    "series.TruncatedSeries.__eq__": "a series compares by value",
    "cyclotomic.CycInt.__repr__": "a failing witness shows its repr",
    "cyclotomic.CycInt._check": "cyclotomic.CycInt.__pow__ calls it, by _wrap",
    "cyclotomic.CycInt.conjugate": "cyclotomic.CycInt.inverse calls it",
    "cyclotomic.CycInt.is_unit": "cyclotomic.CycInt.inverse calls it",
    "cyclotomic.CycInt.inverse": "cyclotomic.CycInt.__pow__ calls it below 0",
    "cyclotomic.CycInt.__add__": "laurent.LaurentPoly.evaluate calls it at a root",
    "cyclotomic.CycInt.__pow__": SPANS,
    "rootvalues.count_at_root": SPANS,
    "rootvalues.section_formula": SPANS,
}


def census(runs=RUNS, sources=SOURCES) -> list[tuple[str, str | None]]:
    """[(qualified name, the first run that called it, or None)]."""
    reached, label, depth, muted = {}, None, 0, 0
    package, tests = {str(path) for path in sources}, str(Path(__file__).parent)

    def profile(frame, event, arg):
        nonlocal depth, muted
        if event == "call" or event == "return":
            step = 1 if event == "call" else -1
            file = frame.f_code.co_filename
            if file in package:
                depth += step
                if step == 1 and not muted:
                    reached.setdefault(_key(frame.f_code), label)
            elif depth and file.startswith(tests):  # called back by the package
                muted += step

    for module in [m for n, m in sys.modules.items() if n.startswith("hilbtorus.")]:
        for value in vars(module).values():  # a cached call runs no body
            getattr(value, "cache_clear", lambda: None)()
    sys.setprofile(profile)
    try:
        for label, run in runs:  # each with its own monkeypatch
            with pytest.MonkeyPatch.context() as mp:
                run(mp)
    finally:
        sys.setprofile(None)
    return [(name, reached.get(key)) for key, name in functions(sources).items()]


def reason_holds(name, wrapped) -> bool:
    """Whether KEPT[name] is a reason of one of the three kinds that holds."""
    reason = KEPT.get(name, "")
    caller, calls, _ = reason.partition(" calls it")
    if reason == SPANS:
        return name in wrapped
    if calls:
        return reason_holds(caller, wrapped)
    method = name.rpartition(".")[2]
    return bool(reason) and method[:2] == method[-2:] == "__"


def unkept(found) -> list[str]:
    """The idle functions with no reason that holds, and KEPT's extra entries."""
    owned = [getattr(owner, attr) for _, owner, attrs in spans.TIMED + spans.COUNTED
             for attr in attrs] + [getattr(qseries, attr) for attr in spans.QSERIES]
    wrapped = {f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}"
               for fn in map(inspect.unwrap, owned)}
    idle = {name for name, run in found if run is None}
    return sorted(idle ^ set(KEPT) | {n for n in idle if not reason_holds(n, wrapped)})


@pytest.fixture(scope="module")
def found():
    return census()


def test_every_function_runs_or_has_a_reason(found):
    assert unkept(found) == []
    assert sys.getprofile() is None


def test_census_lists_nested_functions_and_lambdas(found):
    assert {"verify.verify_roots.<locals>.at", "verify.verify_coeffs.<locals>.<lambda>",
            "cyclotomic.CycInt.is_unit"} <= {name for name, _ in found}


def test_a_def_that_only_a_docstring_names_fails(tmp_path, found):
    path = tmp_path / "planted.py"
    path.write_text('"""called() runs; planted() is only named here."""\n'
                    "def called():\n    pass\ndef planted():\n    pass\n")
    planted = {}
    exec(compile(path.read_text(), str(path), "exec"), planted)
    ran = census([("planted.called()", lambda mp: planted["called"]())], [path])
    assert unkept(found + ran) == ["planted.planted"]


def test_profile_is_off_after_a_run_raises():
    with pytest.raises(ZeroDivisionError):
        census([("1 // 0", lambda mp: 1 // 0)])
    assert sys.getprofile() is None


def main() -> int:
    found = census()
    for name, run in found:
        print(f"{name:<52}  {f'ran in `{run}`' if run else KEPT.get(name)}")
    failing = unkept(found)
    for name in failing:
        print(f"FAILS: {name}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
