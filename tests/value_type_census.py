"""Which members of the value types the commands call, and why the rest stay.

LaurentPoly, TruncatedSeries and CycInt hold the paper's values: C_n and
P_n, their series, and their values at the roots of unity.  The census
wraps every function in each class's own __dict__ (dunders included, which
tests/test_reachability.py's static check exempts), runs COMMANDS through
cli.main in-process with stdout captured, and restores the class dicts.
Every member that no command called must have an entry in KEPT that says
why it stays; a member with neither a caller nor a reason is dead code.
The members kept only because perfbench/spans.py wraps them (SPANS), and
what only they call, can go once the benchmark stops wrapping them.

Run as a script, it prints each member with the first command that reached
it, or with its reason to stay, and exits 1 if a member has neither:

    PYTHONPATH=src python tests/value_type_census.py
"""

import contextlib
import functools
import importlib.util
import inspect
import io
import sys
from pathlib import Path

from hilbtorus import cli
from hilbtorus.cyclotomic import CycInt
from hilbtorus.laurent import LaurentPoly
from hilbtorus.series import TruncatedSeries

CLASSES = (LaurentPoly, TruncatedSeries, CycInt)

_KINDS = ("cn", "pn", "zeta", "hasse-weil", "ad", "sections")
COMMANDS = (
    ("verify", "--max-n", "20", "--order", "40"),
    *(("compute", kind, "1..12", *form)
      for kind in _KINDS for form in ((), ("--format", "json"))),
    ("compute", "ad", "9", "--d", "3"),
    *(("table", str(k)) for k in range(1, 5)),
)

SPANS = "perfbench/spans.py wraps it"
_WITNESS = "a failing witness shows its repr"
_INVERSE = "inverse calls it, for __pow__ at a negative exponent"

# member -> why it stays although no command calls it
KEPT = {
    "LaurentPoly.__bool__": "the zero polynomial equals 0, so it tests false",
    "LaurentPoly.__repr__": _WITNESS,
    "LaurentPoly.__mul__": SPANS,
    "LaurentPoly.__rmul__": SPANS,
    "LaurentPoly.evaluate": SPANS,
    "LaurentPoly.__str__": "str() shows the pretty() form the commands print",
    "TruncatedSeries.__eq__": "a series compares by value; the qseries and "
                              "series tests compare whole series with it",
    "CycInt.__repr__": _WITNESS,
    "CycInt._check": "_wrap calls it when __mul__ or __add__ meets two CycInts",
    "CycInt.conjugate": _INVERSE,
    "CycInt.is_unit": _INVERSE,
    "CycInt.inverse": "__pow__ calls it at a negative exponent",
    "CycInt.__add__": "LaurentPoly.evaluate sums its terms with it at a root",
    "CycInt.__mul__": SPANS,
    "CycInt.__pow__": SPANS,
}


def _functions(cls):
    """(name, value) of each function and property in cls's own dict."""
    for name, value in vars(cls).items():
        if inspect.isfunction(value) or isinstance(value, property):
            yield name, value


def _recording(member, fn, called):
    @functools.wraps(fn)
    def call(*args, **kwargs):
        called.add(member)
        return fn(*args, **kwargs)
    return call


def census() -> dict[str, str | None]:
    """member -> the first command that called it, or None."""
    called, reached, saved = set(), {}, []
    for cls in CLASSES:
        for name, value in list(_functions(cls)):
            member = f"{cls.__name__}.{name}"
            saved.append((cls, name, value, member))
            setattr(cls, name,
                    property(_recording(member, value.fget, called))
                    if isinstance(value, property)
                    else _recording(member, value, called))
    try:
        for argv in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(list(argv))
            assert code == 0, (argv, code)
            for member in called:
                reached.setdefault(member, " ".join(argv))
            called.clear()
    finally:
        for cls, name, value, _ in saved:
            setattr(cls, name, value)
    return {member: reached.get(member) for *_, member in saved}


def spans_wrapped() -> set[str]:
    """The members of CLASSES that perfbench/spans.py wraps, read from its
    TIMED and COUNTED lists without installing its wrappers."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {f"{owner.__name__}.{attr}"
            for _, owner, attrs in spans.TIMED + spans.COUNTED
            if owner in CLASSES for attr in attrs}


def main() -> int:
    found = census()
    wrapped = spans_wrapped()
    width = max(map(len, found))
    for member, command in found.items():
        reason = KEPT.get(member, "NO REASON")
        if reason == SPANS and member not in wrapped:
            reason = "NOT WRAPPED by perfbench/spans.py"
        print(f"{member:<{width}}  {f'ran in `{command}`' if command else reason}")
    idle = {member for member, command in found.items() if command is None}
    unwrapped = {m for m, r in KEPT.items() if r == SPANS} - wrapped
    return 0 if idle == set(KEPT) and not unwrapped else 1


if __name__ == "__main__":
    sys.exit(main())
