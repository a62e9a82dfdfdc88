"""Span recording for the traced run, installed from outside the package.

Tracer.install rebinds the public entry points of each hilbtorus module
(module attributes, class methods and the verify.SUITES entries) to wrappers
that record, per span name, the number of calls, the inclusive time and the
self time (inclusive time minus the time of spans opened inside it).
Calls inside a module go through the module dict, so they are caught too:
reduced_poly -> divisor_coeff_vector is a child span of reduced_poly.

Per-coefficient scalars (offcentral_coeff, trapezoidal_k, factorize) are
not wrapped: they run millions of times and the wrapper would dominate.
Their time counts as self time of the span that called them. A few hot
ring operations get a counting-only wrapper (no clock reads).

The qseries spans and the verify suites also record the minor page faults
(ru_minflt) taken while they were open, because qseries' cost depends on
how glibc maps and trims its large packed integers.
"""

import resource
import time

from hilbtorus import (arith, cli, coeffs, qseries, rootvalues, tables,
                       verify, zeta)
from hilbtorus.cyclotomic import CycInt
from hilbtorus.laurent import LaurentPoly
from hilbtorus.series import TruncatedSeries

# (span name, owner, attribute names); a class attribute keeps its kind
TIMED = (
    ("arith.divisors", arith, ("divisors",)),
    ("arith.r2", arith, ("r2",)),
    ("arith.r_hex", arith, ("r_hex",)),
    ("arith.lambda_fn", arith, ("lambda_fn",)),
    ("coeffs.count_poly", coeffs, ("count_poly",)),
    ("coeffs.reduced_poly", coeffs, ("reduced_poly",)),
    ("coeffs.divisor_coeff_vector", coeffs, ("divisor_coeff_vector",)),
    ("coeffs.CoeffTables.build", coeffs.CoeffTables, ("build",)),
    ("zeta.build_local_zeta", zeta, ("build_local_zeta",)),
    ("rootvalues.count_at_root", rootvalues, ("count_at_root",)),
    ("rootvalues.root_sequence", rootvalues, ("root_sequence",)),
    ("rootvalues.section_direct", rootvalues, ("section_direct",)),
    ("rootvalues.section_formula", rootvalues, ("section_formula",)),
    ("tables.table_data", tables, ("table_data",)),
    ("laurent.LaurentPoly.pretty", LaurentPoly, ("pretty",)),
    ("laurent.LaurentPoly.mul", LaurentPoly, ("__mul__", "__rmul__")),
    ("series.TruncatedSeries.mul", TruncatedSeries, ("__mul__", "__rmul__")),
)
# timed, and their page faults summed into "qseries.minflt"
QSERIES = ("eta_quotient_series", "gauss_series", "expand_master_product",
           "expand_root_product")
COUNTED = (
    ("cyclotomic.CycInt.mul", CycInt, ("__mul__", "__rmul__")),
    ("cyclotomic.CycInt.pow", CycInt, ("__pow__",)),
    ("laurent.LaurentPoly.evaluate", LaurentPoly, ("evaluate",)),
)
# lru_cache'd functions whose cache_info() is reported at the end
CACHED = (("arith.factorize", arith.factorize),
          ("qseries.expand_root_product", qseries.expand_root_product))


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Tracer:
    def __init__(self):
        self.stats = {}  # span name -> [calls, self seconds, total seconds]
        self.faults = {}  # fault group name -> [open depth, page faults]
        self.output_bytes = 0
        self._open = []  # time covered by child spans, one per open span

    def timed(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open
        clock = time.perf_counter

        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed - open_spans.pop()
                stat[2] += elapsed
                if open_spans:
                    open_spans[-1] += elapsed
        return span

    def counted(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])

        def count(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)
        return count

    def faulting(self, group, fn):
        """fn, adding the page faults of its outermost calls to group."""
        state = self.faults.setdefault(group, [0, 0])

        def fault_span(*args, **kwargs):
            outer = state[0] == 0
            if outer:
                before = _minflt()
            state[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                state[0] -= 1
                if outer:
                    state[1] += _minflt() - before
        return fault_span

    def _rebind(self, owner, attrs, make):
        for attr in attrs:
            raw = vars(owner)[attr] if isinstance(owner, type) else None
            wrapped = make(getattr(owner, attr))
            # a classmethod fetched from its class is already bound
            setattr(owner, attr,
                    staticmethod(wrapped) if isinstance(raw, classmethod)
                    else wrapped)

    def install(self):
        """Wrap every entry point; return the wrapped cli.main."""
        for name, owner, attrs in TIMED:
            self._rebind(owner, attrs, lambda fn, n=name: self.timed(n, fn))
        for name, owner, attrs in COUNTED:
            self._rebind(owner, attrs, lambda fn, n=name: self.counted(n, fn))
        for attr in QSERIES:
            span = self.timed(f"qseries.{attr}", getattr(qseries, attr))
            setattr(qseries, attr, self.faulting("qseries", span))
        for suite, fn in list(verify.SUITES.items()):
            span = self.timed(f"verify.{suite}", fn)
            verify.SUITES[suite] = self.faulting(f"verify.{suite}", span)
        return self.timed("cli.main", cli.main)

    def report(self) -> dict:
        return {
            "spans": {name: dict(zip(("calls", "self_s", "total_s"), stat))
                      for name, stat in self.stats.items()},
            "minflt": {group: faults
                       for group, (_, faults) in self.faults.items()},
            "caches": {name: fn.cache_info()._asdict() for name, fn in CACHED},
            "output_bytes": self.output_bytes,
        }
