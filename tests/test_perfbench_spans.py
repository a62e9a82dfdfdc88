"""The names that the traced benchmark wraps still exist.

perfbench/spans.py rebinds package functions by name when a run is traced
(--trace 1). A refactor that renames or removes one of them breaks only
that run, so these tests load spans.py, without installing its wrappers,
and check every name it lists.
"""

import importlib.util
from pathlib import Path

import pytest

from hilbtorus import qseries

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


WRAPPED = spans.TIMED + spans.COUNTED


@pytest.mark.parametrize("name, owner, attrs", WRAPPED, ids=[n for n, _, _ in WRAPPED])
def test_wrapped_attributes_exist(name, owner, attrs):
    for attr in attrs:
        # Tracer._rebind reads a class attribute from the class's own dict
        present = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
        assert present, (name, attr)
        assert callable(getattr(owner, attr)), (name, attr)


@pytest.mark.parametrize("attr", spans.QSERIES)
def test_qseries_names_exist(attr):
    assert callable(getattr(qseries, attr, None)), attr


@pytest.mark.parametrize("name, fn", spans.CACHED, ids=[n for n, _ in spans.CACHED])
def test_cached_entries_report_cache_info(name, fn):
    assert set(fn.cache_info()._asdict()) >= {"hits", "misses", "currsize"}, name
