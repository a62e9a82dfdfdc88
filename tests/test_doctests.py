"""The docstring examples of the ring modules, run as doctests.

laurent, series and cyclotomic document their operations by example; a
changed result or a renamed method fails here.
"""

import doctest

import pytest

from hilbtorus import cyclotomic, laurent, series


@pytest.mark.parametrize("module", [laurent, series, cyclotomic],
                         ids=lambda m: m.__name__.rsplit(".", 1)[1])
def test_module_doctests_pass(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
