"""The README's Library example, run as a doctest.

The block documents the package's top-level names, so a re-export that
goes missing or a value that changes fails here rather than in a reader's
session.
"""

import doctest
import re
from pathlib import Path

import hilbtorus

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "README's Library section has no python block"
    return match.group(1)


def test_readme_library_block_runs():
    parser = doctest.DocTestParser()
    test = parser.get_doctest(_library_block(), {}, "README Library", str(README), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    result = runner.summarize(verbose=False)
    assert result.attempted >= 5
    assert result.failed == 0


def test_top_level_is_what_readme_documents():
    documented = set(re.findall(r">>> from hilbtorus import (.*)", _library_block())[0]
                     .replace(" ", "").split(","))
    assert set(hilbtorus.__all__) == documented
    assert hilbtorus.__version__
