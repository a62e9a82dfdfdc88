"""The README's examples, run.

The Library block runs as a doctest: it documents the package's top-level
names, so a re-export that goes missing or a value that changes fails here
rather than in a reader's session.  Every `$ hilbtorus ...` shell example
runs through cli.main and must print the block under it, with verify's
seconds column masked.
"""

import doctest
import re
import shlex
from pathlib import Path

import pytest

import hilbtorus
from hilbtorus.cli import main

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


# the seconds column of a verify line
_SECONDS = re.compile(r"^((?:ok  |FAIL) \S+)\s+\d+\.\d+s  ", re.M)


def _shell_examples():
    """(argv, printed text) of each `$ hilbtorus` example in a plain code
    block: the command line, then its output up to a blank line or the
    block's end."""
    examples = []
    fences = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(),
                        re.S | re.M)
    for block in (body for language, body in fences if not language):
        for chunk in block.split("\n\n"):
            command, _, output = chunk.partition("\n")
            if command.startswith("$ hilbtorus "):
                examples.append((shlex.split(command)[2:],
                                 output.rstrip("\n") + "\n"))
    return examples


def _mask(text):
    return _SECONDS.sub(r"\1 #s  ", text)


@pytest.mark.parametrize("argv, printed", [
    pytest.param(argv, printed, id=" ".join(argv))
    for argv, printed in _shell_examples()])
def test_readme_shell_example_matches_cli(capsys, argv, printed):
    assert main(argv) == 0
    assert _mask(capsys.readouterr().out) == _mask(printed)


def test_readme_has_shell_examples():
    kinds = [argv[0] for argv, _ in _shell_examples()]
    assert {"compute", "table", "verify"} <= set(kinds)
