"""Tests for b-file parsing and sequence comparison.

Fixtures are synthesized on the fly from the pinned generators, then
selectively corrupted, so the parser and the comparator each get exercised
against both agreeing and disagreeing data.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hilbtorus
from hilbtorus.bfile import SEQUENCES, compare_bfile, parse_bfile
from hilbtorus.errors import BFileError


def write_fixture(path, sequence_id, count=30):
    seq = SEQUENCES[sequence_id]
    lines = [f"# {sequence_id} fixture", ""]
    for idx in range(seq.min_index, seq.min_index + count):
        lines.append(f"{idx} {seq.value(idx)}")
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("sequence_id", sorted(SEQUENCES))
def test_generated_fixtures_agree(tmp_path, sequence_id):
    path = tmp_path / f"b{sequence_id[1:]}.txt"
    write_fixture(path, sequence_id)
    report = compare_bfile(sequence_id, str(path))
    assert report.ok
    assert report.checked == 30
    assert report.skipped == 0
    assert "all agree" in report.summary()


def test_parse_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "b000001.txt"
    path.write_text("# header\n\n1 5\n\n# middle\n2 7\n")
    assert parse_bfile(str(path)) == ((1, 5), (2, 7))


def test_parse_rejects_malformed_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2\n3 4 5\n")
    with pytest.raises(BFileError, match=r"bad\.txt:2"):
        parse_bfile(str(path))


def test_parse_rejects_non_integer(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 x\n")
    with pytest.raises(BFileError, match="non-integer"):
        parse_bfile(str(path))


def test_parse_rejects_non_increasing_indices(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 4\n1 4\n")
    with pytest.raises(BFileError, match="does not increase"):
        parse_bfile(str(path))
    path.write_text("2 4\n1 4\n")
    with pytest.raises(BFileError, match="does not increase"):
        parse_bfile(str(path))


def test_parse_rejects_non_utf8_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"1 4\r\n# fine\n2 \xff\n3 9\n")
    with pytest.raises(BFileError, match=r"bad\.txt:3: not UTF-8 text"):
        parse_bfile(str(path))
    path.write_bytes(b"1 4\r2 5\r\n3 6")  # every text-mode line ending
    assert parse_bfile(str(path)) == ((1, 4), (2, 5), (3, 6))


def test_cli_utf16_bfile_exits_2_without_traceback(tmp_path):
    # a UTF-16 file (BOM \xff\xfe) used to escape as a UnicodeDecodeError
    path = tmp_path / "b004018.txt"
    path.write_bytes("0 1\n1 4\n".encode("utf-16"))
    src = Path(hilbtorus.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "hilbtorus", "oeis-compare", "a004018",
         str(path)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"{path}:1: not UTF-8 text (invalid start byte at byte 0 of the line)\n"


def test_compare_reports_mismatch(tmp_path):
    path = tmp_path / "b067742.txt"
    write_fixture(path, "a067742", count=6)
    text = path.read_text().replace("2 1", "2 999")
    path.write_text(text)
    report = compare_bfile("a067742", str(path))
    assert not report.ok
    assert report.mismatches == ((2, 999, 1),)
    assert "index 2: file has 999, computed 1" in report.summary()
    assert "MISMATCH" in report.summary()


def test_compare_unknown_sequence(tmp_path):
    path = tmp_path / "b000001.txt"
    path.write_text("1 1\n")
    with pytest.raises(BFileError, match="unknown sequence id"):
        compare_bfile("a000001", str(path))


def test_compare_skips_below_min_index(tmp_path):
    # a067742 starts at 1; a leading index-0 row must be skipped, not checked
    path = tmp_path / "b067742.txt"
    seq = SEQUENCES["a067742"]
    rows = ["0 123"] + [f"{i} {seq.value(i)}" for i in range(1, 6)]
    path.write_text("\n".join(rows) + "\n")
    report = compare_bfile("a067742", str(path))
    assert report.ok
    assert report.skipped == 1
    assert report.checked == 5


def test_compare_max_terms(tmp_path):
    path = tmp_path / "b004018.txt"
    write_fixture(path, "a004018", count=20)
    report = compare_bfile("a004018", str(path), max_terms=7)
    assert report.ok
    assert report.checked == 7
    assert report.skipped == 13


def test_compare_case_insensitive_id(tmp_path):
    path = tmp_path / "b004016.txt"
    write_fixture(path, "a004016", count=10)
    report = compare_bfile("A004016", str(path))
    assert report.ok
    assert report.sequence_id == "a004016"
