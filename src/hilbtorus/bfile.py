"""OEIS b-file parsing and sequence comparison.

A b-file is plain text with one "index value" pair per line, '#' comment
lines, and blank lines.  Files are user-supplied paths (nothing is
fetched).  Each supported sequence id is pinned here to a generator
together with its starting index; the theta-style expansions carry a
constant term 1 at index 0, the divisor-flavoured sequences start at 1.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import arith, rootvalues
from .errors import BFileError


class Sequence(NamedTuple):
    min_index: int
    value: Callable[[int], int]


def _theta_row(d: int) -> Callable[[int], int]:
    def value(idx: int) -> int:
        return 1 if idx == 0 else rootvalues.root_sequence(idx, d)
    return value


SEQUENCES: dict[str, Sequence] = {
    "a067742": Sequence(1, arith.middle_divisors),  # middle divisors of n
    "a004018": Sequence(0, arith.r2),  # n = x^2 + y^2
    "a033715": Sequence(0, arith.r_prime),  # n = x^2 + 2y^2
    "a004016": Sequence(0, arith.r_hex),  # n = x^2 + xy + y^2
    "a113063": Sequence(1, arith.lambda_fn),  # hexagonal-lattice excess
    "a005928": Sequence(0, _theta_row(3)),  # signed, at third roots of unity
    "a082564": Sequence(0, _theta_row(4)),  # signed, at fourth roots of unity
    "a258210": Sequence(0, _theta_row(6)),  # signed, at sixth roots of unity
    # 3-section of the reduced polynomial coefficients
    "a145394": Sequence(1, lambda n: rootvalues.section_formula(n, 3)),
}


def parse_bfile(path: str) -> tuple[tuple[int, int], ...]:
    """Read a b-file into its (index, value) pairs, indices increasing;
    raise BFileError (with line number) on bad input, including a line
    that is not UTF-8 text."""
    entries: list[tuple[int, int]] = []
    with open(path, "rb") as handle:
        data = handle.read()
    # bytes.splitlines breaks at \n, \r\n and \r, as text-mode reading does
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise BFileError(
                f"{path}:{lineno}: not UTF-8 text ({exc.reason} at byte "
                f"{exc.start} of the line)") from None
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise BFileError(
                f"{path}:{lineno}: expected 'index value', got {line!r}")
        try:
            index, value = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise BFileError(
                f"{path}:{lineno}: non-integer token in {line!r}") from None
        if entries and index <= entries[-1][0]:
            raise BFileError(
                f"{path}:{lineno}: index {index} does not increase "
                f"past {entries[-1][0]}")
        entries.append((index, value))
    return tuple(entries)


class ComparisonReport(NamedTuple):
    sequence_id: str
    checked: int
    skipped: int
    mismatches: tuple[tuple[int, int, int], ...]  # (index, file value, computed)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        head = (f"{self.sequence_id}: {self.checked} entries checked, "
                f"{self.skipped} skipped")
        if self.ok:
            return head + ", all agree"
        lines = [head + f", {len(self.mismatches)} MISMATCH(ES)"]
        for index, got, want in self.mismatches[:10]:
            lines.append(f"  index {index}: file has {got}, computed {want}")
        if len(self.mismatches) > 10:
            lines.append(f"  ... and {len(self.mismatches) - 10} more")
        return "\n".join(lines)


def compare_bfile(sequence_id: str, path: str,
                  max_terms: int | None = None) -> ComparisonReport:
    """Check every in-range entry of the file against the pinned generator."""
    key = sequence_id.lower()
    if key not in SEQUENCES:
        raise BFileError(
            f"unknown sequence id {sequence_id!r}; "
            f"known: {', '.join(sorted(SEQUENCES))}")
    seq = SEQUENCES[key]
    checked = skipped = 0
    mismatches: list[tuple[int, int, int]] = []
    for index, value in parse_bfile(path):
        if index < seq.min_index or (max_terms is not None and checked >= max_terms):
            skipped += 1
            continue
        computed = seq.value(index)
        checked += 1
        if computed != value:
            mismatches.append((index, value, computed))
    return ComparisonReport(key, checked, skipped, tuple(mismatches))
