"""VerificationError, the exception shared across the package, and expect
and expect_rows, the checks behind every certified identity.

Every identity the package certifies goes through expect(identity, index,
got, want), or expect_rows for a row of values, so every failure is a
VerificationError whose witness carries the identity's name, the index it
failed at (a string; expect_rows builds it only on failure) and both
values, and whose message has one format: "identity at index: got != want".
"""


class VerificationError(Exception):
    """An exact identity that should hold failed; the witness fields name
    the identity, the index and both values."""

    def __init__(self, identity: str, index: str, got, want):
        super().__init__(identity, index, got, want)
        self.identity = identity
        self.index = index
        self.got = got
        self.want = want

    def __str__(self) -> str:
        return f"{self.identity} at {self.index}: {self.got!r} != {self.want!r}"


def expect(identity: str, index: str, got, want) -> None:
    """Raise VerificationError(identity, index, got, want) unless got == want."""
    if got != want:
        raise VerificationError(identity, index, got, want)


def expect_rows(identity: str, index, got, want) -> None:
    """expect at every position p of two lists or two tuples by one whole-row
    comparison; only if they differ, raise at the first p where they do, with
    index(p) as the index, or at "length" if one is a prefix of the other."""
    if got == want:
        return
    for p, (a, b) in enumerate(zip(got, want)):
        if a != b:
            raise VerificationError(identity, index(p), a, b)
    if len(got) != len(want):
        raise VerificationError(identity, "length", len(got), len(want))
