"""Exception types shared across the package, and expect, the one check
behind every certified identity.

Every identity the package certifies goes through expect(identity, index,
got, want), so every failure is a VerificationError whose witness carries
the identity's name, the index it failed at and both values, and whose
message has one format: "identity at index: got != want".
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


class BFileError(ValueError):
    """A b-file could not be parsed; message names the offending line."""
