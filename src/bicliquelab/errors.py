"""Shared exception types.

Invalid inputs raise ``ValueError`` (or a subclass below).  Failed
*verifications* never raise; they come back as failing certificates.
"""

from __future__ import annotations


class ResourceLimitError(RuntimeError):
    """An operation refused to run because a configured guard was exceeded.

    Carries the name of the limit and the offending size so callers can
    report exactly which knob to raise.
    """

    def __init__(self, limit_name: str, limit: int, requested: int):
        self.limit_name = limit_name
        self.limit = limit
        self.requested = requested
        # Python refuses int-to-str past 4,300 digits by default; 10,000 bits are 3,011
        bits = requested.bit_length()
        size = requested if bits <= 10_000 else f"a {bits}-bit number"
        super().__init__(f"{limit_name} exceeded: requested {size}, limit {limit}")


class FormatError(ValueError):
    """Malformed input to one of the text formats; carries a 1-based line number."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


class PartError(ValueError):
    """A part of a biclique system is not a biclique; ``part`` is its 0-based index."""

    def __init__(self, message: str, part: int):
        self.part = part
        super().__init__(message)


class WellDefinednessError(ValueError):
    """Two characteristic vectors share both a 0- and a 1-coordinate.

    This cannot happen for a genuine edge partition (the offending edge
    would be covered twice), so raising it certifies the input system was
    not a valid partition.
    """

    def __init__(self, part_a: int, part_b: int, shared_one: int, shared_zero: int):
        self.part_a = part_a
        self.part_b = part_b
        self.shared_one = shared_one
        self.shared_zero = shared_zero
        super().__init__(
            f"parts {part_a} and {part_b} share value 1 at vertex {shared_one} "
            f"and value 0 at vertex {shared_zero}; not an edge partition"
        )
