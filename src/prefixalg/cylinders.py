"""Labels, finite tuples, and the prefix order behind all cylinder combinatorics.

A tuple of labels names the cylinder of all sequences that begin with it;
the empty tuple names the whole sequence space. Labels are unbounded
non-negative integers, so a label outside any finite set always exists and
equality is decidable. Coordinates are 1-indexed throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

Label = int
Tup = tuple[int, ...]


class Compat(Enum):
    """How two tuples relate as prefixes of one another."""

    A_EXTENDS_B = "a-extends-b"
    B_PROPERLY_EXTENDS_A = "b-properly-extends-a"
    DISJOINT = "disjoint"


def extends(a: Tup, b: Tup) -> bool:
    """True when a begins with b; every tuple extends itself."""
    return len(a) >= len(b) and a[: len(b)] == b


def properly_extends(a: Tup, b: Tup) -> bool:
    return len(a) > len(b) and a[: len(b)] == b


def compatibility(a: Tup, b: Tup) -> Compat:
    """Classify a pair of tuples; exactly one case holds.

    DISJOINT means the tuples differ at some common coordinate, so their
    cylinders do not meet.
    """
    if extends(a, b):
        return Compat.A_EXTENDS_B
    if properly_extends(b, a):
        return Compat.B_PROPERLY_EXTENDS_A
    return Compat.DISJOINT


@dataclass(frozen=True, slots=True)
class SequenceDesc:
    """A finitely described sequence: an explicit prefix, then a constant tail.

    coordinate(i) is defined for every i >= 1. The stored prefix is kept
    canonical (no trailing entries equal to the tail), so structural equality
    coincides with equality of the described sequences.
    """

    prefix: Tup
    tail: Label

    def __post_init__(self) -> None:
        p = self.prefix
        k = len(p)
        while k > 0 and p[k - 1] == self.tail:
            k -= 1
        if k != len(p):
            object.__setattr__(self, "prefix", p[:k])

    def coord(self, i: int) -> Label:
        """1-indexed coordinate access."""
        if i < 1:
            raise IndexError(f"coordinates are 1-indexed, got {i}")
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        return self.tail

    def head(self, n: int) -> Tup:
        """The first n coordinates as a tuple."""
        return tuple(self.coord(i) for i in range(1, n + 1))

    def __repr__(self) -> str:
        return f"SequenceDesc({format_tuple(self.prefix)}/{self.tail})"


def member(x: SequenceDesc, a: Tup) -> bool:
    """True when x lies in the cylinder named by a."""
    return all(x.coord(i + 1) == a[i] for i in range(len(a)))


def format_tuple(t: Tup) -> str:
    return "(" + ",".join(str(v) for v in t) + ")"


def format_seqdesc(x: SequenceDesc) -> str:
    return f"{format_tuple(x.prefix)}/{x.tail}"


def parse_tuple_text(text: str) -> Tup:
    """Parse `(1,5,2)` or `()`; labels are non-negative integers in ASCII digits."""
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"malformed tuple literal {text!r}")
    body = s[1:-1].strip()
    if not body:
        return ()
    out = []
    for piece in body.split(","):
        piece = piece.strip()
        if not (piece.isascii() and piece.isdigit()):
            raise ValueError(f"malformed label {piece!r} in tuple {text!r}")
        out.append(int(piece))
    return tuple(out)


def parse_seqdesc_text(text: str) -> SequenceDesc:
    """Parse `(1,2)/0`: a prefix tuple, a slash, and the constant tail label."""
    s = text.strip()
    head, sep, tail = s.rpartition("/")
    tail = tail.strip()
    if not (sep and tail.isascii() and tail.isdigit()):
        raise ValueError(f"malformed sequence description {text!r}")
    return SequenceDesc(parse_tuple_text(head), int(tail))
