"""Labels, finite tuples, and the prefix order behind all cylinder combinatorics.

A tuple of labels names the cylinder of all sequences that begin with it;
the empty tuple names the whole sequence space. Labels are unbounded
non-negative integers, so a label outside any finite set always exists and
equality is decidable. Coordinates are 1-indexed throughout.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional

Label = int
Tup = tuple[int, ...]


class Value:
    """Base of the plain value classes.

    A subclass names its fields in `__slots__`, in constructor order, and
    sets them in its own `__init__`. Two values are equal when they are of
    the same class and their fields are equal, and a value prints as
    `Name(field=value, ...)`. A class that defines `__eq__` is unhashable,
    as a mutable value should be; `Frozen` values hash and stay as built.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls.__slots__:
            cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Frozen(Value):
    """An immutable value: `__init__` sets the fields through
    `object.__setattr__`, and assignment after that raises AttributeError.
    Equal values hash alike."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __reduce__(self) -> tuple:
        # copy and pickle cannot assign the fields; they call the constructor.
        return type(self), tuple([getattr(self, name) for name in self.__slots__])


def extends(a: Tup, b: Tup) -> bool:
    """True when a begins with b; every tuple extends itself."""
    return len(a) >= len(b) and a[: len(b)] == b


class SequenceDesc(Frozen):
    """A finitely described sequence: an explicit prefix, then a constant tail.

    coordinate(i) is defined for every i >= 1. The stored prefix is kept
    canonical (no trailing entries equal to the tail), so structural equality
    coincides with equality of the described sequences.
    """

    __slots__ = ("prefix", "tail")

    def __init__(self, prefix: Tup, tail: Label) -> None:
        k = len(prefix)
        while k > 0 and prefix[k - 1] == tail:
            k -= 1
        object.__setattr__(self, "prefix", prefix if k == len(prefix) else prefix[:k])
        object.__setattr__(self, "tail", tail)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.prefix, self.tail) == (other.prefix, other.tail)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.prefix, self.tail))

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
    return "(" + ",".join(map(str, t)) + ")"


def format_seqdesc(x: SequenceDesc) -> str:
    return f"{format_tuple(x.prefix)}/{x.tail}"


def read_natural(text: str) -> Optional[int]:
    """The natural number n with `str(n) == text`, or None: ASCII digits
    without a leading zero, no more of them than `int` converts."""
    if text.isdigit() and text.isascii() and (text[0] != "0" or len(text) == 1):
        try:
            return int(text)
        except ValueError:
            return None
    return None


def read_tuple(text: str) -> Optional[Tup]:
    """The tuple t with `format_tuple(t) == text`, or None. Every one-pass
    reader of printed text holds a tuple to this rule."""
    if text[:1] != "(" or text[-1:] != ")":
        return None
    if len(text) == 2:
        return ()
    labels = []
    for piece in text[1:-1].split(","):
        label = read_natural(piece)
        if label is None:
            return None
        labels.append(label)
    return tuple(labels)


def parse_natural(text: str) -> int:
    """A non-negative integer in ASCII digits; what `int` refuses gets its message."""
    value = int(text)
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"malformed natural number {text!r}")
    return value


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
        try:
            out.append(int(piece))
        except ValueError:
            raise ValueError(f"label too long ({len(piece)} digits) in tuple {text!r}") from None
    return tuple(out)


def parse_seqdesc_text(text: str) -> SequenceDesc:
    """Parse `(1,2)/0`: a prefix tuple, a slash, and the constant tail label."""
    s = text.strip()
    head, sep, tail = s.rpartition("/")
    tail = tail.strip()
    if not (sep and tail.isascii() and tail.isdigit()):
        raise ValueError(f"malformed sequence description {text!r}")
    prefix = parse_tuple_text(head)
    try:
        return SequenceDesc(prefix, int(tail))
    except ValueError:
        raise ValueError(f"label too long ({len(tail)} digits) in point {text!r}") from None
