"""The *-semigroup of prefix-rewriting partial isometries.

V(dom, ran) is the operator that sends a basis vector indexed by a sequence
beginning with dom to the basis vector of the same sequence with that initial
segment replaced by ran, and kills everything outside the dom cylinder. Its
adjoint rewrites in the other direction, and P(a) = V(a, a) is the projection
onto the cylinder of a.

Any finite product of such operators is again of this shape or zero, even
when the factors involve tuples of different lengths. `multiply` computes the
closed form; `act` is the pointwise semantics it must agree with, and the two
are checked against each other throughout the test suite.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable, Optional, Union

from .cylinders import Frozen, SequenceDesc, Tup, format_tuple, member, read_tuple


class _Zero:
    """The zero operator, kept first-class so products stay total."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "0"


ZERO = _Zero()


class V(Frozen):
    """Partial isometry with domain cylinder dom and range cylinder ran."""

    __slots__ = ("dom", "ran")

    def __init__(self, dom: Tup, ran: Tup) -> None:
        if len(dom) != len(ran):
            raise ValueError(
                f"domain and range tuples must have equal length: "
                f"{format_tuple(dom)} vs {format_tuple(ran)}"
            )
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "ran", ran)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.dom, self.ran) == (other.dom, other.ran)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.dom, self.ran))

    def __repr__(self) -> str:
        return format_monomial(self)


Monomial = Union[V, _Zero]

# The slot descriptors write a field past the class's refusing __setattr__.
_new_object = object.__new__
_set_dom = V.__dict__["dom"].__set__
_set_ran = V.__dict__["ran"].__set__


def _v(dom: Tup, ran: Tup) -> V:
    """V(dom, ran) from tuples already of equal length: a bare instance whose
    slots are set directly, without the length check of `V.__init__`."""
    m = _new_object(V)
    _set_dom(m, dom)
    _set_ran(m, ran)
    return m


def projection(t: Tup) -> V:
    """P(t) = V(t, t), the projection onto the cylinder of t."""
    return V(t, t)


def is_projection(m: Monomial) -> bool:
    return isinstance(m, V) and m.dom == m.ran


def multiply(m1: Monomial, m2: Monomial) -> Monomial:
    """Operator composition m1 * m2, with m2 applied first.

    With m1 = V(a,b) and m2 = V(c,d) there are three cases, driven by how d
    (what m2 produces) meets a (what m1 consumes):
      d = a+s : the output of m2 already lies inside the domain of m1, and
                the composite rewrites c to b+s;
      a = d+u : m1 consumes more than m2 produced, which restricts the
                domain to c+u and rewrites it to b;
      neither : the tuples differ at a common coordinate and nothing
                survives.
    One length test picks the only case that can hold, and one slice
    compare decides it.
    """
    if m1 is ZERO or m2 is ZERO:
        return ZERO
    a, d = m1.dom, m2.ran
    k, e = len(a), len(d)
    if e >= k:
        if d[:k] == a:
            return _v(m2.dom, m1.ran + d[k:])
    elif a[:e] == d:
        return _v(m2.dom + a[e:], m1.ran)
    return ZERO


def adjoint(m: Monomial) -> Monomial:
    """V(a,b)* = V(b,a); the zero operator is self-adjoint."""
    if m is ZERO:
        return ZERO
    return _v(m.ran, m.dom)


def normal_form(word: Iterable[Monomial]) -> Monomial:
    """Collapse a non-empty product of monomials, leftmost factor outermost.

    The rightmost factor acts first; the result is ZERO or a single V(a,b)
    with equal-length tuples.
    """
    factors = list(word)
    if not factors:
        raise ValueError("normal_form requires a non-empty word")
    return reduce(multiply, factors)


def act(m: Monomial, x: SequenceDesc) -> Optional[SequenceDesc]:
    """Apply m to the basis vector of x; None means it is annihilated.

    When x lies in the domain cylinder, the described prefix is extended
    with tail labels as needed before the initial segment is rewritten, so
    the action is that on the genuine infinite sequence.
    """
    if m is ZERO:
        return None
    a, b = m.dom, m.ran
    if not member(x, a):
        return None
    k = max(len(x.prefix), len(a))
    full = x.prefix + (x.tail,) * (k - len(x.prefix))
    return SequenceDesc(b + full[len(a):], x.tail)


def act_word(word: Iterable[Monomial], x: SequenceDesc) -> Optional[SequenceDesc]:
    """Apply the factors of a word one at a time, rightmost first.

    This is the independent pointwise oracle for `normal_form`: a None at
    any stage corresponds to a vanishing product or an out-of-domain point.
    """
    y: Optional[SequenceDesc] = x
    for m in reversed(list(word)):
        if y is None:
            return None
        y = act(m, y)
    return y


def format_monomial(m: Monomial) -> str:
    if m is ZERO:
        return "0"
    if m.dom == m.ran:
        return f"P({format_tuple(m.dom)})"
    return f"V({format_tuple(m.dom)};{format_tuple(m.ran)})"


def read_monomial(text: str) -> Optional[V]:
    """The monomial m with `format_monomial(m) == text`, or None; zero's
    "0" is not read. Every one-pass reader of printed text holds a
    monomial to this rule."""
    if text[-1:] == ")":
        if text[:2] == "P(":
            t = read_tuple(text[2:-1])
            return None if t is None else _v(t, t)
        if text[:2] == "V(":
            dom, _, ran = text[2:-1].partition(";")
            dom, ran = read_tuple(dom), read_tuple(ran)
            if dom is not None and ran is not None and dom != ran and len(dom) == len(ran):
                return _v(dom, ran)
    return None
