"""`Scalar` against a reference on (Fraction, Fraction) pairs: arithmetic,
equality, hashing, text and copying, with parts up to 10**40 over
denominators up to 10**40, and every result in lowest terms."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

from hypothesis import given, settings, strategies as st

from prefixalg.expr import ScalarLit, eval_expr, poly_text
from prefixalg.parser import parse_expr
from prefixalg.polynomials import Polynomial, Scalar, read_scalar
from prefixalg.witnesses import _parse_scalar

BIG = 10**40

small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
big = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))
parts = st.one_of(small, big)
pairs = st.tuples(parts, parts)
rationals = st.one_of(st.integers(-BIG, BIG), parts)

CHECKS = settings(max_examples=200, deadline=None)


def lowest(s):
    """The triple of `s`, checked to be in lowest terms."""
    a, b, d = s.a, s.b, s.d
    assert all(type(v) is int for v in (a, b, d))
    assert d > 0 and gcd(a, b, d) == 1
    return a, b, d


def pair(s):
    """The reference pair of `s`, after checking its triple."""
    a, b, d = lowest(s)
    re, im = s.re, s.im
    assert type(re) is Fraction and type(im) is Fraction
    assert (re, im) == (Fraction(a, d), Fraction(b, d))
    return re, im


def reference_text(re, im):
    """The canonical text, printed part by part with str(Fraction)."""
    if re == 0 and im == 0:
        return "0"
    parts = []
    if re != 0:
        parts.append(str(re))
    if im != 0:
        mag = abs(im)
        body = "i" if mag == 1 else f"{mag}i"
        if im < 0:
            parts.append(f"-{body}")
        elif parts:
            parts.append(f"+{body}")
        else:
            parts.append(body)
    return "".join(parts)


@CHECKS
@given(pairs, pairs)
def test_arithmetic_matches_pairs(x, y):
    (p, q), (r, s) = x, y
    u, v = Scalar(p, q), Scalar(r, s)
    assert pair(u) == (p, q) and pair(v) == (r, s)
    assert pair(u + v) == (p + r, q + s)
    assert pair(u - v) == (p - r, q - s)
    assert pair(u * v) == (p * r - q * s, p * s + q * r)
    assert pair(-u) == (-p, -q)
    assert pair(u.conjugate()) == (p, -q)
    assert Fraction(u.a * u.a + u.b * u.b, u.d * u.d) == p * p + q * q
    assert bool(u) == (p != 0 or q != 0)
    n = r * r + s * s
    if n:
        assert pair(u / v) == ((p * r + q * s) / n, (q * r - p * s) / n)
    else:
        try:
            u / v
        except ZeroDivisionError:
            pass
        else:
            raise AssertionError("division by zero did not raise")


@CHECKS
@given(pairs, rationals)
def test_mixed_operands(x, c):
    p, q = x
    u = Scalar(p, q)
    assert pair(Scalar.of(c)) == (Fraction(c), 0)
    assert pair(u + c) == pair(c + u) == (p + c, q)
    assert pair(u - c) == (p - c, q)
    assert pair(c - u) == (c - p, -q)
    assert pair(u * c) == pair(c * u) == (p * c, q * c)


@CHECKS
@given(pairs, pairs)
def test_equality_and_hash(x, y):
    u, v = Scalar(*x), Scalar(*y)
    assert (u == v) == (x == y)
    assert (u != v) == (x != y)
    assert Scalar(*x) == u and hash(Scalar(*x)) == hash(u)
    # The same value reached by arithmetic is the same triple.
    w = (u + v) - v
    assert w == u and hash(w) == hash(u) and lowest(w) == lowest(u)


@CHECKS
@given(pairs)
def test_text_matches_fraction_text(x):
    re, im = x
    u = Scalar(re, im)
    assert u.to_text() == reference_text(re, im)
    assert repr(u) == f"Scalar({reference_text(re, im)})"
    text = poly_text(Polynomial.projection((1,)).scale(u))
    if re == 0 and im == 0:
        assert text == "0"
    elif im == 0:
        mag = abs(re)
        body = "P((1))" if mag == 1 else f"{mag} * P((1))"
        assert text == (body if re > 0 else f"-{body}")
    elif re == 0:
        mag = abs(im)
        body = ("i" if mag == 1 else f"{mag}i") + " * P((1))"
        assert text == (body if im > 0 else f"-{body}")
    else:
        assert text == f"({reference_text(re, im)}) * P((1))"
    assert poly_text(eval_expr(parse_expr(text))) == text


@CHECKS
@given(pairs)
def test_printed_scalar_reads_back_in_one_pass(x):
    """`read_scalar` takes every print to the scalar the descent reads."""
    u = Scalar(*x)
    text = u.to_text()
    assert read_scalar(text) == _parse_scalar(text) == u
    assert eval_expr(parse_expr(text)) == eval_expr(ScalarLit(u))


def test_read_scalar_refuses_every_other_spelling():
    """Text that is not exactly a scalar's print is refused, so a witness's
    scalar field still goes to the descent, which words any error."""
    for text in ["", " 1", "1 ", "+1", "-0", "01", "0/1", "1/1", "2/4", "1/0", "1/", "/2",
                 "1/2/3", "1/-2", "-1/-2i", "1/+2", "--1", "1+", "+i", "1i", "0i", "-1i", "1+0i", "1+1i", "-1/2+-i",
                 "i+1", "(1)", "1_0", "\u0663", "1" * 5000, "1" * 4000 + "/" + "1" * 4000]:
        assert read_scalar(text) is None, text
    assert _parse_scalar("2/4") == Scalar(Fraction(1, 2))


@CHECKS
@given(pairs)
def test_copy_and_pickle_round_trip(x):
    u = Scalar(*x)
    for back in (copy.copy(u), copy.deepcopy(u), pickle.loads(pickle.dumps(u))):
        assert type(back) is Scalar and back == u and lowest(back) == lowest(u)


_COPY_CHILD = """
import copy, pickle, sys
from prefixalg.polynomials import Scalar

u = Scalar.ratio(6, -4, 8)
for back in (copy.copy(u), copy.deepcopy(u), pickle.loads(pickle.dumps(u))):
    assert type(back) is Scalar and (back.a, back.b, back.d) == (3, -2, 4), back
print(*[m for m in ("fractions", "decimal", "numbers") if m in sys.modules])
"""


def test_copy_and_pickle_leave_fractions_unloaded():
    """A copy or pickle round trip of a Scalar rebuilds it from its triple,
    so a fresh interpreter still has not loaded `fractions`, `decimal` or
    `numbers` afterwards."""
    import prefixalg

    src = str(Path(prefixalg.__file__).parents[1])
    paths = (src, os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run([sys.executable, "-c", _COPY_CHILD], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "\n"


def test_parts_of_any_rational_type():
    assert Scalar(3) == Scalar(Fraction(3), Fraction(0)) == Scalar("3", 0)
    assert lowest(Scalar(Fraction(4, 6), 2)) == (2, 6, 3)
    assert lowest(Scalar(0)) == (0, 0, 1) and lowest(Scalar(0, 0) * Scalar(5, 7)) == (0, 0, 1)
    assert lowest(Scalar.ratio(6, -4, 8)) == (3, -2, 4)
