import itertools
import random

from hypothesis import given, strategies as st

import pytest

from prefixalg.cylinders import SequenceDesc
from prefixalg.monomials import (
    V,
    ZERO,
    act,
    act_word,
    adjoint,
    format_monomial,
    is_projection,
    multiply,
    normal_form,
    projection,
    read_monomial,
)

labels = st.integers(min_value=0, max_value=4)


@st.composite
def monomials(draw):
    if draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
        return ZERO
    n = draw(st.integers(min_value=0, max_value=3))
    dom = tuple(draw(labels) for _ in range(n))
    ran = dom if draw(st.booleans()) else tuple(draw(labels) for _ in range(n))
    return V(dom, ran)


def fresh_point(word, suffix=()):
    used = set()
    for m in word:
        if m is not ZERO:
            used.update(m.dom)
            used.update(m.ran)
    return SequenceDesc(tuple(suffix), max(used, default=0) + 1)


def oracle_agrees(word, candidates):
    """Check the collapsed product against stepwise action on sample points."""
    nf = normal_form(word)
    for x in candidates:
        stepwise = act_word(word, x)
        direct = act(nf, x) if nf is not ZERO else None
        assert stepwise == direct, (word, x)
    return nf


# -- frozen examples ---------------------------------------------------------


def test_multiply_examples():
    assert multiply(V((1,), (2,)), V((3,), (1,))) == V((3,), (2,))
    assert multiply(V((1, 2), (3, 4)), V((5,), (1,))) == V((5, 2), (3, 4))
    assert multiply(V((1,), (1,)), V((2,), (2,))) is ZERO
    assert multiply(V((1,), (1,)), V((1, 5), (1, 5))) == V((1, 5), (1, 5))


def test_multiply_matches_point_action():
    # (3,t,...) goes to (1,t,...) goes to (2,t,...)
    word = [V((1,), (2,)), V((3,), (1,))]
    x = SequenceDesc((3, 7), 9)
    assert act_word(word, x) == SequenceDesc((2, 7), 9)
    oracle_agrees(word, [x, fresh_point(word), fresh_point(word, (3, 3))])

    word = [V((1, 2), (3, 4)), V((5,), (1,))]
    oracle_agrees(word, [SequenceDesc((5, 2, 8), 9), SequenceDesc((5, 1), 9)])


def test_adjoint_examples():
    assert adjoint(V((1,), (2,))) == V((2,), (1,))
    assert adjoint(V((1,), (1,))) == V((1,), (1,))
    assert adjoint(ZERO) is ZERO


def test_normal_form_examples():
    word = [V((1,), (2,)), V((3,), (1,)), V((3,), (3,))]
    assert oracle_agrees(word, [SequenceDesc((3, 5), 9), fresh_point(word)]) == V(
        (3,), (2,)
    )
    assert normal_form([projection((1,))]) == V((1,), (1,))


def test_isometry_times_adjoint_gives_projections():
    # Leftmost factor outermost, rightmost acting first: V * V' is the range
    # projection and V' * V is the domain projection.
    v = V((1,), (2,))
    word = [v, adjoint(v)]
    assert oracle_agrees(word, [SequenceDesc((2, 4), 9), SequenceDesc((1,), 9)]) == V(
        (2,), (2,)
    )
    word = [adjoint(v), v]
    assert oracle_agrees(word, [SequenceDesc((1, 4), 9), SequenceDesc((2,), 9)]) == V(
        (1,), (1,)
    )


def test_act_examples():
    assert act(V((1,), (2,)), SequenceDesc((1, 7), 0)) == SequenceDesc((2, 7), 0)
    assert act(V((1,), (2,)), SequenceDesc((3,), 0)) is None
    assert act(V((1, 9), (4, 4)), SequenceDesc((1,), 9)) == SequenceDesc((4, 4), 9)
    assert act(ZERO, SequenceDesc((1,), 0)) is None


def test_normal_form_rejects_empty_word():
    with pytest.raises(ValueError):
        normal_form([])


def test_unequal_lengths_rejected():
    with pytest.raises(ValueError):
        V((1,), (2, 3))


def test_empty_tuple_is_a_unit():
    one = V((), ())
    m = V((1, 2), (3, 4))
    assert multiply(one, m) == m
    assert multiply(m, one) == m


def test_format_monomial():
    assert format_monomial(ZERO) == "0"
    assert format_monomial(V((1,), (1,))) == "P((1))"
    assert format_monomial(V((1,), (2,))) == "V((1);(2))"


def test_read_monomial_reads_back_the_print():
    rng = random.Random("read-monomial")
    for _ in range(500):
        n = rng.randint(0, 4)
        dom = tuple(rng.choice((0, 1, 7, 10, 123)) for _ in range(n))
        ran = dom if rng.random() < 0.3 else tuple(rng.randint(0, 12) for _ in range(n))
        m = V(dom, ran)
        read = read_monomial(format_monomial(m))
        assert read == m and hash(read) == hash(m)


def test_read_monomial_refuses_what_the_printer_never_prints():
    for text in ("V((1);(1))", "V((1);(1,2))", "P((01))", "P((1,))", "P(1)", "V((1),(2))",
                 "0", ""):
        assert read_monomial(text) is None, text


# -- exhaustive associativity over a tiny universe ---------------------------


def _universe():
    tuples = [()]
    for n in (1, 2):
        tuples.extend(itertools.product((0, 1), repeat=n))
    monos = [ZERO]
    for a in tuples:
        for b in tuples:
            if len(a) == len(b):
                monos.append(V(tuple(a), tuple(b)))
    return monos


def test_associativity_exhaustive():
    monos = _universe()
    for m1 in monos:
        for m2 in monos:
            m12 = multiply(m1, m2)
            for m3 in monos:
                assert multiply(m12, m3) == multiply(m1, multiply(m2, m3))


# -- property tests -----------------------------------------------------------


@given(monomials(), monomials())
def test_involution_antihomomorphism(m1, m2):
    assert adjoint(multiply(m1, m2)) == multiply(adjoint(m2), adjoint(m1))


@given(monomials())
def test_partial_isometry_law(m):
    assert multiply(multiply(m, adjoint(m)), m) == m


@given(st.lists(monomials(), min_size=1, max_size=6))
def test_closure(word):
    nf = normal_form(word)
    if nf is not ZERO:
        assert len(nf.dom) == len(nf.ran)


@given(st.lists(monomials(), min_size=1, max_size=6), st.lists(labels, max_size=4).map(tuple))
def test_action_oracle(word, suffix):
    oracle_agrees(word, [fresh_point(word, suffix)])


@given(monomials())
def test_projection_laws(m):
    if m is ZERO:
        return
    p = V(m.dom, m.dom)
    assert multiply(p, p) == p
    assert adjoint(p) == p
    assert is_projection(p)


@given(st.lists(labels, max_size=3).map(tuple), st.lists(labels, max_size=3).map(tuple))
def test_projection_products(a, b):
    prod = multiply(V(a, a), V(b, b))
    if len(a) >= len(b) and a[: len(b)] == b:
        assert prod == V(a, a)
    elif len(b) > len(a) and b[: len(a)] == a:
        assert prod == V(b, b)
    else:
        assert prod is ZERO
