from hypothesis import given, strategies as st

import pytest

from prefixalg.cylinders import (
    SequenceDesc,
    extends,
    format_seqdesc,
    format_tuple,
    member,
    parse_seqdesc_text,
    parse_tuple_text,
    read_natural,
    read_tuple,
)

labels = st.integers(min_value=0, max_value=6)
tuples = st.lists(labels, max_size=5).map(tuple)
points = st.builds(SequenceDesc, prefix=tuples, tail=labels)


def test_extends_examples():
    assert extends((1, 5), (1,))
    assert extends((1,), (1,))
    assert not extends((2,), (1,))


def test_properly_extends_is_strict():
    assert extends((1, 5), (1,)) and (1, 5) != (1,)
    assert not (extends((1,), (1,)) and (1,) != (1,))


def test_member_examples():
    x = SequenceDesc((1, 2), 0)
    assert member(x, (1,))
    assert member(x, (1, 2, 0, 0))
    assert not member(x, (1, 3))


@given(tuples, tuples)
def test_trichotomy(a, b):
    # Exactly one holds: a extends b, b properly extends a, or the tuples
    # differ at a common coordinate (their cylinders do not meet).
    cases = [
        extends(a, b),
        extends(b, a) and b != a,
        any(a[i] != b[i] for i in range(min(len(a), len(b)))),
    ]
    assert sum(cases) == 1


@given(points, tuples, tuples)
def test_cylinder_monotonicity(x, a, b):
    if extends(a, b) and member(x, a):
        assert member(x, b)


@given(points, tuples)
def test_membership_is_coordinatewise(x, a):
    ok = all(x.coord(i + 1) == a[i] for i in range(len(a)))
    assert member(x, a) == ok


def test_seqdesc_canonical_form():
    assert SequenceDesc((1, 2, 0, 0), 0) == SequenceDesc((1, 2), 0)
    assert SequenceDesc((0, 0), 0) == SequenceDesc((), 0)
    assert SequenceDesc((1, 2, 0, 0), 0).prefix == (1, 2)


def test_seqdesc_coordinates():
    x = SequenceDesc((4, 5), 9)
    assert [x.coord(i) for i in (1, 2, 3, 7)] == [4, 5, 9, 9]
    assert x.head(4) == (4, 5, 9, 9)
    with pytest.raises(IndexError):
        x.coord(0)


def test_tuple_text_round_trip():
    for t in [(), (1,), (1, 5, 2), (10, 0)]:
        assert parse_tuple_text(format_tuple(t)) == t
    assert format_tuple(()) == "()"
    assert format_tuple((1, 5, 2)) == "(1,5,2)"


def test_tuple_text_rejects_garbage():
    for bad in ["", "(", "(1,", "(1,-2)", "1,2", "(a)", "(²)", "(1,٣)"]:
        with pytest.raises(ValueError):
            parse_tuple_text(bad)


@given(st.text(alphabet="0123456789(),\u0663 +_", max_size=8))
def test_read_tuple_takes_exactly_printed_tuples(text):
    try:
        parsed = parse_tuple_text(text)
    except ValueError:
        parsed = None
    want = parsed if parsed is not None and format_tuple(parsed) == text else None
    assert read_tuple(text) == want
    digits = text.isascii() and text.isdigit()
    assert read_natural(text) == (int(text) if digits and str(int(text)) == text else None)


def test_read_natural_and_tuple_refuse_what_int_cannot_convert():
    digits = "1" + "0" * 4300
    assert read_natural(digits) is None
    assert read_tuple(f"(1,{digits})") is None
    assert read_natural("4300") == 4300 and read_tuple("(0,12)") == (0, 12)
    for text in ("", "01", "-1", "+1", "1_0", "\u0663", " 1", "1 "):
        assert read_natural(text) is None


def test_seqdesc_text_round_trip():
    for x in [SequenceDesc((1, 2), 0), SequenceDesc((), 7)]:
        assert parse_seqdesc_text(format_seqdesc(x)) == x
    for bad in ["(1,2)", "(1,2)/٣", "(1,2)/²", "(٣)/0"]:
        with pytest.raises(ValueError):
            parse_seqdesc_text(bad)
