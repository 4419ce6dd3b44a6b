import random
from collections import Counter
from fractions import Fraction

from hypothesis import given, strategies as st

import pytest

from prefixalg.cylinders import SequenceDesc
from prefixalg.expr import (
    Adj, Iso as IsoNode, Product, Proj, ScalarLit, Sum, eval_expr, factor_text, poly_text,
    print_expr,
)
from prefixalg.monomials import V, adjoint
from prefixalg.parser import ParseError, parse_expr, parse_word, token_position, tokenize
from prefixalg.polynomials import Polynomial, Scalar
from prefixalg.registry import Registry
from prefixalg.witnesses import ideal_projection_witness, primeness_witness

P = Polynomial.projection
Iso = Polynomial.isometry


def evaluate(text):
    return eval_expr(parse_expr(text))


def test_grammar_examples():
    assert evaluate("P((1)) * V((1);(2))'") == P((1,)) * Iso((2,), (1,))
    assert evaluate("1/2 P((1)) + 1/2 P((2))") == P((1,)).scale(Fraction(1, 2)) + P(
        (2,)
    ).scale(Fraction(1, 2))
    with pytest.raises(ParseError):
        parse_expr("V((1);(2,3))")


def test_juxtaposition_equals_star():
    assert evaluate("P((1)) V((1);(2))'") == evaluate("P((1)) * V((1);(2))'")


def test_adjoint_binds_tighter_than_product():
    # P((1)) * V((1);(2))' multiplies by the adjoint, so the domain becomes (2).
    assert evaluate("P((1)) V((1);(2))'") == Iso((2,), (1,))


def test_scalars():
    assert evaluate("3") == Polynomial.unit().scale(3)
    assert evaluate("1/2") == Polynomial.unit().scale(Fraction(1, 2))
    assert evaluate("i") == Polynomial.unit().scale(Scalar(Fraction(0), Fraction(1)))
    assert evaluate("3/4 i") == Polynomial.unit().scale(Scalar(Fraction(0), Fraction(3, 4)))
    assert evaluate("3/4i") == evaluate("3/4 i")
    assert evaluate("-2 P((1))") == P((1,)).scale(-2)
    assert evaluate("0") == Polynomial.zero()


def test_sums_and_differences():
    assert evaluate("P((1)) - P((1))") == Polynomial.zero()
    assert evaluate("(1/2 - 3/4 i) P((1))") == P((1,)).scale(
        Scalar(Fraction(1, 2), Fraction(-3, 4))
    )


def test_parenthesized_adjoint():
    v = Iso((1,), (2,))
    assert evaluate("(P((1)) V((1);(2))')'") == (P((1,)) * v.adjoint()).adjoint()


def test_empty_tuple_unit():
    assert evaluate("P(())") == Polynomial.unit()
    assert evaluate("P(()) P((1))") == P((1,))


SCALAR_EXPECTED = "expected a scalar, P(...), V(...;...) or parenthesized expression"
DIGITS = "9" * 5000
# One case for each place a ParseError is raised. str.isdigit admits both
# non-ASCII digits; int() rejects '²' and reads '٣' as 3, so neither may
# reach it. An integer longer than int() converts names its position too.
ERROR_MESSAGES = [
    ("P((1)) + @", "unexpected character '@' (line 1, column 10)"),
    ("P((1)", "expected ')', found 'end of input' (line 1, column 6)"),
    ("P((1)) P((2)) +", f"{SCALAR_EXPECTED}, found 'end of input' (line 1, column 16)"),
    ("", f"{SCALAR_EXPECTED}, found 'end of input' (line 1, column 1)"),
    ("1/0", "zero denominator (line 1, column 3)"),
    ("1/\n  0", "zero denominator (line 2, column 3)"),
    ("1/ P((1))", "expected a denominator (line 1, column 4)"),
    ("P((1)) junk((2))", "unexpected character 'j' (line 1, column 8)"),
    ("V((1);(2,3))", "tuple length mismatch in V: 1 vs 2 (line 1, column 12)"),
    (" \r\n V((1,2);\n(3))", "tuple length mismatch in V: 2 vs 1 (line 3, column 4)"),
    ("P((1,))", "expected a label, found ')' (line 1, column 6)"),
    ("V((1)\n(2))", "expected ';', found '(' (line 2, column 1)"),
    ("(P((1))", "expected ')', found 'end of input' (line 1, column 8)"),
    ("P((1))\t)", "trailing input starting at ')' (line 1, column 8)"),
    ("(" * 101 + "P((1))" + ")" * 101,
     "parentheses nested deeper than 100 levels (line 1, column 101)"),
    ("P((²))", "unexpected character '²' (line 1, column 4)"),
    ("P((٣))", "unexpected character '٣' (line 1, column 4)"),
    ("1 +\n 1/٣", "unexpected character '٣' (line 2, column 4)"),
    (f"P((1)) + {DIGITS} P((2))", "integer literal too long (5000 digits) (line 1, column 10)"),
    (f"P((1,\n  {DIGITS}))", "integer literal too long (5000 digits) (line 2, column 3)"),
    (f"1/{DIGITS}", "integer literal too long (5000 digits) (line 1, column 3)"),
]


def test_parse_errors_carry_position():
    for text, message in ERROR_MESSAGES:
        with pytest.raises(ParseError) as exc:
            parse_expr(text)
        assert str(exc.value) == message
    assert evaluate(DIGITS[:4300]) == Polynomial.unit().scale(int(DIGITS[:4300]))


def test_parse_word():
    word = parse_word("V((1);(2)) P((0)) V((3);(4))'")
    assert word == [V((1,), (2,)), V((0,), (0,)), V((4,), (3,))]
    word = parse_word("(P((1)) V((1);(2)))'")
    assert word == [adjoint(V((1,), (2,))), V((1,), (1,))]
    with pytest.raises(ValueError):
        parse_word("P((1)) + P((2))")
    with pytest.raises(ValueError):
        parse_word("2 P((1))")


def rand_polynomial(rng):
    p = Polynomial.zero()
    for _ in range(rng.randint(0, 5)):
        n = rng.randint(0, 3)
        p = p + Polynomial.of(
            V(
                tuple(rng.randint(0, 9) for _ in range(n)),
                tuple(rng.randint(0, 9) for _ in range(n)),
            ),
            Scalar(
                Fraction(rng.randint(-5, 5), rng.randint(1, 6)),
                Fraction(rng.randint(-5, 5), rng.randint(1, 6)),
            ),
        )
    return p


def test_poly_text_round_trip_random():
    rng = random.Random(6)
    for _ in range(200):
        p = rand_polynomial(rng)
        assert evaluate(poly_text(p)) == p


def test_poly_text_examples():
    assert poly_text(Polynomial.zero()) == "0"
    assert poly_text(P((1,))) == "P((1))"
    assert poly_text(P((1,)).scale(-1)) == "-P((1))"
    assert poly_text(Iso((3,), (2,))) == "V((3);(2))"
    p = P((1,)).scale(Fraction(1, 2)) + P((2,)).scale(Fraction(1, 2))
    assert poly_text(p) == "1/2 * P((1)) + 1/2 * P((2))"
    q = Iso((1,), (2,)).scale(Scalar(Fraction(0), Fraction(-1)))
    assert poly_text(q) == "-i * V((1);(2))"
    r = P((1,)).scale(Scalar(Fraction(1, 2), Fraction(-3, 4)))
    assert poly_text(r) == "(1/2-3/4i) * P((1))"


# -- the printer against the expression-tree reference --------------------------


def reference_expr(p):
    """The expression tree that `poly_text` used to print through, kept as
    the oracle for it and for `factor_text`. Real coefficients become signed
    rational factors, purely imaginary ones keep the sign on the imaginary
    part, and general complex coefficients ride along as parenthesized
    literals."""
    if not p:
        return ScalarLit(Scalar(0))
    terms = []
    for m, c in p.sorted_terms():
        node = Proj(m.dom) if m.dom == m.ran else IsoNode(m.dom, m.ran)
        if c.a and c.b:
            terms.append((1, Product((ScalarLit(c), node))))
            continue
        sign = 1 if c.a > 0 or c.b > 0 else -1
        mag = c if sign > 0 else -c
        if mag == Scalar(1):
            terms.append((sign, node))
        else:
            terms.append((sign, Product((ScalarLit(mag), node))))
    if len(terms) == 1 and terms[0][0] > 0:
        return terms[0][1]
    return Sum(tuple(terms))


def rand_coefficient(rng, kind):
    num, den = rng.randint(1, 7), rng.randint(1, 5)
    sign = rng.choice((1, -1))
    if kind == "unit":
        return Scalar(1)
    if kind == "real":
        return Scalar(Fraction(sign * num, den))
    if kind == "imaginary":
        return Scalar(0, Fraction(sign * num, den))
    return Scalar(Fraction(sign * num, den), Fraction(rng.choice((1, -1)) * rng.randint(1, 7), den))


def rand_monomial(rng):
    n = rng.randint(0, 3)
    dom = tuple(rng.randint(0, 9) for _ in range(n))
    return V(dom, dom) if rng.random() < 0.4 else V(dom, tuple(rng.randint(0, 9) for _ in range(n)))


KINDS = ("unit", "real", "imaginary", "complex")


def test_poly_text_matches_the_expression_tree_printer():
    rng = random.Random("poly-text-reference")
    polys = [Polynomial.zero(), P(()), P((1,)).scale(-1), Iso((1,), (2,)).scale(Scalar(0, -1))]
    for k in range(600):
        p = Polynomial.zero()
        for _ in range(1 if k % 3 else rng.randint(2, 5)):
            p = p + Polynomial.of(rand_monomial(rng), rand_coefficient(rng, rng.choice(KINDS)))
        polys.append(p)
    shapes = Counter()
    for p in polys:
        ref, text = reference_expr(p), poly_text(p)
        assert text == print_expr(ref)
        assert evaluate(text) == p
        # As the factors of a product, as the certificate line prints them.
        pair = f"{factor_text(p, text, adjoint=True)} * {factor_text(p, text)}"
        assert pair == print_expr(Product((Adj(ref), ref)))
        if len(p.terms) == 1:
            (c,) = p.terms.values()
            kind = "unit" if c == Scalar(1) else KINDS[1 + bool(c.b) + bool(c.a and c.b)]
            shapes[kind, text.startswith("-")] += 1
        else:
            shapes[min(len(p.terms), 2)] += 1
    assert len(polys) >= 500
    assert set(shapes) == {0, 2, ("unit", False), ("real", False), ("real", True),
                           ("imaginary", False), ("imaginary", True), ("complex", False)}


@given(st.lists(st.integers(0, 5), max_size=3).map(tuple), st.lists(st.integers(0, 5), max_size=3).map(tuple))
def test_print_parse_expr_round_trip(a, b):
    nodes = [reference_expr(P(a)), reference_expr(P(a) + P(b))]
    if len(a) == len(b):
        nodes.append(reference_expr(Iso(a, b)))
    for node in nodes:
        text = print_expr(node)
        assert eval_expr(parse_expr(text)) == eval_expr(node)


# -- tokenizer positions against the character-loop reference ------------------


def reference_tokenize(text):
    """The character-at-a-time tokenizer the regex one replaced, kept as the
    oracle for token strings and their (line, column) positions."""
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch == "\n":
            line += 1
            col = 1
            pos += 1
            continue
        if ch.isspace():
            col += 1
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            start_col = col
            while pos < len(text) and text[pos].isdigit():
                pos += 1
                col += 1
            tokens.append((text[start:pos], line, start_col))
            continue
        if ch in "(),;+-*/'" or ch in "PVi":
            tokens.append((ch, line, col))
            pos += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("", line, col))
    return tokens


def certificate_expressions(rng, count):
    """The expression fields of printed primeness certificates over random
    witnesses, one field a line, as in the certificate file."""
    out = []
    while len(out) < count:
        reg = Registry()
        witnesses = []
        for _ in range(2):
            q = rand_polynomial(rng)
            x = SequenceDesc(tuple(rng.randint(0, 9) for _ in range(3)), 0)
            if (q.adjoint() * q).g_eval(x):
                witnesses.append(ideal_projection_witness(reg, q, x))
        if len(witnesses) < 2:
            continue
        text = primeness_witness(reg, *witnesses).to_text()
        out.append([value for line in text.splitlines()
                    for key, _, value in [line.partition(" ")]
                    if key in ("root", "source", "certificate", "product", "claim")])
    return out


MUTATIONS = ["\n", "\r", "\t", " ", "@", "(", ")", "'", "*", "7", "/", "i", ""]


def mutate(rng, text):
    """Replace, insert or delete a few characters."""
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        at = rng.randint(0, len(chars))
        insert = rng.choice(MUTATIONS)
        if rng.random() < 0.5 or at == len(chars):
            chars.insert(at, insert)
        else:
            chars[at] = insert
    return "".join(chars)


def check_tokens(text, rng=None):
    """Compare tokenize with the reference: the same token strings, and the
    same (line, column) re-scanned for every token, or for a sample drawn
    with rng (each re-scan is linear in the text); or the same error.
    Returns the reference's positions."""
    try:
        expected = reference_tokenize(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            tokenize(text)
        assert str(got.value) == str(exc)
        return [(exc.line, exc.col)]
    tokens = tokenize(text)
    assert tokens == [tok for tok, _, _ in expected]
    n = len(tokens)
    ks = range(n) if rng is None else {0, n - 1, *rng.sample(range(n), min(n, 8))}
    for k in ks:
        assert token_position(text, k) == expected[k][1:]
    return [tok[1:] for tok in expected]


def parse_outcome(text):
    """parse_expr raises nothing but ParseError; its position is that of a
    reference token or of the unexpected character."""
    try:
        parse_expr(text)
    except ParseError as exc:
        return exc.line, exc.col
    return None


def test_tokens_and_positions_match_reference_on_certificates():
    rng = random.Random(8)
    texts = []
    for fields in certificate_expressions(rng, 12):
        texts.extend(fields)
        texts.append("\n".join(fields))
        texts.append("\r\n".join(fields))
    texts += [mutate(rng, rng.choice(texts)) for _ in range(600)]
    errors = 0
    for text in texts:
        assert text.isascii()
        positions = check_tokens(text, rng)
        where = parse_outcome(text)
        if where is not None:
            errors += 1
            assert where in positions
    assert 100 < errors < len(texts)


@given(st.text())
def test_parse_expr_raises_only_parse_errors(text):
    parse_outcome(text)
    if text.isascii():
        check_tokens(text)


# -- products against a left-to-right fold ------------------------------------


def fold_product(factors):
    """The product as the unit times each factor in turn, left to right."""
    out = Polynomial.unit()
    for f in factors:
        out = out * eval_expr(f)
    return out


def test_product_matches_left_to_right_fold():
    rng = random.Random(11)
    scalars = [parse_expr(text) for text in ("0", "i", "(1/2+i)", "3", "(-1/4i)")]
    assert all(isinstance(s, ScalarLit) for s in scalars)
    others = [parse_expr(text) for text in (
        "P((1))", "V((1);(2))", "V((2,0);(1,3))'", "P(())",
        "(P((1)) + 1/2 V((3);(1)) - i P((1,2)))",
    )]
    assert isinstance(others[-1], Sum)
    shapes = [
        [scalars[0]], [scalars[1]], [scalars[2], scalars[1]],
        [scalars[2], others[0]], [others[1], scalars[1]], [others[4], scalars[2], others[1]],
        [scalars[0], others[4]], [others[0], scalars[0], others[4]],
    ]
    for _ in range(200):
        shapes.append([rng.choice(scalars + others) for _ in range(rng.randint(1, 5))])
    for factors in shapes:
        got, expected = eval_expr(Product(tuple(factors))), fold_product(factors)
        assert got == expected
        assert list(got.terms) == list(expected.terms)
        assert poly_text(got) == poly_text(expected)
