"""Tokenizer and recursive-descent parser for the expression surface syntax.

Grammar, loosest binding first (whitespace is insignificant):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*'? factor)*
    factor := atom ["'"]
    atom   := scalar | 'P' '(' tuple ')' | 'V' '(' tuple ';' tuple ')'
            | '(' expr ')'
    tuple  := '(' [int (',' int)*] ')'
    scalar := int ['/' int] ['i'] | 'i'

Adjoint binds tighter than product, product tighter than sum. Juxtaposition
multiplies, so `1/2 P((1))` is a scalar multiple of a projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from .expr import Adj, Expr, Iso, Product, Proj, ScalarLit, Sum
from .monomials import Monomial
from .polynomials import Scalar
from .expr import expr_to_word


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


@dataclass(frozen=True, slots=True)
class Token:
    kind: str  # INT PUNCT NAME EOF
    text: str
    line: int
    col: int


_PUNCT = set("(),;+-*/'")
_NAMES = {"P", "V", "i"}


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
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
            tokens.append(Token("INT", text[start:pos], line, start_col))
            continue
        if ch in _PUNCT:
            tokens.append(Token("PUNCT", ch, line, col))
            pos += 1
            col += 1
            continue
        if ch in _NAMES:
            tokens.append(Token("NAME", ch, line, col))
            pos += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


# Deeper parenthesis nesting is refused with a ParseError rather than left
# to exhaust the interpreter's recursion limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return tok

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    # expr := ['-'] term (('+'|'-') term)*
    def expr(self) -> Expr:
        terms: list[tuple[int, Expr]] = []
        sign = 1
        if self.peek().text == "-":
            self.next()
            sign = -1
        terms.append((sign, self.term()))
        while self.peek().text in ("+", "-"):
            op = self.next().text
            terms.append((1 if op == "+" else -1, self.term()))
        if len(terms) == 1 and terms[0][0] > 0:
            return terms[0][1]
        return Sum(tuple(terms))

    # term := factor ('*'? factor)*
    def term(self) -> Expr:
        factors = [self.factor()]
        while True:
            tok = self.peek()
            if tok.text == "*":
                self.next()
                factors.append(self.factor())
            elif tok.kind == "INT" or tok.kind == "NAME" or tok.text == "(":
                factors.append(self.factor())
            else:
                break
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors))

    # factor := atom ["'"]
    def factor(self) -> Expr:
        node = self.atom()
        if self.peek().text == "'":
            self.next()
            node = Adj(node)
        return node

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "INT":
            return ScalarLit(self.scalar())
        if tok.text == "i":
            self.next()
            return ScalarLit(Scalar(Fraction(0), Fraction(1)))
        if tok.text == "P":
            self.next()
            self.expect("(")
            t = self.tuple_literal()
            self.expect(")")
            return Proj(t)
        if tok.text == "V":
            self.next()
            self.expect("(")
            dom = self.tuple_literal()
            self.expect(";")
            ran = self.tuple_literal()
            close = self.expect(")")
            if len(dom) != len(ran):
                raise ParseError(
                    f"tuple length mismatch in V: {len(dom)} vs {len(ran)}",
                    close.line, close.col,
                )
            return Iso(dom, ran)
        if tok.text == "(":
            if self.depth == MAX_NESTING:
                raise self.fail(f"parentheses nested deeper than {MAX_NESTING} levels")
            self.next()
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect(")")
            if isinstance(inner, Sum) and all(isinstance(t, ScalarLit) for _, t in inner.terms):
                # A printed complex literal such as (1/2+i) reads back as one
                # scalar, so it prints back as it was written.
                return ScalarLit(sum(t.value if sign > 0 else -t.value for sign, t in inner.terms))
            return inner
        raise self.fail(f"expected a scalar, P(...), V(...;...) or parenthesized "
                        f"expression, found {tok.text or 'end of input'!r}")

    # scalar := int ['/' int] ['i']
    def scalar(self) -> Scalar:
        tok = self.next()
        num = int(tok.text)
        den = 1
        if self.peek().text == "/":
            self.next()
            den_tok = self.next()
            if den_tok.kind != "INT":
                raise ParseError("expected a denominator", den_tok.line, den_tok.col)
            den = int(den_tok.text)
            if den == 0:
                raise ParseError("zero denominator", den_tok.line, den_tok.col)
        value = Fraction(num, den)
        if self.peek().text == "i":
            self.next()
            return Scalar(Fraction(0), value)
        return Scalar(value)

    # tuple := '(' [int (',' int)*] ')'
    def tuple_literal(self) -> tuple[int, ...]:
        self.expect("(")
        entries: list[int] = []
        if self.peek().text != ")":
            while True:
                tok = self.next()
                if tok.kind != "INT":
                    raise ParseError(
                        f"expected a label, found {tok.text or 'end of input'!r}",
                        tok.line, tok.col,
                    )
                entries.append(int(tok.text))
                if self.peek().text == ",":
                    self.next()
                    continue
                break
        self.expect(")")
        return tuple(entries)


def parse_expr(text: str) -> Expr:
    parser = _Parser(tokenize(text))
    node = parser.expr()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError(f"trailing input starting at {tok.text!r}", tok.line, tok.col)
    return node


def parse_word(text: str) -> list[Monomial]:
    """Parse a product of monomial factors (with optional adjoints)."""
    return expr_to_word(parse_expr(text))
