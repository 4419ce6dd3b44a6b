"""Tokenizer and recursive-descent parser for the expression surface syntax.

Grammar, loosest binding first (whitespace is insignificant):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*'? factor)*
    factor := atom ["'"]
    atom   := scalar | 'P' '(' tuple ')' | 'V' '(' tuple ';' tuple ')'
            | '(' expr ')'
    tuple  := '(' [int (',' int)*] ')'
    scalar := int ['/' int] ['i'] | 'i'
    int    := [0-9]+

Adjoint binds tighter than product, product tighter than sum. Juxtaposition
multiplies, so `1/2 P((1))` is a scalar multiple of a projection.

Tokens are plain strings. A token's line and column are worked out, by
re-scanning the text, only for the error that names them.

Text that is exactly `poly_text(p)` for a nonzero polynomial p is read in one
pass by the canonical reader and parses to p itself; any other text goes to
the recursive descent, which only words the refusal of a file's polynomial.
"""

from __future__ import annotations

import re
from typing import Optional

from .expr import (
    Adj, Expr, Iso, Product, Proj, ScalarLit, Sum, _negative, eval_expr, expr_to_word, poly_text,
)
from .monomials import V, Monomial, read_monomial
from .polynomials import ONE, Polynomial, Scalar, _poly, read_scalar


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


# Anything but whitespace, ASCII digits, punctuation and the three names;
# `\s` admits exactly the characters `str.isspace` does.
_BAD = re.compile(r"[^\s0-9(),;+\-*/'PVi]")
# Once _BAD has found nothing, every other non-space character is a token.
_TOKEN = re.compile(r"[0-9]+|\S")


def _position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of text[offset]; only a newline ends a line."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def tokenize(text: str) -> list[str]:
    """The token strings of text, then "" for end of input."""
    bad = _BAD.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}", *_position(text, bad.start()))
    tokens = _TOKEN.findall(text)
    tokens.append("")
    return tokens


def token_position(text: str, k: int) -> tuple[int, int]:
    """Line and column of token k, re-scanned; end of input sits just past the text."""
    starts = [match.start() for match in _TOKEN.finditer(text)] + [len(text)]
    return _position(text, starts[k])


# Deeper parenthesis nesting is refused with a ParseError rather than left
# to exhaust the interpreter's recursion limit.
MAX_NESTING = 100


# The tokens a factor can start with, by their first character.
_FACTOR_START = frozenset("0123456789PVi(")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> str:
        return self.tokens[self.pos]

    def next(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, k: int | None = None) -> ParseError:
        """A ParseError at token k (by default the next), positioned by a re-scan."""
        return ParseError(message, *token_position(self.text, self.pos if k is None else k))

    def expect(self, text: str) -> None:
        tok = self.next()
        if tok != text:
            raise self.error(f"expected {text!r}, found {tok or 'end of input'!r}", self.pos - 1)

    def integer(self) -> int:
        """The next token, a run of ASCII digits, as an int."""
        tok = self.next()
        try:
            return int(tok)
        except ValueError:  # more digits than the interpreter converts
            raise self.error(f"integer literal too long ({len(tok)} digits)", self.pos - 1) from None

    # expr := ['-'] term (('+'|'-') term)*
    def expr(self) -> Expr:
        terms: list[tuple[int, Expr]] = []
        sign = 1
        if self.peek() == "-":
            self.next()
            sign = -1
        terms.append((sign, self.term()))
        while self.peek() in ("+", "-"):
            op = self.next()
            terms.append((1 if op == "+" else -1, self.term()))
        if len(terms) == 1 and terms[0][0] > 0:
            return terms[0][1]
        return Sum(tuple(terms))

    # term := factor ('*'? factor)*
    def term(self) -> Expr:
        factors = [self.factor()]
        while True:
            tok = self.peek()
            if tok == "*":
                self.next()
                factors.append(self.factor())
            elif tok[:1] in _FACTOR_START:
                factors.append(self.factor())
            else:
                break
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors))

    # factor := atom ["'"]
    def factor(self) -> Expr:
        node = self.atom()
        if self.peek() == "'":
            self.next()
            node = Adj(node)
        return node

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.isdigit():
            return ScalarLit(self.scalar())
        if tok == "i":
            self.next()
            return ScalarLit(Scalar.ratio(0, 1, 1))
        if tok == "P":
            self.next()
            self.expect("(")
            t = self.tuple_literal()
            self.expect(")")
            return Proj(t)
        if tok == "V":
            self.next()
            self.expect("(")
            dom = self.tuple_literal()
            self.expect(";")
            ran = self.tuple_literal()
            self.expect(")")
            if len(dom) != len(ran):
                raise self.error(
                    f"tuple length mismatch in V: {len(dom)} vs {len(ran)}", self.pos - 1
                )
            return Iso(dom, ran)
        if tok == "(":
            if self.depth == MAX_NESTING:
                raise self.error(f"parentheses nested deeper than {MAX_NESTING} levels")
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
        raise self.error(f"expected a scalar, P(...), V(...;...) or parenthesized "
                         f"expression, found {tok or 'end of input'!r}")

    # scalar := int ['/' int] ['i']
    def scalar(self) -> Scalar:
        num = self.integer()
        den = 1
        if self.peek() == "/":
            self.next()
            if not self.peek().isdigit():
                raise self.error("expected a denominator")
            den = self.integer()
            if den == 0:
                raise self.error("zero denominator", self.pos - 1)
        if self.peek() == "i":
            self.next()
            return Scalar.ratio(0, num, den)
        return Scalar.ratio(num, 0, den)

    # tuple := '(' [int (',' int)*] ')'
    def tuple_literal(self) -> tuple[int, ...]:
        self.expect("(")
        entries: list[int] = []
        if self.peek() != ")":
            while True:
                tok = self.peek()
                if not tok.isdigit():
                    raise self.error(f"expected a label, found {tok or 'end of input'!r}")
                entries.append(self.integer())
                if self.peek() != ",":
                    break
                self.next()
        self.expect(")")
        return tuple(entries)


# -- the canonical reader ------------------------------------------------------

# One printed term: its sign (none or "-" first, " + " or " - " after), an
# optional coefficient literal and " * ", then a monomial's characters. The
# literal is bare, or parenthesized for a general complex number; `read_scalar`
# and `read_monomial` decide whether what was matched is canonical.
_TERM = re.compile(r"( [+-] |-?)(?:([0-9/]+i?|i|\([0-9/+\-i]+\)) \* )?([PV]\([0-9,;()]*\))")


def _read_canonical(text: str) -> Optional[Polynomial]:
    """The polynomial p with `poly_text(p) == text`, or None when text is not
    such a print (zero's "0" included). Checks, term by term, everything the
    printer decides: exact separators, each monomial as `read_monomial` reads
    it, terms strictly ascending in `sorted_terms()` order, a coefficient
    literal that `read_scalar` reads, bare for a positive real or imaginary
    and parenthesized for a general complex number, a coefficient of 1 left
    out, and the sign where `expr._negative` puts it."""
    terms: dict[V, Scalar] = {}
    pos, end, last = 0, len(text), None
    while pos < end or last is None:
        match = _TERM.match(text, pos)
        if match is None:
            return None
        sign, lit, mono = match.groups()
        if (last is None) != (len(sign) < 2):  # " + " and " - " only between terms
            return None
        m = read_monomial(mono)
        if m is None:
            return None
        key = (len(m.dom), m.dom, m.ran)
        if last is not None and key <= last:
            return None
        if lit is None:
            c = ONE
        else:
            paren = lit[0] == "("
            c = read_scalar(lit[1:-1] if paren else lit)
            if c is None or not c or c == ONE or paren != bool(c.a and c.b):
                return None
        if "-" in sign:
            c = -c
            if not _negative(c):
                return None
        terms[m] = c
        pos, last = match.end(), key
    return _poly(terms)


def parse_expr(text: str) -> Expr:
    """The expression tree of text; canonical polynomial text parses to its
    Polynomial."""
    poly = _read_canonical(text)
    if poly is not None:
        return poly
    parser = _Parser(text)
    node = parser.expr()
    tok = parser.peek()
    if tok:
        raise parser.error(f"trailing input starting at {tok!r}")
    return node


def read_polynomial(text: str) -> Optional[Polynomial]:
    """The polynomial p with `poly_text(p) == text`, zero's "0" included; None
    for any other text. The one reader that accepts a file's polynomial."""
    return Polynomial() if text == "0" else _read_canonical(text)


def reprint_polynomial(text: str) -> tuple[Polynomial, str]:
    """The polynomial text denotes and its canonical text: text itself when
    `read_polynomial` takes it; else its print, which a read-back refuses.
    Text that does not parse is a ParseError."""
    p = read_polynomial(text)
    if p is not None:
        return p, text
    p = eval_expr(parse_expr(text))
    return p, poly_text(p)


def parse_word(text: str) -> list[Monomial]:
    """Parse a product of monomial factors (with optional adjoints)."""
    return expr_to_word(parse_expr(text))
