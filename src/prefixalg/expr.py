"""Expression trees over projections, partial isometries, scalars, sums and
products, with exact evaluation to polynomials and a canonical printer.

The printer and the parser are inverse enough that re-parsing any printed
expression evaluates to the same canonical polynomial; certificates lean on
that round trip for independent re-verification.
"""

from __future__ import annotations

from typing import Union

from .cylinders import Frozen, Tup, format_tuple
from .monomials import V, Monomial, adjoint as monomial_adjoint
from .polynomials import ONE, Polynomial, Scalar


class ScalarLit(Frozen):
    __slots__ = ("value",)

    def __init__(self, value: Scalar) -> None:
        object.__setattr__(self, "value", value)


class Proj(Frozen):
    __slots__ = ("tup",)

    def __init__(self, tup: Tup) -> None:
        object.__setattr__(self, "tup", tup)


class Iso(Frozen):
    __slots__ = ("dom", "ran")

    def __init__(self, dom: Tup, ran: Tup) -> None:
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "ran", ran)


class Adj(Frozen):
    __slots__ = ("inner",)

    def __init__(self, inner: "Expr") -> None:
        object.__setattr__(self, "inner", inner)


class Product(Frozen):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple["Expr", ...]) -> None:
        object.__setattr__(self, "factors", factors)


class Sum(Frozen):
    """Signed sum; each term carries +1 or -1."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[int, "Expr"], ...]) -> None:
        object.__setattr__(self, "terms", terms)


Expr = Union[ScalarLit, Proj, Iso, Adj, Product, Sum]


def eval_expr(e: Expr) -> Polynomial:
    if isinstance(e, ScalarLit):
        return Polynomial.unit().scale(e.value)
    if isinstance(e, Proj):
        return Polynomial.projection(e.tup)
    if isinstance(e, Iso):
        return Polynomial.isometry(e.dom, e.ran)
    if isinstance(e, Adj):
        return eval_expr(e.inner).adjoint()
    if isinstance(e, Product):
        # Scalar factors commute with everything: fold them into one
        # coefficient and scale by it once.
        coeff, out = ONE, None
        for f in e.factors:
            if isinstance(f, ScalarLit):
                coeff = coeff * f.value
            else:
                p = eval_expr(f)
                out = p if out is None else out * p
        if out is None:
            out = Polynomial.unit()
        return out if coeff is ONE else out.scale(coeff)
    if isinstance(e, Sum):
        out = Polynomial.zero()
        for sign, term in e.terms:
            p = eval_expr(term)
            out = out + (p if sign > 0 else -p)
        return out
    raise TypeError(f"not an expression node: {e!r}")


def print_expr(e: Expr) -> str:
    if isinstance(e, ScalarLit):
        text = e.value.to_text()
        # A bare literal must re-lex as a single scalar; anything signed or
        # genuinely complex needs the parenthesized sum form.
        if text.startswith("-") or ("+" in text) or ("-" in text[1:]):
            return f"({text})"
        return text
    if isinstance(e, Proj):
        return f"P({format_tuple(e.tup)})"
    if isinstance(e, Iso):
        return f"V({format_tuple(e.dom)};{format_tuple(e.ran)})"
    if isinstance(e, Adj):
        inner = print_expr(e.inner)
        if isinstance(e.inner, (Proj, Iso)):
            return inner + "'"
        return f"({inner})'"
    if isinstance(e, Product):
        parts = []
        for f in e.factors:
            text = print_expr(f)
            if isinstance(f, Sum):
                text = f"({text})"
            parts.append(text)
        return " * ".join(parts)
    if isinstance(e, Sum):
        if not e.terms:
            return "0"
        parts = []
        for i, (sign, term) in enumerate(e.terms):
            text = print_expr(term)
            if isinstance(term, Sum):
                text = f"({text})"
            if i == 0:
                parts.append(text if sign > 0 else f"-{text}")
            else:
                parts.append(f"+ {text}" if sign > 0 else f"- {text}")
        return " ".join(parts)
    raise TypeError(f"not an expression node: {e!r}")


def monomial_node(m: V) -> Expr:
    if m.dom == m.ran:
        return Proj(m.dom)
    return Iso(m.dom, m.ran)


def from_polynomial(p: Polynomial) -> Expr:
    """A canonical expression whose evaluation is exactly p.

    Real coefficients become signed rational factors, purely imaginary ones
    keep the sign on the imaginary part, and general complex coefficients
    ride along as parenthesized literals.
    """
    if not p:
        return ScalarLit(Scalar(0))
    terms: list[tuple[int, Expr]] = []
    for m, c in p.sorted_terms():
        node = monomial_node(m)
        if c.a and c.b:
            terms.append((1, Product((ScalarLit(c), node))))
            continue
        # Real or purely imaginary: the sign moves out of the literal.
        sign = 1 if c.a > 0 or c.b > 0 else -1
        mag = c if sign > 0 else -c
        if mag == ONE:
            terms.append((sign, node))
        else:
            terms.append((sign, Product((ScalarLit(mag), node))))
    if len(terms) == 1 and terms[0][0] > 0:
        return terms[0][1]
    return Sum(tuple(terms))


def poly_text(p: Polynomial) -> str:
    """The canonical textual form of a polynomial."""
    return print_expr(from_polynomial(p))


def expr_to_word(e: Expr) -> list[Monomial]:
    """Flatten an expression into a plain product of monomial factors.

    Adjoints distribute (reversing order); sums and scalars are rejected,
    since a word is a product of projections and partial isometries only.
    """
    if isinstance(e, Proj):
        return [V(e.tup, e.tup)]
    if isinstance(e, Iso):
        return [V(e.dom, e.ran)]
    if isinstance(e, Adj):
        return [monomial_adjoint(m) for m in reversed(expr_to_word(e.inner))]
    if isinstance(e, Product):
        out: list[Monomial] = []
        for f in e.factors:
            out.extend(expr_to_word(f))
        return out
    if isinstance(e, Sum) and len(e.terms) == 1 and e.terms[0][0] > 0:
        return expr_to_word(e.terms[0][1])
    raise ValueError("a word must be a product of P(...) and V(...;...) factors")
