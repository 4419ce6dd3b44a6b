"""Expression trees over projections, partial isometries, scalars, sums and
products, with exact evaluation to polynomials and a canonical printer.

The printer and the parser are inverse enough that re-parsing any printed
expression evaluates to the same canonical polynomial; certificates lean on
that round trip for independent re-verification.
"""

from __future__ import annotations

from typing import Union

from .cylinders import Frozen, Tup, format_tuple
from .monomials import V, Monomial, adjoint as monomial_adjoint, format_monomial
from .polynomials import ONE, Polynomial, Scalar, _poly, add_into


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


# A Polynomial is a literal leaf: the parser returns one for canonical text.
Expr = Union[ScalarLit, Proj, Iso, Adj, Product, Sum, Polynomial]


def eval_expr(e: Expr) -> Polynomial:
    if isinstance(e, Polynomial):
        return e
    if isinstance(e, ScalarLit):
        return _poly({V((), ()): e.value}) if e.value else Polynomial()
    if isinstance(e, Proj):
        return _poly({V(e.tup, e.tup): ONE})
    if isinstance(e, Iso):
        return _poly({V(e.dom, e.ran): ONE})
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
        # Every term adds into one dict, in the order the terms come.
        res: dict[V, Scalar] = {}
        for sign, term in e.terms:
            add_into(res, eval_expr(term).terms, sign < 0)
        return _poly(res)
    raise TypeError(f"not an expression node: {e!r}")


def print_expr(e: Expr) -> str:
    if isinstance(e, Polynomial):
        return poly_text(e)
    if isinstance(e, ScalarLit):
        return literal_text(e.value)
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
        return " * ".join(_operand_text(f) for f in e.factors)
    if isinstance(e, Sum):
        if not e.terms:
            return "0"
        parts = []
        for i, (sign, term) in enumerate(e.terms):
            text = _operand_text(term)
            if i == 0:
                parts.append(text if sign > 0 else f"-{text}")
            else:
                parts.append(f"+ {text}" if sign > 0 else f"- {text}")
        return " ".join(parts)
    raise TypeError(f"not an expression node: {e!r}")


def _operand_text(e: Expr) -> str:
    """e printed as a factor of a product or a term of a sum."""
    text = print_expr(e)
    if isinstance(e, Polynomial):
        return factor_text(e, text)
    return f"({text})" if isinstance(e, Sum) else text


def literal_text(s: Scalar) -> str:
    """A scalar as a printed factor. A bare literal must re-lex as a single
    scalar; anything signed or genuinely complex needs the parenthesized
    sum form."""
    text = s.to_text()
    if text.startswith("-") or ("+" in text) or ("-" in text[1:]):
        return f"({text})"
    return text


def _negative(c: Scalar) -> bool:
    """A real or purely imaginary coefficient below zero: its sign prints in
    front of its term. A general complex one keeps its sign in its literal."""
    return (c.a < 0 and not c.b) or (c.b < 0 and not c.a)


def poly_text(p: Polynomial) -> str:
    """The canonical textual form of a polynomial, its terms in
    `sorted_terms()` order. A real or purely imaginary coefficient prints
    as a sign and a magnitude, the magnitude left out when it is 1; a general
    complex one prints as a parenthesized literal after a plus sign."""
    if not p.terms:
        return "0"
    parts = []
    for m, c in p.sorted_terms():
        sign = "-" if _negative(c) else "+"
        mag = -c if sign == "-" else c
        mono = format_monomial(m)
        parts += (sign, mono if mag == ONE else f"{literal_text(mag)} * {mono}")
    text = " ".join(parts)[2:]
    return text if parts[0] == "+" else "-" + text


def factor_text(p: Polynomial, text: str, adjoint: bool = False) -> str:
    """`text`, which `poly_text` printed for p, as a factor of a printed
    product, or as an adjoint factor. Only a lone term with coefficient 1
    stays bare as an adjoint; zero and a lone term with a positive sign stay
    bare as a factor. Everything else is parenthesized."""
    lone = next(iter(p.terms.values())) if len(p.terms) == 1 else None
    if adjoint:
        return text + "'" if lone == ONE else f"({text})'"
    bare = not p.terms or (lone is not None and not _negative(lone))
    return text if bare else f"({text})"


def expr_to_word(e: Expr) -> list[Monomial]:
    """Flatten an expression into a plain product of monomial factors.

    Adjoints distribute (reversing order); sums and scalars are rejected,
    since a word is a product of projections and partial isometries only.
    A polynomial leaf is a factor only as one monomial with coefficient 1.
    """
    if isinstance(e, Polynomial) and len(e.terms) == 1:
        ((m, c),) = e.terms.items()
        if c == ONE:
            return [m]
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
