"""Seeded input generation: plain data for the oracle, text for the program.

Nothing here imports prefixalg; every generated input is a structure the
oracle understands plus the text the program receives.
"""

from __future__ import annotations

import random
from fractions import Fraction

from oracle import canon, image, star_square

# Coefficient magnitudes: small, so that exact arithmetic stays the cost of
# the method, not of huge numbers in the inputs.
NUMS = (1, 1, 2, 3)
DENS = (1, 1, 2, 3, 4)


def tuple_text(t) -> str:
    return "(" + ",".join(str(v) for v in t) + ")"


def point_text(x) -> str:
    return f"{tuple_text(x[0])}/{x[1]}"


def rand_tuple(rng, labels: int, lo: int = 1, hi: int = 3) -> tuple:
    return tuple(rng.randrange(labels) for _ in range(rng.randint(lo, hi)))


def rand_coefficient(rng, general: bool = True):
    """A nonzero complex rational: real, imaginary or (when `general`) both."""
    kind = rng.random() * (1 if general else 0.8)
    mag = Fraction(rng.choice(NUMS), rng.choice(DENS))
    sign = rng.choice((1, -1))
    if kind < 0.6:
        return (sign * mag, Fraction(0))
    if kind < 0.8:
        return (Fraction(0), sign * mag)
    return (sign * mag, Fraction(rng.choice((1, -1)) * rng.choice(NUMS), rng.choice(DENS)))


def coefficient_text(c) -> tuple[int, str]:
    """(sign, magnitude text) for a coefficient written as a sum term."""
    re, im = c
    if im == 0:
        return (1 if re > 0 else -1), str(abs(re))
    if re == 0:
        return (1 if im > 0 else -1), str(abs(im)) + "i"
    op = "+" if im > 0 else "-"
    return 1, f"({str(re)} {op} {str(abs(im))}i)"


def monomial_text(m) -> str:
    dom, ran = m
    if dom == ran:
        return f"P({tuple_text(dom)})"
    return f"V({tuple_text(dom)};{tuple_text(ran)})"


def sum_text(terms) -> str:
    """Text of sum(c * word) where each word is a list of factor texts."""
    out = []
    for i, (c, factor_texts) in enumerate(terms):
        sign, mag = coefficient_text(c)
        body = " ".join([mag] + list(factor_texts))
        if i == 0:
            out.append(body if sign > 0 else f"-{body}")
        else:
            out.append(("+ " if sign > 0 else "- ") + body)
    return " ".join(out)


def rand_factor(rng, labels: int):
    """One factor of a word: (monomial as it acts, its text)."""
    a = rand_tuple(rng, labels)
    r = rng.random()
    if r < 0.35:
        return (a, a), f"P({tuple_text(a)})"
    b = tuple(rng.randrange(labels) for _ in a)
    if r < 0.7:
        return (a, b), f"V({tuple_text(a)};{tuple_text(b)})"
    return (b, a), f"V({tuple_text(a)};{tuple_text(b)})'"


def rand_expr(rng, labels: int, n_terms: int):
    """An expression sum(c * word): ([(c, [monomial])], text)."""
    terms, texts = [], []
    for _ in range(n_terms):
        factors = [rand_factor(rng, labels) for _ in range(rng.randint(1, 3))]
        c = rand_coefficient(rng)
        terms.append((c, [m for m, _ in factors]))
        texts.append((c, [t for _, t in factors]))
    return terms, sum_text(texts)


def rand_monomials(rng, labels: int, n_terms: int, lo: int = 1, hi: int = 3) -> list:
    """n_terms distinct monomials, about a third of them projections."""
    out: list = []
    while len(out) < n_terms:
        a = rand_tuple(rng, labels, lo, hi)
        m = (a, a if rng.random() < 0.3 else tuple(rng.randrange(labels) for _ in a))
        if m not in out:
            out.append(m)
    return out


def rand_poly(rng, labels: int, n_terms: int, lo: int = 1, hi: int = 3, general: bool = True):
    """A polynomial with n_terms distinct monomials: ({monomial: c}, text)."""
    poly = {m: rand_coefficient(rng, general) for m in rand_monomials(rng, labels, n_terms, lo, hi)}
    text = sum_text([(c, [monomial_text(m)]) for m, c in poly.items()])
    return poly, text


def rand_point(rng, labels: int, near=()):
    """A point, starting with `near` when given."""
    prefix = tuple(near) + tuple(rng.randrange(labels) for _ in range(rng.randint(0, 2)))
    return canon((prefix, rng.randrange(labels)))


def rand_state(rng, labels: int):
    """A diagonal state of 1 to 3 distinct points: ([(w, point)], text)."""
    count = rng.randint(1, 3)
    xs: list = []
    while len(xs) < count:
        x = canon((tuple(rng.randrange(labels) for _ in range(rng.randint(1, 2))), rng.randrange(labels)))
        if x not in xs:
            xs.append(x)
    weights = [Fraction(rng.randint(1, 3)) for _ in xs]
    points = [(w / sum(weights), x) for w, x in zip(weights, xs)]
    text = ";".join(f"{w}@{point_text(x)}" for w, x in points)
    return points, text



def witness_input(rng, labels: int, terms: int = 0, depth: int = 2, general: bool = True):
    """A polynomial q of `terms` monomials (2 or 3 when 0) at most `depth`
    long, and a point x where q*q has a positive diagonal value, which is
    what an ideal witness needs: (q, q text, x)."""
    while True:
        q, text = rand_poly(rng, labels, terms or rng.randint(2, 3), 1, depth, general)
        x = rand_point(rng, labels, near=rng.choice(list(q))[0])
        if image([(c, [m]) for m, c in q.items()], x):
            return q, text, x


def fragment_rows(q: dict) -> int:
    """Rows of the fragment index of [q, q'q] at q's longest tuple length:
    their tuples padded with a label neither uses, closed under every
    rewrite of either, in both directions."""
    polys = [q, star_square(q)]
    level = max(len(dom) for dom, _ in q)
    labels = {label for p in polys for m in p for t in m for label in t}
    pad = min(set(range(len(labels) + 1)) - labels)
    rewrites = [(a, b) for p in polys for m in p for a, b in (m, m[::-1])]
    closed = {t + (pad,) * (level - len(t)) for p in polys for m in p for t in m}
    frontier = list(closed)
    while frontier:
        t = frontier.pop()
        for src, dst in rewrites:
            if t[: len(src)] == src:
                img = dst + t[len(src):]
                if img not in closed:
                    closed.add(img)
                    frontier.append(img)
    return len(closed)


def fragment_shapes(rows: tuple, per_size: int, labels: int, shape_seed: int) -> list:
    """Monomial lists of 8 to 12 terms, `per_size` for each fragment size in
    `rows`, drawn from `shape_seed`."""
    rng = random.Random(shape_seed)
    shapes = []
    for size in rows:
        found = 0
        while found < per_size:
            shape = rand_monomials(rng, labels, 8 + (len(shapes) % 5))
            if fragment_rows({m: (1, 0) for m in shape}) == size:
                shapes.append(shape)
                found += 1
    return shapes


if __name__ == "__main__":
    # Regenerates bench/shapes.json, the fragment-psd monomial shapes:
    #     python3 bench/gen.py > bench/shapes.json
    import json

    shapes = fragment_shapes(rows=tuple(range(10, 30, 2)), per_size=8, labels=4, shape_seed=0)
    print(json.dumps([[list(map(list, m)) for m in shape] for shape in shapes]))
