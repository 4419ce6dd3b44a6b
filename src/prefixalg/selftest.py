"""Seeded property suites behind the `selftest` CLI subcommand.

Each suite draws its own cases from a deterministic generator, so a fixed
seed yields byte-identical output; failures carry enough detail to replay.
"""

from __future__ import annotations

import random
from typing import Callable

from .cylinders import SequenceDesc, Tup, Value
from .monomials import (
    V,
    ZERO,
    Monomial,
    act,
    act_word,
    adjoint,
    multiply,
    normal_form,
)
from .polynomials import DiagonalState, Polynomial, Scalar
from .registry import Registry


# -- deterministic generators ------------------------------------------------


def rand_tuple(rng: random.Random, max_len: int = 5, max_label: int = 8, min_len: int = 0) -> Tup:
    return tuple(rng.randint(0, max_label) for _ in range(rng.randint(min_len, max_len)))


def rand_monomial(rng: random.Random, max_len: int = 5, max_label: int = 8) -> V:
    n = rng.randint(0, max_len)
    dom = tuple(rng.randint(0, max_label) for _ in range(n))
    if rng.random() < 0.3:
        ran = dom
    else:
        ran = tuple(rng.randint(0, max_label) for _ in range(n))
    return V(dom, ran)


def rand_word(rng: random.Random, max_word: int = 8, max_len: int = 5, max_label: int = 8) -> list[Monomial]:
    length = rng.randint(1, max_word)
    word: list[Monomial] = []
    for _ in range(length):
        # Bias half the factors to aim their range at the previous factor's
        # domain, so that products survive more often than pure chance allows.
        if word and rng.random() < 0.5:
            target = word[-1].dom
            if rng.random() < 0.5:
                ran = target[: rng.randint(0, len(target))]
            else:
                ran = target + rand_tuple(rng, 2, max_label)
            ran = ran[:max_len]
            dom = tuple(rng.randint(0, max_label) for _ in range(len(ran)))
            word.append(V(dom, ran))
        else:
            word.append(rand_monomial(rng, max_len, max_label))
    return word


def rand_fresh_point(rng: random.Random, word: list[Monomial], max_len: int = 5) -> SequenceDesc:
    labels: set[int] = set()
    for m in word:
        if isinstance(m, V):
            labels.update(m.dom)
            labels.update(m.ran)
    tail = max(labels, default=0) + 1 + rng.randint(0, 2)
    if word and rng.random() < 0.6:
        pick = rng.choice([m for m in word if isinstance(m, V)])
        base = pick.dom
    else:
        base = ()
    extra = tuple(rng.randint(0, 8) for _ in range(rng.randint(0, max_len)))
    return SequenceDesc(base + extra, tail)


def rand_scalar(rng: random.Random) -> Scalar:
    def part() -> tuple[int, int]:
        return rng.randint(-3, 3), rng.randint(1, 4)

    a, d = part()
    b, e = part() if rng.random() < 0.4 else (0, 1)
    if not a and not b:
        a = d = 1
    return Scalar.ratio(a * e, b * d, d * e)


def rand_polynomial(
    rng: random.Random, max_terms: int = 6, max_len: int = 4, max_label: int = 8
) -> Polynomial:
    p = Polynomial.zero()
    for _ in range(rng.randint(1, max_terms)):
        p = p + Polynomial.of(rand_monomial(rng, max_len, max_label), rand_scalar(rng))
    return p


def rand_state(rng: random.Random, max_points: int = 4, max_len: int = 4, max_label: int = 8) -> DiagonalState:
    count = rng.randint(1, max_points)
    points: dict[SequenceDesc, int] = {}
    while len(points) < count:
        x = SequenceDesc(rand_tuple(rng, max_len, max_label), rng.randint(0, max_label))
        points.setdefault(x, rng.randint(1, 5))
    total = sum(points.values())
    return DiagonalState([(x, Scalar.ratio(w, 0, total)) for x, w in points.items()])


# -- suites -------------------------------------------------------------------


def check_closure_and_action(rng: random.Random, cases: int) -> tuple[bool, str]:
    """Products collapse to a single rewrite or zero, and the collapsed form
    acts on points exactly as the factors do one at a time."""
    for k in range(cases):
        word = rand_word(rng)
        nf = normal_form(word)
        if nf is not ZERO:
            if not isinstance(nf, V) or len(nf.dom) != len(nf.ran):
                return False, f"case {k}: normal form {nf!r} is not a balanced rewrite"
        for _ in range(5):
            x = rand_fresh_point(rng, word)
            stepwise = act_word(word, x)
            direct = act(nf, x) if nf is not ZERO else None
            if stepwise != direct:
                return False, f"case {k}: stepwise {stepwise!r} != direct {direct!r} at {x!r}"
    return True, f"{cases} words"


def check_algebra_laws(rng: random.Random, cases: int) -> tuple[bool, str]:
    for k in range(cases):
        m1 = rand_monomial(rng)
        m2 = rand_monomial(rng)
        m3 = rand_monomial(rng)
        if multiply(multiply(m1, m2), m3) != multiply(m1, multiply(m2, m3)):
            return False, f"case {k}: associativity fails for {m1!r}, {m2!r}, {m3!r}"
        if adjoint(multiply(m1, m2)) != multiply(adjoint(m2), adjoint(m1)):
            return False, f"case {k}: involution fails for {m1!r}, {m2!r}"
        if multiply(multiply(m1, adjoint(m1)), m1) != m1:
            return False, f"case {k}: partial isometry law fails for {m1!r}"
    return True, f"{cases} triples"


def check_compression(rng: random.Random, cases: int) -> tuple[bool, str]:
    """Diagonal constancy on long cylinders and exact scalar compression."""
    for k in range(cases):
        p = rand_polynomial(rng)
        n = p.max_tuple_len() + 1
        head = tuple(rng.randint(0, 8) for _ in range(n - 1))
        blocked = {t[n - 1] for t in p.tuples() if len(t) >= n}
        fresh = 0
        while fresh in blocked:
            fresh += 1
        alpha = head + (fresh,)
        constant = p.g_on_cylinder(alpha)
        tail = max(p.labels() | set(alpha), default=0) + 1
        for _ in range(3):
            x = SequenceDesc(alpha + rand_tuple(rng, 3), tail)
            if p.g_eval(x) != constant:
                return False, f"case {k}: diagonal not constant on the cylinder"
        if p.compress(alpha) != Polynomial.projection(alpha).scale(constant):
            return False, f"case {k}: compression is not scalar * projection"
        y = SequenceDesc(alpha + rand_tuple(rng, 2), tail)
        z = SequenceDesc(alpha + rand_tuple(rng, 2, max_label=8, min_len=1), tail + 1)
        if y != z and p.matrix_element(z, y):
            return False, f"case {k}: off-diagonal element inside the cylinder"
    return True, f"{cases} polynomials"


def check_registry(rng: random.Random, cases: int) -> tuple[bool, str]:
    reg = Registry()
    for k in range(cases):
        if rng.random() < 0.25:
            reg.register_protection(rand_state(rng), rng.randint(1, 6))
            continue
        rec = reg.link(rand_tuple(rng, 4), rand_tuple(rng, 4))
        v = rec.monomial()
        conj = normal_form([v, V(rec.dom, rec.dom), adjoint(v)])
        if conj != V(rec.ran, rec.ran):
            return False, f"case {k}: conjugation identity fails at stage {rec.stage}"
    problems = reg.audit()
    if problems:
        return False, f"audit fails: {problems[0]}"
    return True, f"{cases} requests"


class SuiteResult(Value):
    __slots__ = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str) -> None:
        self.name = name
        self.ok = ok
        self.detail = detail


SUITES: list[tuple[str, Callable[[random.Random, int], tuple[bool, str]]]] = [
    ("closure-and-action", check_closure_and_action),
    ("algebra-laws", check_algebra_laws),
    ("compression", check_compression),
    ("registry-invariants", check_registry),
]


def run_selftest(seed: int, cases: int) -> list[SuiteResult]:
    results = []
    for name, suite in SUITES:
        ok, detail = suite(random.Random(f"{seed}:{name}"), cases)
        results.append(SuiteResult(name=name, ok=ok, detail=detail))
    return results
