"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact (rational/complex-rational equality); the only numeric
tolerance anywhere would be in a floating-point eigenvalue fallback for the
semidefiniteness check, and the exact factorization path is used instead.
Each criterion also enforces its wall-clock budget.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import record_criterion

from prefixalg.cylinders import SequenceDesc, extends
from prefixalg.expr import eval_expr
from prefixalg.parser import parse_expr
from prefixalg.monomials import (
    V,
    ZERO,
    act,
    act_word,
    adjoint,
    multiply,
    normal_form,
    projection,
)
from prefixalg.polynomials import (
    DiagonalState,
    Polynomial,
    Scalar,
    fragment_index,
)
from prefixalg.registry import GeneratorRecord, Registry, audit_records
from prefixalg.witnesses import (
    ZeroReport,
    check_state_vanishes,
    ideal_projection_witness,
    parse_certificate_text,
    primeness_witness,
    vanishing_witness,
    verify_certificate_text,
)
from prefixalg.cli import main as cli_main
from prefixalg.session import Session

P = Polynomial.projection


@contextmanager
def criterion(num: int, label: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        record_criterion(f"FAIL criterion {num}: {label}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget:
        record_criterion(f"FAIL criterion {num}: {label} (took {elapsed:.1f}s, budget {budget:.0f}s)")
        raise AssertionError(f"criterion {num} exceeded its {budget:.0f}s budget")
    record_criterion(f"PASS criterion {num}: {label} ({elapsed:.1f}s)")


# -- shared generators ---------------------------------------------------------

MAX_LABEL = 8
MAX_TUPLE = 5
MAX_WORD = 8


def rand_tuple(rng, max_len=MAX_TUPLE, min_len=0):
    return tuple(rng.randint(0, MAX_LABEL) for _ in range(rng.randint(min_len, max_len)))


def rand_monomial(rng, max_len=MAX_TUPLE):
    n = rng.randint(0, max_len)
    dom = tuple(rng.randint(0, MAX_LABEL) for _ in range(n))
    if rng.random() < 0.3:
        return V(dom, dom)
    return V(dom, tuple(rng.randint(0, MAX_LABEL) for _ in range(n)))


def rand_word(rng):
    word = []
    for _ in range(rng.randint(1, MAX_WORD)):
        if word and rng.random() < 0.5:
            target = word[-1].dom
            if rng.random() < 0.5:
                ran = target[: rng.randint(0, len(target))]
            else:
                ran = (target + rand_tuple(rng, 2))[:MAX_TUPLE]
            word.append(V(tuple(rng.randint(0, MAX_LABEL) for _ in range(len(ran))), ran))
        else:
            word.append(rand_monomial(rng))
    return word


def fresh_points(rng, word, count=5):
    used = set()
    for m in word:
        used.update(m.dom)
        used.update(m.ran)
    base_tail = max(used, default=0) + 1
    points = []
    for _ in range(count):
        if rng.random() < 0.6:
            pick = rng.choice(word)
            prefix = pick.dom + rand_tuple(rng, 2)
        else:
            prefix = rand_tuple(rng)
        points.append(SequenceDesc(prefix, base_tail + rng.randint(0, 2)))
    return points


def rand_scalar(rng):
    re = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    im = Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.4 else Fraction(0)
    if re == 0 and im == 0:
        re = Fraction(1)
    return Scalar(re, im)


def rand_polynomial(rng, max_terms=6, max_len=4):
    p = Polynomial.zero()
    for _ in range(rng.randint(1, max_terms)):
        p = p + Polynomial.of(rand_monomial(rng, max_len), rand_scalar(rng))
    return p


def rand_state(rng, max_points=4):
    points = {}
    for _ in range(rng.randint(1, max_points)):
        points.setdefault(
            SequenceDesc(rand_tuple(rng, 3), rng.randint(0, MAX_LABEL)), rng.randint(1, 5)
        )
    total = sum(points.values())
    return DiagonalState([(x, Fraction(w, total)) for x, w in points.items()])


def _sample_words(seed, count):
    rng = random.Random(seed)
    return [rand_word(rng) for _ in range(count)], rng


# -- criteria -------------------------------------------------------------------


def test_criterion_1_closure_and_oracle():
    with criterion(1, "semigroup closure and point-action oracle over 10000 words", 10.0):
        words, rng = _sample_words("criterion-1", 10_000)
        for word in words:
            nf = normal_form(word)
            if nf is not ZERO:
                assert isinstance(nf, V) and len(nf.dom) == len(nf.ran)
            for x in fresh_points(rng, word):
                stepwise = act_word(word, x)
                direct = act(nf, x) if nf is not ZERO else None
                assert stepwise == direct


def test_criterion_2_algebra_laws():
    with criterion(2, "associativity, involution and isometry law over the same sample", 10.0):
        words, _ = _sample_words("criterion-1", 10_000)
        pool = [m for word in words for m in word]
        for k in range(0, len(pool) - 2):
            m1, m2, m3 = pool[k], pool[k + 1], pool[k + 2]
            assert multiply(multiply(m1, m2), m3) == multiply(m1, multiply(m2, m3))
            assert adjoint(multiply(m1, m2)) == multiply(adjoint(m2), adjoint(m1))
            assert multiply(multiply(m1, adjoint(m1)), m1) == m1


def test_criterion_3_constancy_and_compression():
    with criterion(3, "diagonal constancy and fresh compression over 1000 polynomials", 30.0):
        rng = random.Random("criterion-3")
        for _ in range(1_000):
            p = rand_polynomial(rng)
            n = p.max_tuple_len() + 1
            head = tuple(rng.randint(0, MAX_LABEL) for _ in range(n - 1))
            blocked = {t[n - 1] for t in p.tuples() if len(t) >= n}
            fresh = 0
            while fresh in blocked:
                fresh += 1
            alpha = head + (fresh,)
            constant = p.g_on_cylinder(alpha)
            tail = max(p.labels() | set(alpha) | {0}) + 1
            for _ in range(3):
                x = SequenceDesc(alpha + rand_tuple(rng, 2), tail)
                assert p.g_eval(x) == constant
            compressed = p.compress(alpha)
            assert compressed == P(alpha).scale(constant)
            # Zero off-diagonal elements in a level-n fragment of the
            # compressed element, on an index joining p's tuples with alpha.
            index = fragment_index([p, P(alpha)], n)
            matrix = compressed.fragment_matrix(index=index)
            for i, z in enumerate(index.tuples):
                for j, y in enumerate(index.tuples):
                    if i != j:
                        assert not matrix.rows[i][j]
                    elif z == alpha:
                        assert matrix.rows[i][j] == constant
            # Distinct points inside the cylinder are never connected.
            y = SequenceDesc(alpha + rand_tuple(rng, 2), tail)
            z = SequenceDesc(alpha + rand_tuple(rng, 2), tail + 1)
            assert p.matrix_element(z, y) == Scalar(Fraction(0))


def test_criterion_4_registry_invariants():
    with criterion(4, "audit, conjugation and domination over 1000 registry calls", 10.0):
        rng = random.Random("criterion-4")
        reg = Registry()
        for _ in range(1_000):
            if rng.random() < 0.3:
                reg.register_protection(rand_state(rng), rng.randint(1, 6))
            else:
                rec = reg.link(rand_tuple(rng, 4), rand_tuple(rng, 4))
                v = rec.monomial()
                assert normal_form([v, projection(rec.dom), adjoint(v)]) == projection(rec.ran)
                assert extends(rec.dom, rec.requested[0]) and rec.dom != rec.requested[0]
                assert extends(rec.ran, rec.requested[1]) and rec.ran != rec.requested[1]
        assert audit_records(reg.records) == []


def test_criterion_5_vanishing_end_to_end():
    with criterion(5, "vanishing traces and exact state annihilation for 20 states", 60.0):
        rng = random.Random("criterion-5")
        for scene in range(20):
            reg = Registry()
            for _ in range(rng.randint(0, 4)):
                reg.link(rand_tuple(rng, 3), rand_tuple(rng, 3))
            rho = rand_state(rng)
            prot = reg.register_protection(rho, horizon=10)
            pivot = reg.vanishing_tuple(prot)
            for _ in range(50):
                reg.link(rand_tuple(rng, 3), rand_tuple(rng, 3))
            gens = [rec.monomial() for rec in reg.records if isinstance(rec, GeneratorRecord)]
            late_gens = [
                rec.monomial()
                for rec in reg.records[prot.stage + 1:]
                if isinstance(rec, GeneratorRecord)
            ]
            traced = []
            for _ in range(1_000):
                word = []
                for _ in range(rng.randint(0, 4)):
                    roll = rng.random()
                    if roll < 0.25:
                        word.append(projection(rand_tuple(rng, 3)))
                    elif roll < 0.55:
                        g = rng.choice(gens)
                        word.append(g if rng.random() < 0.5 else adjoint(g))
                    else:
                        g = rng.choice(late_gens)
                        word.append(g if rng.random() < 0.5 else adjoint(g))
                word.insert(rng.randint(0, len(word)), projection(pivot))
                result = vanishing_witness(reg, prot, pivot, word)
                nf = normal_form(word)
                if isinstance(result, ZeroReport):
                    assert nf is ZERO
                    continue
                assert nf is not ZERO
                carrier, n = result.carrier, result.depth
                # Direct scans of the three claim properties.
                assert multiply(projection(carrier), nf) == nf
                for rec in reg.records[: prot.stage + 1]:
                    if isinstance(rec, GeneratorRecord) and n <= rec.n:
                        assert rec.dom[n - 1] != carrier[-1]
                        assert rec.ran[n - 1] != carrier[-1]
                for c in prot.tuples:
                    if n <= len(c):
                        assert c[n - 1] != carrier[-1]
                assert check_state_vanishes(rho, reg, prot, pivot, word) == Scalar(
                    Fraction(0)
                )
                assert rho.evaluate(Polynomial.of(nf)) == Scalar(Fraction(0))
                traced.append(nf)
            assert traced, f"scene {scene} produced no nonzero words"
            combo = Polynomial.zero()
            for nf in traced[:40]:
                combo = combo + Polynomial.of(nf, rand_scalar(rng))
            assert rho.evaluate(combo) == Scalar(Fraction(0))


def test_criterion_6_primeness_pipeline():
    with criterion(6, "primeness certificates re-verified independently, 100 pairs", 30.0):
        rng = random.Random("criterion-6")
        reg = Registry()
        done = 0
        while done < 100:
            witnesses = []
            for _ in range(2):
                for _attempt in range(50):
                    q = rand_polynomial(rng, max_terms=3, max_len=2)
                    candidates = [SequenceDesc(m.dom + rand_tuple(rng, 1), 9) for m in q.terms]
                    candidates.append(SequenceDesc(rand_tuple(rng, 2), 9))
                    source = q.adjoint() * q
                    x = next((c for c in candidates if source.g_eval(c)), None)
                    if x is not None:
                        witnesses.append(ideal_projection_witness(reg, q, x))
                        break
                else:
                    raise AssertionError("could not find a positivity point")
            cert = primeness_witness(reg, witnesses[0], witnesses[1])
            rec = cert.generator
            assert normal_form(
                [rec.monomial(), projection(rec.dom), adjoint(rec.monomial())]
            ) == projection(rec.ran)
            report = verify_certificate_text(cert.to_text(), reg)
            assert report, report.problems
            done += 1
        assert audit_records(reg.records) == []


def test_primeness_chains_evaluate_to_their_claims():
    """The verifier evaluates no expression; here evaluation is the oracle.
    For random witness pairs, drawn as in criterion 6, the derived chains,
    read back from the printed certificate, normalize to what they stand
    for, and the text reads back."""
    rng = random.Random("primeness-chains")
    reg = Registry()
    for _ in range(50):
        witnesses = []
        while len(witnesses) < 2:
            q = rand_polynomial(rng, max_terms=3, max_len=2)
            candidates = [SequenceDesc(m.dom + rand_tuple(rng, 1), 9) for m in q.terms]
            candidates.append(SequenceDesc(rand_tuple(rng, 2), 9))
            source = q.adjoint() * q
            x = next((c for c in candidates if source.g_eval(c)), None)
            if x is not None:
                witnesses.append(ideal_projection_witness(reg, q, x))
        cert = primeness_witness(reg, *witnesses)
        text = cert.to_text()
        lines = text.splitlines()
        chains = [line.split(" ", 1)[1] for line in lines if line.startswith(("certificate ", "product "))]
        assert [eval_expr(parse_expr(chain)) for chain in chains] == [
            Polynomial.projection(witnesses[0].alpha),
            Polynomial.projection(witnesses[1].alpha),
            cert.claim(),
        ]
        again = parse_certificate_text(text)
        assert again.to_text() == text and again == cert


def test_criterion_7_fragment_psd():
    with criterion(7, "exact semidefiniteness of 200 star-square fragments", 30.0):
        rng = random.Random("criterion-7")
        for _ in range(200):
            q = rand_polynomial(rng, max_terms=4, max_len=3)
            source = q.adjoint() * q
            level = max(source.max_tuple_len(), 1)
            matrix = source.fragment_matrix(fragment_index([source], level))
            assert matrix.is_hermitian()
            assert matrix.is_positive_semidefinite()


def test_criterion_8_session_determinism(tmp_path):
    with criterion(8, "byte-identical session files from replayed transcripts", 10.0):
        transcript = [
            ["link", "(1)", "(2,7)"],
            ["register-state", "1/2@(5)/0;1/2@(5,1)/2", "4"],
            ["link", "(0)", "(6)"],
            ["let", "q", "1/2 P((1)) + 1/2 P((2))"],
            ["vanishing-tuple", "1"],
            ["prime-witness", "P((1))", "(1)/0", "V((1);(2))", "(1)/0", "--bind", "w"],
            ["audit"],
        ]
        outputs = []
        for replay in ("a", "b"):
            session_path = str(tmp_path / f"session-{replay}.txt")
            lines = []
            for command in transcript:
                import io

                buf = io.StringIO()
                code = cli_main(["--session", session_path, *command], out=buf)
                assert code == 0, (command, buf.getvalue())
                lines.append(buf.getvalue())
            outputs.append((open(session_path, "rb").read(), "".join(lines)))
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]
        # A reloaded session re-serializes to the same bytes.
        text = Session.load(tmp_path / "session-a.txt").to_text()
        assert text.encode() == outputs[0][0]
