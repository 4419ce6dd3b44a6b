import random
from fractions import Fraction

import pytest

from prefixalg.cylinders import SequenceDesc, extends, properly_extends
from prefixalg.expr import eval_expr, poly_text
from prefixalg.monomials import V, ZERO, adjoint, multiply, normal_form, projection
from prefixalg.polynomials import DiagonalState, Polynomial, Scalar
from prefixalg.registry import GeneratorRecord, Registry, audit_records
from prefixalg.witnesses import (
    CASE_BASE,
    CASE_EARLY_ORTHOGONAL,
    CASE_LATE_DOMINATES,
    CASE_LEFT_ANCHOR,
    CASE_PREFIX_REWRITE,
    CASE_PROJECTION,
    HorizonError,
    WitnessError,
    ZeroReport,
    check_state_vanishes,
    ideal_projection_witness,
    parse_certificate_text,
    parse_trace_text,
    primeness_witness,
    vanishing_witness,
    verify_certificate,
    verify_certificate_text,
    verify_trace,
    verify_trace_text,
)

P = Polynomial.projection
Iso = Polynomial.isometry


def one_point_state(prefix, tail=0):
    return DiagonalState([(SequenceDesc(prefix, tail), Fraction(1))])


# -- ideal projection witnesses ------------------------------------------------


def test_witness_from_projection():
    reg = Registry()
    w = ideal_projection_witness(reg, P((1,)), SequenceDesc((1,), 0))
    assert w.alpha == (1, 0)
    assert w.scalar == Scalar(Fraction(1))
    assert w.source == P((1,))
    assert eval_expr(w.certificate) == P((1, 0))


def test_witness_from_isometry():
    reg = Registry()
    w = ideal_projection_witness(reg, Iso((1,), (2,)), SequenceDesc((1,), 0))
    assert w.source == P((1,))
    assert w.alpha == (1, 0)
    assert w.scalar == Scalar(Fraction(1))


def test_witness_rejects_zero_point():
    reg = Registry()
    with pytest.raises(WitnessError):
        ideal_projection_witness(reg, P((1,)), SequenceDesc((3,), 0))


def test_witness_respects_protections():
    reg = Registry()
    # Protect a tuple whose coordinate 2 is 0, so the fresh label skips 0.
    reg.register_protection(one_point_state((1, 0)), horizon=2)
    w = ideal_projection_witness(reg, P((1,)), SequenceDesc((1,), 0))
    assert w.alpha == (1, 1)


def test_witness_scalar_matches_point_value():
    rng = random.Random(2)
    reg = Registry()
    for _ in range(30):
        q = Polynomial.zero()
        for _ in range(rng.randint(1, 3)):
            n = rng.randint(0, 2)
            q = q + Polynomial.of(
                V(
                    tuple(rng.randint(0, 3) for _ in range(n)),
                    tuple(rng.randint(0, 3) for _ in range(n)),
                ),
                Scalar(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-1, 1))),
            )
        source = q.adjoint() * q
        x = SequenceDesc(tuple(rng.randint(0, 3) for _ in range(3)), 5)
        if not source.g_eval(x):
            continue
        w = ideal_projection_witness(reg, q, x)
        assert w.scalar == source.g_eval(x)
        assert w.source.compress(w.alpha) == P(w.alpha).scale(w.scalar)
        assert eval_expr(w.certificate) == P(w.alpha)


# -- primeness certificates ------------------------------------------------------


def test_primeness_certificate_end_to_end():
    reg = Registry()
    w1 = ideal_projection_witness(reg, P((1,)), SequenceDesc((1,), 0))
    w2 = ideal_projection_witness(reg, P((2,)), SequenceDesc((2,), 0))
    cert = primeness_witness(reg, w1, w2)
    rec = cert.generator
    assert properly_extends(rec.dom, w1.alpha)
    assert properly_extends(rec.ran, w2.alpha)
    assert extends(rec.ran, (2,))
    assert eval_expr(cert.product_expr) == P(rec.ran)
    assert audit_records(reg.records) == []
    assert verify_certificate(cert, reg)


def test_primeness_with_identical_witnesses():
    reg = Registry()
    w = ideal_projection_witness(reg, P((1,)), SequenceDesc((1,), 0))
    cert = primeness_witness(reg, w, w)
    assert eval_expr(cert.product_expr) == P(cert.generator.ran)
    assert verify_certificate(cert, reg)


def test_certificate_text_round_trip_and_tampering():
    reg = Registry()
    w1 = ideal_projection_witness(reg, Iso((1,), (2,)) + P((1, 3)), SequenceDesc((1,), 0))
    w2 = ideal_projection_witness(reg, P((2,)).scale(Scalar(Fraction(2))), SequenceDesc((2,), 0))
    cert = primeness_witness(reg, w1, w2)
    text = cert.to_text()
    again = parse_certificate_text(text)
    assert again.to_text() == text
    assert verify_certificate_text(text, reg)

    tampered = text.replace("claim P", "claim 2 P")
    assert not verify_certificate_text(tampered, reg)
    tampered = text.replace(" fresh=", " fresh=9", 1)
    assert verify_certificate_text(tampered, reg).problems == [
        "malformed certificate: both tuples must end in the fresh label"
    ]
    tampered = text.replace("scalar 4", "scalar 3") if "scalar 4" in text else text.replace(
        "scalar 1", "scalar 3", 1
    )
    assert not verify_certificate_text(tampered, reg)


def test_certificate_against_wrong_registry():
    reg = Registry()
    w1 = ideal_projection_witness(reg, P((1,)), SequenceDesc((1,), 0))
    w2 = ideal_projection_witness(reg, P((2,)), SequenceDesc((2,), 0))
    cert = primeness_witness(reg, w1, w2)
    assert verify_certificate(cert, reg)
    assert not verify_certificate(cert, Registry())
    assert verify_certificate(cert, None)


def test_certificate_verify_sees_earlier_record_replaced():
    reg = Registry()
    reg.link((1,), (2,))
    reg.link((3,), (4,))
    w1 = ideal_projection_witness(reg, P((1,)), SequenceDesc((1,), 0))
    w2 = ideal_projection_witness(reg, P((2,)), SequenceDesc((2,), 0))
    cert = primeness_witness(reg, w1, w2)
    assert verify_certificate(cert, reg)
    # Stage 1 took label 1 at coordinate 2; put label 0, which stage 0 took,
    # in its place. Nothing else about the registry changes.
    assert reg.records[1].fresh == 1 and reg.records[0].fresh == 0
    reg.records[1] = GeneratorRecord(
        stage=1, n=2, dom=(3, 0), ran=(4, 0), requested=((3,), (4,)), fresh=0
    )
    assert audit_records(reg.records) == [
        "stage 1: dom reuses generator label 0 at coordinate 2"
    ]
    # The edit is behind the tail, outside the log's contract; verify judges
    # only the certificate's own record, which the edit leaves sound.
    assert verify_certificate(cert, reg)
    # A log whose stage 1 already took the certificate's label 0 at
    # coordinate 3, appended record by record.
    bad = Registry()
    bad.records += [
        reg.records[0],
        GeneratorRecord(
            stage=1, n=3, dom=(3, 0, 0), ran=(4, 0, 0), requested=((3,), (4,)), fresh=0
        ),
        cert.generator,
    ]
    assert verify_certificate(cert, bad).problems == [
        "registry audit fails: stage 2: dom reuses generator label 0 at coordinate 3"
    ]


# -- vanishing traces --------------------------------------------------------------


def build_scene():
    """A protection, its pivot, and generators issued before and after."""
    reg = Registry()
    early = reg.link((8,), (9,))  # stage 0, before the protection
    prot = reg.register_protection(one_point_state((5,)), horizon=4)
    pivot = reg.vanishing_tuple(prot)
    return reg, early, prot, pivot


def test_pivot_avoids_support_and_early_generators():
    reg, early, prot, pivot = build_scene()
    assert pivot == (0,)
    assert early.dom[0] != pivot[0] and early.ran[0] != pivot[0]
    assert all(c[0] != pivot[0] for c in prot.tuples)


def test_trace_base_case():
    reg, _, prot, pivot = build_scene()
    trace = vanishing_witness(reg, prot, pivot, [projection(pivot)])
    assert [s.case for s in trace.steps] == [CASE_BASE]
    assert trace.carrier == pivot
    assert trace.depth == 1


def test_trace_leftmost_anchor():
    reg, _, prot, pivot = build_scene()
    word = [projection(pivot), projection(pivot + (3,))]
    assert normal_form(word) is not ZERO
    trace = vanishing_witness(reg, prot, pivot, word)
    assert [s.case for s in trace.steps] == [CASE_LEFT_ANCHOR]
    assert trace.carrier == pivot


def test_trace_late_dominates():
    reg, _, prot, pivot = build_scene()
    late = reg.link(pivot, (6,))
    word = [late.monomial(), projection(pivot)]
    trace = vanishing_witness(reg, prot, pivot, word)
    assert [s.case for s in trace.steps] == [CASE_BASE, CASE_LATE_DOMINATES]
    assert trace.carrier == late.ran
    assert trace.steps[-1].stage == late.stage
    assert not trace.steps[-1].adjoint


def test_trace_late_dominates_adjoint():
    reg, _, prot, pivot = build_scene()
    late = reg.link((6,), pivot)  # ran extends the pivot, so the adjoint hits it
    word = [adjoint(late.monomial()), projection(pivot)]
    trace = vanishing_witness(reg, prot, pivot, word)
    assert trace.steps[-1].case == CASE_LATE_DOMINATES
    assert trace.steps[-1].adjoint
    assert trace.carrier == late.dom


def test_trace_projection_carry():
    reg, _, prot, pivot = build_scene()
    late = reg.link(pivot, (6,))
    word = [projection((late.ran[0],)), late.monomial(), projection(pivot)]
    trace = vanishing_witness(reg, prot, pivot, word)
    assert [s.case for s in trace.steps] == [
        CASE_BASE,
        CASE_LATE_DOMINATES,
        CASE_PROJECTION,
    ]
    assert trace.carrier == late.ran


def test_trace_prefix_rewrite():
    reg = Registry()
    prot = reg.register_protection(one_point_state((5,)), horizon=4)
    pivot = reg.vanishing_tuple(prot)
    shallow = reg.link((3,), (4,))  # depth 2
    deep = reg.link((pivot[0],), shallow.dom)  # range extends the shallow domain
    word = [shallow.monomial(), deep.monomial(), projection(pivot)]
    nf = normal_form(word)
    assert nf is not ZERO
    trace = vanishing_witness(reg, prot, pivot, word)
    assert [s.case for s in trace.steps] == [
        CASE_BASE,
        CASE_LATE_DOMINATES,
        CASE_PREFIX_REWRITE,
    ]
    rewritten = trace.steps[-1]
    assert rewritten.carrier == shallow.ran + deep.ran[len(shallow.dom):]
    assert trace.carrier == rewritten.carrier
    # The final coordinate is untouched by the rewrite.
    assert trace.carrier[-1] == deep.ran[-1]
    assert multiply(projection(trace.carrier), nf) == nf


def test_zero_report_for_early_generator():
    reg, early, prot, pivot = build_scene()
    word = [early.monomial(), projection(pivot)]
    assert normal_form(word) is ZERO
    report = vanishing_witness(reg, prot, pivot, word)
    assert isinstance(report, ZeroReport)
    assert report.steps[-1].case == CASE_EARLY_ORTHOGONAL
    assert "before the protection" in report.reason


def test_zero_report_for_disjoint_projection():
    reg, _, prot, pivot = build_scene()
    word = [projection((7,)), projection(pivot)]
    assert normal_form(word) is ZERO
    report = vanishing_witness(reg, prot, pivot, word)
    assert isinstance(report, ZeroReport)


def test_preconditions_reported_distinctly():
    reg, _, prot, pivot = build_scene()
    with pytest.raises(WitnessError):
        vanishing_witness(reg, prot, (pivot[0] + 1,), [projection(pivot)])
    with pytest.raises(WitnessError):
        vanishing_witness(reg, prot, pivot, [projection((7,))])
    with pytest.raises(WitnessError):
        vanishing_witness(reg, prot, pivot, [V((1,), (2,)), projection(pivot)])
    with pytest.raises(WitnessError):
        vanishing_witness(reg, prot, pivot, [])


def test_state_vanishes_on_traced_words():
    reg, _, prot, pivot = build_scene()
    late = reg.link(pivot, (6,))
    rho = prot.state
    value = check_state_vanishes(rho, reg, prot, pivot, [late.monomial(), projection(pivot)])
    assert value == Scalar(Fraction(0))
    value = check_state_vanishes(rho, reg, prot, pivot, [projection(pivot)])
    assert value == Scalar(Fraction(0))


def test_state_check_uses_a_supplied_trace():
    reg, _, prot, pivot = build_scene()
    late = reg.link(pivot, (6,))
    word = [late.monomial(), projection(pivot)]
    trace = vanishing_witness(reg, prot, pivot, word)
    value = check_state_vanishes(prot.state, reg, prot, pivot, word, trace=trace)
    assert value == Scalar(Fraction(0))
    with pytest.raises(WitnessError):
        check_state_vanishes(prot.state, reg, prot, pivot, [projection(pivot)], trace=trace)


def test_state_value_can_be_positive_without_the_pivot():
    reg, _, prot, pivot = build_scene()
    rho = prot.state
    assert rho.evaluate(P((5,))) == Scalar(Fraction(1))


def test_horizon_insufficiency_reported():
    reg = Registry()
    rho = one_point_state((5,))
    prot = reg.register_protection(rho, horizon=1)
    pivot = reg.vanishing_tuple(prot)
    late = reg.link(pivot, (6,))  # depth 2 exceeds the horizon
    word = [late.monomial(), projection(pivot)]
    trace = vanishing_witness(reg, prot, pivot, word)
    assert not isinstance(trace, ZeroReport)
    assert trace.depth > prot.horizon
    with pytest.raises(HorizonError):
        check_state_vanishes(rho, reg, prot, pivot, word)
    report = verify_trace(trace, reg)
    assert not report
    assert report.problems == ["the trace reaches depth 2 but the protection horizon is 1"]


def test_state_mismatch_rejected():
    reg, _, prot, pivot = build_scene()
    other = one_point_state((6,))
    with pytest.raises(WitnessError):
        check_state_vanishes(other, reg, prot, pivot, [projection(pivot)])


def test_dichotomy_random_words():
    rng = random.Random(4)
    reg = Registry()
    reg.link((2,), (3,))
    prot = reg.register_protection(
        DiagonalState(
            [
                (SequenceDesc((5, 1), 0), Fraction(1, 2)),
                (SequenceDesc((6,), 2), Fraction(1, 2)),
            ]
        ),
        horizon=5,
    )
    pivot = reg.vanishing_tuple(prot)
    for _ in range(20):
        reg.link(
            tuple(rng.randint(0, 6) for _ in range(rng.randint(0, 2))),
            tuple(rng.randint(0, 6) for _ in range(rng.randint(0, 2))),
        )
    gens = [rec.monomial() for rec in reg.records if isinstance(rec, GeneratorRecord)]
    rho = prot.state
    zero_count = trace_count = 0
    for _ in range(300):
        word = []
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.3:
                word.append(projection(tuple(rng.randint(0, 6) for _ in range(rng.randint(0, 2)))))
            else:
                g = rng.choice(gens)
                word.append(g if rng.random() < 0.5 else adjoint(g))
        word.insert(rng.randint(0, len(word)), projection(pivot))
        result = vanishing_witness(reg, prot, pivot, word)
        if isinstance(result, ZeroReport):
            assert normal_form(word) is ZERO
            zero_count += 1
        else:
            nf = normal_form(word)
            assert nf is not ZERO
            assert multiply(projection(result.carrier), nf) == nf
            n = result.depth
            for rec in reg.records[: prot.stage + 1]:
                if isinstance(rec, GeneratorRecord) and n <= rec.n:
                    assert rec.dom[n - 1] != result.carrier[-1]
                    assert rec.ran[n - 1] != result.carrier[-1]
            for c in prot.tuples:
                if n <= len(c):
                    assert c[n - 1] != result.carrier[-1]
            assert check_state_vanishes(rho, reg, prot, pivot, word) == Scalar(Fraction(0))
            trace_count += 1
    assert zero_count and trace_count


def test_linear_combinations_vanish():
    rng = random.Random(9)
    reg, _, prot, pivot = build_scene()
    reg.link(pivot, (6,))
    reg.link((6,), pivot)
    gens = [
        rec.monomial()
        for rec in reg.records[prot.stage + 1:]
        if isinstance(rec, GeneratorRecord)
    ]
    rho = prot.state
    combo = Polynomial.zero()
    for _ in range(10):
        word = [projection(pivot)]
        for _ in range(rng.randint(0, 3)):
            g = rng.choice(gens)
            word.insert(rng.randint(0, len(word)), g if rng.random() < 0.5 else adjoint(g))
        nf = normal_form(word)
        combo = combo + Polynomial.of(nf, Scalar(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-2, 2))))
    assert rho.evaluate(combo) == Scalar(Fraction(0))


# -- trace files --------------------------------------------------------------------


def test_trace_text_round_trip_and_verify():
    reg, _, prot, pivot = build_scene()
    late = reg.link(pivot, (6,))
    trace = vanishing_witness(reg, prot, pivot, [late.monomial(), projection(pivot)])
    text = trace.to_text()
    again = parse_trace_text(text)
    assert again.to_text() == text
    assert verify_trace(again, reg)
    assert verify_trace_text(text, reg)

    tampered = text.replace("final carrier=(6,", "final carrier=(7,")
    assert not verify_trace_text(tampered, reg)
    assert not verify_trace_text(text, Registry())


def test_poly_text_in_witness_blocks_round_trips():
    reg = Registry()
    q = Iso((1,), (2,)).scale(Scalar(Fraction(1, 2), Fraction(1, 3))) + P((1, 4))
    w = ideal_projection_witness(reg, q, SequenceDesc((1, 4), 0))
    lines = w.to_lines()
    root_line = next(l for l in lines if l.startswith("root "))
    assert root_line == f"root {poly_text(q)}"
