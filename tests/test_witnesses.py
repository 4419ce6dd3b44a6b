import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from prefixalg import parser, registry, witnesses

from prefixalg.cylinders import SequenceDesc, extends, format_tuple
from prefixalg.expr import eval_expr, poly_text
from prefixalg.monomials import (
    V,
    ZERO,
    adjoint,
    format_monomial,
    is_projection,
    multiply,
    normal_form,
    projection,
)
from prefixalg.parser import parse_expr
from prefixalg.polynomials import DiagonalState, Polynomial, Scalar
from prefixalg.registry import GeneratorRecord, ProtectionRecord, Registry, RegistryError, audit_records
from prefixalg.witnesses import (
    CASES,
    CASE_BASE,
    CASE_EARLY_ORTHOGONAL,
    CASE_LATE_DOMINATES,
    CASE_LEFT_ANCHOR,
    CASE_PREFIX_REWRITE,
    CASE_PROJECTION,
    HorizonError,
    IdealWitness,
    PrimenessCertificate,
    SoundnessError,
    TRACE_HEADER,
    TraceStep,
    VanishingTrace,
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
    parse_trace_lines,
    read_trace_lines,
)
from prefixalg.session import Session
from test_acceptance import rand_state, rand_tuple

P = Polynomial.projection
Iso = Polynomial.isometry


def one_point_state(prefix, tail=0):
    return DiagonalState([(SequenceDesc(prefix, tail), Fraction(1))])


def printed(lines, key):
    """The expression on the line starting `key`, read back through the
    parser: the bytes that `verify` reads."""
    line = next(line for line in lines if line.startswith(key + " "))
    return eval_expr(parse_expr(line[len(key) + 1:]))


# -- ideal projection witnesses ------------------------------------------------


def test_witness_from_projection():
    reg = Registry()
    w = ideal_projection_witness(reg, P((1,)), SequenceDesc((1,), 0))
    assert w.alpha == (1, 0)
    assert w.scalar == Scalar(Fraction(1))
    assert w.source == P((1,))
    assert printed(w.to_lines(), "certificate") == P((1, 0))


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
        assert printed(w.to_lines(), "certificate") == P(w.alpha)


# -- primeness certificates ------------------------------------------------------


def test_primeness_certificate_end_to_end():
    reg = Registry()
    w1 = ideal_projection_witness(reg, P((1,)), SequenceDesc((1,), 0))
    w2 = ideal_projection_witness(reg, P((2,)), SequenceDesc((2,), 0))
    cert = primeness_witness(reg, w1, w2)
    rec = cert.generator
    assert extends(rec.dom, w1.alpha) and rec.dom != w1.alpha
    assert extends(rec.ran, w2.alpha) and rec.ran != w2.alpha
    assert extends(rec.ran, (2,))
    assert printed(cert.to_text().splitlines(), "product") == P(rec.ran)
    assert audit_records(reg.records) == []
    assert verify_certificate(cert, reg)


def test_primeness_with_identical_witnesses():
    reg = Registry()
    w = ideal_projection_witness(reg, P((1,)), SequenceDesc((1,), 0))
    cert = primeness_witness(reg, w, w)
    assert printed(cert.to_text().splitlines(), "product") == P(cert.generator.ran)
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
        "registry has no matching record at stage 0"
    ]
    assert verify_certificate_text(tampered, None).problems == [
        "generator record: stage 0: not the generator issued for its request with fresh label 90"
    ]
    tampered = text.replace("scalar 4", "scalar 3") if "scalar 4" in text else text.replace(
        "scalar 1", "scalar 3", 1
    )
    assert not verify_certificate_text(tampered, reg)

    # Forged objects, printed: each reads back and fails one premise alone.
    # P((9)) compresses to zero on alpha, so only the source check fires.
    forged_w1 = IdealWitness(w1.source + P((9,)), w1.alpha, w1.scalar, w1.root)
    other = reg.link((7,), (8,))  # rule-valid and registered, for another request
    for forged, problem in [
        (PrimenessCertificate(forged_w1, w2, cert.generator), "witness1: source is not root'*root"),
        (PrimenessCertificate(w1, w2, other), "generator was not requested for the witness cylinders"),
    ]:
        assert verify_certificate_text(forged.to_text(), reg).problems == [problem]


def test_equal_but_not_canonical_fields_are_refused():
    # Each edited field parses to the value it replaces, or nearly, but is
    # not its print, so the certificate does not read back.
    reg = Registry()
    w1 = ideal_projection_witness(reg, Iso((1,), (2,)) + P((1, 3)), SequenceDesc((1,), 0))
    w2 = ideal_projection_witness(reg, P((2,)).scale(Scalar(Fraction(1, 2))), SequenceDesc((2,), 0))
    lines = primeness_witness(reg, w1, w2).to_text().splitlines()
    assert lines[5:7] == ["root V((1);(2)) + P((1,3))", "source P((1)) + P((1,3))"]
    assert lines[12:14] == ["root 1/2 * P((2))", "source 1/4 * P((2))"]
    root1 = "malformed certificate: line 6 does not read back exactly (expected 'root V((1);(2)) + P((1,3))')"
    edits = [
        (5, "root P((1,3)) + V((1);(2))", root1),
        (5, "root 1 * V((1);(2)) + P((1,3))", root1),
        (5, "root V((1);(2))  + P((1,3))", root1),
        (5, "root V((01);(2)) + P((1,3))", root1),
        (6, "source P((1,3)) + P((1))",
         "malformed certificate: line 7 does not read back exactly (expected 'source P((1)) + P((1,3))')"),
        (12, "root 2/4 * P((2))",
         "malformed certificate: line 13 does not read back exactly (expected 'root 1/2 * P((2))')"),
        (13, "source 1/4*P((2))",
         "malformed certificate: line 14 does not read back exactly (expected 'source 1/4 * P((2))')"),
        (13, "source 1/4 * P((2)) + 1 * P((3))",
         "malformed certificate: line 14 does not read back exactly "
         "(expected 'source 1/4 * P((2)) + P((3))')"),
    ]
    for k, line, message in edits:
        edited = lines[:k] + [line] + lines[k + 1:]
        assert verify_certificate_text("\n".join(edited) + "\n", reg).problems == [message]


def test_certificate_against_wrong_registry():
    reg = Registry()
    w1 = ideal_projection_witness(reg, P((1,)), SequenceDesc((1,), 0))
    w2 = ideal_projection_witness(reg, P((2,)), SequenceDesc((2,), 0))
    cert = primeness_witness(reg, w1, w2)
    assert verify_certificate(cert, reg)
    assert not verify_certificate(cert, Registry())
    assert verify_certificate(cert, None)


def test_verify_certificate_judges_the_generator_without_the_parser():
    """An in-memory certificate is checked by the lemma's premises alone:
    a generator that does not link the witness cylinders is named, though
    nothing parses or evaluates the certificate."""
    reg = Registry()
    w1 = ideal_projection_witness(reg, P((1,)), SequenceDesc((1,), 0))
    w2 = ideal_projection_witness(reg, P((2,)), SequenceDesc((2,), 0))
    rec = primeness_witness(reg, w1, w2).generator
    assert (w1.alpha, w2.alpha, rec.dom, rec.ran) == ((1, 0), (2, 0), (1, 0, 0), (2, 0, 0))
    rule = "generator record: stage 0: not the generator issued for its request with fresh label"
    cases = [
        (dict(dom=(3, 0, 0)), [f"{rule} 0"]),
        (dict(fresh=1), [f"{rule} 1"]),
        (dict(n=4, dom=(1, 0, 0, 0), ran=(2, 0, 0, 0)), [f"{rule} 0"]),
        (dict(dom=(1, 0, 5), ran=(2, 0, 6), fresh=5), [f"{rule} 5"]),
    ]
    fields = dict(stage=0, n=3, dom=rec.dom, ran=rec.ran, requested=rec.requested, fresh=0)
    for changes, problems in cases:
        bad = PrimenessCertificate(w1, w2, GeneratorRecord(**{**fields, **changes}))
        assert verify_certificate(bad, None).problems == problems


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
        "stage 1: fresh reuses generator label 0 at coordinate 2"
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
        "registry audit fails: stage 2: fresh reuses generator label 0 at coordinate 3"
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


def test_state_check_of_a_zero_word_is_zero():
    reg, _, prot, pivot = build_scene()
    word = [projection((7,)), projection(pivot)]
    assert normal_form(word) is ZERO
    report = vanishing_witness(reg, prot, pivot, word)
    assert check_state_vanishes(prot.state, reg, prot, pivot, word, trace=report) == Scalar(0)
    # A supplied trace is taken as given: one that claims a carrier for a
    # zero word still yields the value of the zero operator.
    claimed = VanishingTrace(tuple(word), pivot, prot.stage, (), pivot)
    assert check_state_vanishes(prot.state, reg, prot, pivot, word, trace=claimed) == Scalar(0)


def test_state_value_of_a_word_moving_a_massive_cylinder_is_zero():
    reg = Registry()
    prot = reg.register_protection(one_point_state((5,)), horizon=1)
    pivot = reg.vanishing_tuple(prot)
    g = reg.link((5,), pivot)
    word = [projection(pivot), g.monomial()]
    # The word moves the cylinder of g.dom, which carries all the mass, off
    # itself: the state sees no diagonal, so its value is 0.
    assert prot.state.mass(g.dom) == Scalar(1) and g.dom != g.ran
    assert check_state_vanishes(prot.state, reg, prot, pivot, word) == Scalar(0)


def test_mass_is_the_value_of_the_cylinder_projection():
    rng = random.Random("mass")
    for _ in range(200):
        rho = rand_state(rng)
        prefixes = [x.head(n) for x, _ in rho.points for n in range(5)]
        for t in prefixes + [rand_tuple(rng, 4) for _ in range(5)]:
            assert rho.mass(t) == rho.evaluate(P(t)), (rho, t)


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

    # A trace forged for a word that holds the pivot but multiplies to zero.
    zero = vanishing_witness(reg, prot, pivot, [projection((7,)), projection(pivot)])
    assert isinstance(zero, ZeroReport)
    forged = VanishingTrace(zero.word, zero.pivot, zero.prot_stage, zero.steps, pivot)
    assert verify_trace_text(forged.to_text(), reg).problems == ["the recorded word normalizes to zero"]


def producer_traces():
    """Traces the producer emits on criterion 5's scenes and on the walk
    reference's random sound registries, for words grown one factor at a
    time on either side of the pivot, each factor keeping the word nonzero."""
    rng = random.Random("criterion-5")
    scenes = []
    for _ in range(20):
        reg = Registry()
        for _ in range(rng.randint(0, 4)):
            reg.link(rand_tuple(rng, 3), rand_tuple(rng, 3))
        prot = reg.register_protection(rand_state(rng), horizon=10)
        pivot = reg.vanishing_tuple(prot)
        for _ in range(50):
            reg.link(rand_tuple(rng, 3), rand_tuple(rng, 3))
        scenes.append((reg, prot, pivot, [rand_tuple(rng, 3) for _ in range(10)]))
    for _ in range(40):
        scenes.append(_random_sound_registry(rng))
    for reg, prot, pivot, pool in scenes:
        gens = [rec.monomial() for rec in reg.records if isinstance(rec, GeneratorRecord)]
        factors = gens + [adjoint(g) for g in gens] + [projection(t) for t in pool]
        for _ in range(10):
            word, nf = [projection(pivot)], projection(pivot)
            for _ in range(rng.randint(0, 6)):
                left = rng.random() < 0.8
                products = [(m, multiply(m, nf) if left else multiply(nf, m)) for m in factors]
                fits = [(m, product) for m, product in products if product is not ZERO]
                if not fits:
                    break
                m, nf = rng.choice(fits)
                word = [m] + word if left else word + [m]
            trace = vanishing_witness(reg, prot, pivot, word)
            assert isinstance(trace, VanishingTrace)
            yield reg, trace


def test_canonical_trace_reader_reads_every_produced_trace(monkeypatch):
    produced = list(producer_traces())
    traces = [trace for _, trace in produced]
    assert len(traces) > 500
    # An early-orthogonal step ends a walk at a dead end: no trace holds one.
    cases = set(CASES) - {CASE_EARLY_ORTHOGONAL}
    assert {step.case for trace in traces for step in trace.steps} == cases
    calls = Counter()
    real = TraceStep.to_line

    def counting(step):
        calls["to_line"] += 1
        return real(step)

    for reg, trace in produced:
        text = trace.to_text()
        lines = trace.to_lines()
        monkeypatch.setattr(TraceStep, "to_line", counting)
        assert parse_trace_text(text) == trace
        assert read_trace_lines(lines, 2) == trace
        assert verify_trace_text(text, reg) == verify_trace(trace, reg)
        monkeypatch.undo()
    assert calls["to_line"] == 0
    # The count sees a trace that is not its own print; a missing final
    # newline is refused before any line is parsed.
    monkeypatch.setattr(TraceStep, "to_line", counting)
    assert not verify_trace_text(text.replace("depth=", "depth=9"), reg)
    assert calls["to_line"] == len(trace.steps)
    assert verify_trace_text(text[:-1], reg).problems == [
        f"malformed trace: line {len(lines) + 1} does not end in a newline"
    ]
    assert calls["to_line"] == len(trace.steps)


def reference_trace(text):
    """The reference reading. Parse line by line, print and compare: the
    trace text holds when it prints back to exactly text, else None."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != TRACE_HEADER:
        return None
    try:
        trace = parse_trace_lines(lines[1:], 2)
    except ValueError:
        return None
    return trace if trace.to_text() == text else None


# Characters an edit inserts: the printed ones, and look-alikes the reader
# must refuse (a non-ASCII digit, a carriage return, a tab).
EDIT_ALPHABET = "0123456789(),;|=-_ \nPVabcdefgilmnoprstw\u0663\r\t"


def edit_text(rng, text):
    """text with one character deleted, inserted or replaced."""
    i = rng.randrange(len(text) + 1)
    what = rng.randrange(3)
    if what == 0 and i < len(text):
        return text[:i] + text[i + 1:]
    if what == 1 or i == len(text):
        return text[:i] + rng.choice(EDIT_ALPHABET) + text[i:]
    return text[:i] + rng.choice(EDIT_ALPHABET) + text[i + 1:]


def near_misses(text):
    """Edits that random characters seldom make: a field given a value the
    printer never prints."""
    yield re.sub(r"V\((\([0-9,]*\));\([0-9,]*\)\)", r"V(\1;\1)", text, count=1)
    for before in ("prot ", "pos=", "stage=", "depth=", "(", ","):
        yield re.sub(re.escape(before) + "([0-9])", before + r"0\1", text, count=1)
    for old, new in (("adjoint=0", "adjoint=2"), ("adjoint=1", "adjoint=True"),
                     ("stage=-", "stage=--"), ("case=base", "case=Base")):
        yield text.replace(old, new, 1)


def test_canonical_trace_reader_equals_parse_print_compare_on_edited_texts():
    rng = random.Random("trace-edits")
    texts = [trace.to_text() for _, trace in producer_traces()][::3]
    outcomes = Counter()
    for text in texts:
        edits = [edit_text(rng, text) for _ in range(20)]
        edits = [edit_text(rng, e) if rng.random() < 0.5 else e for e in edits]
        for edited in edits + list(near_misses(text)):
            want = reference_trace(edited)
            try:
                got = parse_trace_text(edited)
            except (ValueError, RegistryError):
                # Both refuse; an unknown case name among them.
                assert want is None, edited
                unknown = set(re.findall(r"case=([^ \n]*)", edited)) - set(CASES)
                outcomes["unknown case" if unknown else "refused"] += 1
            else:
                assert got == want and got.to_text() == edited, edited
                outcomes["taken"] += 1
    assert min(outcomes["taken"], outcomes["unknown case"], outcomes["refused"]) > 20, outcomes


def test_non_canonical_trace_texts_keep_their_messages():
    reg, _, prot, pivot = build_scene()
    late = reg.link(pivot, (6,))
    text = vanishing_witness(reg, prot, pivot, [late.monomial(), projection(pivot)]).to_text()
    assert text.splitlines()[3:] == [
        "word V((0,1);(6,1))|P((0))",
        "step pos=2 case=base stage=- adjoint=0 carrier=(0)",
        "step pos=1 case=late-dominates stage=2 adjoint=0 carrier=(6,1)",
        "final carrier=(6,1) depth=2",
    ]
    long = "9" * 4301
    malformed = "malformed trace: "
    cases = [
        (text.replace("case=late-dominates", "case=late-dominated"),
         [malformed + "line 6: step record field case: unknown case 'late-dominated'"]),
        (text.replace("depth=2", "depth=3"),
         [malformed + "line 7 does not read back exactly (expected 'final carrier=(6,1) depth=2')"]),
        (text.replace("V((0,1);(6,1))", "V((0,1);(6))"),
         [malformed + "tuple length mismatch in V: 2 vs 1 (line 1, column 12)"]),
        (text.replace("final carrier=(6,1)", f"final carrier=(6,{long})"),
         [malformed + f"line 7: final record field carrier: label too long (4301 digits) "
                      f"in tuple '(6,{long})'"]),
        (text[:-1], [malformed + "line 7 does not end in a newline"]),
        (text.replace("\n", "\r\n", 2), [malformed + "line 1 ends in '\\r\\n', not a newline"]),
    ]
    for edited, problems in cases:
        with pytest.raises((ValueError, RegistryError)) as exc:
            parse_trace_text(edited)
        assert [malformed + str(exc.value)] == problems
        assert verify_trace_text(edited, reg).problems == problems


def golden_files():
    """The files the golden CLI transcript leaves, by name, as their bytes."""
    files, name = {}, None
    for line in (Path(__file__).parent / "data" / "cli_golden.txt").read_text("utf-8").splitlines():
        if line.startswith("== file "):
            name = line[len("== file "):-len(" ==")]
            files[name] = ""
        elif name and line.startswith("file| "):
            files[name] += line[len("file| "):] + "\n"
    return files


def test_genuine_files_are_read_by_the_one_pass_readers(monkeypatch):
    """Every genuine file is accepted by its one-pass readers, so a reader
    stricter than its printer fails here: the session, certificates and
    trace that the golden transcript writes and verifies, every producer
    trace, and a session binding zero. No trace or generator line is parsed
    line by line, no polynomial or scalar by the descent, and nothing is
    linked. The record-line parser reads only a certificate's generator
    line: a certificate is held to read back as a whole."""
    files = golden_files()
    produced = list(producer_traces())
    zero = Session()
    zero.bind("z", P((1,)) - P((1,)))
    zero_text = zero.to_text()
    assert zero_text.endswith("binding z polynomial\n0\nend binding\n")
    calls = Counter()
    descended, record_lines = [], []

    def spy(owner, name, seen=None):
        real = getattr(owner, name)

        def call(*args, **kwargs):
            calls[name] += 1
            if seen is not None:
                seen.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, call)

    spy(witnesses, "parse_trace_lines")
    spy(registry.Registry, "link")
    spy(parser, "_Parser", descended)
    spy(registry, "parse_record_line", record_lines)
    spy(witnesses, "parse_record_line", record_lines)
    session = Session.from_text(files["s.txt"])
    assert Session.from_text(zero_text).bindings == {"z": Polynomial()}
    assert verify_trace_text(files["trace.txt"], session.registry)
    for name in ("cert.txt", "cert-complex.txt"):
        assert verify_certificate_text(files[name], session.registry)
    for reg, trace in produced:
        assert parse_trace_text(trace.to_text()) == read_trace_lines(trace.to_lines(), 2) == trace
    assert calls["parse_trace_lines"] == calls["link"] == 0
    assert descended == []
    generators = [line for line in record_lines if line.startswith("generator")]
    assert generators == [files[name].splitlines()[1] for name in ("cert.txt", "cert-complex.txt")]


def test_poly_text_in_witness_blocks_round_trips():
    reg = Registry()
    q = Iso((1,), (2,)).scale(Scalar(Fraction(1, 2), Fraction(1, 3))) + P((1, 4))
    w = ideal_projection_witness(reg, q, SequenceDesc((1, 4), 0))
    lines = w.to_lines()
    root_line = next(l for l in lines if l.startswith("root "))
    assert root_line == f"root {poly_text(q)}"


# -- the walk against the two-pass reference -------------------------------------------


def _reference_classify(reg, pivot, word):
    if not word:
        raise WitnessError("the word must be non-empty")
    classified = []
    pivot_proj = V(pivot, pivot)
    has_pivot = False
    for m in word:
        if m is ZERO:
            raise WitnessError("the zero operator is not a word factor")
        if m == pivot_proj:
            has_pivot = True
        if is_projection(m):
            classified.append((m, None))
            continue
        direct, adj = reg.generator_stages_matching(m)
        if not direct and not adj:
            raise WitnessError(
                f"factor {format_monomial(m)} is not a registered generator "
                f"or the adjoint of one"
            )
        classified.append((m, (direct, adj)))
    if not has_pivot:
        raise WitnessError(
            f"the word must contain the pivot projection {format_monomial(pivot_proj)}"
        )
    return classified


def _reference_narrate(prot, pivot, word, classified, expect_nonzero):
    anchor = next(i for i, m in enumerate(word) if m == V(pivot, pivot))
    carrier = pivot
    case = CASE_BASE if anchor == len(word) - 1 else CASE_LEFT_ANCHOR
    steps = [TraceStep(position=anchor + 1, case=case, carrier=carrier)]
    for i in range(anchor - 1, -1, -1):
        m, stages = classified[i]
        if stages is None:
            steps.append(TraceStep(position=i + 1, case=CASE_PROJECTION, carrier=carrier))
            continue
        direct, adj = stages
        depth = len(m.dom)
        if len(carrier) > depth:
            if not extends(carrier, m.dom):
                if expect_nonzero:
                    raise SoundnessError("nonzero word with a factor orthogonal to the carrier")
                return steps, None, f"factor at position {i + 1} misses the carrier cylinder"
            stage = max(direct + adj)
            carrier = m.ran + carrier[depth:]
            steps.append(TraceStep(i + 1, CASE_PREFIX_REWRITE, carrier, stage, stage not in direct))
        else:
            late = [s for s in direct + adj if s > prot.stage]
            if not late:
                stage = max(direct + adj)
                steps.append(
                    TraceStep(i + 1, CASE_EARLY_ORTHOGONAL, carrier, stage, stage not in direct)
                )
                if expect_nonzero:
                    raise SoundnessError("nonzero word blocked by a pre-protection generator")
                return (
                    steps,
                    None,
                    f"factor at position {i + 1} was issued before the protection "
                    f"and cannot meet the carrier",
                )
            stage = max(late)
            carrier = m.ran
            steps.append(TraceStep(i + 1, CASE_LATE_DOMINATES, carrier, stage, stage not in direct))
    return steps, carrier, ""


def _reference_check_carrier(reg, prot, carrier, suffix_nf):
    n = len(carrier)
    if multiply(V(carrier, carrier), suffix_nf) != suffix_nf:
        raise SoundnessError("carrier projection does not absorb the product")
    first = reg.labels().first_use(n, carrier[-1])
    if first <= prot.stage:
        raise SoundnessError(f"carrier coordinate {n} collides with generator stage {first}")
    for c in prot.tuples:
        if n <= len(c) and c[n - 1] == carrier[-1]:
            raise SoundnessError(
                f"carrier coordinate {n} collides with protected tuple {format_tuple(c)}"
            )


def reference_vanishing_witness(reg, prot, pivot, word):
    """The two-pass pipeline: classify, narrate, then check every carrier
    against a list of suffix products."""
    pivot = tuple(pivot)
    if pivot != reg.vanishing_tuple(prot):
        raise WitnessError(
            f"pivot {format_tuple(pivot)} is not the vanishing tuple of the given protection"
        )
    classified = _reference_classify(reg, pivot, word)
    if normal_form(word) is ZERO:
        steps, _, reason = _reference_narrate(prot, pivot, word, classified, False)
        return ZeroReport(
            word=tuple(word),
            pivot=pivot,
            prot_stage=prot.stage,
            steps=tuple(steps),
            reason=reason or "the factors multiply to the zero operator",
        )
    steps, carrier, _ = _reference_narrate(prot, pivot, word, classified, True)
    suffix_nf = list(word)
    for i in range(len(word) - 2, -1, -1):
        suffix_nf[i] = multiply(word[i], suffix_nf[i + 1])
    for step in steps:
        _reference_check_carrier(reg, prot, step.carrier, suffix_nf[step.position - 1])
    return VanishingTrace(
        word=tuple(word), pivot=pivot, prot_stage=prot.stage, steps=tuple(steps), carrier=carrier
    )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (WitnessError, SoundnessError) as exc:
        return type(exc), str(exc)


def _random_sound_registry(rng):
    """Links and one protection through the public API, so the registry is
    sound; link requests reuse earlier tuples and their prefixes, so that
    ranges extend domains and every trace case can arise."""
    reg = Registry()
    pool = [()] + [(rng.randint(0, 6),) for _ in range(3)]

    def link():
        rec = reg.link(rng.choice(pool), rng.choice(pool))
        pool.extend(t[:k] for t in (rec.dom, rec.ran) for k in range(1, len(t) + 1))

    for _ in range(rng.randint(0, 4)):
        link()
    rho = DiagonalState(
        [
            (SequenceDesc(rng.choice(pool), rng.randint(0, 6)), Fraction(1, 2)),
            (SequenceDesc((rng.randint(0, 6),), 7), Fraction(1, 2)),
        ]
    )
    prot = reg.register_protection(rho, horizon=rng.randint(1, 4))
    pivot = reg.vanishing_tuple(prot)
    pool += [pivot] * 3
    for _ in range(rng.randint(1, 8)):
        link()
    return reg, prot, pivot, pool


def _random_word(rng, reg, pivot, pool):
    gens = [rec.monomial() for rec in reg.records if isinstance(rec, GeneratorRecord)]
    word = []
    for _ in range(rng.randint(0, 5)):
        if rng.random() < 0.25:
            word.append(projection(rng.choice(pool)))
        else:
            g = rng.choice(gens)
            word.append(g if rng.random() < 0.5 else adjoint(g))
    word.insert(rng.randint(0, len(word)), projection(pivot))
    # One word in ten breaks a precondition.
    broken = rng.randrange(50)
    if broken == 0:
        word = []
    elif broken == 1:
        word.insert(rng.randint(0, len(word)), ZERO)
    elif broken == 2:
        word.insert(rng.randint(0, len(word)), V((7, 7, 7), (7, 7, 8)))
    elif broken == 3:
        word = [m for m in word if m != projection(pivot)] or [projection((pivot[0] + 1,))]
    elif broken == 4:
        pivot = (pivot[0] + 1,)
    return pivot, word


# Every trace case, both dead ends, the default zero reason and each
# precondition must occur, or the comparison misses a branch.
WALK_OUTCOMES = (
    "misses the carrier cylinder",
    "was issued before the protection",
    "the factors multiply to the zero operator",
    "the word must be non-empty",
    "the zero operator is not a word factor",
    "is not a registered generator",
    "the word must contain the pivot projection",
    "is not the vanishing tuple",
)


def test_walk_matches_two_pass_reference():
    rng = random.Random(909)
    seen = Counter()
    for _ in range(300):
        reg, prot, pivot, pool = _random_sound_registry(rng)
        for _ in range(60):
            word_pivot, word = _random_word(rng, reg, pivot, pool)
            got = _outcome(vanishing_witness, reg, prot, word_pivot, word)
            assert got == _outcome(reference_vanishing_witness, reg, prot, word_pivot, word)
            if isinstance(got, tuple):
                assert got[0] is WitnessError, got
                text = got[1]
            else:
                seen.update(step.case for step in got.steps)
                text = getattr(got, "reason", "")
            seen.update(f for f in WALK_OUTCOMES if f in text)
    cases = (CASE_BASE, CASE_LEFT_ANCHOR, CASE_PROJECTION, CASE_PREFIX_REWRITE)
    for key in cases + (CASE_EARLY_ORTHOGONAL, CASE_LATE_DOMINATES) + WALK_OUTCOMES:
        assert seen[key], (key, seen)


def test_zero_word_on_an_unsound_registry_checks_its_carriers():
    reg, _, prot, pivot = build_scene()
    late = reg.link(pivot, (6,))
    # Edit the protection so that it shields the late generator's range,
    # which no sound registry allows.
    unsound = ProtectionRecord(
        stage=prot.stage, tuples=prot.tuples + (late.ran,), horizon=prot.horizon, state=prot.state
    )
    reg.records[prot.stage] = unsound
    word = [projection((7,)), late.monomial(), projection(pivot)]
    assert normal_form(word) is ZERO
    # The two-pass pipeline never checked the carriers of a zero word.
    assert isinstance(reference_vanishing_witness(reg, unsound, pivot, word), ZeroReport)
    with pytest.raises(SoundnessError, match=r"collides with protected tuple \(6,"):
        vanishing_witness(reg, unsound, pivot, word)
