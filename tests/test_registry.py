import random
import re
from fractions import Fraction

import pytest

from prefixalg import registry, witnesses
from prefixalg.cylinders import SequenceDesc, extends
from prefixalg.monomials import V, adjoint, normal_form
from prefixalg.polynomials import DiagonalState, Polynomial, Scalar
from prefixalg.registry import (
    GeneratorRecord,
    ProtectionRecord,
    Registry,
    RegistryError,
    audit_records,
)
from prefixalg.witnesses import (
    IdealWitness,
    PrimenessCertificate,
    ideal_projection_witness,
    primeness_witness,
    verify_certificate,
)


def replace(rec, **changes):
    """A copy of a record with some fields changed."""
    fields = {name: getattr(rec, name) for name in type(rec).__slots__}
    return type(rec)(**{**fields, **changes})


def one_point_state(prefix, tail=0):
    return DiagonalState([(SequenceDesc(prefix, tail), Fraction(1))])


def rand_state(rng, max_points=3):
    points = {}
    for _ in range(rng.randint(1, max_points)):
        points.setdefault(
            SequenceDesc(tuple(rng.randint(0, 6) for _ in range(rng.randint(0, 4))), rng.randint(0, 6)),
            rng.randint(1, 4),
        )
    total = sum(points.values())
    return DiagonalState([(x, Fraction(w, total)) for x, w in points.items()])


def test_link_step_rule_and_fill():
    reg = Registry()
    rec = reg.link((1,), (2, 7))
    assert rec.n == 3
    assert rec.fresh == 0
    assert rec.dom == (1, 0, 0)
    assert rec.ran == (2, 7, 0)
    assert rec.stage == 0


def test_link_conjugation_identity():
    reg = Registry()
    for req in [((1,), (2, 7)), ((0,), (0,)), ((), (5, 5))]:
        rec = reg.link(*req)
        v = rec.monomial()
        assert normal_form([v, V(rec.dom, rec.dom), adjoint(v)]) == V(rec.ran, rec.ran)


def test_link_domination():
    reg = Registry()
    rec = reg.link((1, 4), (2,))
    assert extends(rec.dom, (1, 4)) and rec.dom != (1, 4)
    assert extends(rec.ran, (2,)) and rec.ran != (2,)


def test_link_same_tuple_gives_projection():
    reg = Registry()
    rec = reg.link((3, 3), (3, 3))
    assert rec.dom == rec.ran


def test_link_avoids_earlier_generators():
    reg = Registry()
    first = reg.link((1,), (2,))
    assert first.fresh == 0
    second = reg.link((1,), (2,))
    # Same depth: the first stage used 0 at coordinate 2, so 0 is blocked.
    assert second.fresh != first.fresh
    assert second.fresh == 1


def test_protection_blocks_labels_at_their_coordinates():
    reg = Registry()
    prot = reg.register_protection(one_point_state((1, 2)), horizon=2)
    assert prot.tuples == ((1,), (1, 2))
    # n = 1: label 1 is protected at coordinate 1.
    rec = reg.link((), ())
    assert rec.n == 1
    assert rec.fresh == 0
    # n = 2: label 2 is protected at coordinate 2; label 0 now also used.
    rec2 = reg.link((9,), (9,))
    assert rec2.n == 2
    assert rec2.fresh not in {2}
    # Coordinate 1 protection: a length-1 link avoids 1.
    reg2 = Registry()
    reg2.register_protection(one_point_state((1, 2)), horizon=2)
    assert reg2.link((), ()).fresh == 0
    reg3 = Registry()
    reg3.register_protection(one_point_state((0, 2)), horizon=2)
    assert reg3.link((), ()).fresh == 1


def test_register_empty_horizon_validation():
    reg = Registry()
    with pytest.raises(ValueError):
        reg.register_protection(one_point_state((1,)), horizon=0)


def test_vanishing_tuple_examples():
    reg = Registry()
    prot = reg.register_protection(one_point_state((1, 2)), horizon=2)
    assert reg.vanishing_tuple(prot) == (0,)

    reg2 = Registry()
    reg2.link((1, 5), (1, 5))  # dom/ran begin with 1
    prot2 = reg2.register_protection(one_point_state((0,)), horizon=1)
    # 0 is protected, 1 is used by the earlier generator, so 2 is least.
    assert reg2.vanishing_tuple(prot2) == (2,)

    reg3 = Registry()
    prot3 = reg3.register_protection(one_point_state((5,)), horizon=1)
    assert reg3.vanishing_tuple(prot3) == (0,)


def test_vanishing_tuple_ignores_later_generators():
    reg = Registry()
    prot = reg.register_protection(one_point_state((1,)), horizon=1)
    before = reg.vanishing_tuple(prot)
    reg.link((before[0],), (3,))
    assert reg.vanishing_tuple(prot) == before


def test_vanishing_tuple_foreign_record():
    reg = Registry()
    other = Registry()
    prot = other.register_protection(one_point_state((1,)), horizon=1)
    with pytest.raises(ValueError):
        reg.vanishing_tuple(prot)


def test_audit_clean_registry():
    rng = random.Random(0)
    reg = Registry()
    for _ in range(200):
        if rng.random() < 0.3:
            reg.register_protection(rand_state(rng), rng.randint(1, 5))
        else:
            reg.link(
                tuple(rng.randint(0, 6) for _ in range(rng.randint(0, 3))),
                tuple(rng.randint(0, 6) for _ in range(rng.randint(0, 3))),
            )
    assert audit_records(reg.records) == []


def test_audit_reports_injected_violation():
    reg = Registry()
    reg.register_protection(one_point_state((1, 2)), horizon=2)
    # Manually inject a record whose final coordinate reuses protected label 2
    # at coordinate 2.
    bad = GeneratorRecord(
        stage=1, n=2, dom=(4, 2), ran=(5, 2), requested=((4,), (5,)), fresh=2
    )
    reg.records.append(bad)
    (problem,) = audit_records(reg.records)
    assert problem.startswith("stage 1: ")
    assert "protected label 2" in problem
    assert "coordinate 2" in problem


def test_audit_reports_generator_label_reuse():
    reg = Registry()
    first = reg.link((1,), (2,))
    bad = GeneratorRecord(
        stage=1, n=2, dom=(4, first.fresh), ran=(5, first.fresh),
        requested=((4,), (5,)), fresh=first.fresh,
    )
    reg.records.append(bad)
    (problem,) = audit_records(reg.records)
    assert "generator label" in problem


def test_audit_empty():
    assert audit_records([]) == []
    assert Registry().audit() == []


def test_audit_records_names_every_problem():
    reg = Registry()
    for k in range(7):
        reg.link((k,), (k + 1,))
    records = reg.records
    # Stage 2 takes the label stage 0 took; stage 5 claims the wrong stage.
    records[2] = GeneratorRecord(
        stage=2, n=2, dom=(2, 0), ran=(3, 0), requested=((2,), (3,)), fresh=0
    )
    records[5] = replace(records[5], stage=9)
    assert audit_records(records) == [
        "stage 2: fresh reuses generator label 0 at coordinate 2",
        "stage 9 out of order",
    ]


def test_record_line_round_trip():
    rng = random.Random(1)
    reg = Registry()
    for _ in range(60):
        if rng.random() < 0.35:
            reg.register_protection(rand_state(rng), rng.randint(1, 4))
        else:
            reg.link(
                tuple(rng.randint(0, 5) for _ in range(rng.randint(0, 3))),
                tuple(rng.randint(0, 5) for _ in range(rng.randint(0, 3))),
            )
    text = reg.to_text()
    again = Registry.from_text(text)
    assert again.to_text() == text
    assert again.records == reg.records


def test_replay_detects_tampering():
    reg = Registry()
    reg.link((1,), (2, 7))
    text = reg.to_text()
    for old, new in (("fresh=0", "fresh=3"), ("n=3", "n=4")):
        with pytest.raises(ValueError) as exc:
            Registry.from_text(text.replace(old, new))
        assert str(exc.value) == f"line 1 does not read back exactly (expected {text.strip()!r})"


def test_replay_detects_protection_tampering():
    reg = Registry()
    reg.register_protection(one_point_state((1, 2)), horizon=2)
    text = reg.to_text()
    assert Registry.from_text(text).records == reg.records
    with pytest.raises(RegistryError):
        Registry.from_text(text.replace("tuples=(1)|(1,2)", "tuples=(1)|(1,3)"))


def test_stateless_protection_loads_as_recorded():
    line = "protection stage=0 horizon=2 tuples=(4)|(4,4) state=-"
    reg = Registry.from_text(line)
    rec = reg.records[0]
    assert isinstance(rec, ProtectionRecord)
    assert rec.state is None
    assert rec.tuples == ((4,), (4, 4))
    assert reg.to_text().strip() == line


def test_determinism_bit_for_bit():
    def build(seed):
        rng = random.Random(seed)
        reg = Registry()
        for _ in range(100):
            if rng.random() < 0.25:
                reg.register_protection(rand_state(rng), rng.randint(1, 5))
            else:
                reg.link(
                    tuple(rng.randint(0, 6) for _ in range(rng.randint(0, 3))),
                    tuple(rng.randint(0, 6) for _ in range(rng.randint(0, 3))),
                )
        return reg.to_text()

    assert build(42) == build(42)


# -- brute-force scans of the record list, the oracle for the label index --


def scan_blocked(records, n, before_stage):
    """Labels earlier generators and protected tuples carry at coordinate n."""
    used, protected = set(), set()
    for rec in records:
        if rec.stage >= before_stage:
            break
        if isinstance(rec, GeneratorRecord):
            if n <= rec.n:
                used.update((rec.dom[n - 1], rec.ran[n - 1]))
        else:
            protected.update(c[n - 1] for c in rec.tuples if n <= len(c))
    return used, protected


def scan_least(blocked):
    label = 0
    while label in blocked:
        label += 1
    return label


def scan_vanishing_tuple(records, prot):
    blocked = {c[0] for c in prot.tuples}
    for rec in records[: prot.stage + 1]:
        if isinstance(rec, GeneratorRecord):
            blocked.update((rec.dom[0], rec.ran[0]))
    return (scan_least(blocked),)


def scan_first_use(records, n, label):
    for rec in records:
        if isinstance(rec, GeneratorRecord) and n <= rec.n and label in (rec.dom[n - 1], rec.ran[n - 1]):
            return rec.stage
    return None


def scan_first_protection(records, n, label):
    for rec in records:
        if isinstance(rec, ProtectionRecord) and any(
            n <= len(c) and c[n - 1] == label for c in rec.tuples
        ):
            return rec.stage
    return None


def replay_audit(records):
    """The audit as a replay of every record into fresh label sets, each
    record checked before it is added: the oracle for `audit_records`. A
    generator is held to the link rule spelled out here, not to
    `GeneratorRecord.issue`."""
    used, protected, problems = {}, {}, []
    for pos, rec in enumerate(records):
        if rec.stage != pos:
            problems.append(f"stage {rec.stage} out of order")
        else:
            if isinstance(rec, GeneratorRecord):
                problem = replay_generator_problem(rec, used, protected)
            else:
                problem = replay_protection_problem(rec)
            if problem:
                problems.append(f"stage {rec.stage}: {problem}")
        if isinstance(rec, ProtectionRecord):
            for c in rec.tuples:
                for n, label in enumerate(c, start=1):
                    protected.setdefault(n, set()).add(label)
        else:
            for n, pair in enumerate(zip(rec.dom, rec.ran), start=1):
                used.setdefault(n, set()).update(pair)
    return problems


def replay_generator_problem(rec, used, protected):
    """The link rule: n is one past the longer request, dom and ran are the
    request padded to n with the fresh label, which no earlier record used
    or protected at coordinate n."""
    req_dom, req_ran = rec.requested
    n = max(len(req_dom), len(req_ran)) + 1
    pad = (rec.fresh,) * n
    if (rec.n, rec.dom, rec.ran) != (n, (req_dom + pad)[:n], (req_ran + pad)[:n]):
        return f"not the generator issued for its request with fresh label {rec.fresh}"
    in_used = rec.fresh in used.get(n, ())
    if in_used or rec.fresh in protected.get(n, ()):
        kind = "generator label" if in_used else "protected label"
        return f"fresh reuses {kind} {rec.fresh} at coordinate {n}"
    return None


def replay_protection_problem(rec):
    """A horizon of at least 1, and tuples that are the prefixes of the
    state's points up to the horizon, shorter first, when a state is
    recorded."""
    if rec.horizon < 1:
        return "protection horizon must be at least 1"
    if rec.state is None:
        return None
    support = {
        (x.prefix + (x.tail,) * n)[:n]
        for x, _ in rec.state.points
        for n in range(1, rec.horizon + 1)
    }
    if rec.tuples != tuple(sorted(support, key=lambda t: (len(t), t))):
        return (
            "recorded protection tuples do not match the recorded state "
            f"at horizon {rec.horizon}"
        )
    return None


def rand_request(rng):
    return tuple(rng.randint(0, 5) for _ in range(rng.randint(0, 3)))


@pytest.mark.parametrize("seed", range(12))
def test_label_index_matches_record_scans(seed):
    rng = random.Random(seed)
    reg = Registry()
    for _ in range(120):
        roll = rng.random()
        records = reg.records
        if roll < 0.45:
            req = (rand_request(rng), rand_request(rng))
            n = max(map(len, req)) + 1
            expected = scan_least(set().union(*scan_blocked(records, n, len(records))))
            assert reg.link(*req).fresh == expected
        elif roll < 0.6:
            reg.register_protection(rand_state(rng), rng.randint(1, 4))
        elif roll < 0.7:
            del records[rng.randint(0, len(records)):]
        elif roll < 0.85:
            records.append(hand_generator(rng, len(records)))
        else:
            tuples = tuple({rand_request(rng) + (rng.randint(0, 5),) for _ in range(2)})
            records.append(ProtectionRecord(stage=len(records), tuples=tuples, horizon=3))
        records = reg.records
        for rec in records:
            if isinstance(rec, ProtectionRecord):
                assert reg.vanishing_tuple(rec) == scan_vanishing_tuple(records, rec)
        for n in range(1, 6):
            _, protected = scan_blocked(records, n, len(records))
            assert set(reg.labels().protected.get(n, {})) == protected
            for label in range(6):
                first = scan_first_use(records, n, label)
                assert reg.labels().first_use(n, label) == (float("inf") if first is None else first)
                first = scan_first_protection(records, n, label)
                assert reg.labels().first_protection(n, label) == (
                    float("inf") if first is None else first
                )
        gens = [r for r in records if isinstance(r, GeneratorRecord)]
        for rec in records[-3:]:
            if isinstance(rec, GeneratorRecord):
                m = V(rec.dom, rec.ran)
                direct = [r.stage for r in gens if (r.dom, r.ran) == (m.dom, m.ran)]
                adj = [r.stage for r in gens if (r.ran, r.dom) == (m.dom, m.ran)]
                assert reg.generator_stages_matching(m) == (direct, adj)
        assert audit_records(records) == replay_audit(records)


def test_protection_by_stage_rejects_other_stages():
    reg = Registry()
    reg.link((1,), (2,))
    prot = reg.register_protection(one_point_state((1,)), horizon=1)
    assert reg.protection_by_stage(1) is prot
    for stage in (-1, -2, 0, 2, 7):
        with pytest.raises(KeyError):
            reg.protection_by_stage(stage)


# -- the audit against a fresh replay of the whole log --


def hand_generator(rng, stage):
    """A generator record at this stage whose label may already be blocked."""
    req = (rand_request(rng), rand_request(rng))
    n = max(map(len, req)) + 1
    label = rng.randint(0, 4)
    return GeneratorRecord(
        stage=stage, n=n,
        dom=req[0] + (label,) * (n - len(req[0])),
        ran=req[1] + (label,) * (n - len(req[1])),
        requested=req, fresh=label,
    )


def malformed_generator(rng, stage):
    """A generator record that is not the one its request and fresh label
    give: n out of step with the tuples, tuples that do not extend the
    request, one more padded coordinate than the step rule allows, or a
    range padded with another label."""
    rec = hand_generator(rng, stage)
    kind = rng.randrange(4)
    if kind == 0:
        return replace(rec, n=rec.n + 1)
    if kind == 1:
        return replace(rec, requested=(rec.dom, rec.ran))
    if kind == 2:
        return replace(rec, n=rec.n + 1, dom=rec.dom + (rec.fresh,), ran=rec.ran + (rec.fresh,))
    return replace(rec, ran=rec.ran[:-1] + (rec.fresh + 1,))


def malformed_protection(rng, stage):
    """A protection record no registry registers: a horizon of 0, with or
    without a state, or tuples that are not its state's support."""
    state = rand_state(rng)
    kind = rng.randrange(3)
    if kind == 0:
        return ProtectionRecord(stage=stage, tuples=(), horizon=0, state=state)
    if kind == 1:
        return ProtectionRecord(stage=stage, tuples=((rng.randint(0, 5),),), horizon=0)
    horizon = rng.randint(1, 4)
    tuples = tuple(state.support_set(horizon))
    return ProtectionRecord(stage=stage, tuples=tuples[:-1], horizon=horizon, state=state)


def record_mixes(seeds=range(20), steps=150):
    """Seeded logs of linked, registered, hand-made and malformed records,
    cut back, edited in place and restored: the log after every step."""
    for seed in seeds:
        rng = random.Random(seed)
        reg = Registry()
        saved = []  # (position, original record) of in-place edits
        for _ in range(steps):
            records = reg.records
            roll = rng.random()
            if roll < 0.35:
                reg.link(rand_request(rng), rand_request(rng))
            elif roll < 0.45:
                reg.register_protection(rand_state(rng), rng.randint(1, 4))
            elif roll < 0.52:
                del records[rng.randint(0, len(records)):]
            elif roll < 0.6:
                records.append(hand_generator(rng, len(records)))
            elif roll < 0.65:
                tuples = tuple({rand_request(rng) + (rng.randint(0, 5),) for _ in range(2)})
                records.append(ProtectionRecord(stage=len(records), tuples=tuples, horizon=3))
            elif records and roll < 0.9:
                pos = rng.randrange(len(records))
                saved.append((pos, records[pos]))
                edit = rng.randrange(5)
                if edit == 0:
                    records[pos] = hand_generator(rng, pos)
                elif edit == 1:
                    records[pos] = malformed_generator(rng, pos)
                elif edit == 2:
                    records[pos] = malformed_protection(rng, pos)
                elif edit == 3:
                    stage = pos + rng.choice((-2, -1, 1, 3))
                    records[pos] = replace(records[pos], stage=stage)
                else:
                    other = rng.randrange(len(records))
                    records[pos], records[other] = records[other], records[pos]
            elif saved:
                pos, rec = saved.pop()
                if pos < len(records):
                    records[pos] = rec
            yield reg.records


def test_audit_records_matches_fresh_replay():
    verdicts, counts = set(), set()
    for records in record_mixes():
        problems = audit_records(records)
        assert problems == replay_audit(records)
        verdicts.update(problems or ["ok"])
        counts.add(min(len(problems), 2))
    assert counts == {0, 1, 2}
    for phrase in (
        "ok", "out of order", "not the generator issued", "reuses generator label",
        "reuses protected label", "horizon must be at least 1",
        "tuples do not match the recorded state",
    ):
        assert any(phrase in verdict for verdict in verdicts), phrase


def refused_positions(records):
    """The positions of the records `audit_records` refuses."""
    refused, before = [], 0
    for k in range(len(records)):
        now = len(audit_records(records[: k + 1]))
        if now > before:
            refused.append(k)
        before = now
    return refused


def test_load_audit_and_verify_agree():
    """Whatever the audit refuses, loading the log's text refuses at or
    before that record's line; whatever `verify_certificate` refuses in a
    generator alone, the audit refuses too."""

    def projection_witness(alpha):
        p = Polynomial.projection(alpha)
        return IdealWitness(p, alpha, Scalar(1), p)

    kinds, loads_refused = set(), 0
    for records in record_mixes(range(8), 80):
        records = list(records)
        refused = refused_positions(records)
        if refused:
            loads_refused += 1
            k = refused[0]
            text = "".join(rec.to_line() + "\n" for rec in records[: k + 1])
            with pytest.raises((RegistryError, ValueError)) as exc:
                Registry.from_text(text)
            assert int(re.match(r"line (\d+)", str(exc.value)).group(1)) <= k + 1
        for k, rec in enumerate(records):
            if isinstance(rec, GeneratorRecord):
                w1, w2 = map(projection_witness, rec.requested)
                report = verify_certificate(PrimenessCertificate(w1, w2, rec), None)
                kinds.add(report.ok)
                if not report.ok:
                    assert k in refused, (rec, report.problems)
    assert kinds == {True, False}
    assert loads_refused > 100


def count_record_problem_calls(monkeypatch):
    calls = []
    real = registry.record_problem

    def counting(index, pos, rec):
        calls.append(rec)
        return real(index, pos, rec)

    monkeypatch.setattr(witnesses, "record_problem", counting)
    return calls


def test_certificate_verify_checks_one_record(monkeypatch):
    rng = random.Random(5)
    reg = Registry()
    for _ in range(300):
        if rng.random() < 0.1:
            reg.register_protection(rand_state(rng), rng.randint(1, 4))
        else:
            reg.link(rand_request(rng), rand_request(rng))
    reg = Registry.from_text(reg.to_text())
    w1 = ideal_projection_witness(reg, Polynomial.projection((1,)), SequenceDesc((1,), 0))
    w2 = ideal_projection_witness(reg, Polynomial.projection((2,)), SequenceDesc((2,), 0))
    cert = primeness_witness(reg, w1, w2)
    calls = count_record_problem_calls(monkeypatch)
    assert verify_certificate(cert, reg)
    assert len(calls) == 1
