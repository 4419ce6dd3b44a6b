"""Executable ideal and state-vanishing arguments with checkable artifacts.

Two pipelines live here.

The primeness pipeline turns a positive element q*q and a point where its
diagonal is positive into a projection inside the ideal it generates, with an
expression-tree certificate; two such witnesses plus one registry link yield
a single product expression that normalizes to a projection lying in both
ideals at once.

The vanishing pipeline takes a word of registered generators, their adjoints
and arbitrary projections, containing the protected pivot projection, and
produces either a step-by-step trace exhibiting a carrier tuple whose final
coordinate avoids everything the protection shields (so the registered state
annihilates the word), or a report that the word collapses to zero outright.

A certificate verifies by the premises of the ideal argument alone, its
expressions being derived from its fields and held to read back exactly, so
its verdict does not rest on the functions that built it, though it shares
their polynomial arithmetic. A trace, read in one pass as exactly what it
prints, verifies by re-running the producer's induction (`vanishing_witness`)
against the registry and comparing, so its verdict rests on that code.
"""

from __future__ import annotations

import re
from typing import Optional, Union

from .cylinders import (
    Frozen,
    SequenceDesc,
    Tup,
    Value,
    extends,
    format_tuple,
    parse_natural,
    parse_tuple_text,
    read_natural,
    read_tuple,
)
from .expr import eval_expr, factor_text, literal_text, poly_text
from .monomials import (
    V,
    ZERO,
    Monomial,
    _v,
    format_monomial,
    is_projection,
    multiply,
    normal_form,
    read_monomial,
)
from .parser import parse_expr, parse_word, reprint_polynomial
from .polynomials import ONE, DiagonalState, Polynomial, Scalar, read_scalar
from .registry import (
    GeneratorRecord,
    LabelIndex,
    ProtectionRecord,
    Registry,
    RegistryError,
    check_line_breaks,
    check_reads_back,
    parse_record_line,
    record_from_fields,
    record_problem,
    record_values,
    refuse,
    take_field,
)


class WitnessError(Exception):
    """A violated precondition, reported distinctly from zero products."""


class HorizonError(WitnessError):
    """A trace reaches deeper than the protection horizon covers."""


class SoundnessError(Exception):
    """The registry and a nonzero word contradict the avoidance claim.

    Unreachable through the public API; it means records were tampered with.
    """


# ---------------------------------------------------------------------------
# ideal membership witnesses


class IdealWitness(Value):
    """P(alpha) * source * P(alpha) collapses to scalar * P(alpha), scalar != 0.

    `source` is the positive element root'*root, so P(alpha) lies in any
    closed two-sided ideal containing it; the certificate line spells that
    out as 1/scalar * P(alpha) * root' * root * P(alpha).
    """

    __slots__ = ("source", "alpha", "scalar", "root")

    def __init__(self, source: Polynomial, alpha: Tup, scalar: Scalar, root: Polynomial) -> None:
        self.source = source
        self.alpha = alpha
        self.scalar = scalar
        self.root = root

    def to_lines(self) -> list[str]:
        return self.block(poly_text(self.root), poly_text(self.source))

    def block(self, root: str, source: str) -> list[str]:
        """The witness block, given the canonical texts of root and source."""
        alpha = format_tuple(self.alpha)
        certificate = [literal_text(ONE / self.scalar), f"P({alpha})",
                       factor_text(self.root, root, adjoint=True), factor_text(self.root, root), f"P({alpha})"]
        return [
            "witness",
            f"alpha {alpha}",
            f"scalar {self.scalar.to_text()}",
            f"root {root}",
            f"source {source}",
            "certificate " + " * ".join(certificate),
            "end witness",
        ]


def ideal_projection_witness(
    reg: Registry, q: Polynomial, x: SequenceDesc
) -> IdealWitness:
    """Locate a projection in the ideal generated by q*q.

    The caller supplies a point x with positive diagonal value for q*q.
    The witness cylinder extends the first coordinates of x by one fresh
    coordinate, chosen to avoid every tuple of q at that depth and every
    label the registry protects there; compressing q*q to that cylinder
    leaves an exact nonzero multiple of its projection.
    """
    source = q.adjoint() * q
    positivity = source.g_eval(x)
    if not positivity:
        raise WitnessError(
            "the diagonal value of q*q vanishes at the supplied point; "
            "a point with positive value is required"
        )
    n = q.max_tuple_len() + 1
    head = x.head(n - 1)
    blocked = {t[n - 1] for t in q.tuples() if len(t) >= n}
    blocked.update(reg.labels().protected.get(n, {}))
    fresh = 0
    while fresh in blocked:
        fresh += 1
    alpha = head + (fresh,)
    scalar = source.g_on_cylinder(alpha)
    if not scalar:
        raise SoundnessError("compression scalar vanished despite a positive point")
    if source.compress(alpha) != Polynomial.projection(alpha).scale(scalar):
        raise SoundnessError("compression is not the expected multiple of the projection")
    return IdealWitness(source=source, alpha=alpha, scalar=scalar, root=q)


class PrimenessCertificate(Value):
    """Two ideal witnesses and the generator linking their cylinders.

    Together they put the projection of the generator's range tuple in both
    ideals at once. The product line spells that out: its left half pushes
    witness1's projection through the linking isometry, its right half is
    witness2's compression.
    """

    __slots__ = ("witness1", "witness2", "generator")

    def __init__(
        self, witness1: IdealWitness, witness2: IdealWitness, generator: GeneratorRecord
    ) -> None:
        self.witness1 = witness1
        self.witness2 = witness2
        self.generator = generator

    def claim(self) -> Polynomial:
        return Polynomial.projection(self.generator.ran)

    def to_text(self) -> str:
        w1, w2 = self.witness1, self.witness2
        texts = [poly_text(p) for p in (w1.root, w1.source, w2.root, w2.source)]
        return "\n".join(self.lines(*texts)) + "\n"

    def lines(self, root1: str, source1: str, root2: str, source2: str) -> list[str]:
        """The certificate's lines, given the canonical texts of each
        witness's root and source; each source text also makes its product
        factor."""
        w1, w2, rec = self.witness1, self.witness2, self.generator
        block1, block2 = w1.block(root1, source1), w2.block(root2, source2)
        src1, src2 = factor_text(w1.source, source1), factor_text(w2.source, source2)
        v = format_monomial(rec.monomial())
        dom, ran, a1, a2 = (f"P({format_tuple(t)})" for t in (rec.dom, rec.ran, w1.alpha, w2.alpha))
        s1, s2 = (literal_text(ONE / w.scalar) for w in (w1, w2))
        product = (s1, v, dom, a1, src1, a1, dom, v + "'", s2, ran, a2, src2, a2, ran)
        return ["prefixalg certificate v1", rec.to_line(), *block1, *block2,
                "product " + " * ".join(product), f"claim {ran}"]


def primeness_witness(
    reg: Registry, w1: IdealWitness, w2: IdealWitness
) -> PrimenessCertificate:
    """Link the two witness cylinders; the certificate is the witnesses and
    the generator record."""
    return PrimenessCertificate(witness1=w1, witness2=w2, generator=reg.link(w1.alpha, w2.alpha))


# ---------------------------------------------------------------------------
# state-vanishing witnesses

CASE_BASE = "base"
CASE_LEFT_ANCHOR = "leftmost-anchor"
CASE_PROJECTION = "projection-carry"
CASE_PREFIX_REWRITE = "prefix-rewrite"
CASE_EARLY_ORTHOGONAL = "early-orthogonal"
CASE_LATE_DOMINATES = "late-dominates"
CASES = (CASE_BASE, CASE_LEFT_ANCHOR, CASE_PROJECTION, CASE_PREFIX_REWRITE,
         CASE_EARLY_ORTHOGONAL, CASE_LATE_DOMINATES)

TRACE_HEADER = "prefixalg trace v1"


class TraceStep(Frozen):
    """One induction step: the carrier after handling the factor at pos."""

    __slots__ = ("position", "case", "carrier", "stage", "adjoint")

    def __init__(
        self, position: int, case: str, carrier: Tup, stage: Optional[int] = None,
        adjoint: bool = False,
    ) -> None:
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "case", case)
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "stage", stage)
        object.__setattr__(self, "adjoint", adjoint)

    def to_line(self) -> str:
        stage = "-" if self.stage is None else str(self.stage)
        return (
            f"step pos={self.position} case={self.case} stage={stage} "
            f"adjoint={int(self.adjoint)} carrier={format_tuple(self.carrier)}"
        )


# The slot descriptors write a field past the class's refusing __setattr__.
_new_object = object.__new__
_set_position, _set_case, _set_carrier, _set_stage, _set_adjoint = [
    TraceStep.__dict__[name].__set__ for name in TraceStep.__slots__
]


def _step(position: int, case: str, carrier: Tup, stage: Optional[int], adjoint: bool) -> TraceStep:
    """TraceStep(position, case, carrier, stage, adjoint): a bare instance
    whose slots are set directly."""
    step = _new_object(TraceStep)
    _set_position(step, position)
    _set_case(step, case)
    _set_carrier(step, carrier)
    _set_stage(step, stage)
    _set_adjoint(step, adjoint)
    return step


class VanishingTrace(Value):
    """A verified carrier (b, n) for a nonzero word containing the pivot.

    The final carrier satisfies: its projection absorbs the word from the
    left; no generator issued up to the protection stage touches its final
    coordinate; no protected tuple does either.
    """

    __slots__ = ("word", "pivot", "prot_stage", "steps", "carrier")

    def __init__(
        self, word: tuple[Monomial, ...], pivot: Tup, prot_stage: int,
        steps: tuple[TraceStep, ...], carrier: Tup,
    ) -> None:
        self.word = word
        self.pivot = pivot
        self.prot_stage = prot_stage
        self.steps = steps
        self.carrier = carrier

    @property
    def depth(self) -> int:
        return len(self.carrier)

    def to_lines(self) -> list[str]:
        lines = [
            f"prot {self.prot_stage}",
            f"pivot {format_tuple(self.pivot)}",
            "word " + "|".join(format_monomial(m) for m in self.word),
        ]
        lines.extend(step.to_line() for step in self.steps)
        lines.append(f"final carrier={format_tuple(self.carrier)} depth={self.depth}")
        return lines

    def to_text(self) -> str:
        return "\n".join([TRACE_HEADER] + self.to_lines()) + "\n"


class ZeroReport(Value):
    """The word collapses to the zero operator; nothing to witness."""

    __slots__ = ("word", "pivot", "prot_stage", "steps", "reason")

    def __init__(
        self, word: tuple[Monomial, ...], pivot: Tup, prot_stage: int,
        steps: tuple[TraceStep, ...], reason: str,
    ) -> None:
        self.word = word
        self.pivot = pivot
        self.prot_stage = prot_stage
        self.steps = steps
        self.reason = reason


def _classify_word(
    index: LabelIndex, pivot: Tup, word: list[Monomial]
) -> list[Optional[tuple[list[int], list[int]]]]:
    """Validate every factor; isometries must be registered generators.
    Each factor's (direct, adjoint) issuing stages, None for a projection."""
    if not word:
        raise WitnessError("the word must be non-empty")
    stages, issued = [], index.stages
    pivot_proj = V(pivot, pivot)
    has_pivot = False
    for m in word:
        if m is ZERO:
            raise WitnessError("the zero operator is not a word factor")
        assert isinstance(m, V)
        if m == pivot_proj:
            has_pivot = True
        if is_projection(m):
            stages.append(None)
            continue
        direct, adj = issued.get((m.dom, m.ran), []), issued.get((m.ran, m.dom), [])
        if not direct and not adj:
            raise WitnessError(
                f"factor {format_monomial(m)} is not a registered generator "
                f"or the adjoint of one"
            )
        stages.append((direct, adj))
    if not has_pivot:
        raise WitnessError(
            f"the word must contain the pivot projection {format_monomial(pivot_proj)}"
        )
    return stages


def _walk(
    index: LabelIndex,
    prot_stage: int,
    shielded: dict[tuple[int, int], Tup],
    pivot: Tup,
    word: list[Monomial],
    stages: list[Optional[tuple[list[int], list[int]]]],
) -> tuple[list[TraceStep], Optional[Tup], str, Optional[Monomial]]:
    """Run the induction from the leftmost pivot leftward, one factor a step.

    Each step extends the suffix product by its factor and checks its
    carrier against it. Returns (steps, final carrier, "", the whole word's
    normal form) or, at a dead end, (steps, None, reason, None).
    """
    anchor = word.index(_v(pivot, pivot))
    carrier, steps = pivot, []
    for i in range(anchor, -1, -1):
        m, issued, stage = word[i], stages[i], None
        if i == anchor:
            case = CASE_BASE if anchor == len(word) - 1 else CASE_LEFT_ANCHOR
        elif issued is None:
            case = CASE_PROJECTION
        elif len(carrier) > len(m.dom):
            if not extends(carrier, m.dom):
                return steps, None, f"factor at position {i + 1} misses the carrier cylinder", None
            case, stage = CASE_PREFIX_REWRITE, max(issued[0] + issued[1])
            carrier = m.ran + carrier[len(m.dom):]
        else:
            late = [s for s in issued[0] + issued[1] if s > prot_stage]
            case = CASE_LATE_DOMINATES if late else CASE_EARLY_ORTHOGONAL
            stage = max(late or issued[0] + issued[1])
            carrier = m.ran if late else carrier
        # A generator step is marked adjoint when its stage issued the
        # factor's adjoint rather than the factor itself.
        adjoint = issued is not None and stage not in issued[0]
        steps.append(_step(i + 1, case, carrier, stage, adjoint))
        suffix = multiply(m, suffix) if i < anchor else normal_form(word[anchor:])
        _check_carrier(index, prot_stage, shielded, carrier, suffix)
        if case == CASE_EARLY_ORTHOGONAL:
            why = "was issued before the protection and cannot meet the carrier"
            return steps, None, f"factor at position {i + 1} {why}", None
    return steps, carrier, "", suffix


def _check_carrier(
    index: LabelIndex, prot_stage: int, shielded: dict[tuple[int, int], Tup], carrier: Tup,
    suffix_nf: Monomial,
) -> None:
    """The three claim properties for one carrier, against the registry's
    label index and the protection's first tuple at each (coordinate,
    label) (`LabelIndex.facts`)."""
    n, label = len(carrier), carrier[-1]
    if multiply(_v(carrier, carrier), suffix_nf) != suffix_nf:
        raise SoundnessError("carrier projection does not absorb the product")
    first = index.first_use(n, label)
    if first <= prot_stage:
        raise SoundnessError(f"carrier coordinate {n} collides with generator stage {first}")
    c = shielded.get((n, label))
    if c is not None:
        raise SoundnessError(
            f"carrier coordinate {n} collides with protected tuple {format_tuple(c)}"
        )


def vanishing_witness(
    reg: Registry, prot: ProtectionRecord, pivot: Tup, word: list[Monomial]
) -> Union[VanishingTrace, ZeroReport]:
    """Trace the avoidance induction over a word containing the pivot.

    Every factor right of the leftmost pivot is irrelevant to the carrier;
    factors left of it are handled case by case: projections carry the
    carrier through, generators shorter than the carrier rewrite its prefix,
    and generators at least as deep must postdate the protection, in which
    case their range tuple takes over as the carrier. A word that collapses
    to zero yields a ZeroReport instead; preconditions raise WitnessError.
    """
    reg.check_owns(prot)
    index = reg.labels()
    vanishing, shielded = index.facts(prot)
    pivot = tuple(pivot)
    if pivot != vanishing:
        raise WitnessError(
            f"pivot {format_tuple(pivot)} is not the vanishing tuple "
            f"of the given protection"
        )
    stages = _classify_word(index, pivot, word)
    steps, carrier, reason, product = _walk(index, prot.stage, shielded, pivot, word, stages)
    walked = dict(word=tuple(word), pivot=pivot, prot_stage=prot.stage, steps=tuple(steps))
    # A walk that reached the left end has multiplied out the whole word.
    if (normal_form(word) if product is None else product) is ZERO:
        return ZeroReport(**walked, reason=reason or "the factors multiply to the zero operator")
    if carrier is None:
        # Only a registry edited out of soundness stops a nonzero word.
        raise SoundnessError(f"nonzero word at a dead end: {reason}")
    return VanishingTrace(**walked, carrier=carrier)


def _horizon_problem(trace: VanishingTrace, prot: ProtectionRecord) -> Optional[str]:
    """Name the trace's overshoot when a step carrier is deeper than the
    protection's horizon; None when the horizon covers every step."""
    reached = max((len(step.carrier) for step in trace.steps), default=0)
    if reached <= prot.horizon:
        return None
    return f"the trace reaches depth {reached} but the protection horizon is {prot.horizon}"


def check_state_vanishes(
    rho: DiagonalState,
    reg: Registry,
    prot: ProtectionRecord,
    pivot: Tup,
    word: list[Monomial],
    *,
    trace: Union[VanishingTrace, ZeroReport, None] = None,
) -> Scalar:
    """Evaluate the registered state on the word and prove the value is zero.

    The protection must have been generated by this state, and its horizon
    must cover every depth the trace reaches; otherwise the final carrier
    could slip past the protected prefixes. A caller that already holds the
    result of `vanishing_witness` for these arguments passes it as `trace`
    so that it is not built again.
    """
    if not rho.is_support(prot.horizon, prot.tuples):
        raise WitnessError(
            "the supplied state does not generate the protection's tuples "
            "at its horizon"
        )
    if trace is None:
        result = vanishing_witness(reg, prot, pivot, word)
    elif (trace.word, trace.pivot, trace.prot_stage) != (tuple(word), tuple(pivot), prot.stage):
        raise WitnessError("the supplied trace is for another word, pivot or protection")
    else:
        result = trace
    if isinstance(result, ZeroReport):
        return Scalar(0)
    problem = _horizon_problem(result, prot)
    if problem:
        raise HorizonError(problem)
    if rho.mass(result.carrier):
        raise SoundnessError("state has mass on the carrier cylinder")
    # A diagonal state sees only the diagonal: a monomial that rewrites its
    # cylinder moves every basis vector off itself, so only a projection
    # has a nonzero value, the mass of its cylinder.
    m = normal_form(word)
    value = rho.mass(m.dom) if m is not ZERO and m.dom == m.ran else Scalar(0)
    if value:
        raise SoundnessError("state evaluation is nonzero despite a verified trace")
    return value


# ---------------------------------------------------------------------------
# serialization and independent re-verification


class VerifyReport(Value):
    __slots__ = ("ok", "problems")

    def __init__(self, ok: bool, problems: Optional[list[str]] = None) -> None:
        self.ok = ok
        self.problems = [] if problems is None else problems

    def __bool__(self) -> bool:
        return self.ok


def _parse_scalar(text: str) -> Scalar:
    """The scalar text prints; other text is read by the descent, which
    words its refusal."""
    scalar = read_scalar(text)
    if scalar is not None:
        return scalar
    p = eval_expr(parse_expr(text))
    if not p:
        return Scalar(0)
    terms = dict(p.terms)
    unit = V((), ())
    if set(terms) != {unit}:
        raise ValueError(f"not a scalar literal: {text!r}")
    return terms[unit]


WITNESS_KEYS = ("witness", "alpha", "scalar", "root", "source")
WITNESS_LINES = len(WITNESS_KEYS) + 2  # the derived certificate line and "end witness"


def parse_witness_block(lines: list[str], first_line: int) -> tuple[IdealWitness, tuple[str, str]]:
    """The witness whose block opens `lines`, read from its first five lines
    by position, and the canonical texts of its root and source; the rest of
    the block is derived, for the caller to read back. Errors name lines[k]
    as line first_line + k."""
    values = []
    for k, key in enumerate(WITNESS_KEYS):
        word, _, value = lines[k].partition(" ") if k < len(lines) else ("", "", "")
        if word != key:
            raise ValueError(f"line {first_line + k}: expected a line starting {key!r}")
        values.append(value)
    scalar = _parse_scalar(values[2])
    if not scalar:
        raise ValueError(f"line {first_line + 2}: zero compression scalar")
    alpha = parse_tuple_text(values[1])
    root, root_text = reprint_polynomial(values[3])
    source, source_text = reprint_polynomial(values[4])
    witness = IdealWitness(alpha=alpha, scalar=scalar, root=root, source=source)
    return witness, (root_text, source_text)


def parse_certificate_text(text: str) -> PrimenessCertificate:
    """The certificate a file holds, read by position: header, generator
    record, two witness blocks, then the derived product and claim lines.
    The whole text must be exactly what the certificate prints, each line
    ended by one newline."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != "prefixalg certificate v1":
        raise ValueError("not a certificate file (bad header)")
    check_line_breaks(text, lines)
    fields = parse_record_line(lines[1] if len(lines) > 1 else "", 2)
    if fields["_kind"] != "generator":
        raise ValueError("certificate is missing its generator record")
    witness1, texts1 = parse_witness_block(lines[2:], 3)
    witness2, texts2 = parse_witness_block(lines[2 + WITNESS_LINES:], 3 + WITNESS_LINES)
    cert = PrimenessCertificate(witness1, witness2, record_from_fields(fields, 2))
    check_reads_back(lines, cert.lines(*texts1, *texts2))
    return cert


def _verify_witness(w: IdealWitness, label: str, problems: list[str]) -> None:
    """P(alpha) lies in the ideal of the source: the source is a positive
    element whose compression to alpha is a nonzero multiple of P(alpha)."""
    if not w.scalar:
        problems.append(f"{label}: zero compression scalar")
    if w.root.adjoint() * w.root != w.source:
        problems.append(f"{label}: source is not root'*root")
    if w.source.compress(w.alpha) != Polynomial.projection(w.alpha).scale(w.scalar):
        problems.append(f"{label}: compression is not scalar * P(alpha)")


def verify_certificate(
    cert: PrimenessCertificate, reg: Optional[Registry] = None
) -> VerifyReport:
    """Check the premises that put the claim P(ran) in both ideals.

    Each witness puts P(alpha) in its ideal, and a generator with dom
    properly extending alpha1 and ran properly extending alpha2 gives
    P(ran) = V P(dom) P(alpha1) P(dom) V' in the first ideal and
    P(ran) = P(ran) P(alpha2) P(ran) in the second. No expression is
    evaluated: the certificate's chains are derived from these fields. The
    generator is judged by `record_problem`: alone by the generator rule
    without a registry, and against the registry's earlier records with one.
    """
    problems: list[str] = []
    _verify_witness(cert.witness1, "witness1", problems)
    _verify_witness(cert.witness2, "witness2", problems)
    rec = cert.generator
    if rec.requested != (cert.witness1.alpha, cert.witness2.alpha):
        problems.append("generator was not requested for the witness cylinders")
    if reg is None:
        problem = record_problem(None, rec.stage, rec)
        if problem:
            problems.append(f"generator record: {problem}")
    elif rec.stage >= len(reg.records) or reg.records[rec.stage] != rec:
        problems.append(f"registry has no matching record at stage {rec.stage}")
    else:
        problem = record_problem(reg.labels(), rec.stage, rec)
        if problem:
            problems.append(f"registry audit fails: {problem}")
    return VerifyReport(ok=not problems, problems=problems)


def verify_certificate_text(text: str, reg: Optional[Registry] = None) -> VerifyReport:
    """Parse, insist that the text is exactly what the parsed certificate
    prints, then verify the certificate."""
    try:
        cert = parse_certificate_text(text)
    except (ValueError, KeyError, IndexError, RegistryError) as exc:
        return VerifyReport(ok=False, problems=[f"malformed certificate: {exc}"])
    return verify_certificate(cert, reg)


def parse_trace_lines(lines: list[str], first_line: int = 1) -> VanishingTrace:
    """The trace these lines hold, read leniently line by line to word the
    refusal of lines the one-pass reader refused; errors name the line,
    counting the first given line as `first_line`."""
    fields: dict[str, str] = {}
    steps: list[TraceStep] = []
    final: Optional[Tup] = None
    for lineno, line in enumerate(lines, start=first_line):
        line = line.strip()
        key, _, value = line.partition(" ")
        if key == "step":
            f = parse_record_line(line, lineno)
            steps.append(
                TraceStep(
                    position=take_field(f, lineno, "pos", parse_natural),
                    case=take_field(f, lineno, "case", _parse_case),
                    carrier=take_field(f, lineno, "carrier", parse_tuple_text),
                    stage=take_field(f, lineno, "stage", _parse_stage),
                    adjoint=take_field(f, lineno, "adjoint", str) == "1",
                )
            )
        elif key == "final":
            final = take_field(parse_record_line(line, lineno), lineno, "carrier", parse_tuple_text)
        else:
            fields[key] = value
    if final is None:
        raise ValueError("trace is missing its final carrier")
    missing = next((key for key in ("word", "pivot", "prot") if key not in fields), None)
    if missing:
        raise ValueError(f"trace has no {missing} line")
    word: list[Monomial] = []
    for part in fields["word"].split("|"):
        factors = parse_word(part)
        if len(factors) != 1:
            raise ValueError(f"malformed word factor {part!r}")
        word.append(factors[0])
    return VanishingTrace(
        word=tuple(word),
        pivot=parse_tuple_text(fields["pivot"]),
        prot_stage=parse_natural(fields["prot"]),
        steps=tuple(steps),
        carrier=final,
    )


def _parse_stage(text: str) -> Optional[int]:
    return None if text == "-" else parse_natural(text)


def _parse_case(text: str) -> str:
    if text not in _CASE_NAMES:
        raise ValueError(f"unknown case {text!r}")
    return text


_FINAL_KEYS = ("carrier=", "depth=")
_CASE_NAMES = frozenset(CASES)
_NATURAL = "(?:0|[1-9][0-9]*)"  # a natural number as `str` prints it
# A step line as `TraceStep.to_line` prints it; its groups are the fields.
_STEP_LINE = re.compile(
    rf"step pos=({_NATURAL}) case=({'|'.join(CASES)}) stage=(-|{_NATURAL}) "
    rf"adjoint=([01]) carrier=\(((?:{_NATURAL}(?:,{_NATURAL})*)?)\)"
)


def _read_canonical_lines(lines: list[str]) -> Optional[VanishingTrace]:
    """The trace whose `to_lines()` are exactly these lines, or None for
    any other lines. Checks, field by field, everything the printer
    decides: the line order, the keys and single spaces, naturals and
    labels as `str` prints them, one of the six case names, V only with
    dom != ran of equal length, and a final depth equal to the carrier's
    length."""
    if len(lines) < 4:
        return None
    prot, pivot, word_line = lines[:3]
    if prot[:5] != "prot " or pivot[:6] != "pivot " or word_line[:5] != "word ":
        return None
    prot, pivot = read_natural(prot[5:]), read_tuple(pivot[6:])
    if prot is None or pivot is None:
        return None
    word = []
    for text in word_line[5:].split("|"):
        m = read_monomial(text)
        if m is None:
            return None
        word.append(m)
    steps = []
    try:
        for line in lines[3:-1]:
            match = _STEP_LINE.fullmatch(line)
            if match is None:
                return None
            position, case, stage, adjoint, labels = match.groups()
            carrier = tuple(map(int, labels.split(","))) if labels else ()
            stage = None if stage == "-" else int(stage)
            steps.append(_step(int(position), case, carrier, stage, adjoint == "1"))
    except ValueError:  # a number with more digits than `int` converts
        return None
    final = record_values(lines[-1], "final", _FINAL_KEYS)
    if final is None:
        return None
    carrier = read_tuple(final[0])
    if carrier is None or final[1] != str(len(carrier)):
        return None
    return VanishingTrace(tuple(word), pivot, prot, tuple(steps), carrier)


def parse_trace_text(text: str) -> VanishingTrace:
    """The trace whose `to_text()` is exactly text, read in one pass. Any
    other text is refused: a bad header, a line not ended by one newline,
    then, parsed line by line, the first line that does not read back."""
    lines = text.split("\n")
    if lines[0] == TRACE_HEADER and not lines[-1]:
        trace = _read_canonical_lines(lines[1:-1])
        if trace is not None:
            return trace
    lines = text.splitlines()
    if not lines or lines[0].strip() != TRACE_HEADER:
        raise ValueError("not a trace file (bad header)")
    check_line_breaks(text, lines)
    refuse(lines, [TRACE_HEADER, *parse_trace_lines(lines[1:], first_line=2).to_lines()])


def read_trace_lines(lines: list[str], first_line: int) -> VanishingTrace:
    """The trace whose `to_lines()` are exactly these lines, read in one
    pass. Any other lines are parsed line by line, naming the first that
    does not read back, counting the first given line as `first_line`."""
    trace = _read_canonical_lines(lines)
    if trace is None:
        refuse(lines, parse_trace_lines(lines, first_line).to_lines(), first_line)
    return trace


def verify_trace(trace: VanishingTrace, reg: Registry) -> VerifyReport:
    """Check the horizon, then re-run the whole induction against the
    registry and compare."""
    problems: list[str] = []
    try:
        prot = reg.protection_by_stage(trace.prot_stage)
    except KeyError:
        return VerifyReport(False, [f"no protection at stage {trace.prot_stage}"])
    horizon_problem = _horizon_problem(trace, prot)
    if horizon_problem:
        problems.append(horizon_problem)
    try:
        result = vanishing_witness(reg, prot, trace.pivot, list(trace.word))
    except (WitnessError, SoundnessError) as exc:
        return VerifyReport(False, problems + [f"re-derivation failed: {exc}"])
    if isinstance(result, ZeroReport):
        return VerifyReport(False, problems + ["the recorded word normalizes to zero"])
    if result.steps != trace.steps or result.carrier != trace.carrier:
        problems.append("re-derived trace differs from the recorded one")
    return VerifyReport(ok=not problems, problems=problems)


def verify_trace_text(text: str, reg: Registry) -> VerifyReport:
    """Read the trace text holds (`parse_trace_text`), then verify it."""
    try:
        trace = parse_trace_text(text)
    except (ValueError, RegistryError) as exc:
        return VerifyReport(ok=False, problems=[f"malformed trace: {exc}"])
    return verify_trace(trace, reg)
