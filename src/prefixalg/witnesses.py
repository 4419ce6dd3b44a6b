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

Every certificate and trace re-verifies by plain normal-form evaluation;
nothing trusts the code that constructed it.
"""

from __future__ import annotations

from itertools import zip_longest
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
)
from .expr import (
    Adj,
    Expr,
    Product,
    Proj,
    ScalarLit,
    eval_expr,
    from_polynomial,
    monomial_node,
    poly_text,
    print_expr,
)
from .monomials import (
    V,
    ZERO,
    Monomial,
    format_monomial,
    is_projection,
    multiply,
    normal_form,
)
from .parser import parse_expr, parse_word
from .polynomials import DiagonalState, Polynomial, Scalar
from .registry import (
    GeneratorRecord,
    ProtectionRecord,
    Registry,
    parse_record_line,
    record_from_fields,
    record_problem,
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
    closed two-sided ideal containing it; the certificate is an expression
    tree whose evaluation must equal P(alpha) exactly.
    """

    __slots__ = ("source", "alpha", "scalar", "certificate", "root")

    def __init__(
        self, source: Polynomial, alpha: Tup, scalar: Scalar, certificate: Expr, root: Polynomial
    ) -> None:
        self.source = source
        self.alpha = alpha
        self.scalar = scalar
        self.certificate = certificate
        self.root = root

    def to_lines(self) -> list[str]:
        return [
            "witness",
            f"alpha {format_tuple(self.alpha)}",
            f"scalar {self.scalar.to_text()}",
            f"root {poly_text(self.root)}",
            f"source {poly_text(self.source)}",
            f"certificate {print_expr(self.certificate)}",
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
    root_expr = from_polynomial(q)
    certificate: Expr = Product(
        (
            ScalarLit(Scalar(1) / scalar),
            Proj(alpha),
            Adj(root_expr),
            root_expr,
            Proj(alpha),
        )
    )
    if eval_expr(certificate) != Polynomial.projection(alpha):
        raise SoundnessError("witness certificate does not evaluate to the projection")
    return IdealWitness(
        source=source, alpha=alpha, scalar=scalar, certificate=certificate, root=q
    )


class PrimenessCertificate(Value):
    """One product expression that lands in two ideals at once.

    The left half pushes witness1's projection through the linking isometry,
    the right half is witness2's compression; the whole word normalizes to
    exactly the projection of the generator's range tuple.
    """

    __slots__ = ("witness1", "witness2", "generator", "product_expr")

    def __init__(
        self, witness1: IdealWitness, witness2: IdealWitness, generator: GeneratorRecord,
        product_expr: Expr,
    ) -> None:
        self.witness1 = witness1
        self.witness2 = witness2
        self.generator = generator
        self.product_expr = product_expr

    def claim(self) -> Polynomial:
        return Polynomial.projection(self.generator.ran)

    def to_text(self) -> str:
        lines = ["prefixalg certificate v1", self.generator.to_line()]
        lines.extend(self.witness1.to_lines())
        lines.extend(self.witness2.to_lines())
        lines.append(f"product {print_expr(self.product_expr)}")
        lines.append(f"claim {poly_text(self.claim())}")
        return "\n".join(lines) + "\n"


def primeness_witness(
    reg: Registry, w1: IdealWitness, w2: IdealWitness
) -> PrimenessCertificate:
    """Link the two witness cylinders and assemble the joint certificate."""
    rec = reg.link(w1.alpha, w2.alpha)
    v_node = monomial_node(V(rec.dom, rec.ran))
    half1 = (
        ScalarLit(Scalar(1) / w1.scalar),
        v_node,
        Proj(rec.dom),
        Proj(w1.alpha),
        from_polynomial(w1.source),
        Proj(w1.alpha),
        Proj(rec.dom),
        Adj(v_node),
    )
    half2 = (
        ScalarLit(Scalar(1) / w2.scalar),
        Proj(rec.ran),
        Proj(w2.alpha),
        from_polynomial(w2.source),
        Proj(w2.alpha),
        Proj(rec.ran),
    )
    product_expr = Product(half1 + half2)
    cert = PrimenessCertificate(
        witness1=w1, witness2=w2, generator=rec, product_expr=product_expr
    )
    if eval_expr(product_expr) != cert.claim():
        raise SoundnessError("primeness product does not normalize to the claim")
    return cert


# ---------------------------------------------------------------------------
# state-vanishing witnesses

CASE_BASE = "base"
CASE_LEFT_ANCHOR = "leftmost-anchor"
CASE_PROJECTION = "projection-carry"
CASE_PREFIX_REWRITE = "prefix-rewrite"
CASE_EARLY_ORTHOGONAL = "early-orthogonal"
CASE_LATE_DOMINATES = "late-dominates"


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
        return "\n".join(["prefixalg trace v1"] + self.to_lines()) + "\n"


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
    reg: Registry, pivot: Tup, word: list[Monomial]
) -> list[Optional[tuple[list[int], list[int]]]]:
    """Validate every factor; isometries must be registered generators.
    Each factor's (direct, adjoint) issuing stages, None for a projection."""
    if not word:
        raise WitnessError("the word must be non-empty")
    stages = []
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
        direct, adj = reg.generator_stages_matching(m)
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
    reg: Registry,
    prot: ProtectionRecord,
    pivot: Tup,
    word: list[Monomial],
    stages: list[Optional[tuple[list[int], list[int]]]],
) -> tuple[list[TraceStep], Optional[Tup], str]:
    """Run the induction from the leftmost pivot leftward, one factor a step.

    Each step extends the suffix product by its factor and checks its
    carrier against it. Returns (steps, final carrier, "") or, at a dead
    end, (steps, None, reason).
    """
    anchor = word.index(V(pivot, pivot))
    carrier, steps = pivot, []
    for i in range(anchor, -1, -1):
        m, issued, stage = word[i], stages[i], None
        if i == anchor:
            case = CASE_BASE if anchor == len(word) - 1 else CASE_LEFT_ANCHOR
        elif issued is None:
            case = CASE_PROJECTION
        elif len(carrier) > len(m.dom):
            if not extends(carrier, m.dom):
                return steps, None, f"factor at position {i + 1} misses the carrier cylinder"
            case, stage = CASE_PREFIX_REWRITE, max(issued[0] + issued[1])
            carrier = m.ran + carrier[len(m.dom):]
        else:
            late = [s for s in issued[0] + issued[1] if s > prot.stage]
            case = CASE_LATE_DOMINATES if late else CASE_EARLY_ORTHOGONAL
            stage = max(late or issued[0] + issued[1])
            carrier = m.ran if late else carrier
        # A generator step is marked adjoint when its stage issued the
        # factor's adjoint rather than the factor itself.
        adjoint = issued is not None and stage not in issued[0]
        steps.append(TraceStep(i + 1, case, carrier, stage, adjoint))
        suffix = multiply(m, suffix) if i < anchor else normal_form(word[anchor:])
        _check_carrier(reg, prot, carrier, suffix)
        if case == CASE_EARLY_ORTHOGONAL:
            why = "was issued before the protection and cannot meet the carrier"
            return steps, None, f"factor at position {i + 1} {why}"
    return steps, carrier, ""


def _check_carrier(
    reg: Registry, prot: ProtectionRecord, carrier: Tup, suffix_nf: Monomial
) -> None:
    """The three claim properties for one carrier."""
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
    pivot = tuple(pivot)
    if pivot != reg.vanishing_tuple(prot):
        raise WitnessError(
            f"pivot {format_tuple(pivot)} is not the vanishing tuple "
            f"of the given protection"
        )
    steps, carrier, reason = _walk(reg, prot, pivot, word, _classify_word(reg, pivot, word))
    walked = dict(word=tuple(word), pivot=pivot, prot_stage=prot.stage, steps=tuple(steps))
    if normal_form(word) is ZERO:
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
    if tuple(rho.support_set(prot.horizon)) != prot.tuples:
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
    if rho.evaluate(Polynomial.projection(result.carrier)):
        raise SoundnessError("state has mass on the carrier cylinder")
    value = rho.evaluate(Polynomial.of(normal_form(word)))
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


def _parse_poly(text: str) -> Polynomial:
    return eval_expr(parse_expr(text))


def _parse_scalar(text: str) -> Scalar:
    p = _parse_poly(text)
    if not p:
        return Scalar(0)
    terms = dict(p.terms)
    unit = V((), ())
    if set(terms) != {unit}:
        raise ValueError(f"not a scalar literal: {text!r}")
    return terms[unit]


WITNESS_FIELDS = ("alpha", "scalar", "root", "source", "certificate")


def parse_witness_block(lines: list[str], start: int) -> tuple[IdealWitness, int]:
    """Parse the witness block at lines[start]; errors name lines[i] as line i + 1."""
    if lines[start].strip() != "witness":
        raise ValueError(f"expected a witness block at line {start + 1}")
    fields: dict[str, str] = {}
    i = start + 1
    while i < len(lines) and lines[i].strip() != "end witness":
        key, _, value = lines[i].strip().partition(" ")
        if key not in WITNESS_FIELDS or key in fields:
            what = "repeated" if key in fields else "unknown"
            raise ValueError(f"line {i + 1}: {what} witness field {key!r}")
        fields[key] = value
        i += 1
    if i >= len(lines):
        raise ValueError("unterminated witness block")
    if len(fields) != len(WITNESS_FIELDS):
        missing = next(key for key in WITNESS_FIELDS if key not in fields)
        raise ValueError(f"witness block has no field {missing}")
    witness = IdealWitness(
        source=_parse_poly(fields["source"]),
        alpha=parse_tuple_text(fields["alpha"]),
        scalar=_parse_scalar(fields["scalar"]),
        certificate=parse_expr(fields["certificate"]),
        root=_parse_poly(fields["root"]),
    )
    return witness, i + 1


def check_reads_back(lines: list[str], canonical: list[str], first_line: int = 1) -> None:
    """Raise ValueError at the first of `lines` that differs from what the
    value parsed from them prints, naming it as `first_line` onwards."""
    for lineno, (line, want) in enumerate(zip_longest(lines, canonical), start=first_line):
        if line != want:
            what = "no line" if want is None else repr(want)
            raise ValueError(f"line {lineno} does not read back exactly (expected {what})")


def parse_certificate_text(text: str) -> PrimenessCertificate:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "prefixalg certificate v1":
        raise ValueError("not a certificate file (bad header)")
    fields = parse_record_line(lines[1].strip(), 2)
    if fields["_kind"] != "generator":
        raise ValueError("certificate is missing its generator record")
    rec = record_from_fields(fields, 2)
    rec.check()
    w1, nxt = parse_witness_block(lines, 2)
    w2, nxt = parse_witness_block(lines, nxt)
    tail: dict[str, str] = {}
    for line in lines[nxt:]:
        line = line.strip()
        if not line:
            continue
        key, _, value = line.partition(" ")
        if key not in ("product", "claim") or key in tail:
            raise ValueError(f"unexpected certificate line {line!r}")
        tail[key] = value
    if len(tail) != 2:
        raise ValueError("certificate is missing its product or claim")
    cert = PrimenessCertificate(
        witness1=w1, witness2=w2, generator=rec, product_expr=parse_expr(tail["product"])
    )
    if _parse_poly(tail["claim"]) != cert.claim():
        raise ValueError("certificate claim does not match its generator record")
    return cert


def _verify_witness(w: IdealWitness, label: str, problems: list[str]) -> None:
    if not w.scalar:
        problems.append(f"{label}: zero compression scalar")
    if w.root.adjoint() * w.root != w.source:
        problems.append(f"{label}: source is not root'*root")
    expected = Polynomial.projection(w.alpha)
    if eval_expr(w.certificate) != expected:
        problems.append(f"{label}: certificate does not evaluate to P(alpha)")
    if w.source.compress(w.alpha) != expected.scale(w.scalar):
        problems.append(f"{label}: compression is not scalar * P(alpha)")


def verify_certificate(
    cert: PrimenessCertificate, reg: Optional[Registry] = None
) -> VerifyReport:
    """Re-derive everything a certificate claims, trusting only its text."""
    problems: list[str] = []
    _verify_witness(cert.witness1, "witness1", problems)
    _verify_witness(cert.witness2, "witness2", problems)
    rec = cert.generator
    if rec.n != max(len(rec.requested[0]), len(rec.requested[1])) + 1:
        problems.append("generator length does not follow the step rule")
    if rec.requested != (cert.witness1.alpha, cert.witness2.alpha):
        problems.append("generator was not requested for the witness cylinders")
    if eval_expr(cert.product_expr) != cert.claim():
        problems.append("product expression does not normalize to the claim")
    if reg is not None:
        if rec.stage >= len(reg.records) or reg.records[rec.stage] != rec:
            problems.append(f"registry has no matching record at stage {rec.stage}")
        else:
            problem = record_problem(reg.labels(), rec.stage, rec)
            if problem:
                problems.append(f"registry audit fails: {problem}")
    return VerifyReport(ok=not problems, problems=problems)


def verify_certificate_text(text: str, reg: Optional[Registry] = None) -> VerifyReport:
    try:
        cert = parse_certificate_text(text)
    except (ValueError, KeyError, IndexError) as exc:
        return VerifyReport(ok=False, problems=[f"malformed certificate: {exc}"])
    return verify_certificate(cert, reg)


def parse_trace_lines(lines: list[str], first_line: int = 1) -> VanishingTrace:
    """The trace these lines hold; errors name the line, counting the first
    given line as `first_line`."""
    fields: dict[str, str] = {}
    steps: list[TraceStep] = []
    final: Optional[Tup] = None
    for lineno, line in enumerate(lines, start=first_line):
        line = line.strip()
        if not line:
            continue
        key, _, value = line.partition(" ")
        if key == "step":
            f = parse_record_line(line, lineno)
            steps.append(
                TraceStep(
                    position=take_field(f, lineno, "pos", parse_natural),
                    case=take_field(f, lineno, "case", str),
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


def parse_trace_text(text: str) -> VanishingTrace:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "prefixalg trace v1":
        raise ValueError("not a trace file (bad header)")
    return parse_trace_lines(lines[1:], first_line=2)


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
    """Parse, insist that the text is exactly what the parsed trace prints,
    then verify the trace."""
    try:
        trace = parse_trace_text(text)
        check_reads_back(text.splitlines(), trace.to_text().splitlines())
    except ValueError as exc:
        return VerifyReport(ok=False, problems=[f"malformed trace: {exc}"])
    return verify_trace(trace, reg)
