"""Append-only registry of linking isometries and protected state supports.

The registry hands out generators on demand. A link request for a pair of
tuples is answered by extending both to a common new length whose last
coordinate is a label never used before at that depth, either by an earlier
generator or by a protected tuple. Protections register the support of a
state so that all later generators steer clear of it; that is what makes the
state-vanishing argument run.

Records are kept in request order because the avoidance sets depend on what
came earlier. The fresh label is always the least unused one, so replaying a
log of requests reproduces the registry bit for bit. `audit_records` checks a
log as written, record by record, without replaying it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Sequence, Union

from .cylinders import Tup, format_tuple, parse_tuple_text, properly_extends
from .monomials import V, normal_form
from .polynomials import DiagonalState, format_state, parse_state_text


@dataclass(frozen=True, slots=True)
class GeneratorRecord:
    """An issued linking isometry V(dom, ran) and how it was requested.

    dom and ran extend the requested pair to length n, all added coordinates
    equal to the fresh label chosen at this stage. A record read from text
    is taken as written; `check` and the audit judge it.
    """

    stage: int
    n: int
    dom: Tup
    ran: Tup
    requested: tuple[Tup, Tup]
    fresh: int

    def check(self) -> None:
        """Raise ValueError unless the fields agree with each other."""
        if len(self.dom) != self.n or len(self.ran) != self.n:
            raise ValueError("generator tuples must have length n")
        if not properly_extends(self.dom, self.requested[0]):
            raise ValueError("dom must properly extend the first requested tuple")
        if not properly_extends(self.ran, self.requested[1]):
            raise ValueError("ran must properly extend the second requested tuple")
        if self.dom[-1] != self.fresh or self.ran[-1] != self.fresh:
            raise ValueError("both tuples must end in the fresh label")

    def monomial(self) -> V:
        return V(self.dom, self.ran)

    def to_line(self) -> str:
        return (
            f"generator stage={self.stage} req_dom={format_tuple(self.requested[0])} "
            f"req_ran={format_tuple(self.requested[1])} n={self.n} fresh={self.fresh} "
            f"dom={format_tuple(self.dom)} ran={format_tuple(self.ran)}"
        )


@dataclass(frozen=True, slots=True)
class ProtectionRecord:
    """A registered finite family of tuples future generators must avoid.

    Usually the support of a diagonal state truncated at some horizon; the
    horizon is recorded so later checks can detect under-protection.
    """

    stage: int
    tuples: tuple[Tup, ...]
    horizon: int
    state: Optional[DiagonalState] = None

    def to_line(self) -> str:
        tuples = "|".join(format_tuple(t) for t in self.tuples)
        state = format_state(self.state) if self.state is not None else "-"
        return (
            f"protection stage={self.stage} horizon={self.horizon} "
            f"tuples={tuples} state={state}"
        )


Record = Union[GeneratorRecord, ProtectionRecord]


class RegistryError(Exception):
    """A structurally invalid registry or session file."""


class LabelIndex:
    """Which labels the records block at each depth, built by reading each
    record once and able to forget the last record read.

    `used[n]` maps a label to the position of the first generator whose dom
    or ran carries it at coordinate n, and `protected[n]` maps a label to the
    position of the first protection carrying it there; on every registry
    that audits clean, positions equal stages, so "used by a generator up to
    stage s" is `first_use(n, label) <= s`. `free[n]` is a label below which
    every label is blocked. `stages` maps each issued (dom, ran) pair to its
    generator stages. `records` is the indexed record list.
    """

    __slots__ = ("used", "protected", "free", "stages", "records")

    def __init__(self) -> None:
        self.used: dict[int, dict[int, int]] = {}
        self.protected: dict[int, dict[int, int]] = {}
        self.free: dict[int, int] = {}
        self.stages: dict[tuple[Tup, Tup], list[int]] = {}
        self.records: list[Record] = []

    def add(self, rec: Record) -> None:
        # The pairs of `_blocked`, written out: this runs for every record
        # a session load replays.
        pos = len(self.records)
        if isinstance(rec, GeneratorRecord):
            for n, pair in enumerate(zip(rec.dom, rec.ran), start=1):
                used = self.used.setdefault(n, {})
                for label in pair:
                    used.setdefault(label, pos)
            self.stages.setdefault((rec.dom, rec.ran), []).append(rec.stage)
        else:
            for c in rec.tuples:
                for n, label in enumerate(c, start=1):
                    self.protected.setdefault(n, {}).setdefault(label, pos)
        self.records.append(rec)

    def pop(self) -> None:
        """Undo the last `add`: drop the entries the last record made first,
        moving the least-free pointer back to any label that frees."""
        rec = self.records.pop()
        pos = len(self.records)
        table = self.used if isinstance(rec, GeneratorRecord) else self.protected
        for n, label in _blocked(rec):
            labels = table[n]
            if labels.get(label) == pos:
                del labels[label]
                if label < self.free.get(n, 0):
                    self.free[n] = label
        if isinstance(rec, GeneratorRecord):
            key = (rec.dom, rec.ran)
            self.stages[key].pop()
            if not self.stages[key]:
                del self.stages[key]

    def first_use(self, n: int, label: int) -> float:
        """The position of the first generator carrying the label at
        coordinate n, or infinity when no generator does."""
        return self.used.get(n, {}).get(label, math.inf)

    def first_protection(self, n: int, label: int) -> float:
        """The position of the first protection carrying the label at
        coordinate n, or infinity when none does."""
        return self.protected.get(n, {}).get(label, math.inf)

    def least_free(self, n: int) -> int:
        """The least label that no indexed record blocks at coordinate n."""
        used, protected = self.used.get(n, {}), self.protected.get(n, {})
        label = self.free.get(n, 0)
        while label in used or label in protected:
            label += 1
        self.free[n] = label
        return label


def _blocked(rec: Record) -> Iterator[tuple[int, int]]:
    """The (coordinate, label) pairs a record blocks."""
    if isinstance(rec, GeneratorRecord):
        for n, pair in enumerate(zip(rec.dom, rec.ran), start=1):
            for label in pair:
                yield n, label
    else:
        for c in rec.tuples:
            yield from enumerate(c, start=1)


class Registry:
    """The ordered log of generator and protection records.

    The log changes only at its tail: `link` and `register_protection`
    append to it, and a caller may cut it back with `del reg.records[k:]`
    or append records by hand. A record edited in place behind the tail
    is outside this contract: the label index does not see it, though
    `audit_records` still names the collision it makes.
    """

    __slots__ = ("records", "_index")

    def __init__(self) -> None:
        self.records: list[Record] = []
        self._index = LabelIndex()

    # -- queries -------------------------------------------------------

    def labels(self) -> LabelIndex:
        """The label index of the log as it stands now.

        The log changes only at its tail, so the index forgets the records
        it holds that the log no longer does, then indexes the new tail. A
        truncation followed by a link costs one `pop` and one `add`.
        """
        index, records = self._index, self.records
        indexed = index.records
        while len(indexed) > len(records) or (
            indexed and indexed[-1] is not records[len(indexed) - 1]
        ):
            index.pop()
        for rec in records[len(indexed):]:
            index.add(rec)
        return index

    def protection_by_stage(self, stage: int) -> ProtectionRecord:
        if 0 <= stage < len(self.records):
            rec = self.records[stage]
            if isinstance(rec, ProtectionRecord):
                return rec
        raise KeyError(f"no protection record at stage {stage}")

    def generator_stages_matching(self, m: V) -> tuple[list[int], list[int]]:
        """Stages whose generator equals m, and stages whose adjoint does."""
        stages = self.labels().stages
        return list(stages.get((m.dom, m.ran), ())), list(stages.get((m.ran, m.dom), ()))

    # -- mutations -----------------------------------------------------

    def link(self, req_dom: Tup, req_ran: Tup) -> GeneratorRecord:
        """Issue the next linking isometry for the requested pair of tuples.

        The new length is one past the longer request, and the least label
        that no earlier record blocks at that depth fills every added
        coordinate. The issued V satisfies V P(dom) V* = P(ran) exactly.
        """
        stage = len(self.records)
        n = max(len(req_dom), len(req_ran)) + 1
        fresh = self.labels().least_free(n)
        dom = req_dom + (fresh,) * (n - len(req_dom))
        ran = req_ran + (fresh,) * (n - len(req_ran))
        rec = GeneratorRecord(
            stage=stage, n=n, dom=dom, ran=ran, requested=(req_dom, req_ran), fresh=fresh
        )
        self.records.append(rec)
        return rec

    def register_protection(self, rho: DiagonalState, horizon: int) -> ProtectionRecord:
        """Shield the support of rho, truncated at the horizon, from all
        later generators."""
        if horizon < 1:
            raise ValueError("protection horizon must be at least 1")
        rec = ProtectionRecord(
            stage=len(self.records),
            tuples=tuple(rho.support_set(horizon)),
            horizon=horizon,
            state=rho,
        )
        self.records.append(rec)
        return rec

    # -- derived witnesses ----------------------------------------------

    def vanishing_tuple(self, prot: ProtectionRecord) -> Tup:
        """The 1-tuple whose first coordinate avoids every generator issued
        up to the protection and every protected tuple's first coordinate.
        """
        if prot.stage >= len(self.records) or self.records[prot.stage] != prot:
            raise ValueError("protection record does not belong to this registry")
        index = self.labels()
        blocked = {c[0] for c in prot.tuples}
        label = 0
        while label in blocked or index.first_use(1, label) <= prot.stage:
            label += 1
        return (label,)

    # -- validation ------------------------------------------------------

    def audit(self) -> list[str]:
        """Every problem `audit_records` finds in this registry's log."""
        return audit_records(self.records)

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        return "".join(rec.to_line() + "\n" for rec in self.records)

    @staticmethod
    def from_text(text: str, first_line: int = 1) -> "Registry":
        """Rebuild a registry by replaying the recorded requests.

        Generator lines are re-derived from their requested pair and must
        reproduce the recorded result exactly; protections with a recorded
        state must reproduce the recorded support. Any mismatch means the
        file was edited or produced by different code. Errors name the line,
        counting the text's first line as `first_line`.
        """
        reg = Registry()
        for lineno, raw in enumerate(text.splitlines(), start=first_line):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            rec = record_from_fields(parse_record_line(line, lineno), lineno)
            if isinstance(rec, ProtectionRecord):
                state = rec.state
                if state is not None and tuple(state.support_set(rec.horizon)) != rec.tuples:
                    raise RegistryError(
                        f"line {lineno}: recorded protection tuples do not "
                        f"match the recorded state at horizon {rec.horizon}"
                    )
                if rec.stage != len(reg.records):
                    raise RegistryError(f"line {lineno}: protection stage out of order")
                reg.records.append(rec)
            elif reg.link(*rec.requested) != rec:
                raise RegistryError(
                    f"line {lineno}: replay of the link request does not "
                    f"reproduce the recorded generator"
                )
        return reg


def audit_records(records: Sequence[Record]) -> list[str]:
    """Every problem in a log, in stage order; an empty list when none.

    One forward pass over a fresh label index: each record is judged by
    `record_problem` against the records before it as written. Nothing is
    replayed through `link`.
    """
    index, problems = LabelIndex(), []
    for pos, rec in enumerate(records):
        problem = record_problem(index, pos, rec)
        if problem:
            problems.append(problem)
        index.add(rec)
    return problems


def record_problem(index: LabelIndex, pos: int, rec: Record) -> Optional[str]:
    """What is wrong with the record at this position, judged against the
    records before it through an index that holds at least those; None when
    nothing is."""
    if rec.stage != pos:
        return f"stage {rec.stage} out of order"
    if not isinstance(rec, GeneratorRecord):
        return None
    if len(rec.dom) != rec.n or len(rec.ran) != rec.n:
        return f"stage {rec.stage}: tuple lengths differ from n={rec.n}"
    if not (
        properly_extends(rec.dom, rec.requested[0])
        and properly_extends(rec.ran, rec.requested[1])
    ):
        return f"stage {rec.stage}: tuples do not properly extend the request"
    for name, value in (("dom", rec.dom[-1]), ("ran", rec.ran[-1])):
        used = index.first_use(rec.n, value) < pos
        if used or index.first_protection(rec.n, value) < pos:
            kind = "generator label" if used else "protected label"
            return f"stage {rec.stage}: {name} reuses {kind} {value} at coordinate {rec.n}"
    # The issued operator must conjugate its domain projection to its range
    # projection; cheap, so re-checked whenever the record is judged.
    v = rec.monomial()
    if normal_form([v, V(rec.dom, rec.dom), V(rec.ran, rec.dom)]) != V(rec.ran, rec.ran):
        return f"stage {rec.stage}: conjugation identity fails"
    return None


def record_from_fields(fields: dict[str, str], lineno: int) -> Record:
    """The record a parsed record line describes, taken as written. A missing
    or unreadable field is a ValueError naming the line and the field."""
    kind = fields["_kind"]

    def field(name: str, parse: Callable[[str], Any]) -> Any:
        if name not in fields:
            raise ValueError(f"line {lineno}: {kind} record has no field {name}")
        try:
            return parse(fields[name])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {kind} record field {name}: {exc}") from None

    if kind == "generator":
        return GeneratorRecord(
            requested=(field("req_dom", parse_tuple_text), field("req_ran", parse_tuple_text)),
            stage=field("stage", int),
            n=field("n", int),
            fresh=field("fresh", int),
            dom=field("dom", parse_tuple_text),
            ran=field("ran", parse_tuple_text),
        )
    if kind == "protection":
        return ProtectionRecord(
            stage=field("stage", int),
            horizon=field("horizon", int),
            tuples=field("tuples", _parse_tuples),
            state=field("state", lambda text: None if text == "-" else parse_state_text(text)),
        )
    raise RegistryError(f"line {lineno}: unknown record kind {kind!r}")


def _parse_tuples(text: str) -> tuple[Tup, ...]:
    """`(1)|(1,2)` as a tuple of tuples; the empty text holds none."""
    return tuple([parse_tuple_text(t) for t in text.split("|")]) if text else ()


def parse_record_line(line: str, lineno: int) -> dict[str, str]:
    parts = line.split(" ")
    fields: dict[str, str] = {"_kind": parts[0]}
    for part in parts[1:]:
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"line {lineno}: malformed field {part!r}")
        fields[key] = value
    return fields
