"""Append-only registry of linking isometries and protected state supports.

The registry hands out generators on demand. A link request for a pair of
tuples is answered by extending both to a common new length whose last
coordinate is a label never used before at that depth, either by an earlier
generator or by a protected tuple. Protections register the support of a
state so that all later generators steer clear of it; that is what makes the
state-vanishing argument run.

Records are kept in request order because the avoidance sets depend on what
came earlier. The fresh label is always the least unused one, so a log is
fixed by its requests. A generator record is fixed by its request and its
fresh label (`GeneratorRecord.issue`); loading, `audit_records` and
certificate verification all hold a record to that rule. A load accepts a
generator line only as exactly what `link` prints at its position, checked
as it is read, and never replays the log; a save writes back the lines a
load read. `audit_records` checks a log as written, record by record.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import zip_longest
from typing import Any, Callable, Iterator, NoReturn, Optional, Sequence, Union

from .cylinders import Frozen, Tup, format_tuple, parse_natural, parse_tuple_text, read_tuple
from .monomials import V
from .polynomials import DiagonalState, format_state, parse_state_text


class GeneratorRecord(Frozen):
    """An issued linking isometry V(dom, ran) and how it was requested.

    dom and ran extend the requested pair to length n, all added coordinates
    equal to the fresh label chosen at this stage: the record `issue` builds.
    A record built by hand or read from a certificate is taken as written;
    `record_problem` judges it.
    """

    __slots__ = ("stage", "n", "dom", "ran", "requested", "fresh")

    def __init__(
        self, stage: int, n: int, dom: Tup, ran: Tup, requested: tuple[Tup, Tup], fresh: int
    ) -> None:
        object.__setattr__(self, "stage", stage)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "ran", ran)
        object.__setattr__(self, "requested", requested)
        object.__setattr__(self, "fresh", fresh)

    @staticmethod
    def issue(stage: int, requested: tuple[Tup, Tup], fresh: int) -> "GeneratorRecord":
        """The generator rule: the record `link` issues at this stage for the
        requested pair when it chooses `fresh`. n is one past the longer
        request, and dom and ran pad the request to length n with `fresh`.
        """
        req_dom, req_ran = requested
        n = _depth(requested)
        rec = _new_object(GeneratorRecord)
        _set_stage(rec, stage)
        _set_n(rec, n)
        _set_dom(rec, req_dom + (fresh,) * (n - len(req_dom)))
        _set_ran(rec, req_ran + (fresh,) * (n - len(req_ran)))
        _set_requested(rec, requested)
        _set_fresh(rec, fresh)
        return rec

    def monomial(self) -> V:
        return V(self.dom, self.ran)

    def to_line(self) -> str:
        return (
            f"generator stage={self.stage} req_dom={format_tuple(self.requested[0])} "
            f"req_ran={format_tuple(self.requested[1])} n={self.n} fresh={self.fresh} "
            f"dom={format_tuple(self.dom)} ran={format_tuple(self.ran)}"
        )


# The slot descriptors write a field past the class's refusing __setattr__;
# `issue` builds its record with them.
_new_object = object.__new__
_set_stage, _set_n, _set_dom, _set_ran, _set_requested, _set_fresh = [
    GeneratorRecord.__dict__[name].__set__ for name in GeneratorRecord.__slots__
]


class ProtectionRecord(Frozen):
    """A registered finite family of tuples future generators must avoid.

    Usually the support of a diagonal state truncated at some horizon; the
    horizon is recorded so later checks can detect under-protection.
    """

    __slots__ = ("stage", "tuples", "horizon", "state")

    def __init__(
        self, stage: int, tuples: tuple[Tup, ...], horizon: int,
        state: Optional[DiagonalState] = None,
    ) -> None:
        object.__setattr__(self, "stage", stage)
        object.__setattr__(self, "tuples", tuples)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "state", state)

    def to_line(self) -> str:
        tuples = "|".join(format_tuple(t) for t in self.tuples)
        state = format_state(self.state) if self.state is not None else "-"
        return (
            f"protection stage={self.stage} horizon={self.horizon} "
            f"tuples={tuples} state={state}"
        )


Record = Union[GeneratorRecord, ProtectionRecord]


def _depth(requested: tuple[Tup, Tup]) -> int:
    """The step rule: a request is linked one coordinate past its longer tuple."""
    return max(len(requested[0]), len(requested[1])) + 1


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
    generator stages. `records` is the indexed record list, and `lines[k]`
    the line `records[k]` was read from, None when it was not read.
    `facts(prot)` is what a vanishing walk asks of a protection, computed
    once per indexed protection and kept until `pop` drops the record.
    """

    __slots__ = ("used", "protected", "free", "stages", "records", "lines", "_facts")

    def __init__(self) -> None:
        self.used: dict[int, dict[int, int]] = {}
        self.protected: dict[int, dict[int, int]] = {}
        self.free: dict[int, int] = {}
        self.stages: dict[tuple[Tup, Tup], list[int]] = {}
        self.records: list[Record] = []
        self.lines: list[Optional[str]] = []
        self._facts: dict[int, tuple[Tup, dict[tuple[int, int], Tup]]] = {}

    def add(self, rec: Record, line: Optional[str] = None) -> None:
        """Index the next record; `line` is the line it was read from, which
        must be exactly what it prints."""
        # The pairs of `_blocked`, written out: this runs for every record
        # a session load reads.
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
        self.lines.append(line)

    def pop(self) -> None:
        """Undo the last `add`: drop the entries the last record made first,
        moving the least-free pointer back to any label that frees."""
        rec = self.records.pop()
        self.lines.pop()
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
        else:
            self._facts.pop(id(rec), None)

    def first_use(self, n: int, label: int) -> float:
        """The position of the first generator carrying the label at
        coordinate n, or infinity when no generator does."""
        return self.used.get(n, {}).get(label, math.inf)

    def first_protection(self, n: int, label: int) -> float:
        """The position of the first protection carrying the label at
        coordinate n, or infinity when none does."""
        return self.protected.get(n, {}).get(label, math.inf)

    def facts(self, prot: ProtectionRecord) -> tuple[Tup, dict[tuple[int, int], Tup]]:
        """The protection's vanishing tuple, and a map from each (coordinate,
        label) its tuples carry to the first of them that carries it.

        Both are fixed while this index holds this very record at its stage,
        since the records before it change only by popping it, and are kept
        under its identity till then. Any other record, such as one edited
        in place behind the log's tail, is computed anew on each call.
        """
        facts = self._facts.get(id(prot))
        if facts is None:
            shielded: dict[tuple[int, int], Tup] = {}
            for c in prot.tuples:
                for key in enumerate(c, start=1):
                    shielded.setdefault(key, c)
            used, stage, label = self.used.get(1, {}), prot.stage, 0
            while (1, label) in shielded or used.get(label, math.inf) <= stage:
                label += 1
            facts = ((label,), shielded)
            if stage < len(self.records) and self.records[stage] is prot:
                self._facts[id(prot)] = facts
        return facts

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

    def check_owns(self, prot: ProtectionRecord) -> None:
        """Raise ValueError unless the log holds this protection at its stage."""
        if prot.stage >= len(self.records) or self.records[prot.stage] != prot:
            raise ValueError("protection record does not belong to this registry")

    def generator_stages_matching(self, m: V) -> tuple[list[int], list[int]]:
        """Stages whose generator equals m, and stages whose adjoint does."""
        stages = self.labels().stages
        return list(stages.get((m.dom, m.ran), ())), list(stages.get((m.ran, m.dom), ()))

    # -- mutations -----------------------------------------------------

    def link(self, req_dom: Tup, req_ran: Tup) -> GeneratorRecord:
        """Issue the next linking isometry for the requested pair of tuples.

        The fresh label is the least label that no earlier record blocks at
        the depth of the step rule, and `GeneratorRecord.issue` builds the
        record. The issued V satisfies V P(dom) V* = P(ran) exactly.
        """
        requested = (req_dom, req_ran)
        fresh = self.labels().least_free(_depth(requested))
        rec = GeneratorRecord.issue(len(self.records), requested, fresh)
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
        up to the protection and every protected tuple's first coordinate;
        the label index computes it once per protection (`LabelIndex.facts`).
        """
        self.check_owns(prot)
        return self.labels().facts(prot)[0]

    # -- validation ------------------------------------------------------

    def audit(self) -> list[str]:
        """Every problem `audit_records` finds in this registry's log."""
        return audit_records(self.records)

    # -- serialization -----------------------------------------------------

    def record_lines(self) -> list[str]:
        """Each record's line: the line a load read it from while it is the
        record indexed at its position, else what it prints."""
        index = self._index
        lines = [
            line if old is rec and line is not None else rec.to_line()
            for rec, old, line in zip(self.records, index.records, index.lines)
        ]
        lines.extend([rec.to_line() for rec in self.records[len(lines):]])
        return lines

    def to_text(self) -> str:
        return "".join([line + "\n" for line in self.record_lines()])

    @staticmethod
    def from_text(text: str) -> "Registry":
        """The registry whose `to_text()` is text; see `from_lines`."""
        return Registry.from_lines(text.splitlines())

    @staticmethod
    def from_lines(lines: list[str], first_line: int = 1) -> "Registry":
        """The registry whose record lines are these, each checked as it is
        read against the records before it; nothing is replayed or linked.

        A generator line is accepted only as exactly what `link` would print
        at its position (`_read_issued`); a protection line is read field by
        field (`_read_record`). Each line is kept, so a save writes it back
        unprinted. Errors name the line, counting the first given line as
        `first_line`.
        """
        reg = Registry()
        records, index = reg.records, reg.labels()
        for lineno, line in enumerate(lines, start=first_line):
            rec = _read_issued(line, len(records), index) or _read_record(index, line, lineno)
            records.append(rec)
            index.add(rec, line)
        return reg


def _read_issued(line: str, pos: int, index: LabelIndex) -> Optional[GeneratorRecord]:
    """The record `link` issues at this position when it prints exactly as
    this line; None for any other line. The index must hold every earlier
    record. The request is read, the fresh label is the index's least free
    one, and every other field is compared as text."""
    words = line.split(" ")
    if len(words) != 8 or words[0] != "generator" or words[1] != f"stage={pos}":
        return None
    _, _, dom_word, ran_word, n_word, fresh_word, dom, ran = words
    if dom_word[:8] != "req_dom=" or ran_word[:8] != "req_ran=":
        return None
    dom_text, ran_text = dom_word[8:], ran_word[8:]
    req_dom, req_ran = read_tuple(dom_text), read_tuple(ran_text)
    if req_dom is None or req_ran is None:
        return None
    n = _depth((req_dom, req_ran))
    if n_word != f"n={n}":
        return None
    fresh = index.least_free(n)
    label = str(fresh)
    if (
        fresh_word != "fresh=" + label
        or dom != "dom=" + _padded(dom_text, n - len(req_dom), label)
        or ran != "ran=" + _padded(ran_text, n - len(req_ran), label)
    ):
        return None
    return GeneratorRecord.issue(pos, (req_dom, req_ran), fresh)


def _padded(text: str, count: int, label: str) -> str:
    """The printed tuple `text` with `count` more coordinates, each the
    printed `label`, as `format_tuple` prints it."""
    if text == "()":
        return "(" + ",".join([label] * count) + ")"
    return text[:-1] + ("," + label) * count + ")"


def _read_record(index: LabelIndex, raw: str, lineno: int) -> ProtectionRecord:
    """The protection a line holds, read field by field, judged by
    `record_problem` and held to read back exactly as it prints. Any other
    line is refused: a generator line quotes what `link` prints for its
    request at this position."""
    line = raw.strip()
    if not line or line.startswith("#"):
        # A save writes only records, so it would drop such a line.
        raise RegistryError(f"line {lineno}: blank or comment line in the record block")
    fields = parse_record_line(line, lineno)
    pos = len(index.records)
    if fields["_kind"] == "generator":
        field = partial(take_field, fields, lineno)
        requested = (field("req_dom", parse_tuple_text), field("req_ran", parse_tuple_text))
        issued = GeneratorRecord.issue(pos, requested, index.least_free(_depth(requested)))
        refuse([raw], [issued.to_line()], lineno)
    rec = record_from_fields(fields, lineno)
    problem = record_problem(None, pos, rec)
    if problem:
        raise RegistryError(f"line {lineno}: {problem}")
    check_reads_back([raw], [rec.to_line()], lineno)
    return rec


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


def record_problem(index: Optional[LabelIndex], pos: int, rec: Record) -> Optional[str]:
    """What is wrong with the record at this position; None when nothing is.

    A generator must be the one `GeneratorRecord.issue` builds for its
    request and fresh label, and the fresh label must be new at depth n:
    neither used nor protected there by the records before it, read through
    an index that holds at least those. With no index the generator is
    judged by the rule alone. A protection needs a horizon of at least 1,
    and its tuples must be the support of its state, when one is recorded,
    up to that horizon.
    """
    if rec.stage != pos:
        return f"stage {rec.stage} out of order"
    if isinstance(rec, ProtectionRecord):
        if rec.horizon < 1:
            return f"stage {rec.stage}: protection horizon must be at least 1"
        if rec.state is not None and not rec.state.is_support(rec.horizon, rec.tuples):
            return (
                f"stage {rec.stage}: recorded protection tuples do not match "
                f"the recorded state at horizon {rec.horizon}"
            )
        return None
    if rec != GeneratorRecord.issue(rec.stage, rec.requested, rec.fresh):
        return (
            f"stage {rec.stage}: not the generator issued for its request "
            f"with fresh label {rec.fresh}"
        )
    if index is not None:
        used = index.first_use(rec.n, rec.fresh) < pos
        if used or index.first_protection(rec.n, rec.fresh) < pos:
            kind = "generator label" if used else "protected label"
            return f"stage {rec.stage}: fresh reuses {kind} {rec.fresh} at coordinate {rec.n}"
    return None


def record_from_fields(fields: dict[str, str], lineno: int) -> Record:
    """The record a parsed record line describes, taken as written. Reading
    takes the fields out of `fields`; a missing, unreadable or unknown field
    is a ValueError naming the line and the field."""
    kind = fields["_kind"]
    field = partial(take_field, fields, lineno)
    if kind == "generator":
        rec: Record = GeneratorRecord(
            requested=(field("req_dom", parse_tuple_text), field("req_ran", parse_tuple_text)),
            stage=field("stage", parse_natural),
            n=field("n", parse_natural),
            fresh=field("fresh", parse_natural),
            dom=field("dom", parse_tuple_text),
            ran=field("ran", parse_tuple_text),
        )
    elif kind == "protection":
        rec = ProtectionRecord(
            stage=field("stage", parse_natural),
            horizon=field("horizon", parse_natural),
            tuples=field("tuples", _parse_tuples),
            state=field("state", lambda text: None if text == "-" else parse_state_text(text)),
        )
    else:
        raise RegistryError(f"line {lineno}: unknown record kind {kind!r}")
    if len(fields) > 1:
        extra = next(key for key in fields if key != "_kind")
        raise ValueError(f"line {lineno}: {kind} record has unknown field {extra}")
    return rec


def take_field(fields: dict[str, str], lineno: int, name: str, parse: Callable[[str], Any]) -> Any:
    """Take one field out of a parsed record line and read it with `parse`;
    a missing or unreadable field is a ValueError naming the line and field."""
    if name not in fields:
        raise ValueError(f"line {lineno}: {fields['_kind']} record has no field {name}")
    try:
        return parse(fields.pop(name))
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {fields['_kind']} record field {name}: {exc}") from None


def check_reads_back(lines: list[str], canonical: list[str], first_line: int = 1) -> None:
    """Raise ValueError at the first of `lines` that differs from what the
    value parsed from them prints, naming it as `first_line` onwards."""
    for lineno, (line, want) in enumerate(zip_longest(lines, canonical), start=first_line):
        if line != want:
            what = "no line" if want is None else repr(want)
            raise ValueError(f"line {lineno} does not read back exactly (expected {what})")


def refuse(lines: list[str], canonical: list[str], first_line: int = 1) -> NoReturn:
    """Refuse lines their one-pass reader refused, as `check_reads_back`
    does; when none differs, that reader is stricter than the printer, and
    the first line is named all the same."""
    check_reads_back(lines, canonical, first_line)
    raise ValueError(f"line {first_line} does not read back exactly")


def check_line_breaks(text: str, lines: list[str]) -> None:
    """Refuse a text whose lines, `text.splitlines()`, do not each end in one
    newline, naming the first line that does not: a save or a print would
    rewrite its line break."""
    if "\n".join(lines) + "\n" == text:
        return
    for lineno, (kept, line) in enumerate(zip(text.splitlines(keepends=True), lines), start=1):
        end = kept[len(line):]
        if end != "\n":
            what = f"ends in {end!r}, not a newline" if end else "does not end in a newline"
            raise RegistryError(f"line {lineno} {what}")


def _parse_tuples(text: str) -> tuple[Tup, ...]:
    """`(1)|(1,2)` as a tuple of tuples; the empty text holds none."""
    return tuple([parse_tuple_text(t) for t in text.split("|")]) if text else ()


def record_values(line: str, kind: str, keys: tuple[str, ...]) -> Optional[list[str]]:
    """The values of a line `kind k1=v1 k2=v2 ...` whose fields begin with
    exactly these keys, "=" included, in this order, each after one space;
    None for any other line. The values are taken as written."""
    words = line.split(" ")
    if words[0] != kind or len(words) != len(keys) + 1:
        return None
    if not all(map(str.startswith, words[1:], keys)):
        return None
    return [word[len(key):] for word, key in zip(words[1:], keys)]


def parse_record_line(line: str, lineno: int) -> dict[str, str]:
    parts = line.split(" ")
    fields: dict[str, str] = {"_kind": parts[0]}
    for part in parts[1:]:
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"line {lineno}: malformed field {part!r}")
        if key in fields:
            raise ValueError(f"line {lineno}: repeated field {key!r}")
        fields[key] = value
    return fields
