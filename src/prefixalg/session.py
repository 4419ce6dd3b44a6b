"""Session files: a registry plus named bindings, in deterministic text.

A load checks the record block line by line against the least-free rule,
never replaying or linking it, and every record line and binding must be
exactly its canonical textual form; a save writes back the record lines it read.
Saving the same session twice, or replaying the same command transcript
twice, therefore produces identical bytes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from .cylinders import Value
from .expr import poly_text
from .polynomials import Polynomial
from .registry import Registry, RegistryError, check_line_breaks, check_reads_back, refuse
from .parser import read_polynomial, reprint_polynomial
from .witnesses import IdealWitness, VanishingTrace, parse_witness_block, read_trace_lines

HEADER = "prefixalg session v1"

Binding = Union[Polynomial, IdealWitness, VanishingTrace]


class Session(Value):
    __slots__ = ("registry", "bindings")

    def __init__(
        self, registry: Optional[Registry] = None, bindings: Optional[dict[str, Binding]] = None
    ) -> None:
        self.registry = Registry() if registry is None else registry
        self.bindings = {} if bindings is None else bindings

    def bind(self, name: str, value: Binding) -> None:
        if not name.isidentifier():
            raise ValueError(f"binding names must be identifiers, got {name!r}")
        self.bindings[name] = value

    def to_text(self) -> str:
        lines = [HEADER, *self.registry.record_lines()]
        for name, value in self.bindings.items():
            if isinstance(value, Polynomial):
                lines.append(f"binding {name} polynomial")
                lines.append(poly_text(value))
            elif isinstance(value, IdealWitness):
                lines.append(f"binding {name} witness")
                lines.extend(value.to_lines())
            elif isinstance(value, VanishingTrace):
                lines.append(f"binding {name} trace")
                lines.extend(value.to_lines())
            else:
                raise TypeError(f"unsupported binding {name!r}: {value!r}")
            lines.append("end binding")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "Session":
        lines = text.splitlines()
        if not lines or lines[0].strip() != HEADER:
            raise RegistryError("not a session file (bad header)")
        check_reads_back(lines[:1], [HEADER])
        check_line_breaks(text, lines)
        i = 1
        while i < len(lines) and not lines[i].startswith("binding "):
            i += 1
        session = Session(registry=Registry.from_lines(lines[1:i], first_line=2))
        while i < len(lines):
            line = lines[i].strip()
            if not line:
                # A save writes none, so it would drop this line.
                raise RegistryError(f"line {i + 1}: blank line between bindings")
            parts = line.split(" ")
            if len(parts) != 3 or parts[0] != "binding":
                raise RegistryError(f"malformed binding header {line!r}")
            _, name, kind = parts
            check_reads_back(lines[i:i + 1], [line], i + 1)
            i += 1
            start = i
            while i < len(lines) and lines[i].strip() != "end binding":
                i += 1
            if i >= len(lines):
                raise RegistryError(f"unterminated binding {name!r}")
            session.bind(name, _parse_binding(kind, lines, start, i))
            check_reads_back(lines[i:i + 1], ["end binding"], i + 1)
            i += 1
        return session

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_text(), encoding="utf-8")

    @staticmethod
    def load(path: Union[str, Path]) -> "Session":
        # Decoded from bytes: text mode would turn "\r\n" into "\n" unseen.
        return Session.from_text(Path(path).read_bytes().decode("utf-8"))

    @staticmethod
    def load_or_new(path: Union[str, Path]) -> "Session":
        p = Path(path)
        if p.exists():
            return Session.load(p)
        return Session()


def _parse_binding(kind: str, lines: list[str], start: int, end: int) -> Binding:
    """The binding held by lines[start:end] of a file's lines; errors name
    the file line. A binding must be exactly what it prints, so that a save
    never rewrites it."""
    body = lines[start:end]
    if kind == "polynomial":
        text = "\n".join(body)
        value = read_polynomial(text)
        if value is None:
            refuse(body, [reprint_polynomial(text)[1]], start + 1)
        return value
    if kind == "witness":
        witness, texts = parse_witness_block(body, start + 1)
        check_reads_back(body, witness.block(*texts), start + 1)
        return witness
    if kind == "trace":
        return read_trace_lines(body, start + 1)
    raise RegistryError(f"unknown binding kind {kind!r}")
