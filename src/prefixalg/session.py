"""Session files: a registry plus named bindings, in deterministic text.

A session file replays on load: generator records are re-derived from their
requests and must match bit for bit, and bindings round-trip through their
canonical textual forms. Saving the same session twice, or replaying the
same command transcript twice, therefore produces identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

from .expr import eval_expr, poly_text
from .polynomials import Polynomial
from .registry import Registry, RegistryError
from .witnesses import (
    IdealWitness,
    VanishingTrace,
    parse_trace_lines,
    parse_witness_block,
)

HEADER = "prefixalg session v1"

Binding = Union[Polynomial, IdealWitness, VanishingTrace]


@dataclass(slots=True)
class Session:
    registry: Registry = field(default_factory=Registry)
    bindings: dict[str, Binding] = field(default_factory=dict)

    def bind(self, name: str, value: Binding) -> None:
        if not name.isidentifier():
            raise ValueError(f"binding names must be identifiers, got {name!r}")
        self.bindings[name] = value

    def to_text(self) -> str:
        lines = [HEADER]
        lines.extend(self.registry.to_text().splitlines())
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
        i = 1
        while i < len(lines) and not lines[i].startswith("binding "):
            i += 1
        session = Session(registry=Registry.from_text("\n".join(lines[1:i]), first_line=2))
        while i < len(lines):
            line = lines[i].strip()
            if not line:
                i += 1
                continue
            parts = line.split(" ")
            if len(parts) != 3 or parts[0] != "binding":
                raise RegistryError(f"malformed binding header {line!r}")
            _, name, kind = parts
            block: list[str] = []
            i += 1
            first_line = i + 1
            while i < len(lines) and lines[i].strip() != "end binding":
                block.append(lines[i])
                i += 1
            if i >= len(lines):
                raise RegistryError(f"unterminated binding {name!r}")
            i += 1
            session.bind(name, _parse_binding(kind, block, first_line))
        return session

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_text(), encoding="utf-8")

    @staticmethod
    def load(path: Union[str, Path]) -> "Session":
        return Session.from_text(Path(path).read_text(encoding="utf-8"))

    @staticmethod
    def load_or_new(path: Union[str, Path]) -> "Session":
        p = Path(path)
        if p.exists():
            return Session.load(p)
        return Session()


def _parse_binding(kind: str, block: list[str], first_line: int) -> Binding:
    """The binding a block holds; `first_line` is the file line of its first
    line."""
    from .parser import parse_expr

    if kind == "polynomial":
        return eval_expr(parse_expr("\n".join(block)))
    if kind == "witness":
        witness, _ = parse_witness_block(block, 0)
        return witness
    if kind == "trace":
        return parse_trace_lines(block, first_line)
    raise RegistryError(f"unknown binding kind {kind!r}")
