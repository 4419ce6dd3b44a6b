"""Session files: a registry plus named bindings, in deterministic text.

A session file replays on load: generator records are re-derived from their
requests and must match bit for bit, and bindings round-trip through their
canonical textual forms. Saving the same session twice, or replaying the
same command transcript twice, therefore produces identical bytes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from .cylinders import Value
from .expr import eval_expr, poly_text
from .polynomials import Polynomial
from .registry import Registry, RegistryError
from .witnesses import (
    IdealWitness,
    VanishingTrace,
    check_reads_back,
    parse_trace_lines,
    parse_witness_block,
)

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
            i += 1
            start = i
            while i < len(lines) and lines[i].strip() != "end binding":
                i += 1
            if i >= len(lines):
                raise RegistryError(f"unterminated binding {name!r}")
            session.bind(name, _parse_binding(kind, lines, start, i))
            i += 1
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


def _parse_binding(kind: str, lines: list[str], start: int, end: int) -> Binding:
    """The binding held by lines[start:end] of a file's lines; errors name
    the file line. A binding must be exactly what it prints, so that a save
    never rewrites it."""
    from .parser import parse_expr

    if kind == "polynomial":
        value: Binding = eval_expr(parse_expr("\n".join(lines[start:end])))
        canonical = [poly_text(value)]
    elif kind == "witness":
        value = parse_witness_block(lines, start)[0]
        canonical = value.to_lines()
    elif kind == "trace":
        value = parse_trace_lines(lines[start:end], start + 1)
        canonical = value.to_lines()
    else:
        raise RegistryError(f"unknown binding kind {kind!r}")
    check_reads_back(lines[start:end], canonical, start + 1)
    return value
