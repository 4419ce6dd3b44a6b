"""The closed loop: one client, one operation at a time, whole passes over a
fixed list of operations, every operation timed and then checked.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

# p90 needs ten operations beyond it.
MIN_OPS = 100


class Fail(Exception):
    """An output that breaks a check; the operation counts as failed."""


class KnownFault(Fail):
    """A failure caused by the fault the benchmark keeps on purpose: `verify`
    accepts a vanishing trace deeper than its protection's horizon."""


class Clock:
    """Adds up the time spent inside `with clock:` blocks, which hold only
    calls into the program."""

    def __init__(self) -> None:
        self.total = 0.0

    def __enter__(self) -> "Clock":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.total += time.perf_counter() - self._start


@dataclass
class Op:
    """One operation: `run(clock)` calls the program inside `with clock:` and
    raises Fail when a check on its output does not hold."""

    kind: str
    run: Callable[[Clock], None]


@dataclass
class Tally:
    latencies: list = field(default_factory=list)  # seconds, completed ops
    timed: float = 0.0  # seconds inside the program, failed ops included
    attempted: int = 0
    failures: list = field(default_factory=list)  # (kind, message, known)

    def run_op(self, op: Op) -> None:
        clock = Clock()
        self.attempted += 1
        try:
            op.run(clock)
        except Fail as exc:
            self.failures.append((op.kind, str(exc), isinstance(exc, KnownFault)))
        except Exception as exc:  # an operation must not end the run
            self.failures.append((op.kind, f"{type(exc).__name__}: {exc}", False))
        else:
            self.latencies.append(clock.total)
        self.timed += clock.total


def run_passes(ops: list, seconds: float, before_op, tallies: int = 1,
               min_ops: int = MIN_OPS) -> list:
    """Work through whole passes of `ops` until `seconds` have gone by, at
    least `min_ops` operations were attempted and every tally has a pass, so
    that every run holds the same mix of operations. `before_op(k, i)` runs
    before operation i of pass k, outside any operation's time; pass k is
    tallied in the (k mod `tallies`)-th of the returned tallies."""
    tallies = [Tally() for _ in range(tallies)]
    start = time.perf_counter()
    k = 0
    while True:
        tally = tallies[k % len(tallies)]
        for i, op in enumerate(ops):
            before_op(k, i)
            tally.run_op(op)
        k += 1
        attempted = sum(t.attempted for t in tallies)
        if time.perf_counter() - start >= seconds and attempted >= min_ops and k >= len(tallies):
            return tallies


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(tally: Tally, setup_s: float, peak_rss_mb: float) -> dict:
    completed = len(tally.latencies)
    return {
        "ops_per_s": {"value": completed / tally.timed, "unit": "1/s"},
        "op_p50_ms": {"value": 1000 * percentile(tally.latencies, 0.5), "unit": "ms"},
        "op_p90_ms": {"value": 1000 * percentile(tally.latencies, 0.9), "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
