"""Run one workload of the prefixalg benchmark and print its result.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The program's sources, ./src/prefixalg/*.py,
are staged into the run's scratch directory and byte-compiled there, and both
this process and every cold process import that copy, so no bytecode cache
left in the checkout is ever read and every run starts the same way. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. Each failed operation is named on an
earlier line. Exits 2 without a result when ./src/prefixalg is missing.
"""

from __future__ import annotations

import argparse
from collections import Counter
import compileall
import importlib
import itertools
import json
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.dont_write_bytecode = True  # nothing written into the checkout
BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(BENCH))

from cold import ColdRunner, InProcessRunner, SessionRead, SessionWrite, cold_import_s, startup_ms  # noqa: E402
from harness import Op, end_to_end, run_passes  # noqa: E402
from inproc import Certify, FragmentPsd  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402

WORKLOADS = {
    "session-read": SessionRead,
    "session-write": SessionWrite,
    "certify": Certify,
    "fragment-psd": FragmentPsd,
}
MODULES = ("cli", "cylinders", "expr", "monomials", "parser", "polynomials", "registry",
           "session", "witnesses")
WORK = ".bench_work"
OUT = ".bench_out"


def stage_program(workdir: Path) -> Path:
    """Copy the program's sources into `workdir`/src and byte-compile them
    there; returns that src directory."""
    src = ROOT / "src" / "prefixalg"
    if not (src / "__init__.py").is_file():
        print(f"error: no program at {src}; run from the root of a checkout", file=sys.stderr)
        sys.exit(2)
    staged = workdir / "src"
    (staged / "prefixalg").mkdir(parents=True)
    for path in src.glob("*.py"):
        shutil.copyfile(path, staged / "prefixalg" / path.name)
    if not compileall.compile_dir(staged, quiet=1):
        print("error: the program does not compile", file=sys.stderr)
        sys.exit(2)
    return staged


def import_program(staged: Path):
    sys.path.insert(0, str(staged))
    pa = importlib.import_module("prefixalg")
    for name in MODULES:
        importlib.import_module(f"prefixalg.{name}")
    return pa


class SetUp:
    """Set-up samples, taken every SAMPLE_EVERY_S seconds between operations
    so that they are spread over the run like the operations: a fresh
    process that starts and imports the program, and a build of the
    workload's seeded inputs through the program, on a throwaway instance.
    setup_s is the sum of their medians."""

    SAMPLE_EVERY_S = 2.5

    def __init__(self, pa, workload: str, seed: int, staged: Path, workdir: Path) -> None:
        self.args = (pa, workload, seed, staged, workdir)
        self.imports, self.builds = [], []
        self.last = None

    def before_op(self, _pass, _op) -> None:
        if self.last is None or time.perf_counter() - self.last >= self.SAMPLE_EVERY_S:
            self.sample()
            self.last = time.perf_counter()

    def sample(self) -> None:
        pa, workload, seed, staged, workdir = self.args
        self.imports.append(cold_import_s(staged))
        probe = workdir / "probe"
        shutil.rmtree(probe, ignore_errors=True)
        probe.mkdir()
        start = time.perf_counter()
        WORKLOADS[workload](pa, seed, probe).build()
        self.builds.append(time.perf_counter() - start)

    def seconds(self) -> float:
        return statistics.median(self.imports) + statistics.median(self.builds)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workdir = ROOT / WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        staged = stage_program(workdir)
        pa = import_program(staged)
        workload = WORKLOADS[args.workload](pa, args.seed, workdir)
        workload.build()
        problems = workload.prepare()
        if args.trace:
            metrics, tallies = traced(pa, workload, staged, args)
        else:
            run = ColdRunner(staged) if workload.cold else None
            setup = SetUp(pa, args.workload, args.seed, staged, workdir)
            before = reference_ms()
            [tally] = run_passes(workload.ops(run), args.seconds, setup.before_op)
            tallies = [tally]
            print(f"reference loop: {before:.4f} ms before, {reference_ms():.4f} ms after")
            # An import-only process of a set-up sample loads the modules every
            # cold command loads and does nothing more, so the largest child
            # is a prefixalg command.
            usage = resource.RUSAGE_CHILDREN if workload.cold else resource.RUSAGE_SELF
            peak_mb = resource.getrusage(usage).ru_maxrss / 1024
            metrics = end_to_end(tally, setup.seconds(), peak_mb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for t in tallies for f in t.failures]
    for problem in problems:
        print(f"FAILED set-up: {problem}")
    for (kind, message, known), count in Counter(failures).items():
        print(f"FAILED {kind}{' (known fault)' if known else ''} x{count}: {message}")
    result = {
        "correct": not problems and all(known for _, _, known in failures),
        "attempted": sum(t.attempted for t in tallies),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def reference_ms(repeats: int = 15) -> float:
    """Median time of a fixed exact-arithmetic loop that runs no program
    code: how fast this machine is running at the moment. Printed next to
    the result so that run-to-run spread can be told apart from machine
    drift; it enters no metric."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = Fraction(0)
        for k in range(1, 1500):
            total += Fraction(1, k)
        times.append(time.perf_counter() - start)
    return 1000 * statistics.median(times)


def traced(pa, workload, staged, args):
    """Alternate untraced and traced passes over the same operations; report
    the layers over the traced ones and the tracing overhead between them."""
    tracer = Tracer()
    run = InProcessRunner(pa) if workload.cold else None
    op_ids = itertools.count()

    def tagged(op):
        def run_op(clock):
            tracer.op = next(op_ids)
            op.run(clock)

        return Op(op.kind, run_op)

    ops = [tagged(op) for op in workload.ops(run)]

    def before_op(k, i):
        if i == 0:
            tracer.uninstall()
            if k % 2:
                tracer.install(pa)

    plain, traced_tally = run_passes(ops, args.seconds, before_op, tallies=2, min_ops=0)
    tracer.uninstall()
    n = traced_tally.attempted
    values = tracer.layer_metrics(n)
    if workload.cold:
        values["cli.startup_ms"] = startup_ms(staged)
    mean_traced = traced_tally.timed / n
    mean_plain = plain.timed / plain.attempted
    values["trace.overhead_pct"] = 100 * (mean_traced / mean_plain - 1)
    out = ROOT / OUT
    out.mkdir(exist_ok=True)
    tracer.write(out / f"spans-{args.workload}-{args.seed}.jsonl")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
    return metrics, [plain, traced_tally]


if __name__ == "__main__":
    sys.exit(main())
