"""The session workloads: cold `prefixalg` processes against one seeded
session file.

`session-read` runs read-only commands against the pristine session;
`session-write` runs mutating commands, each against a fresh copy of it made
outside the timed interval, so every operation sees the same session size.
In trace mode the same argument lists go to `prefixalg.cli.main` in process.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

from checks import (
    check_certificate,
    check_diagonal,
    check_link_line,
    check_pointwise,
    check_rejected,
    check_trace_lines,
    check_witness_lines,
    check_zero_word,
    expect,
    tamper_certificate,
    tamper_trace,
)
from gen import point_text, rand_expr, rand_point, rand_state, rand_tuple, tuple_text, witness_input
from harness import Op
from oracle import Log, normal_form, parse_poly, support_prefixes
from scene import build_registry, word_text

RECORDS = 1000
PROTECTIONS = 4
EXPR_LABELS = 5
CHILD_TIMEOUT_S = 120


def child_env(src) -> dict:
    """The environment of a cold process: the program staged at `src`, whose
    bytecode was compiled there from the checkout's sources (see run.py)."""
    return dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")


class ColdRunner:
    """Runs each command as a fresh `python -m prefixalg` process."""

    def __init__(self, src) -> None:
        self.env = child_env(src)

    def __call__(self, argv, clock):
        with clock:
            proc = subprocess.run(
                [sys.executable, "-m", "prefixalg", *argv],
                capture_output=True, text=True, env=self.env, timeout=CHILD_TIMEOUT_S,
            )
        return proc.returncode, proc.stdout, proc.stderr


class InProcessRunner:
    """Runs each command through `prefixalg.cli.main` in this process."""

    def __init__(self, pa) -> None:
        self.cli = pa.cli

    def __call__(self, argv, clock):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), clock:
            code = self.cli.main(list(argv), out)
        return code, out.getvalue(), err.getvalue()


def cold_import_s(src) -> float:
    """Wall time of one fresh process that only starts and imports the CLI,
    which loads every module of the program."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import prefixalg.cli"], env=child_env(src), check=True,
                   timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start


def startup_ms(src, runs: int = 5) -> float:
    """Median wall time of a cold process that only starts and imports the CLI."""
    return 1000 * statistics.median(cold_import_s(src) for _ in range(runs))


class SessionWorkload:
    cold = True

    def __init__(self, pa, seed: int, workdir) -> None:
        self.pa, self.seed, self.dir = pa, seed, workdir
        self.session = str(workdir / "session.txt")
        self.cert = str(workdir / "cert.txt")
        self.trace = str(workdir / "trace.txt")

    def build(self) -> None:
        """Build the seeded session through the program and save it, with a
        certificate and a trace file beside it."""
        pa, rng = self.pa, random.Random(self.seed)
        wit = pa.witnesses
        reg, self.chains, self.generators = build_registry(pa, rng, RECORDS, PROTECTIONS)
        session = pa.session.Session(registry=reg)
        self.q0_terms, q0_text = rand_expr(rng, EXPR_LABELS, 3)
        session.bind("q0", pa.expr.eval_expr(pa.parser.parse_expr(q0_text)))
        # Real or imaginary coefficients only: a saved witness whose
        # certificate holds a general complex coefficient is printed
        # differently after the session is loaded again (see CHANGES.md), and
        # every write would then change that binding.
        self.witness_inputs = [witness_input(rng, 6, general=False) for _ in range(2)]
        w1, w2 = (
            wit.ideal_projection_witness(
                reg, pa.expr.eval_expr(pa.parser.parse_expr(text)),
                pa.cylinders.parse_seqdesc_text(point_text(x)),
            )
            for _, text, x in self.witness_inputs
        )
        cert = wit.primeness_witness(reg, w1, w2)
        session.bind("c0_w1", w1)
        session.bind("c0_w2", w2)
        chain = self.chains[0]
        self.t0_word = chain.words()["carry"]
        word = pa.parser.parse_word(word_text(self.t0_word, self.generators))
        prot = reg.protection_by_stage(chain.stage)
        trace = wit.vanishing_witness(reg, prot, chain.pivot, word)
        session.bind("t0", trace)
        session.save(self.session)
        with open(self.cert, "w", encoding="utf-8") as fh:
            fh.write(cert.to_text())
        with open(self.trace, "w", encoding="utf-8") as fh:
            fh.write(trace.to_text())

    def prepare(self) -> list:
        """Check the set-up against the oracle; returns the problems found."""
        with open(self.session, encoding="utf-8") as fh:
            self.pristine = fh.read()
        lines = self.pristine.splitlines()
        first_binding = next(i for i, line in enumerate(lines) if line.startswith("binding "))
        self.head, self.tail = lines[:first_binding], lines[first_binding:]
        self.log = Log(self.pristine)
        # The records as they were before the certificate's own link.
        self.before_cert = Log("\n".join(self.head[:-1]))
        problems = list(self.log.problems)
        with open(self.cert, encoding="utf-8") as fh:
            cert_text = fh.read()
        with open(self.trace, encoding="utf-8") as fh:
            trace_text = fh.read()
        inputs = [(q, x) for q, _, x in self.witness_inputs]
        try:
            check_certificate(cert_text, self.before_cert, inputs)
            check_trace_lines(trace_text.splitlines()[1:], self.log, self.chains[0].stage, self.t0_word)
        except Exception as exc:
            problems.append(f"set-up: {exc}")
        rng = random.Random(f"{self.seed}-tamper")
        self.bad_cert = str(self.dir / "cert-tampered.txt")
        self.bad_trace = str(self.dir / "trace-tampered.txt")
        with open(self.bad_cert, "w", encoding="utf-8") as fh:
            fh.write(tamper_certificate(cert_text, rng.randrange(2)))
        with open(self.bad_trace, "w", encoding="utf-8") as fh:
            fh.write(tamper_trace(trace_text, rng.randrange(2)))
        return problems

    def lemma2_check(self, chain, word, code, out) -> list:
        """Check lemma2 output; returns the trace lines without header."""
        lines = out.splitlines()
        expect(code == 0, f"lemma2 exits {code}")
        if lines[0] == "zero-report":
            check_zero_word(word)
            return []
        expect(lines[0] == "prefixalg trace v1", "not a trace")
        expect(lines[-1] == "state-value 0", "the state value is not 0")
        check_trace_lines(lines[1:-1], self.log, chain.stage, word)
        return lines[1:-1]

    def stateless_ops(self, rng, run) -> list:
        """normalize, geval and compress on seeded expressions, each checked
        against the oracle's action at seeded points."""
        ops = []
        for kind in ("normalize", "normalize", "geval", "geval", "compress", "compress"):
            terms, text = rand_expr(rng, EXPR_LABELS, rng.randint(2, 4))
            tuples = {t for _, word in terms for m in word for t in m}
            points = [rand_point(rng, EXPR_LABELS, near=t) for t in sorted(tuples)]
            if kind == "normalize":
                ops.append(self._normalize(run, text, terms, points))
            elif kind == "geval":
                x = rand_point(rng, EXPR_LABELS, near=rng.choice(terms)[1][-1][0])
                ops.append(self._geval(run, text, terms, x))
            else:
                alpha = rand_tuple(rng, EXPR_LABELS, 1, 2)
                points += [rand_point(rng, EXPR_LABELS, near=alpha) for _ in range(4)]
                ops.append(self._compress(run, text, terms, alpha, points))
        return ops

    @staticmethod
    def _normalize(run, text, terms, points) -> Op:
        def op(clock):
            code, out, _ = run(["normalize", text], clock)
            expect(code == 0, f"normalize exits {code}")
            check_pointwise(out.strip(), terms, points)

        return Op("normalize", op)

    @staticmethod
    def _geval(run, text, terms, x) -> Op:
        def op(clock):
            code, out, _ = run(["geval", text, point_text(x)], clock)
            expect(code == 0, f"geval exits {code}")
            check_diagonal(out.strip(), terms, x)

        return Op("geval", op)

    @staticmethod
    def _compress(run, text, terms, alpha, points) -> Op:
        def op(clock):
            code, out, _ = run(["compress", text, tuple_text(alpha)], clock)
            expect(code == 0, f"compress exits {code}")
            check_pointwise(out.strip(), terms, points, alpha)

        return Op("compress", op)


class SessionRead(SessionWorkload):
    """audit, verify, vanishing-tuple, lemma2 and show against the pristine
    session, with a minority of stateless commands."""

    def ops(self, run) -> list:
        rng = random.Random(f"{self.seed}-ops")
        s = self.session
        ops = [self._audit(run), self._audit(run)]
        for path, genuine in ((self.cert, True), (self.bad_cert, False),
                              (self.trace, True), (self.bad_trace, False)):
            ops.append(self._verify(run, path, genuine))
        for chain in rng.sample(self.chains, 2):
            ops.append(self._vanishing_tuple(run, chain))
        pairs = [(chain, name) for chain in self.chains for name in chain.words()]
        for chain, name in rng.sample(pairs, 4):
            ops.append(self._lemma2(run, chain, chain.words()[name]))
        q0 = normal_form(self.q0_terms)

        def show_q0(clock):
            code, out, _ = run(["--session", s, "show", "q0"], clock)
            expect(code == 0 and parse_poly(out.strip()) == q0, "show q0 is not the bound polynomial")

        q1, _, x1 = self.witness_inputs[0]

        def show_w1(clock):
            code, out, _ = run(["--session", s, "show", "c0_w1"], clock)
            expect(code == 0, f"show exits {code}")
            check_witness_lines(out.splitlines(), q1, x1, self.before_cert)

        ops += [Op("show", show_q0), Op("show", show_w1)]
        ops += self.stateless_ops(rng, run)
        rng.shuffle(ops)
        return ops

    def _audit(self, run) -> Op:
        def op(clock):
            code, out, _ = run(["--session", self.session, "audit"], clock)
            expect(code == 0 and out == "ok\n", f"audit prints {out!r}")

        return Op("audit", op)

    def _verify(self, run, path, genuine) -> Op:
        def op(clock):
            code, out, _ = run(["--session", self.session, "verify", path], clock)
            if genuine:
                expect(code == 0 and out == "verified ok\n", f"a genuine file: {out!r}")
            else:
                check_rejected(code, out)

        return Op("verify", op)

    def _vanishing_tuple(self, run, chain) -> Op:
        def op(clock):
            code, out, _ = run(["--session", self.session, "vanishing-tuple", str(chain.stage)], clock)
            want = tuple_text(self.log.vanishing_tuple(chain.stage))
            expect(code == 0 and out.strip() == want, f"vanishing-tuple {out!r}, oracle {want}")

        return Op("vanishing-tuple", op)

    def _lemma2(self, run, chain, word) -> Op:
        text = word_text(word, self.generators)

        def op(clock):
            code, out, _ = run(["--session", self.session, "lemma2", str(chain.stage), text], clock)
            self.lemma2_check(chain, word, code, out)

        return Op("lemma2", op)


class SessionWrite(SessionWorkload):
    """link, register-state, let, prime-witness --bind and lemma2 --name,
    each against a fresh copy of the pristine session."""

    def ops(self, run) -> list:
        rng = random.Random(f"{self.seed}-ops")
        self.work = str(self.dir / "work.txt")
        ops = []
        for _ in range(6):
            request = (rand_tuple(rng, 12), rand_tuple(rng, 12))
            ops.append(self._link(run, request))
        for _ in range(4):
            points, text = rand_state(rng, 8)
            ops.append(self._register(run, points, text, rng.randint(1, 3)))
        for _ in range(4):
            terms, text = rand_expr(rng, EXPR_LABELS, rng.randint(2, 4))
            ops.append(self._let(run, terms, text))
        for _ in range(3):
            ops.append(self._prime(run, [witness_input(rng, 6) for _ in range(2)]))
        pairs = [(chain, name) for chain in self.chains
                 for name in ("base", "carry", "rewrite", "anchor")]
        for chain, name in rng.sample(pairs, 3):
            ops.append(self._lemma2_named(run, chain, chain.words()[name]))
        rng.shuffle(ops)
        return ops

    def _mutate(self, run, argv, clock, new_records: int):
        """Run one mutating command on a fresh copy of the pristine session;
        returns its output, the appended record lines and the new binding
        lines, having checked that nothing else in the file changed."""
        shutil.copyfile(self.session, self.work)
        code, out, _ = run(["--session", self.work, *argv], clock)
        expect(code == 0, f"{argv[0]} exits {code}")
        with open(self.work, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        h, t = len(self.head), len(self.tail)
        expect(lines[:h] == self.head, "the saved session lost or changed earlier records")
        expect(lines[h + new_records: h + new_records + t] == self.tail,
               "the saved session lost or changed earlier bindings")
        return out, lines[h: h + new_records], lines[h + new_records + t:]

    def _link(self, run, request) -> Op:
        argv = ["link", tuple_text(request[0]), tuple_text(request[1])]

        def op(clock):
            out, records, bindings = self._mutate(run, argv, clock, 1)
            expect(records == [out.strip()] and not bindings, "the file is not the session plus the record")
            check_link_line(out.strip(), self.log, request)

        return Op("link", op)

    def _register(self, run, points, text, horizon) -> Op:
        argv = ["register-state", text, str(horizon)]
        want = "|".join(tuple_text(t) for t in support_prefixes(points, horizon))

        def op(clock):
            out, records, bindings = self._mutate(run, argv, clock, 1)
            expect(records == [out.strip()] and not bindings, "the file is not the session plus the record")
            f = dict(part.split("=", 1) for part in out.split()[1:])
            expect(f["stage"] == str(len(self.log.records)) and f["horizon"] == str(horizon),
                   "wrong stage or horizon")
            expect(f["tuples"] == want, f"protected tuples {f['tuples']}, oracle {want}")

        return Op("register-state", op)

    def _let(self, run, terms, text) -> Op:
        want = normal_form(terms)

        def op(clock):
            out, _, bindings = self._mutate(run, ["let", "bench_q", text], clock, 0)
            expect(out == "bound bench_q\n", f"let prints {out!r}")
            expect(len(bindings) == 3 and bindings[0] == "binding bench_q polynomial"
                   and bindings[2] == "end binding", "the file is not the session plus the binding")
            expect(parse_poly(bindings[1]) == want, "the bound polynomial is not the normal form")

        return Op("let", op)

    def _prime(self, run, inputs) -> Op:
        argv = ["prime-witness"]
        for _, text, x in inputs:
            argv += [text, point_text(x)]
        argv += ["--bind", "bench_c"]
        pairs = [(q, x) for q, _, x in inputs]

        def op(clock):
            out, records, bindings = self._mutate(run, argv, clock, 1)
            lines = check_certificate(out, self.log, pairs)
            expect(records == [lines[1]], "the file does not hold the certificate's link")
            want = (["binding bench_c_w1 witness", *lines[2:9], "end binding",
                     "binding bench_c_w2 witness", *lines[9:16], "end binding"])
            expect(bindings == want, "the file does not hold the two witnesses")

        return Op("prime-witness", op)

    def _lemma2_named(self, run, chain, word) -> Op:
        argv = ["lemma2", str(chain.stage), word_text(word, self.generators), "--name", "bench_t"]

        def op(clock):
            out, _, bindings = self._mutate(run, argv, clock, 0)
            trace = self.lemma2_check(chain, word, 0, out)
            expect(bindings == ["binding bench_t trace", *trace, "end binding"],
                   "the file does not hold the trace")

        return Op("lemma2", op)
