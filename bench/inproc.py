"""The in-process workloads: `certify` drives the certificate and trace
pipelines through the library; `fragment-psd` drives exact fragment matrices
and the PSD check. Neither starts a process or touches a session file.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from checks import (
    check_certificate,
    check_trace_lines,
    check_zero_word,
    expect,
    tamper_certificate,
    tamper_trace,
)
from gen import monomial_text, point_text, rand_coefficient, sum_text, witness_input
from harness import KnownFault, Op
from oracle import Log, canon, gram, image
from scene import build_registry, word_text

CERTIFY_RECORDS = 300
CERTIFY_PROTECTIONS = 4
# Per pass: this many primeness arguments, every vanishing word of every
# chain VANISHING_REPEATS times (each drawing which field to tamper), and
# the fixed over-horizon cases, so that the failed share is the same in every
# run. A third of the vanishing words multiply to zero and are the cheapest
# operations; the primeness arguments are the dearest, by a factor of about
# twenty. With 48 + 144 completed operations the median falls in the middle
# of the vanishing traces and p90 at about the 60th percentile of the
# primeness arguments, both well away from a boundary between groups.
PRIME_PER_PASS = 48
VANISHING_REPEATS = 6
HORIZON_PER_PASS = 8

# The over-horizon scenario: protect a state's support at horizon 1, link its
# vanishing tuple to another cylinder, and trace the two-factor word through
# the new generator. The trace reaches depth 2, so the state check must raise
# HorizonError and `verify` must reject the trace. These inputs are fixed, not
# seeded, so the failing share is the same in every run.
HORIZON_CASES = (("1@(5)/0", (6,)), ("1/3@(5)/0;2/3@(2,4)/1", (7,)))

# The fragment-psd polynomials' monomials are fixed (bench/shapes.json, made
# by `python3 bench/gen.py`): eight of each even fragment size from 10 to 28
# rows, so that every seed asks for the same elimination work. With random
# shapes the cost differs threefold between polynomials of one size, which
# moved the median between seeds by a third. The seed draws the
# coefficients, the order, and which operations are pushed non-PSD.
SHAPES = [
    [tuple(map(tuple, m)) for m in shape]
    for shape in json.loads((Path(__file__).parent / "shapes.json").read_text(encoding="utf-8"))
]


class Certify:
    """Complete primeness and vanishing arguments on a restored registry."""

    cold = False

    def __init__(self, pa, seed: int, workdir) -> None:
        self.pa, self.seed = pa, seed

    def build(self) -> None:
        """The seeded registry and every input, through the program."""
        pa, rng = self.pa, random.Random(self.seed)
        parse = pa.parser
        self.reg, self.chains, self.generators = build_registry(
            pa, rng, CERTIFY_RECORDS, CERTIFY_PROTECTIONS
        )
        self.base = list(self.reg.records)
        self.prime_inputs = []
        for _ in range(PRIME_PER_PASS):
            raw = [witness_input(rng, 6, terms=3, depth=2) for _ in range(2)]
            built = [
                (pa.expr.eval_expr(parse.parse_expr(text)),
                 pa.cylinders.parse_seqdesc_text(point_text(x)))
                for _, text, x in raw
            ]
            self.prime_inputs.append(([(q, x) for q, _, x in raw], built))
        self.vanishing_inputs = [
            (chain, word, parse.parse_word(word_text(word, self.generators)))
            for chain in self.chains
            for word in chain.words().values()
        ]

    def prepare(self) -> list:
        self.log = Log(self.reg.to_text())
        return list(self.log.problems)

    def restore(self) -> None:
        del self.reg.records[len(self.base):]

    def ops(self, run=None) -> list:
        rng = random.Random(f"{self.seed}-ops")
        ops = [self._prime(inputs, rng.randrange(2)) for inputs in self.prime_inputs]
        ops += [self._vanishing(chain, word, parsed, rng.randrange(2))
                for chain, word, parsed in self.vanishing_inputs
                for _ in range(VANISHING_REPEATS)]
        ops += [self._horizon(*HORIZON_CASES[i % len(HORIZON_CASES)])
                for i in range(HORIZON_PER_PASS)]
        rng.shuffle(ops)
        return ops

    def _prime(self, inputs, choice) -> Op:
        oracle_inputs, built = inputs
        wit = self.pa.witnesses

        def op(clock):
            self.restore()
            with clock:
                w1, w2 = (wit.ideal_projection_witness(self.reg, q, x) for q, x in built)
                cert = wit.primeness_witness(self.reg, w1, w2)
                text = cert.to_text()
                report = wit.verify_certificate_text(text, self.reg)
            expect(report.ok, f"a genuine certificate is rejected: {report.problems}")
            bad = tamper_certificate(text, choice)
            with clock:
                report = wit.verify_certificate_text(bad, self.reg)
            expect(not report.ok, "a tampered certificate is accepted")
            check_certificate(text, self.log, oracle_inputs)

        return Op("primeness", op)

    def _vanishing(self, chain, word, parsed, choice) -> Op:
        wit = self.pa.witnesses

        def op(clock):
            self.restore()
            with clock:
                prot = self.reg.protection_by_stage(chain.stage)
                pivot = self.reg.vanishing_tuple(prot)
                result = wit.vanishing_witness(self.reg, prot, pivot, parsed)
                value = wit.check_state_vanishes(prot.state, self.reg, prot, pivot, parsed)
                zero = isinstance(result, wit.ZeroReport)
                if not zero:
                    text = result.to_text()
                    report = wit.verify_trace_text(text, self.reg)
            expect(not value, "the state value is not 0")
            if zero:
                check_zero_word(word)
                return
            expect(report.ok, f"a genuine trace is rejected: {report.problems}")
            check_trace_lines(text.splitlines()[1:], self.log, chain.stage, word)
            bad = tamper_trace(text, choice)
            with clock:
                report = wit.verify_trace_text(bad, self.reg)
            expect(not report.ok, "a tampered trace is accepted")

        return Op("vanishing", op)

    def _horizon(self, state_text, target) -> Op:
        pa = self.pa
        wit = pa.witnesses

        def op(clock):
            with clock:
                reg = pa.registry.Registry()
                prot = reg.register_protection(pa.polynomials.parse_state_text(state_text), 1)
                pivot = reg.vanishing_tuple(prot)
                g = reg.link(pivot, target)
                word = [pa.monomials.V(g.dom, g.ran), pa.monomials.projection(pivot)]
                trace = wit.vanishing_witness(reg, prot, pivot, word)
                try:
                    wit.check_state_vanishes(prot.state, reg, prot, pivot, word)
                    raised = False
                except wit.HorizonError:
                    raised = True
                report = wit.verify_trace_text(trace.to_text(), reg)
            expect(raised, "the state check accepts a trace deeper than the horizon")
            if report.ok:
                raise KnownFault("verify accepts a trace deeper than the protection horizon")

        return Op("over-horizon", op)


class FragmentPsd:
    """Star-squares q'q, their fragment matrices and exact PSD verdicts."""

    cold = False
    PUSHED = 20  # operations per pass that judge a matrix pushed non-PSD

    def __init__(self, pa, seed: int, workdir) -> None:
        self.pa, self.seed = pa, seed
        rng = random.Random(seed)
        self.raw = []
        for shape in SHAPES:
            q = {m: rand_coefficient(rng) for m in shape}
            self.raw.append((q, sum_text([(c, [monomial_text(m)]) for m, c in q.items()])))

    def build(self) -> None:
        parse = self.pa.parser.parse_expr
        self.inputs = [(q, self.pa.expr.eval_expr(parse(text))) for q, text in self.raw]

    def prepare(self) -> list:
        return []

    def ops(self, run=None) -> list:
        rng = random.Random(f"{self.seed}-ops")
        pushed = set(rng.sample(range(len(self.inputs)), self.PUSHED))
        ops = [self._op(q, poly, i in pushed) for i, (q, poly) in enumerate(self.inputs)]
        rng.shuffle(ops)
        return ops

    def _op(self, q, poly, push) -> Op:
        pol = self.pa.polynomials
        level = max(len(dom) for dom, _ in q)
        terms = [(c, [m]) for m, c in q.items()]
        expected = {}

        def op(clock):
            with clock:
                square = poly.adjoint() * poly
                index = pol.fragment_index([poly, square], level)
                matrix = square.fragment_matrix(index=index)
            if push:
                rows = [list(row) for row in matrix.rows]
                last = len(rows) - 1
                rows[last][last] = pol.Scalar(-rows[last][last].re - 1)
                matrix = pol.FragmentMatrix(index=index, rows=tuple(tuple(r) for r in rows))
            with clock:
                verdict = matrix.is_positive_semidefinite()
            if "gram" not in expected:
                points = [canon((t, index.pad)) for t in index.tuples]
                pos = {x: i for i, x in enumerate(points)}
                columns = []
                for x in points:
                    col = image(terms, x)
                    expect(all(z in pos for z in col), "the fragment index is not closed under q")
                    columns.append({pos[z]: c for z, c in col.items()})
                expected["tuples"] = index.tuples
                expected["gram"] = gram(columns, len(points))
            expect(index.tuples == expected["tuples"], "the fragment index changed between passes")
            gram_rows = expected["gram"]
            n = len(gram_rows)
            for i in range(n):
                for j in range(n):
                    if push and i == j == n - 1:
                        continue
                    c = matrix.rows[i][j]
                    expect((c.re, c.im) == gram_rows[i][j], f"fragment entry ({i},{j}) is not M(q)'M(q)")
            expect(verdict is (not push), f"PSD verdict {verdict} on a {'pushed' if push else 'star-square'} matrix")

        return Op("pushed-psd" if push else "psd", op)
