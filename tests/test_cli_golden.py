"""A seeded CLI transcript held to a golden file.

Every command runs in process on files in one directory: `normalize`,
`geval`, `compress`, `link`, `register-state`, `let`, `show`,
`vanishing-tuple`, `prime-witness --bind`, `lemma2 --name`, `verify` on
genuine and tampered certificates and traces, `audit` and `selftest`,
plus refusals. The exit codes, stdout, stderr and the final bytes of every
file written must match `tests/data/cli_golden.txt` exactly.

To regenerate the golden file after a deliberate change of output:

    PYTHONPATH=src python tests/test_cli_golden.py > tests/data/cli_golden.txt
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shlex
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from prefixalg.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.txt"
SEED = 2024
LABELS = 4


def scalar_text(rng: random.Random) -> str:
    """A nonzero coefficient as written in an expression: small or huge
    rational parts, real, imaginary or both."""
    def part() -> Fraction:
        big = rng.random() < 0.25
        top = 10**30 if big else 5
        return Fraction(rng.choice((1, -1)) * rng.randint(1, top), rng.randint(1, top))

    kind = rng.random()
    re, im = part(), part()
    if kind < 0.5:
        return f"({re})"
    if kind < 0.75:
        return f"({im}i)" if im > 0 else f"(-{-im}i)"
    sign = "+" if im > 0 else "-"
    return f"({re} {sign} {abs(im)}i)"


def tuple_text(t: tuple) -> str:
    return "(" + ",".join(map(str, t)) + ")"


def rand_tuple(rng: random.Random, lo: int = 1, hi: int = 3) -> tuple:
    return tuple(rng.randrange(LABELS) for _ in range(rng.randint(lo, hi)))


def term_text(rng: random.Random, tuples: list) -> str:
    """A word of one or two factors that composes to a nonzero monomial
    more often than not; the tuples it names go into `tuples`."""
    a = rand_tuple(rng)
    b = tuple(rng.randrange(LABELS) for _ in a)
    tuples += [a, b]
    if rng.random() < 0.3:
        return f"P({tuple_text(a)})"
    first = f"V({tuple_text(a)};{tuple_text(b)})"
    if rng.random() < 0.3:
        first = f"V({tuple_text(b)};{tuple_text(a)})'"
    if rng.random() < 0.5:
        return first
    c = b + rand_tuple(rng, 0, 1)
    tuples.append(c)
    if rng.random() < 0.5:
        return f"P({tuple_text(c)}) {first}"
    return f"V({tuple_text(c)};{tuple_text(c)}) {first}"


def expr_text(rng: random.Random, terms: int) -> tuple[str, list]:
    """A seeded sum of scaled words, and the tuples it names."""
    parts, tuples = [], []
    for k in range(terms):
        body = f"{scalar_text(rng)} {term_text(rng, tuples)}"
        parts.append(body if k == 0 else rng.choice(("+ ", "- ")) + body)
    return " ".join(parts), tuples


def point_text(rng: random.Random, tuples: list) -> str:
    """A point in the cylinder of one of `tuples`."""
    return f"{tuple_text(rng.choice(tuples) + rand_tuple(rng, 0, 1))}/{rng.randrange(LABELS)}"


def record_fields(line: str) -> dict[str, str]:
    return dict(f.split("=", 1) for f in line.split()[1:])


def transcript() -> str:
    """Run the seeded command script in a fresh directory; the transcript of
    every command and the final bytes of every file it left."""
    rng = random.Random(SEED)
    log: list[str] = []

    def block(tag: str, text: str) -> None:
        for line in text.splitlines():
            log.append(f"{tag}| {line}")
        if text and not text.endswith("\n"):
            log.append(f"{tag}  (no final newline)")

    def run(*argv: str) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(list(argv), out=out)
        log.append("$ prefixalg " + shlex.join(argv))
        log.append(f"exit {code}")
        block("out", out.getvalue())
        block("err", err.getvalue())
        return code, out.getvalue()

    def edit(src: str, dst: str, old: str, new: str) -> None:
        text = Path(src).read_text(encoding="utf-8")
        assert old in text, (src, old)
        Path(dst).write_text(text.replace(old, new, 1), encoding="utf-8")

    s = ("--session", "s.txt")
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            # Stateless commands on seeded expressions.
            for _ in range(10):
                text, tuples = expr_text(rng, rng.randint(1, 4))
                run("normalize", text)
                run("normalize", text, "--pairs")
                run("geval", text, point_text(rng, tuples))
                run("compress", text, tuple_text(rng.choice(tuples)[:2]))
            for text in ("0", "i - i", "(1/2+i) - 1/2", "-(3/4i) P((1))", "2 P((1)) * 1/2",
                         "P((1)) + P((1))  +  V((2);(3)) - V((2);(3))"):
                run("normalize", text)
            big = "(1000000000000000000000000000000/7 + 3/10000000000000000000000000i)"
            run("geval", f"{big} P((1)) - 1/3 P((1,2)) + (-2/6i) P(())", "(1,2)/0")
            run("compress", f"{big} P((2,1)) - (1/3 - i) V((2,1);(2,3)) + 5 P((3))", "(2)")
            run("normalize", "1/0 P((1))")
            run("normalize", "V((1);(2,3))")
            run("geval", "P((1))", "(1)/x")
            run("compress", "P((1,2))", "(1,")

            # Registry: links, protected states and their vanishing tuples.
            gens = []
            for _ in range(4):
                dom, ran = tuple_text(rand_tuple(rng)), tuple_text(rand_tuple(rng))
                gens.append(record_fields(run(*s, "link", dom, ran)[1]))
            run(*s, "register-state", "1@(5)/0", "4")
            run(*s, "register-state", "1/3@(1,2)/0;2/3@(3)/4", "3")
            run(*s, "register-state", "1/2@(1)/0", "2")
            run(*s, "register-state", "1@(1)/0", "0")
            pivot = run(*s, "vanishing-tuple", "4")[1].strip()
            run(*s, "vanishing-tuple", "5")
            run(*s, "vanishing-tuple", "0")
            run(*s, "vanishing-tuple", "-1")
            late = record_fields(run(*s, "link", pivot, "(6)")[1])
            run("link", "(1)", "(2)")

            # Bindings.
            for name in ("p0", "p1", "p2"):
                run(*s, "let", name, expr_text(rng, rng.randint(1, 3))[0])
            run(*s, "let", "not-a-name", "P((1))")
            for name in ("p0", "p1", "p2", "missing"):
                run(*s, "show", name)

            # A primeness certificate, bound and written.
            run(*s, "prime-witness", "P((1))", "(1)/0", "2 V((1);(2)) - i P((2))", "(1)/0",
                "--bind", "c0", "--out", "cert.txt")
            run(*s, "prime-witness", "(1/2+i) P((3))", "(3)/0", "P((4))", "(4)/0",
                "--bind", "c1", "--out", "cert-complex.txt")
            run(*s, "prime-witness", "P((1))", "(3)/0", "P((2))", "(2)/0")
            run("prime-witness", "P((1))", "(1)/0", "P((2))", "(2)/0", "--bind", "c2")
            run(*s, "show", "c0_w1")
            run(*s, "show", "c1_w2")

            # Vanishing traces, bound and written.
            word = f"P({late['ran']}) V({late['dom']};{late['ran']}) P({pivot})"
            run(*s, "lemma2", "4", word, "--name", "t0", "--out", "trace.txt")
            run(*s, "lemma2", "4", f"P({pivot})", "--name", "t1")
            run(*s, "lemma2", "4", f"V({gens[0]['dom']};{gens[0]['ran']}) P({pivot})")
            run(*s, "lemma2", "4", "P((1))")
            run(*s, "show", "t0")

            # Verification, genuine and tampered.
            run(*s, "verify", "cert.txt")
            run(*s, "verify", "cert-complex.txt")
            run("verify", "cert.txt")
            edit("cert.txt", "cert-claim.txt", "claim P", "claim 2 P")
            run(*s, "verify", "cert-claim.txt")
            edit("cert.txt", "cert-scalar.txt", "scalar ", "scalar 3*")
            run(*s, "verify", "cert-scalar.txt")
            edit("cert.txt", "cert-header.txt", "certificate v1", "certificate v2")
            run(*s, "verify", "cert-header.txt")
            run(*s, "verify", "trace.txt")
            run("verify", "trace.txt")
            edit("trace.txt", "trace-case.txt", "case=late-dominates", "case=base")
            run(*s, "verify", "trace-case.txt")
            edit("trace.txt", "trace-depth.txt", "depth=", "depth=9")
            run(*s, "verify", "trace-depth.txt")
            run(*s, "verify", "missing.txt")

            # Audits, of the session and of a tampered copy.
            run(*s, "audit")
            edit("s.txt", "bad.txt", f"fresh={gens[1]['fresh']}", "fresh=0")
            run("--session", "bad.txt", "audit")
            run("audit")

            run("selftest", "--seed", "3", "--cases", "4")

            for path in sorted(Path(".").iterdir()):
                log.append(f"== file {path.name} ==")
                block("file", path.read_text(encoding="utf-8"))
        finally:
            os.chdir(cwd)
    return "\n".join(log) + "\n"


def test_cli_transcript_matches_golden():
    want = GOLDEN.read_text(encoding="utf-8")
    got = transcript()
    assert got.splitlines() == want.splitlines()
    assert got == want


if __name__ == "__main__":
    sys.stdout.write(transcript())
