"""Checks of program output against the oracle, shared by the workloads.

Each check raises Fail with what went wrong; nothing here compares against a
stored copy of earlier output.
"""

from __future__ import annotations

from fractions import Fraction

from gen import tuple_text
from harness import Fail
from oracle import (
    ZERO_C,
    fields,
    head,
    in_cylinder,
    least_free,
    link_problem,
    parse_poly,
    parse_scalar,
    poly_image,
    image,
    star_square,
    state_value,
    tup,
    word_product,
)


def expect(cond, message: str) -> None:
    if not cond:
        raise Fail(message)


def check_link_line(line: str, log, request=None) -> dict:
    """A generator record appended to the log: the link rule holds against
    every earlier record, and it answers the request."""
    expect(line.startswith("generator "), f"not a generator record: {line!r}")
    f = fields(line)
    expect(int(f["stage"]) == len(log.records), f"stage {f['stage']} is not {len(log.records)}")
    problem = link_problem(log, f)
    expect(not problem, problem)
    if request is not None:
        expect((tup(f["req_dom"]), tup(f["req_ran"])) == request, "record answers another request")
    return f


def check_trace_lines(lines: list, log, stage: int, word) -> None:
    """A vanishing trace (without its header) for `word` against protection
    `stage`: the pivot is the vanishing tuple, the final carrier absorbs the
    word and carries no mass of the state, the trace stays within the
    horizon, and the state's value on the word is exactly 0."""
    _, _, tuples, points, horizon = log.protection(stage)
    expect(lines[0] == f"prot {stage}", f"trace names {lines[0]!r}")
    expect(lines[1] == f"pivot {tuple_text(log.vanishing_tuple(stage))}", "wrong pivot")
    final = fields(lines[-1])
    carrier = tup(final["carrier"])
    expect(int(final["depth"]) == len(carrier), "depth is not the carrier length")
    nf = word_product(word)
    expect(nf is not None, "a trace for a word that multiplies to zero")
    expect(nf[1][: len(carrier)] == carrier and len(nf[1]) >= len(carrier),
           "the carrier projection does not absorb the word")
    expect(not any(in_cylinder(x, carrier) for _, x in points), "the state has mass on the carrier")
    expect(len(carrier) <= horizon, "the trace is deeper than the protection horizon")
    expect(state_value(points, word) == 0, "the state does not vanish on the word")


def check_zero_word(word) -> None:
    expect(word_product(word) is None, "a zero report for a word that does not multiply to zero")


def check_witness_lines(lines: list, q: dict, x, log) -> None:
    """An ideal witness for q at x: alpha extends the head of x by the least
    label no protection uses at that depth, root is q, source is q'q, and the
    scalar is q'q's nonzero diagonal value on alpha."""
    expect(lines[0] == "witness" and lines[-1] == "end witness", "not a witness block")
    f = dict(line.split(" ", 1) for line in lines[1:-1])
    alpha = tup(f["alpha"])
    n = max(len(m[0]) for m in q) + 1
    expect(alpha[:-1] == head(x, n - 1), "alpha does not extend the head of the point")
    expect(alpha[-1] == least_free(log.protected.get(n, ())), "alpha's last label is not fresh")
    source = star_square(q)
    expect(parse_poly(f["root"]) == q, "root is not q")
    expect(parse_poly(f["source"]) == source, "source is not q'q")
    scalar = (Fraction(0), Fraction(0))
    for (dom, ran), c in source.items():
        if dom == ran and alpha[: len(dom)] == dom:
            scalar = (scalar[0] + c[0], scalar[1] + c[1])
    expect(scalar != ZERO_C and parse_scalar(f["scalar"]) == scalar, "wrong compression scalar")


def check_certificate(text: str, log, inputs) -> list:
    """A primeness certificate for inputs ((q1, x1), (q2, x2)); returns its
    lines."""
    lines = text.splitlines()
    expect(lines[0] == "prefixalg certificate v1", "not a certificate")
    f = check_link_line(lines[1], log)
    blocks = (lines[2:9], lines[9:16])
    for block, (q, x) in zip(blocks, inputs):
        check_witness_lines(block, q, x, log)
    alphas = tuple(tup(block[1].split(" ", 1)[1]) for block in blocks)
    expect((tup(f["req_dom"]), tup(f["req_ran"])) == alphas, "link not requested for the witnesses")
    expect(lines[-1] == f"claim P({f['ran']})", "claim is not the range projection")
    return lines


def check_pointwise(out_text: str, terms, points, alpha=None) -> None:
    """The printed polynomial acts like sum(c * word) at every point; with
    alpha, like its compression to the cylinder of alpha."""
    out = parse_poly(out_text)
    for x in points:
        want = {}
        if alpha is None or in_cylinder(x, alpha):
            want = image(terms, x)
            if alpha is not None:
                want = {z: c for z, c in want.items() if in_cylinder(z, alpha)}
        expect(poly_image(out, x) == want, f"action differs at {x}")


def check_diagonal(out_text: str, terms, x) -> None:
    expect(parse_scalar(out_text) == image(terms, x).get(x, ZERO_C), "wrong diagonal value")


def tamper_certificate(text: str, choice: int) -> str:
    """One field changed: witness1's scalar doubled, or its alpha moved."""
    lines = text.splitlines()
    if choice == 0:
        lines[4] = f"scalar {2 * parse_scalar(lines[4].split(' ', 1)[1])[0]}"
    else:
        alpha = tup(lines[3].split(" ", 1)[1])
        lines[3] = f"alpha {tuple_text(alpha[:-1] + (alpha[-1] + 1,))}"
    return "\n".join(lines) + "\n"


def tamper_trace(text: str, choice: int) -> str:
    """One field changed: the final carrier's last label, or the protection."""
    lines = text.splitlines()
    if choice == 0:
        carrier = tup(fields(lines[-1])["carrier"])
        moved = carrier[:-1] + (carrier[-1] + 1,)
        lines[-1] = f"final carrier={tuple_text(moved)} depth={len(moved)}"
    else:
        lines[1] = f"prot {int(lines[1].split(' ')[1]) + 1}"
    return "\n".join(lines) + "\n"


def check_rejected(code: int, out: str) -> None:
    expect(code == 1, f"a tampered file exits {code}")
    expect(out and all(line.startswith("problem ") for line in out.splitlines()),
           "a tampered file is not rejected with its problems")
