"""Command-line surface: build elements, drive the registry, produce and
re-verify certificates and traces, and run the property suites.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
All mutating subcommands operate on a session file named with --session.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Optional

from .cylinders import format_tuple, parse_natural, parse_seqdesc_text, parse_tuple_text
from .expr import eval_expr, poly_text
from .parser import ParseError, parse_expr, parse_word
from .polynomials import Polynomial, parse_state_text
from .registry import Registry, RegistryError, check_line_breaks
from .session import Session
from .witnesses import (
    SoundnessError,
    WitnessError,
    ZeroReport,
    check_state_vanishes,
    ideal_projection_witness,
    primeness_witness,
    vanishing_witness,
    verify_certificate_text,
    verify_trace_text,
)

OK, FAIL, USAGE = 0, 1, 2


class UsageError(Exception):
    pass


def _natural(text: str) -> int:
    """A natural-number argument, in ASCII digits as in every file format."""
    return _int_argument(text, parse_natural)


def _stage(text: str) -> int:
    """A protection stage argument: a natural number, or one with a leading
    `-`, which names no protection."""
    return _int_argument(
        text, lambda t: -parse_natural(t[1:]) if t.startswith("-") else parse_natural(t)
    )


def _int_argument(text: str, parse: Callable[[str], int]) -> int:
    """`parse(text)` for argparse. Text that `int` refuses keeps argparse's
    own message; what `parse` refuses beyond that gets parse's message."""
    try:
        int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    try:
        return parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="prefixalg",
        description="Exact algebra of prefix-rewriting partial isometries.",
    )
    ap.add_argument("--session", metavar="PATH", help="session file for stateful commands")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="print the canonical polynomial of an expression")
    p.add_argument("expr")
    p.add_argument("--pairs", action="store_true", help="print (coefficient, monomial) pairs")

    p = sub.add_parser("geval", help="diagonal value of an expression at a point")
    p.add_argument("expr")
    p.add_argument("point", help="sequence description like (1,2)/0")

    p = sub.add_parser("compress", help="cut an expression down to a cylinder")
    p.add_argument("expr")
    p.add_argument("tuple")

    p = sub.add_parser("link", help="issue the linking isometry for two tuples")
    p.add_argument("dom")
    p.add_argument("ran")

    p = sub.add_parser("register-state", help="protect the support of a diagonal state")
    p.add_argument("state", help="like 1/2@(1,2)/0;1/2@(3)/7")
    p.add_argument("horizon", type=_natural)

    p = sub.add_parser("vanishing-tuple", help="the 1-tuple a protection forces states to avoid")
    p.add_argument("prot_id", type=_stage)

    p = sub.add_parser(
        "lemma2",
        help="trace the vanishing induction for a word containing the pivot projection",
    )
    p.add_argument("prot_id", type=_stage)
    p.add_argument("word", help="product of P(...) and V(...;...) factors")
    p.add_argument("--name", help="bind the resulting trace in the session")
    p.add_argument("--out", metavar="FILE", help="also write the trace to a file")

    p = sub.add_parser(
        "prime-witness",
        help="produce the joint ideal-membership certificate for two positive elements",
    )
    p.add_argument("expr1")
    p.add_argument("point1")
    p.add_argument("expr2")
    p.add_argument("point2")
    p.add_argument("--out", metavar="FILE", help="also write the certificate to a file")
    p.add_argument("--bind", metavar="NAME", help="bind the two witnesses in the session")

    p = sub.add_parser("verify", help="re-verify a certificate or trace file")
    p.add_argument("file")

    sub.add_parser("audit", help="re-check every registry record against the earlier log")

    p = sub.add_parser("selftest", help="run the randomized property suites")
    p.add_argument("--seed", type=_natural, default=0)
    p.add_argument("--cases", type=_natural, default=200)

    p = sub.add_parser("let", help="bind a polynomial in the session")
    p.add_argument("name")
    p.add_argument("expr")

    p = sub.add_parser("show", help="print a session binding")
    p.add_argument("name")
    return ap


def _require_session(args) -> Session:
    if not args.session:
        raise UsageError(f"the {args.command} command needs --session PATH")
    return Session.load_or_new(args.session)


def _eval_arg(text: str) -> Polynomial:
    return eval_expr(parse_expr(text))


def _run(args, out) -> int:
    if args.command == "normalize":
        p = _eval_arg(args.expr)
        if args.pairs:
            for coeff, mono in p.to_pairs():
                print(f"{coeff} {mono}", file=out)
        else:
            print(poly_text(p), file=out)
        return OK

    if args.command == "geval":
        p = _eval_arg(args.expr)
        x = parse_seqdesc_text(args.point)
        print(p.g_eval(x).to_text(), file=out)
        return OK

    if args.command == "compress":
        p = _eval_arg(args.expr)
        alpha = parse_tuple_text(args.tuple)
        print(poly_text(p.compress(alpha)), file=out)
        return OK

    if args.command == "link":
        session = _require_session(args)
        rec = session.registry.link(parse_tuple_text(args.dom), parse_tuple_text(args.ran))
        session.save(args.session)
        print(rec.to_line(), file=out)
        return OK

    if args.command == "register-state":
        session = _require_session(args)
        rho = parse_state_text(args.state)
        rec = session.registry.register_protection(rho, args.horizon)
        session.save(args.session)
        print(rec.to_line(), file=out)
        return OK

    if args.command == "vanishing-tuple":
        session = _require_session(args)
        prot = session.registry.protection_by_stage(args.prot_id)
        print(format_tuple(session.registry.vanishing_tuple(prot)), file=out)
        return OK

    if args.command == "lemma2":
        session = _require_session(args)
        reg = session.registry
        prot = reg.protection_by_stage(args.prot_id)
        pivot = reg.vanishing_tuple(prot)
        word = parse_word(args.word)
        result = vanishing_witness(reg, prot, pivot, word)
        if isinstance(result, ZeroReport):
            print("zero-report", file=out)
            print(f"reason {result.reason}", file=out)
            for step in result.steps:
                print(step.to_line(), file=out)
            return OK
        # Prove the state value first, so a failure prints no trace.
        value = None
        if prot.state is not None:
            value = check_state_vanishes(prot.state, reg, prot, pivot, word, trace=result)
        print(result.to_text(), end="", file=out)
        if value is not None:
            print(f"state-value {value.to_text()}", file=out)
        if args.out:
            Path(args.out).write_text(result.to_text(), encoding="utf-8")
        if args.name:
            session.bind(args.name, result)
            session.save(args.session)
        return OK

    if args.command == "prime-witness":
        if args.bind and not args.session:
            raise UsageError("--bind needs --session to persist the witnesses")
        session = Session.load_or_new(args.session) if args.session else Session()
        reg = session.registry
        w1 = ideal_projection_witness(reg, _eval_arg(args.expr1), parse_seqdesc_text(args.point1))
        w2 = ideal_projection_witness(reg, _eval_arg(args.expr2), parse_seqdesc_text(args.point2))
        cert = primeness_witness(reg, w1, w2)
        if args.bind:
            session.bind(f"{args.bind}_w1", w1)
            session.bind(f"{args.bind}_w2", w2)
        if args.session:
            session.save(args.session)
        text = cert.to_text()
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        print(text, end="", file=out)
        return OK

    if args.command == "verify":
        # Decoded from bytes: text mode would turn "\r\n" into "\n" unseen.
        text = Path(args.file).read_bytes().decode("utf-8")
        lines = text.splitlines()
        head = lines[0].strip() if lines else ""
        reg: Optional[Registry] = None
        if args.session and Path(args.session).exists():
            reg = Session.load(args.session).registry
        if head == "prefixalg certificate v1":
            verify = verify_certificate_text
        elif head == "prefixalg trace v1":
            if reg is None:
                raise UsageError("verifying a trace needs --session with the registry")
            verify = verify_trace_text
        else:
            raise UsageError(f"unrecognized file header {head!r}")
        check_line_breaks(text, lines)
        report = verify(text, reg)
        if report:
            print("verified ok", file=out)
            return OK
        for problem in report.problems:
            print(f"problem {problem}", file=out)
        return FAIL

    if args.command == "audit":
        session = _require_session(args)
        problems = session.registry.audit()
        print("\n".join(problems) or "ok", file=out)
        return FAIL if problems else OK

    if args.command == "selftest":
        from .selftest import run_selftest

        failures = 0
        for result in run_selftest(args.seed, args.cases):
            tag = "PASS" if result.ok else "FAIL"
            print(f"{tag} {result.name} ({result.detail})", file=out)
            failures += 0 if result.ok else 1
        return OK if failures == 0 else FAIL

    if args.command == "let":
        session = _require_session(args)
        session.bind(args.name, _eval_arg(args.expr))
        session.save(args.session)
        print(f"bound {args.name}", file=out)
        return OK

    if args.command == "show":
        session = _require_session(args)
        if args.name not in session.bindings:
            raise UsageError(f"no binding named {args.name!r}")
        value = session.bindings[args.name]
        if isinstance(value, Polynomial):
            print(poly_text(value), file=out)
        else:
            print("\n".join(value.to_lines()), file=out)
        return OK

    raise UsageError(f"unknown command {args.command!r}")


def main(argv: Optional[list[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    ap = _build_argparser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code else OK
    try:
        return _run(args, out)
    except KeyError as exc:
        # str() of a KeyError is the repr of its argument; print the message.
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return USAGE
    except (ParseError, UsageError, ValueError, RegistryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except (WitnessError, SoundnessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL
    except (MemoryError, RecursionError) as exc:
        # A limit of this process, not a bug: one line, no traceback.
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {type(exc).__name__}{detail}", file=sys.stderr)
        return USAGE


def main_exit() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_exit()
