import io
import os
import subprocess
import sys
from pathlib import Path

from prefixalg.cli import main
from prefixalg.monomials import V, projection
from prefixalg.session import Session
from prefixalg.witnesses import vanishing_witness


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_normalize():
    code, text = run("normalize", "V((1);(2)) V((3);(1))")
    assert code == 0
    assert text.strip() == "V((3);(2))"


def test_normalize_pairs():
    code, text = run("normalize", "2 P((1)) + i V((1);(2))", "--pairs")
    assert code == 0
    assert text.splitlines() == ["2 P((1))", "i V((1);(2))"]


def test_normalize_parse_error_is_usage():
    code, _ = run("normalize", "V((1);(2,3))")
    assert code == 2


def test_geval():
    code, text = run("geval", "2 P((1)) + 5 P((1,7))", "(1,7)/0")
    assert code == 0
    assert text.strip() == "7"


def test_compress():
    code, text = run("compress", "P((1))", "(1,9)")
    assert code == 0
    assert text.strip() == "P((1,9))"


def test_link_and_audit(tmp_path):
    session = str(tmp_path / "s.txt")
    code, text = run("--session", session, "link", "(1)", "(2,7)")
    assert code == 0
    assert "n=3" in text and "dom=(1,0,0)" in text and "ran=(2,7,0)" in text
    code, text = run("--session", session, "audit")
    assert code == 0 and text.strip() == "ok"


def test_link_requires_session():
    code, _ = run("link", "(1)", "(2)")
    assert code == 2


def test_register_vanishing_lemma2(tmp_path):
    session = str(tmp_path / "s.txt")
    code, text = run("--session", session, "register-state", "1@(5)/0", "4")
    assert code == 0 and "stage=0" in text
    code, text = run("--session", session, "vanishing-tuple", "0")
    assert code == 0
    pivot = text.strip()
    assert pivot == "(0)"  # every support prefix starts with 5
    code, text = run("--session", session, "link", pivot, "(6)")
    assert code == 0
    gen = [f for f in text.split() if f.startswith("dom=")][0][4:]
    ran = [f for f in text.split() if f.startswith("ran=")][0][4:]
    code, text = run(
        "--session", session, "lemma2", "0", f"V({gen};{ran}) P({pivot})", "--name", "t0"
    )
    assert code == 0
    assert "late-dominates" in text
    assert "state-value 0" in text
    code, text = run("--session", session, "show", "t0")
    assert code == 0 and "final carrier=" in text


def test_lemma2_builds_the_trace_once(tmp_path, monkeypatch):
    import prefixalg.cli as cli
    import prefixalg.witnesses as witnesses

    session = str(tmp_path / "s.txt")
    run("--session", session, "register-state", "1@(5)/0", "4")
    _, text = run("--session", session, "link", "(0)", "(6)")
    fields = dict(f.split("=") for f in text.split()[1:])
    word = f"V({fields['dom']};{fields['ran']}) P((0))"
    calls = []

    def counting(*args):
        calls.append(args)
        return vanishing_witness(*args)

    monkeypatch.setattr(cli, "vanishing_witness", counting)
    monkeypatch.setattr(witnesses, "vanishing_witness", counting)
    code, text = run("--session", session, "lemma2", "0", word)
    assert code == 0 and "state-value 0" in text
    assert len(calls) == 1


def test_lemma2_zero_report(tmp_path):
    session = str(tmp_path / "s.txt")
    run("--session", session, "link", "(8)", "(9)")
    run("--session", session, "register-state", "1@(5)/0", "3")
    code, text = run("--session", session, "vanishing-tuple", "1")
    pivot = text.strip()
    code, text = run(
        "--session", session, "lemma2", "1", f"V((8,0);(9,0)) P({pivot})"
    )
    assert code == 0
    assert text.startswith("zero-report")


def test_lemma2_unregistered_factor(tmp_path):
    session = str(tmp_path / "s.txt")
    run("--session", session, "register-state", "1@(5)/0", "3")
    code, _ = run("--session", session, "lemma2", "0", "V((1);(2)) P((0))")
    assert code == 1


def test_over_horizon_trace_fails_quietly_and_is_rejected(tmp_path, capsys):
    session = str(tmp_path / "s.txt")
    run("--session", session, "register-state", "1@(5)/0", "1")
    run("--session", session, "link", "(0)", "(6)")
    capsys.readouterr()
    code, text = run("--session", session, "lemma2", "0", "V((0,0);(6,0)) P((0))")
    assert code == 1 and text == ""
    errors = capsys.readouterr().err.splitlines()
    assert errors == ["error: the trace reaches depth 2 but the protection horizon is 1"]

    reg = Session.load(session).registry
    prot = reg.protection_by_stage(0)
    trace = vanishing_witness(reg, prot, (0,), [V((0, 0), (6, 0)), projection((0,))])
    trace_path = tmp_path / "trace.txt"
    trace_path.write_text(trace.to_text())
    code, text = run("--session", session, "verify", str(trace_path))
    assert code == 1
    assert "problem the trace reaches depth 2 but the protection horizon is 1" in text.splitlines()


def test_prime_witness_and_verify(tmp_path):
    session = str(tmp_path / "s.txt")
    cert_path = str(tmp_path / "cert.txt")
    code, text = run(
        "--session", session,
        "prime-witness", "P((1))", "(1)/0", "V((1);(2))", "(1)/0",
        "--out", cert_path,
    )
    assert code == 0
    assert text.startswith("prefixalg certificate v1")
    code, text = run("--session", session, "verify", cert_path)
    assert code == 0 and text.strip() == "verified ok"

    tampered = str(tmp_path / "bad.txt")
    with open(cert_path) as fh:
        content = fh.read()
    with open(tampered, "w") as fh:
        fh.write(content.replace("claim P", "claim 2 P"))
    code, text = run("--session", session, "verify", tampered)
    assert code == 1 and "problem" in text


def test_certificate_missing_field_is_malformed(tmp_path, capsys):
    session = str(tmp_path / "s.txt")
    cert_path = tmp_path / "cert.txt"
    run("--session", session, "prime-witness", "P((1))", "(1)/0", "P((2))", "(2)/0",
        "--out", str(cert_path))
    lines = cert_path.read_text().splitlines(keepends=True)
    lines[1] = " ".join(f for f in lines[1].split(" ") if not f.startswith("req_dom="))
    cert_path.write_text("".join(lines))
    capsys.readouterr()
    code, text = run("--session", session, "verify", str(cert_path))
    assert code == 1
    assert text == "problem malformed certificate: line 2: generator record has no field req_dom\n"
    assert capsys.readouterr().err == ""


def test_verify_malformed_field_is_a_problem_not_a_usage_error(tmp_path, capsys):
    session = str(tmp_path / "s.txt")
    cert_path = tmp_path / "cert.txt"
    run("--session", session, "prime-witness", "P((1))", "(1)/0", "P((2))", "(2)/0",
        "--out", str(cert_path))
    lines = cert_path.read_text().splitlines(keepends=True)
    lines[1] = lines[1].replace(" n=", " n= k")
    cert_path.write_text("".join(lines))
    capsys.readouterr()
    code, text = run("--session", session, "verify", str(cert_path))
    assert (code, text) == (1, "problem malformed certificate: line 2: malformed field 'k3'\n")
    assert capsys.readouterr().err == ""

    run("--session", session, "register-state", "1@(5)/0", "4")
    pivot = run("--session", session, "vanishing-tuple", "1")[1].strip()
    trace_path = tmp_path / "trace.txt"
    run("--session", session, "lemma2", "1", f"P({pivot})", "--out", str(trace_path))
    lines = trace_path.read_text().splitlines(keepends=True)
    step = next(i for i, line in enumerate(lines) if line.startswith("step "))
    lines[step] = lines[step].replace(" case=", " case= x")
    trace_path.write_text("".join(lines))
    capsys.readouterr()
    code, text = run("--session", session, "verify", str(trace_path))
    assert (code, text) == (
        1, f"problem malformed trace: line {step + 1}: malformed field 'xbase'\n"
    )
    assert capsys.readouterr().err == ""


def test_prime_witness_rejects_zero_point():
    code, _ = run("prime-witness", "P((1))", "(3)/0", "P((2))", "(2)/0")
    assert code == 1


def test_verify_trace_needs_session(tmp_path):
    session = str(tmp_path / "s.txt")
    run("--session", session, "register-state", "1@(5)/0", "4")
    code, text = run("--session", session, "vanishing-tuple", "0")
    pivot = text.strip()
    trace_path = str(tmp_path / "trace.txt")
    code, _ = run("--session", session, "lemma2", "0", f"P({pivot})", "--out", trace_path)
    assert code == 0
    code, _ = run("verify", trace_path)
    assert code == 2
    code, text = run("--session", session, "verify", trace_path)
    assert code == 0 and text.strip() == "verified ok"


def test_console_entry_in_separate_process(tmp_path):
    import os
    import subprocess
    import sys as _sys
    from pathlib import Path

    import prefixalg

    # The child imports the package under test, installed or not.
    src = str(Path(prefixalg.__file__).parents[1])
    paths = (src, os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    session = str(tmp_path / "s.txt")
    cert = str(tmp_path / "cert.txt")
    base = [_sys.executable, "-m", "prefixalg", "--session", session]
    subprocess.run(
        base + ["prime-witness", "P((1))", "(1)/0", "P((2))", "(2)/0", "--out", cert],
        check=True, capture_output=True, env=env,
    )
    done = subprocess.run(base + ["verify", cert], capture_output=True, text=True, env=env)
    assert done.returncode == 0
    assert done.stdout.strip() == "verified ok"


def test_let_and_show(tmp_path):
    session = str(tmp_path / "s.txt")
    code, _ = run("--session", session, "let", "q", "1/2 P((1)) + 1/2 P((2))")
    assert code == 0
    code, text = run("--session", session, "show", "q")
    assert code == 0
    assert text.strip() == "1/2 * P((1)) + 1/2 * P((2))"
    code, _ = run("--session", session, "show", "missing")
    assert code == 2


def test_selftest():
    code, text = run("selftest", "--seed", "1", "--cases", "25")
    assert code == 0
    lines = text.strip().splitlines()
    assert len(lines) == 4
    assert all(line.startswith("PASS") for line in lines)


def test_selftest_deterministic_output():
    _, first = run("selftest", "--seed", "3", "--cases", "10")
    _, second = run("selftest", "--seed", "3", "--cases", "10")
    assert first == second


def test_unknown_file_header(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("nonsense\n")
    code, _ = run("verify", str(path))
    assert code == 2


def test_verify_directory_is_usage_error(tmp_path, capsys):
    code, text = run("verify", str(tmp_path))
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_deep_nesting_is_parse_error(capsys):
    code, text = run("normalize", "(" * 1200 + "P((1))" + ")" * 1200)
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [
        "error: parentheses nested deeper than 100 levels (line 1, column 101)"
    ]
    code, text = run("normalize", "(" * 100 + "P((1))" + ")" * 100)
    assert code == 0 and text.strip() == "P((1))"


def test_vanishing_tuple_negative_stage_is_usage_error(tmp_path, capsys):
    session = str(tmp_path / "s.txt")
    assert run("--session", session, "register-state", "1@(5)/0", "1")[0] == 0
    capsys.readouterr()
    code, text = run("--session", session, "vanishing-tuple", "-1")
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err == "error: no protection record at stage -1\n"


def test_integer_arguments_take_ascii_digits_only(tmp_path, capsys):
    session = str(tmp_path / "s.txt")
    cases = [
        (("register-state", "1@(5)/0", "٤"), "horizon", "٤"),
        (("register-state", "1@(5)/0", "+4"), "horizon", "+4"),
        (("register-state", "1@(5)/0", "4_0"), "horizon", "4_0"),
        (("vanishing-tuple", "٤"), "prot_id", "٤"),
        (("lemma2", "+0", "P((0))"), "prot_id", "+0"),
        (("selftest", "--seed", "٣"), "--seed", "٣"),
        (("selftest", "--cases", "1_0"), "--cases", "1_0"),
    ]
    for args, name, text in cases:
        capsys.readouterr()
        assert run("--session", session, *args) == (2, "")
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == [
            f"prefixalg {args[0]}: error: argument {name}: malformed natural number {text!r}"
        ]
    assert not (tmp_path / "s.txt").exists()


def session_error(tmp_path, capsys, text):
    """stdout, stderr and exit code of `audit` on a session file."""
    session = tmp_path / "s.txt"
    session.write_text(text)
    capsys.readouterr()
    code, out = run("--session", str(session), "audit")
    return code, out, capsys.readouterr().err


def test_session_record_missing_field_names_line_and_field(tmp_path, capsys):
    text = "prefixalg session v1\ngenerator stage=0 n=2\n"
    assert session_error(tmp_path, capsys, text) == (
        2, "", "error: line 2: generator record has no field req_dom\n"
    )
    text = "prefixalg session v1\nprotection stage=0 horizon=1 tuples=(4)\n"
    assert session_error(tmp_path, capsys, text) == (
        2, "", "error: line 2: protection record has no field state\n"
    )


def test_session_record_bad_field_names_line_and_field(tmp_path, capsys):
    generator = "generator stage=0 req_dom=(1) req_ran=(2) n=2 fresh=0 dom=(1,0) ran=(2,0)"
    cases = [
        (generator.replace("req_dom=(1)", "req_dom=x1"),
         "generator record field req_dom: malformed tuple literal 'x1'"),
        (generator.replace("req_ran=(2)", "req_ran=(2,x)"),
         "generator record field req_ran: malformed label 'x' in tuple '(2,x)'"),
        ("protection stage=0 horizon=1 tuples=(4)|(x) state=-",
         "protection record field tuples: malformed label 'x' in tuple '(x)'"),
        ("protection stage=0 horizon=1 tuples=(5) state=1@(5",
         "protection record field state: malformed sequence description '(5'"),
        (generator.replace(" n=", " n= k"), "malformed field 'k2'"),
    ]
    for line, message in cases:
        text = f"prefixalg session v1\n{line}\n"
        assert session_error(tmp_path, capsys, text) == (2, "", f"error: line 2: {message}\n")
    # The fields a generator derives from its request are not read; the
    # line must read back exactly as the replayed link prints it.
    for old, new in (("stage=0", "stage=x1"), ("dom=(1,0)", "dom=(1,x)")):
        text = f"prefixalg session v1\n{generator.replace(old, new)}\n"
        assert session_error(tmp_path, capsys, text) == (
            2, "", f"error: line 2 does not read back exactly (expected {generator!r})\n"
        )


def test_session_trace_binding_error_names_file_line(tmp_path, capsys):
    session = tmp_path / "s.txt"
    run("--session", str(session), "register-state", "1@(5)/0", "4")
    pivot = run("--session", str(session), "vanishing-tuple", "0")[1].strip()
    run("--session", str(session), "lemma2", "0", f"P({pivot})", "--name", "t")
    lines = session.read_text().splitlines()
    step = next(i for i, line in enumerate(lines) if line.startswith("step "))
    lines[step] = lines[step].replace(" case=", " case= x")
    text = "\n".join(lines) + "\n"
    assert session_error(tmp_path, capsys, text) == (
        2, "", f"error: line {step + 1}: malformed field 'xbase'\n"
    )


def test_session_bindings_must_read_back_exactly(tmp_path, capsys):
    session = tmp_path / "s.txt"
    run("--session", str(session), "register-state", "1@(5)/0", "4")
    run("--session", str(session), "link", "(0)", "(6)")
    run("--session", str(session), "prime-witness", "P((1))", "(1)/0", "P((2))", "(2)/0",
        "--bind", "c")
    pivot = run("--session", str(session), "vanishing-tuple", "0")[1].strip()
    assert run("--session", str(session), "lemma2", "0", f"V((0,1);(6,1)) P({pivot})",
               "--name", "t")[0] == 0
    lines = session.read_text().splitlines()
    assert session_error(tmp_path, capsys, session.read_text()) == (0, "ok\n", "")
    end = lines.index("end witness")
    late = next(i for i, line in enumerate(lines) if "case=late-dominates" in line)
    adjoint = list(lines)
    adjoint[late] = adjoint[late].replace("adjoint=0", "adjoint=7")
    cases = [
        (lines[:end + 1] + ["junk after the block"] + lines[end + 1:], end + 1, "no line"),
        (adjoint, late, repr(lines[late])),
    ]
    for edited, index, want in cases:
        problem = f"line {index + 1} does not read back exactly (expected {want})"
        assert session_error(tmp_path, capsys, "\n".join(edited) + "\n") == (
            2, "", f"error: {problem}\n"
        )


def test_polynomial_binding_must_read_back_exactly(tmp_path, capsys):
    session = tmp_path / "s.txt"
    hand = "P((1)) + P((1))  +  V((2);(3)) - V((2);(3))"
    text = f"prefixalg session v1\nbinding q polynomial\n{hand}\nend binding\n"
    problem = "line 3 does not read back exactly (expected '2 * P((1))')"
    assert session_error(tmp_path, capsys, text) == (2, "", f"error: {problem}\n")
    code, out = run("--session", str(session), "let", "x", "P((4))")
    assert (code, out, capsys.readouterr().err) == (2, "", f"error: {problem}\n")
    assert session.read_text() == text
    canonical = text.replace(hand, "2 * P((1))")
    assert session_error(tmp_path, capsys, canonical) == (0, "ok\n", "")
    assert run("--session", str(session), "let", "x", "P((4))") == (0, "bound x\n")
    assert session.read_text() == canonical.replace(
        "end binding\n", "end binding\nbinding x polynomial\nP((4))\nend binding\n"
    )


def test_session_replay_error_names_file_line(tmp_path, capsys):
    session = str(tmp_path / "s.txt")
    run("--session", session, "link", "(1)", "(2)")
    run("--session", session, "link", "(3)", "(4)")
    header, first, second = (tmp_path / "s.txt").read_text().splitlines()
    # The second generator takes label 0, which the first already took.
    tampered = second.replace("fresh=1", "fresh=0").replace(",1)", ",0)")
    mismatch = f"does not read back exactly (expected {second!r})"
    text = "\n".join([header, first, tampered]) + "\n"
    assert session_error(tmp_path, capsys, text) == (2, "", f"error: line 3 {mismatch}\n")
    text = "\n".join([header, first, "", tampered]) + "\n"
    blank = "error: line 3: blank or comment line in the record block\n"
    assert session_error(tmp_path, capsys, text) == (2, "", blank)


def test_session_comment_line_is_refused_and_kept(tmp_path, capsys):
    # A save writes records only, so loading a comment would silently drop it.
    session = tmp_path / "s.txt"
    run("--session", str(session), "link", "(1)", "(2)")
    header, record = session.read_text().splitlines()
    text = "\n".join([header, "# a note", record]) + "\n"
    session.write_text(text)
    capsys.readouterr()
    code, out = run("--session", str(session), "let", "q", "P((1))")
    err = capsys.readouterr().err
    assert (code, out, err) == (2, "", "error: line 2: blank or comment line in the record block\n")
    assert session.read_text() == text


def verify_edited(tmp_path, capsys, session, path, edit):
    """Exit code, stdout and stderr of `verify` on a copy of a file whose
    lines `edit` changed in place."""
    lines = path.read_text().splitlines()
    edit(lines)
    edited = tmp_path / f"edited-{path.name}"
    edited.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code, text = run("--session", session, "verify", str(edited))
    return code, text, capsys.readouterr().err


def late_trace(tmp_path):
    """A session and a genuine trace through a generator issued after the
    protection, so a step carries a stage."""
    session = str(tmp_path / "s.txt")
    run("--session", session, "register-state", "1@(5)/0", "4")
    pivot = run("--session", session, "vanishing-tuple", "0")[1].strip()
    line = run("--session", session, "link", pivot, "(6)")[1]
    fields = dict(f.split("=") for f in line.split()[1:])
    trace_path = tmp_path / "trace.txt"
    word = f"P({fields['ran']}) V({fields['dom']};{fields['ran']}) P({pivot})"
    assert run("--session", session, "lemma2", "0", word, "--out", str(trace_path))[0] == 0
    return session, trace_path


def test_verify_trace_must_read_back_exactly(tmp_path, capsys):
    session, trace_path = late_trace(tmp_path)
    assert run("--session", session, "verify", str(trace_path)) == (0, "verified ok\n")
    lines = trace_path.read_text().splitlines()
    late = next(i for i, line in enumerate(lines) if "case=late-dominates" in line)
    final = len(lines) - 1

    def replace(index, old, new):
        def edit(lines):
            assert old in lines[index]
            lines[index] = lines[index].replace(old, new)
        return edit

    cases = [
        (replace(late, "adjoint=0", "adjoint=7"), late, lines[late]),
        (replace(final, "depth=2", "depth=9"), final, lines[final]),
        (replace(late, " carrier=", " extra=1 carrier="), late, lines[late]),
        (lambda lines: lines.insert(2, "junk line"), 2, lines[2]),
        (lambda lines: lines.append("junk line"), final + 1, None),
    ]
    for edit, index, expected in cases:
        want = "no line" if expected is None else repr(expected)
        problem = f"line {index + 1} does not read back exactly (expected {want})"
        assert verify_edited(tmp_path, capsys, session, trace_path, edit) == (
            1, f"problem malformed trace: {problem}\n", ""
        )
    step = dict(f.split("=") for f in lines[late].split()[1:])
    for field in ("pos", "stage"):
        arabic = "".join(chr(0x660 + int(d)) for d in step[field])  # ٠١٢…
        edit = replace(late, f"{field}={step[field]}", f"{field}={arabic}")
        assert verify_edited(tmp_path, capsys, session, trace_path, edit) == (
            1,
            f"problem malformed trace: line {late + 1}: step record field {field}: "
            f"malformed natural number {arabic!r}\n",
            "",
        )


def test_verify_trace_names_missing_key_and_bad_field(tmp_path, capsys):
    session, trace_path = late_trace(tmp_path)
    lines = trace_path.read_text().splitlines()
    late = next(i for i, line in enumerate(lines) if "case=late-dominates" in line)
    for key in ("prot", "pivot", "word"):
        def drop(lines, key=key):
            lines[:] = [line for line in lines if not line.startswith(f"{key} ")]
        assert verify_edited(tmp_path, capsys, session, trace_path, drop) == (
            1, f"problem malformed trace: trace has no {key} line\n", ""
        )

    def bad_pos(lines):
        lines[late] = lines[late].replace(" pos=", " pos=x")
    assert verify_edited(tmp_path, capsys, session, trace_path, bad_pos) == (
        1,
        f"problem malformed trace: line {late + 1}: step record field pos: "
        "invalid literal for int() with base 10: 'x2'\n",
        "",
    )

    def no_carrier(lines):
        lines[-1] = "final depth=2"
    assert verify_edited(tmp_path, capsys, session, trace_path, no_carrier) == (
        1, f"problem malformed trace: line {len(lines)}: final record has no field carrier\n", ""
    )


def test_verify_certificate_checks_keys_and_fields(tmp_path, capsys):
    session = str(tmp_path / "s.txt")
    cert_path = tmp_path / "cert.txt"
    run("--session", session, "prime-witness", "P((1))", "(1)/0", "P((2))", "(2)/0",
        "--out", str(cert_path))
    lines = cert_path.read_text().splitlines()
    scalar = lines.index("scalar 1")

    def insert(index, line):
        return lambda lines: lines.insert(index, line)

    def replace(index, old, new):
        def edit(lines):
            lines[index] = lines[index].replace(old, new, 1)
        return edit

    def drop(prefix):
        def edit(lines):
            lines.remove(next(line for line in lines if line.startswith(prefix)))
        return edit

    cases = [
        (insert(scalar, "junk line"), f"line {scalar + 1}: expected a line starting 'scalar'"),
        (insert(scalar, "scalar 1"), f"line {scalar + 2}: expected a line starting 'root'"),
        (drop("source "), f"line {scalar + 3}: expected a line starting 'source'"),
        (replace(1, " fresh=", " extra=1 fresh="),
         "line 2: generator record has unknown field extra"),
        (replace(1, " n=", " stage=3 n="), "line 2: repeated field 'stage'"),
        (insert(len(lines), lines[-1]),
         f"line {len(lines) + 1} does not read back exactly (expected no line)"),
    ]
    for edit, problem in cases:
        assert verify_edited(tmp_path, capsys, session, cert_path, edit) == (
            1, f"problem malformed certificate: {problem}\n", ""
        )


def test_verify_refuses_forged_product_and_certificate_lines(tmp_path, capsys):
    """The product and certificate lines are derived from the other fields:
    one that evaluates to the right projection, or that differs only in its
    spacing, is still not the certificate's own and is refused."""
    session = str(tmp_path / "s.txt")
    cert_path = tmp_path / "cert.txt"
    run("--session", session, "prime-witness", "P((1))", "(1)/0", "P((2))", "(2)/0",
        "--out", str(cert_path))
    lines = cert_path.read_text().splitlines()
    product = next(i for i, line in enumerate(lines) if line.startswith("product "))
    claim = lines[product + 1].split(" ", 1)[1]
    certificates = [i for i, line in enumerate(lines) if line.startswith("certificate ")]
    alphas = [line.split(" ", 1)[1] for line in lines if line.startswith("alpha ")]

    def set_lines(changes):
        def edit(lines):
            for index, line in changes.items():
                lines[index] = line
        return edit

    forged_product = {product: f"product {claim}"}
    forged_witnesses = {i: f"certificate P({alpha})" for i, alpha in zip(certificates, alphas)}
    respaced = {product: lines[product].replace(" * ", "*", 1)}
    cases = [
        (forged_product, product),
        ({certificates[0]: forged_witnesses[certificates[0]]}, certificates[0]),
        ({certificates[1]: forged_witnesses[certificates[1]]}, certificates[1]),
        ({**forged_witnesses, **forged_product}, certificates[0]),
        (respaced, product),
    ]
    for changes, first in cases:
        code, out, err = verify_edited(tmp_path, capsys, session, cert_path, set_lines(changes))
        assert (code, err) == (1, "")
        assert out == (
            f"problem malformed certificate: line {first + 1} does not read back exactly "
            f"(expected {lines[first]!r})\n"
        )


def test_session_refuses_unknown_fields_and_non_ascii_digits(tmp_path, capsys):
    generator = "generator stage=0 req_dom=(1) req_ran=(2) n=2 fresh=0 dom=(1,0) ran=(2,0)"
    reads_back = f"line 2 does not read back exactly (expected {generator!r})"
    cases = [
        (generator + " extra=1", reads_back),
        (generator.replace("n=2", "n=2 n=2"), "line 2: repeated field 'n'"),
        (generator.replace("stage=0", "stage=١"), reads_back),
        (generator.replace("req_dom=(1)", "req_dom=(١)"),
         "line 2: generator record field req_dom: malformed label '١' in tuple '(١)'"),
        ("protection stage=0 horizon=1 tuples=(5) state=- extra=1",
         "line 2: protection record has unknown field extra"),
        ("protection stage=0 horizon=١ tuples=(5) state=1@(5)/0",
         "line 2: protection record field horizon: malformed natural number '١'"),
    ]
    for line, message in cases:
        text = f"prefixalg session v1\n{line}\n"
        assert session_error(tmp_path, capsys, text) == (2, "", f"error: {message}\n")


def test_session_protection_is_judged_by_its_line(tmp_path, capsys):
    """A protection no registry registers is refused at load, with or
    without a state: horizon 0, tuples other than the state's support, or a
    stage out of order."""
    horizon = "stage 0: protection horizon must be at least 1"
    cases = [
        ("protection stage=0 horizon=0 tuples= state=1@(5)/0", horizon),
        ("protection stage=0 horizon=0 tuples= state=-", horizon),
        ("protection stage=0 horizon=1 tuples=(6) state=1@(5)/0",
         "stage 0: recorded protection tuples do not match the recorded state at horizon 1"),
        ("protection stage=1 horizon=1 tuples=(5) state=1@(5)/0", "stage 1 out of order"),
    ]
    for line, message in cases:
        text = f"prefixalg session v1\n{line}\n"
        assert session_error(tmp_path, capsys, text) == (2, "", f"error: line 2: {message}\n")


def test_session_witness_binding_errors_name_file_line(tmp_path, capsys):
    session = tmp_path / "s.txt"
    run("--session", str(session), "link", "(7)", "(8)")
    run("--session", str(session), "prime-witness", "P((1))", "(1)/0", "P((2))", "(2)/0",
        "--bind", "c")
    lines = session.read_text().splitlines()
    scalar = lines.index("scalar 1")
    repeated = lines[:scalar] + ["scalar 1"] + lines[scalar:]
    # A block cut short ends at its "end binding" line, which the parser
    # names and does not read past.
    cut = lines[:scalar] + lines[lines.index("end binding", scalar):]
    for edited, message in [
        (repeated, f"line {scalar + 2}: expected a line starting 'root'"),
        (cut, f"line {scalar + 1}: expected a line starting 'scalar'"),
    ]:
        text = "\n".join(edited) + "\n"
        assert session_error(tmp_path, capsys, text) == (2, "", f"error: {message}\n")


def test_non_ascii_state_weight_is_usage_error(tmp_path, capsys):
    session = str(tmp_path / "s.txt")
    capsys.readouterr()
    assert run("--session", session, "register-state", "٣/٣@(5)/0", "4") == (2, "")
    assert capsys.readouterr().err == "error: malformed state weight '٣/٣'\n"
    assert not (tmp_path / "s.txt").exists()


def test_oversize_label_names_the_label(capsys):
    label = "9" * 5000
    for args, where in [
        (("compress", "P((1))", f"({label})"), f"tuple '({label})'"),
        (("geval", "P((1))", f"(1)/{label}"), f"point '(1)/{label}'"),
    ]:
        capsys.readouterr()
        assert run(*args) == (2, "")
        assert capsys.readouterr().err == f"error: label too long (5000 digits) in {where}\n"


def test_import_loads_no_dataclasses_or_selftest():
    """A cold process that imports the CLI loads neither `dataclasses` nor
    what it pulls in, nor the selftest suites."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    code = "import sys, prefixalg.cli; print(' '.join(sorted(sys.modules)))"
    loaded = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    assert "prefixalg.cli" in loaded
    for name in ("dataclasses", "inspect", "ast", "dis", "prefixalg.selftest"):
        assert name not in loaded
