import io

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
        (generator.replace("stage=0", "stage=x1"),
         "generator record field stage: invalid literal for int() with base 10: 'x1'"),
        (generator.replace("dom=(1,0)", "dom=(1,x)"),
         "generator record field dom: malformed label 'x' in tuple '(1,x)'"),
        ("protection stage=0 horizon=1 tuples=(4)|(x) state=-",
         "protection record field tuples: malformed label 'x' in tuple '(x)'"),
        ("protection stage=0 horizon=1 tuples=(5) state=1@(5",
         "protection record field state: malformed sequence description '(5'"),
        (generator.replace(" n=", " n= k"), "malformed field 'k2'"),
    ]
    for line, message in cases:
        text = f"prefixalg session v1\n{line}\n"
        assert session_error(tmp_path, capsys, text) == (2, "", f"error: line 2: {message}\n")


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


def test_session_replay_error_names_file_line(tmp_path, capsys):
    session = str(tmp_path / "s.txt")
    run("--session", session, "link", "(1)", "(2)")
    run("--session", session, "link", "(3)", "(4)")
    header, first, second = (tmp_path / "s.txt").read_text().splitlines()
    # The second generator takes label 0, which the first already took.
    tampered = second.replace("fresh=1", "fresh=0").replace(",1)", ",0)")
    mismatch = "replay of the link request does not reproduce the recorded generator"
    text = "\n".join([header, first, tampered]) + "\n"
    assert session_error(tmp_path, capsys, text) == (2, "", f"error: line 3: {mismatch}\n")
    text = "\n".join([header, first, "", tampered]) + "\n"
    assert session_error(tmp_path, capsys, text) == (2, "", f"error: line 4: {mismatch}\n")
