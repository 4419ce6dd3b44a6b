import random
from fractions import Fraction

import pytest

from prefixalg.cylinders import SequenceDesc
from prefixalg.monomials import projection
from prefixalg.polynomials import DiagonalState, Polynomial, Scalar
from prefixalg.registry import GeneratorRecord, ProtectionRecord, RegistryError
from prefixalg.session import Session
from prefixalg.witnesses import ideal_projection_witness, vanishing_witness

P = Polynomial.projection


def one_point_state(prefix, tail=0):
    return DiagonalState([(SequenceDesc(prefix, tail), Fraction(1))])


def busy_session():
    session = Session()
    reg = session.registry
    reg.link((1,), (2, 7))
    prot = reg.register_protection(one_point_state((5,)), horizon=4)
    pivot = reg.vanishing_tuple(prot)
    late = reg.link(pivot, (6,))
    session.bind("q1", P((1,)).scale(Fraction(1, 2)) + P((2,)).scale(Scalar(Fraction(1, 2), Fraction(1, 3))))
    session.bind("w0", ideal_projection_witness(reg, P((1,)), SequenceDesc((1,), 0)))
    # A general complex coefficient puts the literal (1/2+i) in the certificate.
    root = Polynomial.isometry((1,), (2,)).scale(Scalar(Fraction(1, 2), Fraction(1)))
    session.bind("w1", ideal_projection_witness(reg, root, SequenceDesc((1,), 0)))
    trace = vanishing_witness(reg, prot, pivot, [late.monomial(), projection(pivot)])
    session.bind("t0", trace)
    return session


def test_session_round_trip():
    session = busy_session()
    text = session.to_text()
    again = Session.from_text(text)
    assert again.to_text() == text
    assert again.registry.records == session.registry.records
    assert set(again.bindings) == {"q1", "w0", "w1", "t0"}
    assert again.bindings["q1"] == session.bindings["q1"]
    assert again.bindings["w0"].alpha == session.bindings["w0"].alpha
    assert again.bindings["t0"].carrier == session.bindings["t0"].carrier


def test_session_save_load(tmp_path):
    session = busy_session()
    path = tmp_path / "s.txt"
    session.save(path)
    again = Session.load(path)
    again.save(tmp_path / "s2.txt")
    assert (tmp_path / "s.txt").read_bytes() == (tmp_path / "s2.txt").read_bytes()


def test_save_prints_only_the_records_not_read(tmp_path, monkeypatch):
    path = tmp_path / "s.txt"
    busy_session().save(path)
    session = Session.load(path)
    printed = []
    for cls in (GeneratorRecord, ProtectionRecord):
        def to_line(rec, real=cls.to_line):
            printed.append(rec)
            return real(rec)

        monkeypatch.setattr(cls, "to_line", to_line)
    assert session.to_text() == path.read_text()
    assert printed == []
    reg = session.registry
    new = [reg.link((3,), (4,)), reg.register_protection(one_point_state((8,)), 2)]
    session.save(path)
    assert printed == new
    monkeypatch.undo()
    assert Session.load(path).to_text() == path.read_text()


def test_session_rejects_bad_headers():
    with pytest.raises(RegistryError):
        Session.from_text("something else\n")
    with pytest.raises(RegistryError):
        Session.from_text("prefixalg session v1\nbinding q1\n")


def test_binding_names_validated():
    session = Session()
    with pytest.raises(ValueError):
        session.bind("not a name", P((1,)))


def test_load_or_new(tmp_path):
    path = tmp_path / "missing.txt"
    session = Session.load_or_new(path)
    assert session.registry.records == []
    session.registry.link((1,), (1,))
    session.save(path)
    assert len(Session.load_or_new(path).registry.records) == 1


def test_replay_determinism_of_random_sessions():
    def build(seed):
        rng = random.Random(seed)
        session = Session()
        for _ in range(40):
            roll = rng.random()
            if roll < 0.3:
                points = {}
                for _ in range(rng.randint(1, 3)):
                    points.setdefault(
                        SequenceDesc(
                            tuple(rng.randint(0, 5) for _ in range(rng.randint(0, 3))),
                            rng.randint(0, 5),
                        ),
                        rng.randint(1, 3),
                    )
                total = sum(points.values())
                rho = DiagonalState([(x, Fraction(w, total)) for x, w in points.items()])
                session.registry.register_protection(rho, rng.randint(1, 4))
            else:
                session.registry.link(
                    tuple(rng.randint(0, 5) for _ in range(rng.randint(0, 3))),
                    tuple(rng.randint(0, 5) for _ in range(rng.randint(0, 3))),
                )
        return session.to_text()

    text = build(17)
    assert build(17) == text
    assert Session.from_text(text).to_text() == text
