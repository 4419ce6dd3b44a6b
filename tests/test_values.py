"""The value classes are plain slotted classes: equal fields make equal
values, frozen values hash alike and refuse assignment, mutable ones do not
hash, and the keyword constructors callers use keep working."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from prefixalg.cylinders import Frozen, SequenceDesc, Value
from prefixalg.expr import Adj, Iso, Product, Proj, ScalarLit, Sum
from prefixalg.monomials import V
from prefixalg.polynomials import (
    DiagonalState,
    FragmentIndex,
    FragmentMatrix,
    Polynomial,
    Scalar,
)
from prefixalg.registry import GeneratorRecord, ProtectionRecord, Registry
from prefixalg.selftest import SuiteResult
from prefixalg.session import Session
from prefixalg.witnesses import (
    IdealWitness,
    PrimenessCertificate,
    TraceStep,
    VanishingTrace,
    VerifyReport,
    ZeroReport,
    parse_trace_text,
    vanishing_witness,
)

REGISTRY = Registry()  # Registry compares by identity, so sessions share one
MUTABLE = {"IdealWitness", "PrimenessCertificate", "VanishingTrace", "ZeroReport",
           "VerifyReport", "Session", "SuiteResult"}


def build(seed):
    """One value of every value class, drawn from `seed`."""
    rng = random.Random(seed)
    n = rng.randint(1, 3)

    def tup(length):
        return tuple(rng.randint(0, 4) for _ in range(length))

    dom, ran = tup(n), tup(n)
    x = Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-2, 2)))
    point = SequenceDesc(tup(rng.randint(0, 3)), rng.randint(0, 4))
    index = FragmentIndex(tuples=(dom, ran), level=n, pad=rng.randint(0, 4))
    gen = GeneratorRecord(
        stage=rng.randint(0, 9), n=n + 1, dom=dom + (5,), ran=ran + (5,),
        requested=(dom, ran), fresh=5,
    )
    step = TraceStep(
        rng.randint(1, 4), rng.choice(["base", "prefix-rewrite"]), ran,
        rng.choice([None, 1, 2]), rng.choice([False, True]),
    )
    q = Polynomial.isometry(dom, ran).scale(x)
    witness = IdealWitness(source=q, alpha=dom, scalar=x, root=q)
    word = (V(dom, ran), V(ran, ran))
    return {
        "SequenceDesc": point,
        "V": V(dom, ran),
        "Scalar": x,
        "ScalarLit": ScalarLit(x),
        "Proj": Proj(dom),
        "Iso": Iso(dom, ran),
        "Adj": Adj(Iso(dom, ran)),
        "Product": Product((ScalarLit(x), Proj(dom))),
        "Sum": Sum(((1, Proj(dom)), (-1, Iso(dom, ran)))),
        "FragmentIndex": index,
        "FragmentMatrix": FragmentMatrix(index=index, rows=((x, -x), (x, x))),
        "GeneratorRecord": gen,
        "ProtectionRecord": ProtectionRecord(
            stage=rng.randint(0, 9), tuples=(dom,), horizon=n,
            state=rng.choice([None, DiagonalState([(point, 1)])]),
        ),
        "TraceStep": step,
        "IdealWitness": witness,
        "PrimenessCertificate": PrimenessCertificate(
            witness1=witness, witness2=witness, generator=gen
        ),
        "VanishingTrace": VanishingTrace(
            word=word, pivot=ran, prot_stage=rng.randint(0, 3), steps=(step,), carrier=ran
        ),
        "ZeroReport": ZeroReport(
            word=word, pivot=ran, prot_stage=rng.randint(0, 3), steps=(step,), reason="zero"
        ),
        "VerifyReport": VerifyReport(rng.choice([False, True]), [f"problem {rng.randint(0, 3)}"]),
        "Session": Session(registry=REGISTRY, bindings={"q": q}),
        "SuiteResult": SuiteResult(name="suite", ok=rng.choice([False, True]), detail=str(n)),
    }


def fields(value):
    return [getattr(value, name) for name in type(value).__slots__]


@pytest.mark.parametrize("seed", range(20))
def test_equal_fields_make_equal_values(seed):
    first, again, other = build(seed), build(seed), build(seed + 1000)
    for name, a in first.items():
        b = again[name]
        assert type(a).__name__ == name and isinstance(a, Value)
        assert isinstance(a, Frozen) == (name not in MUTABLE), name
        assert a is not b and a == b and not a != b, name
        assert a != object()
        assert (a == other[name]) == (fields(a) == fields(other[name])), name
        if isinstance(a, Frozen):
            try:
                hash(tuple(fields(a)))
            except TypeError:  # a field that does not hash, such as a state
                with pytest.raises(TypeError):
                    hash(a)
            else:
                assert hash(a) == hash(b), name
            first_field = type(a).__slots__[0]
            with pytest.raises(AttributeError):
                setattr(a, first_field, None)
            with pytest.raises(AttributeError):
                delattr(a, first_field)
            assert fields(a) == fields(b)
            assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a, name
        else:
            with pytest.raises(TypeError):
                hash(a)
            first_field = type(a).__slots__[0]
            setattr(a, first_field, getattr(a, first_field))  # mutable: no error
        assert not hasattr(a, "__dict__") and not hasattr(type(a), "__dataclass_fields__")


def test_constructors_and_repr():
    x = Scalar(Fraction(1, 2))
    assert x.im == 0 and type(x.im) is Fraction
    assert Scalar(3) == Scalar(Fraction(3), Fraction(0))
    index = FragmentIndex(tuples=((1,),), level=1, pad=0)
    assert FragmentMatrix(index=index, rows=((x,),)).size() == 1
    reg = Registry()
    assert Session(registry=reg).registry is reg and Session().bindings == {}
    assert VerifyReport(True).problems == [] and VerifyReport(True) is not VerifyReport(True)
    assert Session().bindings is not Session().bindings
    assert SequenceDesc((1, 0, 0), 0).prefix == (1,)
    with pytest.raises(ValueError):
        V((1,), ())
    assert repr(Proj((1, 2))) == "Proj(tup=(1, 2))"
    assert repr(TraceStep(1, "base", (0,))) == (
        "TraceStep(position=1, case='base', carrier=(0,), stage=None, adjoint=False)"
    )


def assert_built_alike(raw, built):
    """A value built raw is the value its constructor builds: equal, hashed
    and printed alike, and frozen."""
    assert type(raw) is type(built)
    assert raw == built and hash(raw) == hash(built) and repr(raw) == repr(built)
    for name in type(raw).__slots__:
        with pytest.raises(AttributeError):
            setattr(raw, name, None)
        with pytest.raises(AttributeError):
            delattr(raw, name)


def test_raw_builders_build_constructor_values():
    reg = Registry()
    prot = reg.register_protection(DiagonalState([(SequenceDesc((5,), 0), 1)]), horizon=2)
    pivot = reg.vanishing_tuple(prot)
    rec = reg.link(pivot, (6,))
    assert_built_alike(rec, GeneratorRecord(
        stage=rec.stage, n=rec.n, dom=rec.dom, ran=rec.ran, requested=rec.requested,
        fresh=rec.fresh,
    ))
    trace = vanishing_witness(reg, prot, pivot, [rec.monomial(), V(pivot, pivot)])
    read = parse_trace_text(trace.to_text())
    assert len(trace.steps) == len(read.steps) == 2
    for walked, parsed in zip(trace.steps, read.steps):
        built = TraceStep(
            walked.position, walked.case, walked.carrier, walked.stage, walked.adjoint
        )
        assert_built_alike(walked, built)
        assert_built_alike(parsed, built)


def test_scalar_construction_runs_post_init():
    """A wrapper set on the class sees every direct construction, and
    arithmetic builds its results without it."""
    original = Scalar.__dict__["__post_init__"]
    calls = []

    def counted(self):
        calls.append(self)
        original(self)

    Scalar.__post_init__ = counted
    try:
        x = Scalar(Fraction(1, 2))
        y = Scalar(2, 1)
        assert calls == [x, y] and type(y.re) is Fraction and type(y.im) is Fraction
        assert x * y == Scalar(Fraction(1), Fraction(1, 2)) and len(calls) == 3
    finally:
        Scalar.__post_init__ = original
