"""The benchmark's tracer wraps program names it looks up in class and
module dictionaries, so renaming or deleting one breaks every traced run."""

import re
import types
from fractions import Fraction
from pathlib import Path

import prefixalg
from prefixalg.cylinders import SequenceDesc
from prefixalg.polynomials import FragmentMatrix, Polynomial, Scalar, fragment_index
from prefixalg.registry import Registry

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer() -> types.ModuleType:
    """bench/tracer.py as a module, compiled in memory so that nothing is
    written next to it."""
    module = types.ModuleType("bench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), vars(module))
    return module


def test_tracer_installs_and_uninstalls_on_the_package():
    classes = (Scalar, Polynomial, FragmentMatrix)
    before = [dict(vars(cls)) for cls in classes]
    tracer = load_tracer().Tracer()
    tracer.install(prefixalg)
    try:
        assert vars(Scalar)["__post_init__"] is not before[0]["__post_init__"]
        q = Polynomial.isometry((1,), (2,)) + Polynomial.projection((1,))
        square = q.adjoint() * q
        index = prefixalg.polynomials.fragment_index([q, square], 1)
        assert square.fragment_matrix(index=index).is_positive_semidefinite()
        Scalar(Fraction(1, 2))
    finally:
        tracer.uninstall()
    assert prefixalg.polynomials.fragment_index is fragment_index
    assert [dict(vars(cls)) for cls in classes] == before
    metrics = tracer.layer_metrics(ops=1)
    # The product rule must stay behind the module name the tracer wraps.
    assert metrics["monomials.multiply_calls"] >= 1
    assert metrics["polynomials.scalars_built"] >= 1
    assert metrics["polynomials.fragment_rows"] == len(index.tuples)
    assert metrics["polynomials.psd_ms"] > 0


def test_tracer_sees_the_certificate_text_layers():
    # A change that routes the text path around a wrapped name would zero
    # its layer in every traced run; here it fails instead. A genuine
    # certificate is read in one pass; a scalar field spelled another way
    # goes through the descent and its evaluation.
    tracer = load_tracer().Tracer()
    tracer.install(prefixalg)
    try:
        wit = prefixalg.witnesses
        reg = Registry()
        q1 = Polynomial.isometry((1,), (2,)) + Polynomial.projection((1, 3))
        q2 = Polynomial.projection((2,)).scale(Scalar(Fraction(2)))
        w1 = wit.ideal_projection_witness(reg, q1, SequenceDesc((1,), 0))
        w2 = wit.ideal_projection_witness(reg, q2, SequenceDesc((2,), 0))
        text = wit.primeness_witness(reg, w1, w2).to_text()
        assert wit.verify_certificate_text(text, reg).ok
        respelled = re.sub(r"^scalar (.*)$", r"scalar (\1)", text, count=1, flags=re.M)
        assert respelled != text
        assert not wit.verify_certificate_text(respelled, reg).ok
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(ops=1)
    for layer in ("parser.parse_ms", "expr.eval_ms", "expr.print_ms", "polynomials.product_ms"):
        assert metrics[layer] > 0, layer
    assert metrics["monomials.multiply_calls"] >= 1
