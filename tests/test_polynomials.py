import random
from fractions import Fraction
from itertools import product

from hypothesis import given, strategies as st

import pytest

from prefixalg import polynomials
from prefixalg.cylinders import SequenceDesc
from prefixalg.monomials import V, act
from prefixalg.polynomials import (
    DiagonalState,
    FragmentIndex,
    FragmentMatrix,
    Polynomial,
    Scalar,
    add_into,
    format_state,
    fragment_index,
    parse_state_text,
)

P = Polynomial.projection
Iso = Polynomial.isometry


def poly(*terms):
    out = Polynomial.zero()
    for coeff, m in terms:
        out = out + Polynomial.of(m, coeff)
    return out


# -- scalars -------------------------------------------------------------------


def test_scalar_arithmetic():
    a = Scalar(Fraction(1, 2), Fraction(3, 4))
    b = Scalar(Fraction(-1), Fraction(1, 4))
    assert a + b == Scalar(Fraction(-1, 2), Fraction(1))
    assert a * b == Scalar(Fraction(1, 2) * Fraction(-1) - Fraction(3, 4) * Fraction(1, 4),
                           Fraction(1, 2) * Fraction(1, 4) + Fraction(3, 4) * Fraction(-1))
    assert (a / b) * b == a
    assert a.conjugate().conjugate() == a
    assert (a * a.conjugate()).re == a.abs_sq()


def test_scalar_text():
    cases = {
        Scalar(Fraction(0)): "0",
        Scalar(Fraction(3, 2)): "3/2",
        Scalar(Fraction(-2)): "-2",
        Scalar(Fraction(0), Fraction(1)): "i",
        Scalar(Fraction(0), Fraction(-3, 4)): "-3/4i",
        Scalar(Fraction(1, 2), Fraction(3, 4)): "1/2+3/4i",
        Scalar(Fraction(1, 2), Fraction(-1)): "1/2-i",
    }
    for value, text in cases.items():
        assert value.to_text() == text


# -- algebra examples ----------------------------------------------------------


def test_product_examples():
    assert P((1,)) * P((2,)) == Polynomial.zero()
    # Rightmost factor acts first: an isometry times its adjoint is the
    # range projection, the other way round the domain projection.
    v = Iso((1,), (2,))
    assert v * v.adjoint() == P((2,))
    assert v.adjoint() * v == P((1,))
    assert (2 * P((1,)) + 3 * P((2,))) * P((1,)) == 2 * P((1,))


def test_product_against_matrix_oracle():
    # Distribution checked entry by entry through the pointwise action.
    p = 2 * P((1,)) + 3 * P((2,))
    q = P((1,))
    prod = p * q
    tail = 9
    for prefix in [(1,), (2,), (1, 4)]:
        y = SequenceDesc(prefix, tail)
        for m in [V((1,), (1,)), V((2,), (2,)), V((1, 4), (1, 4))]:
            z = act(m, y)
            if z is None:
                continue
            direct = prod.matrix_element(z, y)
            composed = Scalar(Fraction(0))
            for m1, c1 in p.terms.items():
                for m2, c2 in q.terms.items():
                    w = act(m2, y)
                    if w is not None and act(m1, w) == z:
                        composed = composed + c1 * c2
            assert direct == composed


def test_adjoint_examples():
    i = Scalar(Fraction(0), Fraction(1))
    p = Polynomial.of(V((1,), (2,)), i)
    assert p.adjoint() == Polynomial.of(V((2,), (1,)), -i)
    real = 2 * P((1,)) + 3 * P((2, 5))
    assert real.adjoint() == real


@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 4), st.integers(0, 4))
def test_adjoint_involution(re, im, a, b):
    p = Polynomial.of(V((a,), (b,)), Scalar(Fraction(re), Fraction(im))) + P((a, b))
    assert p.adjoint().adjoint() == p


def test_add_into_keeps_the_dict_canonical():
    p = 2 * P((1,)) + Iso((1,), (2,))
    res = dict(p.terms)
    add_into(res, (2 * P((1,))).terms, negate=True)
    assert res == Iso((1,), (2,)).terms
    add_into(res, (P((3,)) + Iso((1,), (2,))).terms, negate=True)
    assert res == P((3,)).scale(-1).terms
    add_into(res, P((3,)).terms)
    assert res == {}


def test_ring_laws_random():
    rng = random.Random(21)

    def rand_poly():
        out = Polynomial.zero()
        for _ in range(rng.randint(0, 3)):
            n = rng.randint(0, 2)
            out = out + Polynomial.of(
                V(
                    tuple(rng.randint(0, 3) for _ in range(n)),
                    tuple(rng.randint(0, 3) for _ in range(n)),
                ),
                Scalar(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-1, 1))),
            )
        return out

    for _ in range(60):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert (p + q) * r == p * r + q * r
        assert (p * q).adjoint() == q.adjoint() * p.adjoint()


# -- diagonal evaluation ---------------------------------------------------------


def test_g_eval_examples():
    x = SequenceDesc((1, 7), 0)
    assert P((1,)).g_eval(x) == Scalar(Fraction(1))
    assert Iso((1,), (2,)).g_eval(SequenceDesc((1,), 0)) == Scalar(Fraction(0))
    assert (2 * P((1,)) + 5 * P((1, 7))).g_eval(x) == Scalar(Fraction(7))


def test_g_eval_against_matrix_element():
    p = 2 * P((1,)) + 5 * P((1, 7)) + Polynomial.of(V((1,), (3,)), Fraction(4))
    for x in [SequenceDesc((1, 7), 0), SequenceDesc((1,), 2), SequenceDesc((3,), 0)]:
        assert p.g_eval(x) == p.matrix_element(x, x)


def test_g_on_cylinder_examples():
    assert P((1,)).g_on_cylinder((1, 7)) == Scalar(Fraction(1))
    assert P((1,)).g_on_cylinder((2, 7)) == Scalar(Fraction(0))
    with pytest.raises(ValueError):
        P((1, 2)).g_on_cylinder((1,))


def test_g_constancy_on_long_cylinders():
    rng = random.Random(7)
    for _ in range(50):
        p = poly(
            *(
                (
                    Scalar(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-2, 2))),
                    V(
                        tuple(rng.randint(0, 5) for _ in range(n)),
                        tuple(rng.randint(0, 5) for _ in range(n)),
                    ),
                )
                for n in (rng.randint(0, 3) for _ in range(rng.randint(1, 5)))
            )
        )
        t = tuple(rng.randint(0, 5) for _ in range(max(p.max_tuple_len(), rng.randint(0, 4))))
        constant = p.g_on_cylinder(t)
        tail = 9
        for _ in range(3):
            x = SequenceDesc(t + tuple(rng.randint(0, 5) for _ in range(2)), tail)
            assert p.g_eval(x) == constant


# -- compression -----------------------------------------------------------------


def test_compress_examples():
    assert P((1,)).compress((1, 9)) == P((1, 9))
    assert Iso((1,), (2,)).compress((3,)) == Polynomial.zero()


def test_fresh_compression_with_deep_generators():
    """Generators as long as the compression cylinder, with a fresh final
    coordinate: compression is an exact scalar multiple of the projection and
    all off-diagonal elements inside the cylinder vanish."""
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 3)
        gens = []
        for _ in range(rng.randint(1, 4)):
            k = rng.randint(0, n)
            gens.append(
                V(
                    tuple(rng.randint(0, 5) for _ in range(k)),
                    tuple(rng.randint(0, 5) for _ in range(k)),
                )
            )
        blocked = {t[n - 1] for g in gens for t in (g.dom, g.ran) if len(t) >= n}
        fresh = 0
        while fresh in blocked:
            fresh += 1
        head = tuple(rng.randint(0, 5) for _ in range(n - 1))
        alpha = head + (fresh,)
        # Random *-polynomial in the generators: sums of random products.
        p = Polynomial.zero()
        for _ in range(rng.randint(1, 4)):
            word = Polynomial.unit()
            for _ in range(rng.randint(1, 3)):
                g = rng.choice(gens)
                factor = Polynomial.of(g if rng.random() < 0.5 else V(g.ran, g.dom))
                word = word * factor
            p = p + word.scale(Scalar(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-1, 1))))
        assert p.max_tuple_len() <= n
        constant = p.g_on_cylinder(alpha)
        assert p.compress(alpha) == P(alpha).scale(constant)
        tail = max(p.labels() | set(alpha) | {0}) + 1
        y = SequenceDesc(alpha + (tail + 1,), tail)
        z = SequenceDesc(alpha, tail)
        assert p.matrix_element(z, y) == Scalar(Fraction(0))
        assert p.matrix_element(y, z) == Scalar(Fraction(0))


# -- states ------------------------------------------------------------------------


def test_state_validation():
    x = SequenceDesc((1,), 0)
    with pytest.raises(ValueError):
        DiagonalState([(x, Fraction(1, 2))])
    with pytest.raises(ValueError):
        DiagonalState([(x, Fraction(1, 2)), (x, Fraction(1, 2))])
    with pytest.raises(ValueError):
        DiagonalState([(x, Fraction(-1)), (SequenceDesc((2,), 0), Fraction(2))])


def test_state_eval_examples():
    rho = DiagonalState([(SequenceDesc((1,), 0), Fraction(1))])
    assert rho.evaluate(P((1,))) == Scalar(Fraction(1))
    assert rho.evaluate(P((2,))) == Scalar(Fraction(0))
    half = DiagonalState(
        [(SequenceDesc((1,), 0), Fraction(1, 2)), (SequenceDesc((2,), 0), Fraction(1, 2))]
    )
    assert half.evaluate(P((1,))) == Scalar(Fraction(1, 2))


def test_support_set_examples():
    rho = DiagonalState([(SequenceDesc((1, 2), 0), Fraction(1))])
    assert rho.support_set(2) == [(1,), (1, 2)]
    assert rho.support_set(3) == [(1,), (1, 2), (1, 2, 0)]
    half = DiagonalState(
        [(SequenceDesc((1,), 0), Fraction(1, 2)), (SequenceDesc((2,), 0), Fraction(1, 2))]
    )
    assert half.support_set(1) == [(1,), (2,)]
    for n in (1, 2, 5):
        assert len(half.support_set(n)) <= 2 * n


def test_support_set_slices_one_head_per_point():
    # The definition: every tail-completed prefix, each built on its own.
    rng = random.Random("support-set")
    for _ in range(200):
        points = {
            SequenceDesc(tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 4))),
                         rng.randint(0, 3)): None
            for _ in range(rng.randint(1, 4))
        }
        rho = DiagonalState([(x, Fraction(1, len(points))) for x in points])
        for horizon in range(1, 7):
            want = {x.head(n) for x in points for n in range(1, horizon + 1)}
            assert rho.support_set(horizon) == sorted(want, key=lambda t: (len(t), t))
            support = tuple(sorted(want, key=lambda t: (len(t), t)))
            assert rho.is_support(horizon, support)
            for wrong in (support[:-1], support[1:], support + support[-1:], support[::-1]):
                assert not rho.is_support(horizon, wrong) or wrong == support
        for horizon in (0, -1):
            for call in (lambda: rho.support_set(horizon), lambda: rho.is_support(horizon, ())):
                with pytest.raises(ValueError, match="max_len must be at least 1"):
                    call()


def test_support_set_is_exactly_where_mass_sits():
    rho = DiagonalState(
        [(SequenceDesc((1, 2), 0), Fraction(1, 3)), (SequenceDesc((1,), 5), Fraction(2, 3))]
    )
    support = set(rho.support_set(3))
    for t in support:
        assert rho.evaluate(P(t))
    for t in [(2,), (1, 3), (1, 2, 1), (5, 5, 5)]:
        assert t not in support
        assert not rho.evaluate(P(t))


def test_state_text_round_trip():
    rho = DiagonalState(
        [(SequenceDesc((1, 2), 0), Fraction(1, 3)), (SequenceDesc((3,), 7), Fraction(2, 3))]
    )
    assert parse_state_text(format_state(rho)) == rho


def test_cauchy_schwarz():
    rng = random.Random(3)
    for _ in range(40):
        b = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 2)))
        # Build p with P(b) absorbing it from the left: p = P(b) * q.
        q = Polynomial.zero()
        for _ in range(rng.randint(1, 4)):
            n = rng.randint(0, 3)
            q = q + Polynomial.of(
                V(
                    tuple(rng.randint(0, 3) for _ in range(n)),
                    tuple(rng.randint(0, 3) for _ in range(n)),
                ),
                Scalar(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))),
            )
        p = Polynomial.projection(b) * q
        points = {}
        for _ in range(rng.randint(1, 3)):
            points[SequenceDesc(tuple(rng.randint(0, 3) for _ in range(2)), rng.randint(0, 3))] = (
                rng.randint(1, 4)
            )
        total = sum(points.values())
        rho = DiagonalState([(x, Fraction(w, total)) for x, w in points.items()])
        lhs = rho.evaluate(p).abs_sq()
        rhs = rho.evaluate(P(b)) * rho.evaluate(p.adjoint() * p)
        assert rhs.im == 0
        assert lhs <= rhs.re


# -- fragment matrices ---------------------------------------------------------------


def entry(m, z, y):
    """The entry of fragment matrix m at row tuple z, column tuple y."""
    return m.rows[m.index.tuples.index(z)][m.index.tuples.index(y)]


def matmul(a, b):
    """The dense product of two fragment matrices on one index."""
    n = a.size()
    zero = Scalar(Fraction(0))
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            s = zero
            for k in range(n):
                s = s + a.rows[i][k] * b.rows[k][j]
            row.append(s)
        rows.append(tuple(row))
    return FragmentMatrix(index=a.index, rows=tuple(rows))


def dagger(m):
    """The conjugate transpose of a fragment matrix."""
    n = m.size()
    rows = tuple(tuple(m.rows[j][i].conjugate() for j in range(n)) for i in range(n))
    return FragmentMatrix(index=m.index, rows=rows)


def test_fragment_examples():
    p = P((1,))
    m = p.fragment_matrix(fragment_index([p], 1))
    assert m.index.tuples == ((1,),)
    assert m.rows == ((Scalar(Fraction(1)),),)

    p = Iso((1,), (2,))
    m = p.fragment_matrix(fragment_index([p], 1))
    assert m.index.tuples == ((1,), (2,))
    assert entry(m, (2,), (1,)) == Scalar(Fraction(1))
    assert entry(m, (1,), (2,)) == Scalar(Fraction(0))
    assert entry(m, (1,), (1,)) == Scalar(Fraction(0))


def test_fragment_pad_is_fresh_and_recorded():
    p = P((1,)) + Iso((0, 2), (2, 2))
    m = p.fragment_matrix(fragment_index([p], 2))
    assert m.index.pad == 3
    assert m.index.level == 2
    with pytest.raises(ValueError):
        fragment_index([p], 1)
    with pytest.raises(ValueError, match="fragment level 1 is below the longest tuple"):
        p.fragment_matrix(fragment_index([P((1,))], 1))


def test_fragment_faithful_on_shared_index():
    rng = random.Random(5)
    for _ in range(25):
        def rand_poly():
            out = Polynomial.zero()
            for _ in range(rng.randint(1, 3)):
                n = rng.randint(0, 2)
                out = out + Polynomial.of(
                    V(
                        tuple(rng.randint(0, 3) for _ in range(n)),
                        tuple(rng.randint(0, 3) for _ in range(n)),
                    ),
                    Scalar(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-1, 1))),
                )
            return out

        p, q = rand_poly(), rand_poly()
        index = fragment_index([p, q], 2)
        mp = p.fragment_matrix(index=index)
        mq = q.fragment_matrix(index=index)
        assert (p * q).fragment_matrix(index=index).rows == matmul(mp, mq).rows
        assert p.adjoint().fragment_matrix(index=index).rows == dagger(mp).rows


def test_fragment_entries_match_pointwise_action():
    """Every entry equals the pointwise matrix element through `act`, on
    indices closed over several polynomials, including the empty tuple."""
    rng = random.Random(17)
    for _ in range(40):
        level = rng.randint(1, 3)

        def rand_poly():
            out = Polynomial.zero()
            for _ in range(rng.randint(1, 5)):
                n = rng.randint(0, level)
                out = out + Polynomial.of(
                    V(
                        tuple(rng.randint(0, 3) for _ in range(n)),
                        tuple(rng.randint(0, 3) for _ in range(n)),
                    ),
                    Scalar(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-2, 2))),
                )
            return out

        p, q = rand_poly(), rand_poly()
        index = fragment_index([p, q], level)
        for poly in (p, q, p * q, p.adjoint() * p):
            m = poly.fragment_matrix(index=index)
            for i, z in enumerate(index.tuples):
                for j, y in enumerate(index.tuples):
                    expected = poly.matrix_element(
                        SequenceDesc(z, index.pad), SequenceDesc(y, index.pad)
                    )
                    assert m.rows[i][j] == expected


def test_hermitian_check_rejects_broken_mirrors():
    index = FragmentIndex(tuples=((0,), (1,), (2,)), level=1, pad=3)
    zero = Scalar(Fraction(0))
    c = Scalar(Fraction(1), Fraction(2))

    def matrix(entries):
        rows = [[zero] * 3 for _ in range(3)]
        for (i, j), value in entries.items():
            rows[i][j] = value
        return FragmentMatrix(index=index, rows=tuple(tuple(r) for r in rows))

    diagonal = {(0, 0): Scalar(Fraction(5)), (1, 1): Scalar(Fraction(5)), (2, 2): Scalar(Fraction(5))}
    assert matrix({**diagonal, (0, 2): c, (2, 0): c.conjugate()}).is_positive_semidefinite()
    broken = [
        {**diagonal, (0, 2): c},  # a nonzero entry whose mirror is zero
        {**diagonal, (2, 0): c},  # the same, below the diagonal
        {**diagonal, (0, 2): c, (2, 0): c},  # the mirror differs only in the sign of im
        {**diagonal, (1, 1): Scalar(Fraction(5), Fraction(1))},  # a diagonal entry off the reals
    ]
    for entries in broken:
        m = matrix(entries)
        assert not m.is_hermitian()
        assert not m.is_positive_semidefinite()


def test_fragment_psd_of_star_squares():
    rng = random.Random(11)
    for _ in range(30):
        q = Polynomial.zero()
        for _ in range(rng.randint(1, 3)):
            n = rng.randint(0, 2)
            q = q + Polynomial.of(
                V(
                    tuple(rng.randint(0, 3) for _ in range(n)),
                    tuple(rng.randint(0, 3) for _ in range(n)),
                ),
                Scalar(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-1, 1))),
            )
        source = q.adjoint() * q
        level = max(source.max_tuple_len(), 1)
        m = source.fragment_matrix(fragment_index([source], level))
        assert m.is_hermitian()
        assert m.is_positive_semidefinite()


def test_psd_rejects_negative_and_indefinite():
    one = Scalar(Fraction(1))
    zero = Scalar(Fraction(0))
    p = P((1,)).scale(-1)
    neg = p.fragment_matrix(fragment_index([p], 1))
    assert not neg.is_positive_semidefinite()
    # [[0, 1], [1, 0]] is Hermitian but indefinite.
    p = Iso((1,), (2,)) + Iso((2,), (1,))
    flip = p.fragment_matrix(fragment_index([p], 1))
    assert flip.is_hermitian()
    entries = [e for row in flip.rows for e in row]
    assert entries.count(one) == 2 and entries.count(zero) == 2
    assert not flip.is_positive_semidefinite()


def dense_matrix(entries):
    """A FragmentMatrix holding the given square list of Scalar-likes."""
    n = len(entries)
    index = FragmentIndex(tuples=tuple((k,) for k in range(n)), level=1, pad=n)
    return FragmentMatrix(index=index, rows=tuple(tuple(Scalar.of(c) for c in row) for row in entries))


def test_psd_skips_a_zero_pivot_that_appears_during_elimination():
    # The first pivot clears row 1, so the second pivot is zero with a zero
    # row: it drops out and the previous pivot stays the divisor.
    assert dense_matrix([[1, 1, 1], [1, 1, 1], [1, 1, 2]]).is_positive_semidefinite()
    half = Fraction(1, 2)
    assert not dense_matrix([[1, 1, 1], [1, 1, 1], [1, 1, half]]).is_positive_semidefinite()
    # 2(1,1,1,0)(1,1,1,0)' + (0,0,1,1)(0,0,1,1)': the third pivot eliminates
    # row 3 by exact division by the first pivot, past the skipped zero.
    assert dense_matrix(
        [[2, 2, 2, 0], [2, 2, 2, 0], [2, 2, 3, 1], [0, 0, 1, 1]]
    ).is_positive_semidefinite()


def dense_psd(rows):
    """Oracle: Schur-complement elimination of the whole Hermitian matrix on
    (re, im) pairs of Fractions, read once from each entry, so that it shares
    no arithmetic with `Scalar`."""
    n = len(rows)
    work = [[(c.re, c.im) for c in row] for row in rows]
    for k in range(n):
        dr, di = work[k][k]
        if di != 0 or dr < 0:
            return False
        if dr == 0:
            if any(work[k][j] != (0, 0) for j in range(k + 1, n)):
                return False
            continue
        for i in range(k + 1, n):
            ar, ai = work[i][k]
            for j in range(k + 1, n):
                # work[i][j] -= work[i][k] * work[k][j] / d, d = dr real
                br, bi = work[k][j]
                xr, xi = work[i][j]
                work[i][j] = (xr - (ar * br - ai * bi) / dr, xi - (ar * bi + ai * br) / dr)
    return True


def random_block(rng, kind, denominators=None):
    """A Hermitian block: a Gram matrix B*B (often singular), the same with
    one diagonal entry pushed negative, or a Gram matrix with a zero pivot
    beside a nonzero off-diagonal entry. The entries of B are integers, or
    have denominators drawn from `denominators` when it is given."""
    size = rng.randint(1, 4)
    rank = rng.randint(1, size)

    def part(lo, hi):
        num = rng.randint(lo, hi)
        return Fraction(num, rng.choice(denominators)) if denominators else Fraction(num)

    b = [[Scalar(part(-3, 3), part(-2, 2)) for _ in range(size)] for _ in range(rank)]
    gram = [
        [sum((b[k][i].conjugate() * b[k][j] for k in range(rank)), Scalar(Fraction(0)))
         for j in range(size)]
        for i in range(size)
    ]
    if kind == "pushed":
        t = rng.randrange(size)
        gram[t][t] = Scalar(-gram[t][t].re - 1)
    elif kind == "zero-pivot":
        c = Scalar(Fraction(rng.choice([-2, -1, 1, 2])), Fraction(rng.randint(-1, 1)))
        zero = Scalar(Fraction(0))
        gram = [[zero] * (size + 1)] + [[zero] + row for row in gram]
        t = rng.randint(1, size)
        gram[0][t] = c
        gram[t][0] = c.conjugate()
    return gram


def check_blocks_against_dense_oracle(rng, count, denominators=None):
    """`count` matrices of shuffled random blocks: the verdict agrees with
    `dense_psd` and with how the blocks were made."""
    verdicts = set()
    for _ in range(count):
        kinds = [rng.choice(["gram", "gram", "gram", "pushed", "zero-pivot"])
                 for _ in range(rng.randint(1, 5))]
        blocks = [random_block(rng, kind, denominators) for kind in kinds]
        n = sum(len(block) for block in blocks)
        perm = list(range(n))
        rng.shuffle(perm)
        rows = [[Scalar(Fraction(0))] * n for _ in range(n)]
        offset = 0
        for block in blocks:
            for i, row in enumerate(block):
                for j, c in enumerate(row):
                    rows[perm[offset + i]][perm[offset + j]] = c
            offset += len(block)
        matrix = dense_matrix(rows)
        assert matrix.is_hermitian()
        verdict = matrix.is_positive_semidefinite()
        assert verdict == dense_psd(matrix.rows)
        assert verdict == all(kind == "gram" for kind in kinds)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_block_psd_matches_dense_oracle():
    check_blocks_against_dense_oracle(random.Random(2024), 80)


def test_block_psd_with_denominators_matches_dense_oracle():
    # Gram factors over 1..6 denominators: each block is cleared of them
    # by its lcm before the integer elimination.
    check_blocks_against_dense_oracle(random.Random(6), 80, denominators=range(1, 7))


def test_two_by_two_blocks_match_dense_oracle():
    """Every Hermitian [[x, z], [conj(z), y]] on a grid of diagonals and
    off-diagonal entries (a + b*i)/d: the closed-form verdict agrees with
    `dense_psd`, including singular blocks and a zero diagonal beside a
    nonzero off-diagonal entry. A zero z splits the block into two 1x1s."""
    diagonals = [Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
    offs = {Scalar(Fraction(a, d), Fraction(b, d)) for a, b in product((-1, 0, 1), repeat=2)
            for d in (1, 2, 3)}
    seen = set()
    for x, y, z in product(diagonals, diagonals, offs):
        matrix = dense_matrix([[x, z], [z.conjugate(), y]])
        verdict = matrix.is_positive_semidefinite()
        assert verdict == dense_psd(matrix.rows), (x, y, z)
        if z and x * y == z.abs_sq():
            seen.add(("singular", verdict))
        if z and 0 in (x, y):
            seen.add(("zero diagonal", verdict))
    assert seen == {("singular", True), ("singular", False), ("zero diagonal", False)}


def test_carried_rows_give_the_verdict_of_the_rows():
    """A matrix from `fragment_matrix` carries its rows' nonzero entries. Its
    verdicts equal those of the same rows built by hand and of `dense_psd`,
    and the two matrices are equal and hash alike. Hermitian polynomials
    p + p' give both verdicts; star-squares give PSD ones."""
    rng = random.Random(23)
    verdicts = set()
    for _ in range(60):
        level = rng.randint(1, 3)
        q = Polynomial.zero()
        for _ in range(rng.randint(1, 6)):
            n = rng.randint(0, level)
            q = q + Polynomial.of(
                V(tuple(rng.randint(0, 3) for _ in range(n)), tuple(rng.randint(0, 3) for _ in range(n))),
                Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-2, 2))),
            )
        for p in (q.adjoint() * q, q + q.adjoint()):
            m = p.fragment_matrix(fragment_index([q, p], level))
            by_hand = FragmentMatrix(index=m.index, rows=m.rows)
            assert m.nonzeros is not None and by_hand.nonzeros is None
            assert m.nonzeros == polynomials._nonzeros(m.rows)
            assert m == by_hand and hash(m) == hash(by_hand)
            assert m.is_hermitian() and by_hand.is_hermitian()
            verdict = m.is_positive_semidefinite()
            assert verdict == by_hand.is_positive_semidefinite() == dense_psd(m.rows)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_carried_rows_drop_entries_that_cancel():
    # At level 2, V((1);(2)) and V((1,0);(2,0)) both send (1,0) to (2,0).
    p = Iso((1,), (2,)) - Iso((1, 0), (2, 0))
    m = p.fragment_matrix(fragment_index([p], 2))
    tuples = m.index.tuples
    assert entry(m, (2, 0), (1, 0)) == Scalar(0)
    assert tuples.index((1, 0)) not in m.nonzeros[tuples.index((2, 0))]
    assert m.nonzeros == polynomials._nonzeros(m.rows)
    assert all(c for entries in m.nonzeros for c in entries.values())


def reference_index(polys, level):
    """The closure of the padded tuples under every prefix rewrite of the
    polynomials' monomials, in both directions and identities included,
    grown to a fixpoint by trying every rule on every tuple."""
    labels = set().union(*(p.labels() for p in polys))
    pad = min(set(range(len(labels) + 1)) - labels)
    rules = {r for p in polys for m in p.terms for r in ((m.dom, m.ran), (m.ran, m.dom))}
    closed = {t + (pad,) * (level - len(t)) for src, dst in rules for t in (src, dst)}
    while True:
        grown = closed | {dst + t[len(src):] for t in closed for src, dst in rules
                          if t[:len(src)] == src}
        if grown == closed:
            return tuple(sorted(closed)), pad
        closed = grown


def test_fragment_index_matches_reference_closure():
    rng = random.Random(29)
    identities = 0
    for _ in range(80):
        level = rng.randint(1, 3)
        polys = []
        for _ in range(rng.randint(1, 2)):
            p = Polynomial.zero()
            for _ in range(rng.randint(1, 6)):
                n = rng.randint(0, level)
                dom = tuple(rng.randint(0, 3) for _ in range(n))
                ran = dom if rng.random() < 0.3 else tuple(rng.randint(0, 3) for _ in range(n))
                p = p + Polynomial.of(V(dom, ran), Scalar(rng.randint(1, 3)))
            polys.append(p)
        identities += sum(m.dom == m.ran for p in polys for m in p.terms)
        index = fragment_index(polys, level)
        assert (index.tuples, index.pad) == reference_index(polys, level)
    assert identities > 0


def test_bareiss_sees_only_blocks_of_three_or_more(monkeypatch):
    """Blocks of one or two indices are judged in closed form; only larger
    ones reach the elimination."""
    sizes = []
    real = polynomials._bareiss_psd

    def spy(nonzeros, block):
        sizes.append(len(block))
        return real(nonzeros, block)

    monkeypatch.setattr(polynomials, "_bareiss_psd", spy)
    small = 0
    rng = random.Random(31)
    for _ in range(40):
        blocks = [random_block(rng, rng.choice(["gram", "pushed", "zero-pivot"])) for _ in range(4)]
        n = sum(len(b) for b in blocks)
        rows = [[Scalar(0)] * n for _ in range(n)]
        offset = 0
        for b in blocks:
            for i, row in enumerate(b):
                for j, c in enumerate(row):
                    rows[offset + i][offset + j] = c
            offset += len(b)
        matrix = dense_matrix(rows)
        small += sum(len(b) <= 2 for b in polynomials._blocks(polynomials._nonzeros(matrix.rows)))
        assert matrix.is_positive_semidefinite() == dense_psd(matrix.rows)
    assert small and sizes and min(sizes) >= 3


def test_fragment_matrix_text():
    p = Iso((1,), (2,))
    text = p.fragment_matrix(fragment_index([p], 1)).to_text()
    lines = text.splitlines()
    assert lines[0] == "fragment level=1 pad=0 index=(1)|(2)"
    assert lines[1:] == ["0 0", "1 0"]


# -- canonical pairs ------------------------------------------------------------------


def test_to_pairs():
    p = Polynomial.of(V((1,), (2,)), Scalar(Fraction(0), Fraction(1))) + 2 * P((1,))
    assert p.to_pairs() == [("2", "P((1))"), ("i", "V((1);(2))")]
