"""Exact-coefficient linear combinations of partial-isometry monomials.

Everything here is exact: coefficients are complex rationals, states are
finite rational mixtures of basis vector states, and fragment matrices have
complex-rational entries. Every identity the certificate machinery relies on
is an algebraic identity, so there are no tolerances anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd as _gcd, lcm
from typing import Iterable, Iterator, Optional, Union

from .cylinders import Frozen, SequenceDesc, Tup, extends, format_seqdesc, format_tuple, member
from .monomials import V, ZERO, Monomial, act, adjoint, format_monomial, multiply

RationalLike = Union[int, Fraction]


class Scalar(Frozen):
    """A complex number with exact rational parts, held as one integer
    triple: (a + b*i)/d in lowest terms, d > 0 and gcd(a, b, d) == 1, so
    zero is (0, 0, 1) and equal scalars have equal triples."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re: RationalLike, im: RationalLike = 0) -> None:
        if type(re) is not int and type(re) is not Fraction:
            re = Fraction(re)
        if type(im) is not int and type(im) is not Fraction:
            im = Fraction(im)
        p, q = re.denominator, im.denominator
        _set_a(self, re.numerator * q)
        _set_b(self, im.numerator * p)
        _set_d(self, p * q)
        self.__post_init__()

    def __post_init__(self) -> None:
        # Looked up on the instance, so a wrapper set on the class sees every
        # direct construction. Brings the triple to lowest terms.
        g = _gcd(self.a, self.b, self.d)
        if g != 1:
            _set_a(self, self.a // g)
            _set_b(self, self.b // g)
            _set_d(self, self.d // g)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.a == other.a and self.b == other.b and self.d == other.d
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    def __reduce__(self) -> tuple:
        # The constructor takes the two parts, not the triple.
        return Scalar, (self.re, self.im)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    @staticmethod
    def of(value: "ScalarLike") -> "Scalar":
        if value.__class__ is Scalar:
            return value
        if type(value) is int:
            return _raw(value, 0, 1)
        if type(value) is not Fraction:
            value = Fraction(value)
        return _raw(value.numerator, 0, value.denominator)

    @staticmethod
    def ratio(a: int, b: int, d: int) -> "Scalar":
        """(a + b*i)/d for integers a, b and d > 0, in lowest terms."""
        return _reduced(a, b, d)

    # Arithmetic builds its results with `_raw` and `_reduced`, which set
    # the triple directly, without `__init__` or `__post_init__`.

    def __add__(self, other: "ScalarLike") -> "Scalar":
        o = other if other.__class__ is Scalar else Scalar.of(other)
        d, e = self.d, o.d
        if d == e:
            return _reduced(self.a + o.a, self.b + o.b, d)
        return _reduced(self.a * e + o.a * d, self.b * e + o.b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other: "ScalarLike") -> "Scalar":
        o = other if other.__class__ is Scalar else Scalar.of(other)
        d, e = self.d, o.d
        if d == e:
            return _reduced(self.a - o.a, self.b - o.b, d)
        return _reduced(self.a * e - o.a * d, self.b * e - o.b * d, d * e)

    def __rsub__(self, other: "ScalarLike") -> "Scalar":
        return Scalar.of(other) - self

    def __mul__(self, other: "ScalarLike") -> "Scalar":
        o = other if other.__class__ is Scalar else Scalar.of(other)
        if self is ONE:
            return o
        if o is ONE:
            return self
        a, b, c, e = self.a, self.b, o.a, o.b
        if not b and not e:
            return _reduced(a * c, 0, self.d * o.d)
        return _reduced(a * c - b * e, a * e + b * c, self.d * o.d)

    __rmul__ = __mul__

    def __truediv__(self, other: "ScalarLike") -> "Scalar":
        # ((a + bi)/d) / ((c + ei)/f) = f(a + bi)(c - ei) / (d(c*c + e*e))
        o = other if other.__class__ is Scalar else Scalar.of(other)
        a, b, c, e, f = self.a, self.b, o.a, o.b, o.d
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("scalar division by zero")
        return _reduced(f * (a * c + b * e), f * (b * c - a * e), self.d * n)

    def __neg__(self) -> "Scalar":
        return _raw(-self.a, -self.b, self.d)

    def conjugate(self) -> "Scalar":
        return _raw(self.a, -self.b, self.d)

    def abs_sq(self) -> Fraction:
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def to_text(self) -> str:
        """Canonical text: `0`, `3/2`, `-2`, `i`, `-3/4i`, `1/2+3/4i`, ...,
        each part printed as `str(Fraction)` prints it."""
        a, b, d = self.a, self.b, self.d
        if not b:
            return _ratio_text(a, d)
        mag = _ratio_text(abs(b), d)
        body = "i" if mag == "1" else mag + "i"
        if b < 0:
            body = "-" + body
        elif a:
            body = "+" + body
        return _ratio_text(a, d) + body if a else body

    def __repr__(self) -> str:
        return f"Scalar({self.to_text()})"


ScalarLike = Union[Scalar, int, Fraction]

# The slot descriptors write a field past the class's refusing __setattr__.
_new_object = object.__new__
_set_a = Scalar.__dict__["a"].__set__
_set_b = Scalar.__dict__["b"].__set__
_set_d = Scalar.__dict__["d"].__set__


def _raw(a: int, b: int, d: int) -> Scalar:
    """The Scalar (a + b*i)/d from a triple already in lowest terms: a bare
    instance whose slots are set directly."""
    s = _new_object(Scalar)
    _set_a(s, a)
    _set_b(s, b)
    _set_d(s, d)
    return s


def _reduced(a: int, b: int, d: int) -> Scalar:
    """The Scalar (a + b*i)/d for any d > 0, brought to lowest terms by one
    gcd of the three integers."""
    g = _gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _raw(a, b, d)


def _ratio_text(n: int, d: int) -> str:
    """`str(Fraction(n, d))` for d > 0, without building the Fraction."""
    if d != 1:
        g = _gcd(n, d)
        if g != 1:
            n //= g
            d //= g
        if d != 1:
            return f"{n}/{d}"
    return str(n)


ONE = _raw(1, 0, 1)
_ZERO_SCALAR = _raw(0, 0, 1)


def read_scalar(text: str) -> Optional[Scalar]:
    """The scalar s with `s.to_text() == text`, or None. The text is split
    at the sign of its imaginary part, each part is read loosely as "n" or
    "n/d", and the print decides."""
    if text[-1:] == "i":
        k = max(text.rfind("+"), text.rfind("-"), 0)
        real, imag = text[:k] or "0", text[k:-1]
        if imag in ("", "+", "-"):
            imag += "1"
    else:
        real, imag = text, "0"
    try:
        a, d = _read_ratio(real)
        b, e = _read_ratio(imag)
        if d <= 0 or e <= 0:
            return None
        s = _reduced(a * e, b * d, d * e)
        return s if s.to_text() == text else None
    except ValueError:  # not a number, or more digits than `int` converts or prints
        return None


def _read_ratio(text: str) -> tuple[int, int]:
    """The numerator and denominator of "n" or "n/d"."""
    num, _, den = text.partition("/")
    return int(num), int(den) if den else 1


def add_into(res: dict[V, Scalar], terms: dict[V, Scalar], negate: bool = False) -> None:
    """Add `terms`, negated if asked, into the canonical dict `res` in place.
    A monomial whose coefficients cancel leaves `res`."""
    for m, c in terms.items():
        if negate:
            c = -c
        prev = res.get(m)
        s = c if prev is None else prev + c
        if s:
            res[m] = s
        else:
            res.pop(m, None)


class Polynomial:
    """Finitely supported map from nonzero monomials to nonzero scalars.

    The canonical form never stores the zero monomial or a zero coefficient,
    so equality of polynomials is equality of the underlying dicts.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict[V, Scalar]] = None):
        clean: dict[V, Scalar] = {}
        if terms:
            for m, c in terms.items():
                if m is ZERO or not c:
                    continue
                clean[m] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def unit() -> "Polynomial":
        """The projection of the empty tuple: the identity on the fragment."""
        return Polynomial({V((), ()): ONE})

    @staticmethod
    def of(m: Monomial, coeff: ScalarLike = ONE) -> "Polynomial":
        if m is ZERO:
            return Polynomial()
        return Polynomial({m: Scalar.of(coeff)})

    @staticmethod
    def projection(t: Tup) -> "Polynomial":
        return Polynomial.of(V(t, t))

    @staticmethod
    def isometry(dom: Tup, ran: Tup) -> "Polynomial":
        return Polynomial.of(V(dom, ran))

    # -- ring structure -----------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        res = dict(self.terms)
        add_into(res, other.terms)
        out = Polynomial()
        out.terms = res
        return out

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        out = Polynomial()
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __mul__(self, other: Union["Polynomial", ScalarLike]) -> "Polynomial":
        if isinstance(other, Polynomial):
            # V(a,b) * V(c,d) is zero unless a and d agree on their common
            # prefix, so a left term with nonempty a meets only the right
            # terms whose d starts with a[0], plus those with empty d.
            right = [(m.ran, m, c) for m, c in other.terms.items()]
            by_first, everywhere = _by_first_label(right)
            res: dict[V, Scalar] = {}
            for m1, c1 in self.terms.items():
                a = m1.dom
                for _, m2, c2 in chain(by_first.get(a[0], ()), everywhere) if a else right:
                    m = multiply(m1, m2)
                    if m is ZERO:
                        continue
                    prev = res.get(m)
                    s = c1 * c2 if prev is None else prev + c1 * c2
                    if s:
                        res[m] = s
                    else:
                        res.pop(m, None)
            out = Polynomial()
            out.terms = res
            return out
        return self.scale(other)

    def __rmul__(self, other: ScalarLike) -> "Polynomial":
        return self.scale(other)

    def scale(self, c: ScalarLike) -> "Polynomial":
        s = Scalar.of(c)
        if not s:
            return Polynomial()
        out = Polynomial()
        out.terms = {m: coeff * s for m, coeff in self.terms.items()}
        return out

    def adjoint(self) -> "Polynomial":
        out = Polynomial()
        out.terms = {adjoint(m): c.conjugate() for m, c in self.terms.items()}
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "Polynomial(0)"
        body = " + ".join(
            f"{c.to_text()}*{format_monomial(m)}" for m, c in self.sorted_terms()
        )
        return f"Polynomial({body})"

    # -- structure queries --------------------------------------------

    def sorted_terms(self) -> list[tuple[V, Scalar]]:
        return sorted(self.terms.items(), key=lambda mc: (len(mc[0].dom), mc[0].dom, mc[0].ran))

    def tuples(self) -> set[Tup]:
        out: set[Tup] = set()
        for m in self.terms:
            out.add(m.dom)
            out.add(m.ran)
        return out

    def labels(self) -> set[int]:
        out: set[int] = set()
        for m in self.terms:
            out.update(m.dom)
            out.update(m.ran)
        return out

    def max_tuple_len(self) -> int:
        return max((len(m.dom) for m in self.terms), default=0)

    def to_pairs(self) -> list[tuple[str, str]]:
        """Serialize as (coefficient-text, monomial-text) pairs."""
        return [(c.to_text(), format_monomial(m)) for m, c in self.sorted_terms()]

    # -- evaluation ---------------------------------------------------

    def g_eval(self, x: SequenceDesc) -> Scalar:
        """The diagonal value at x: the coefficient of the basis vector of x
        in the image of that same basis vector.

        Only diagonal monomials P(a) with x in their cylinder contribute; a
        genuine rewrite moves the basis vector off itself.
        """
        total = _ZERO_SCALAR
        for m, c in self.terms.items():
            if m.dom == m.ran and member(x, m.dom):
                total = total + c
        return total

    def g_on_cylinder(self, t: Tup) -> Scalar:
        """The constant diagonal value on the cylinder of t.

        Requires t at least as long as every tuple occurring here; below that
        length the diagonal need not be constant on the cylinder.
        """
        if len(t) < self.max_tuple_len():
            raise ValueError(
                f"cylinder tuple {format_tuple(t)} is shorter than the longest "
                f"tuple in the polynomial ({self.max_tuple_len()})"
            )
        total = _ZERO_SCALAR
        for m, c in self.terms.items():
            if m.dom == m.ran and extends(t, m.dom):
                total = total + c
        return total

    def compress(self, alpha: Tup) -> "Polynomial":
        """Cut down to the cylinder of alpha: P(alpha) * self * P(alpha)."""
        p = Polynomial.projection(alpha)
        return p * self * p

    def matrix_element(self, z: SequenceDesc, y: SequenceDesc) -> Scalar:
        """The coefficient of basis vector z in the image of basis vector y.

        Computed pointwise through `act`, independently of the product rule,
        which makes it the oracle of choice for algebra identities.
        """
        total = _ZERO_SCALAR
        for m, c in self.terms.items():
            if act(m, y) == z:
                total = total + c
        return total

    def fragment_matrix(self, index: "FragmentIndex") -> "FragmentMatrix":
        """The matrix of this polynomial on the points of an index built by
        `fragment_index`, whose level no tuple here exceeds."""
        if index.level < self.max_tuple_len():
            raise ValueError(
                f"fragment level {index.level} is below the longest tuple "
                f"in the polynomial ({self.max_tuple_len()})"
            )
        # Every index tuple t has length `level` and no monomial tuple is
        # longer, so V(a, b) sends the point t/pad to (b + t[len(a):])/pad
        # when t begins with a, and kills it otherwise: `act` on tuples.
        # The terms are looked up by their dom, one prefix length at a time.
        tuples = index.tuples
        pos = {t: i for i, t in enumerate(tuples)}
        by_dom: dict[Tup, list[tuple[Tup, Scalar]]] = {}
        for m, c in self.terms.items():
            by_dom.setdefault(m.dom, []).append((m.ran, c))
        lengths = {len(dom) for dom in by_dom}
        nonzeros: list[dict[int, Scalar]] = [{} for _ in tuples]
        for j, t in enumerate(tuples):
            for k in lengths:
                terms = by_dom.get(t[:k])
                if terms:
                    tail = t[k:]
                    for ran, c in terms:
                        i = pos.get(ran + tail)
                        if i is not None:
                            entries = nonzeros[i]
                            prev = entries.get(j)
                            s = c if prev is None else prev + c
                            if s:
                                entries[j] = s
                            else:
                                del entries[j]
        rows = []
        for entries in nonzeros:
            row = [_ZERO_SCALAR] * len(tuples)
            for j, c in entries.items():
                row[j] = c
            rows.append(tuple(row))
        return FragmentMatrix(index=index, rows=tuple(rows), nonzeros=nonzeros)


def _by_first_label(rules: Iterable[tuple]) -> tuple[dict[int, list[tuple]], list[tuple]]:
    """Prefix rules (source tuple first) grouped by the first label of their
    source; a rule whose source is the empty tuple applies to every tuple
    and goes in the second, separate list."""
    by_first: dict[int, list[tuple]] = {}
    everywhere: list[tuple] = []
    for rule in rules:
        src = rule[0]
        if src:
            by_first.setdefault(src[0], []).append(rule)
        else:
            everywhere.append(rule)
    return by_first, everywhere


class FragmentIndex(Frozen):
    """A closed family of level-length tuples plus the padding label used.

    The padding label is fresh for the polynomials the index was built from,
    so padded tuples name distinct cylinders.
    """

    __slots__ = ("tuples", "level", "pad")

    def __init__(self, tuples: tuple[Tup, ...], level: int, pad: int) -> None:
        object.__setattr__(self, "tuples", tuples)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "pad", pad)


def fragment_index(polys: Iterable[Polynomial], level: int) -> FragmentIndex:
    """Close the tuples of the given polynomials, padded to `level`, under
    all their prefix rewrites (in both directions).
    """
    # The polynomials' tuples, and each tuple's images under one rewrite. A
    # projection's rule (t, t) maps every tuple to itself, so none is kept.
    tuples: set[Tup] = set()
    images: dict[Tup, set[Tup]] = {}
    for p in polys:
        for m in p.terms:
            dom, ran = m.dom, m.ran
            tuples.add(dom)
            if dom != ran:
                tuples.add(ran)
                images.setdefault(dom, set()).add(ran)
                images.setdefault(ran, set()).add(dom)
    if any(len(t) > level for t in tuples):
        raise ValueError("fragment level is below the longest tuple present")
    labels = set(chain.from_iterable(tuples))
    pad = 0
    while pad in labels:
        pad += 1
    seeds = {t + (pad,) * (level - len(t)) for t in tuples}
    lengths = {len(src) for src in images}
    closed: set[Tup] = set(seeds)
    frontier = list(seeds)
    while frontier:
        t = frontier.pop()
        for k in lengths:
            dsts = images.get(t[:k])
            if dsts:
                tail = t[k:]
                for dst in dsts:
                    img = dst + tail
                    if img not in closed:
                        closed.add(img)
                        frontier.append(img)
    return FragmentIndex(tuples=tuple(sorted(closed)), level=level, pad=pad)


class _NonzeroRows:
    """The slot where a FragmentMatrix keeps its rows' nonzero entries:
    outside its fields, so equality, hashing, repr and pickling see only
    the index and the rows."""

    __slots__ = ("nonzeros",)


class FragmentMatrix(Frozen, _NonzeroRows):
    """Exact matrix of a polynomial on a finite family of padded cylinders.

    rows[i][j] is the coefficient of the i-th index point in the image of
    the j-th index point (output row, input column). `fragment_matrix`
    also hands over each row's nonzero entries by column, which the
    verdicts read; a matrix built from its rows alone derives them on each
    verdict.
    """

    __slots__ = ("index", "rows")

    def __init__(
        self, index: FragmentIndex, rows: tuple[tuple[Scalar, ...], ...], *,
        nonzeros: Optional[list[dict[int, Scalar]]] = None,
    ) -> None:
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nonzeros", nonzeros)

    def size(self) -> int:
        return len(self.index.tuples)

    def _nonzero_rows(self) -> list[dict[int, Scalar]]:
        return _nonzeros(self.rows) if self.nonzeros is None else self.nonzeros

    def is_hermitian(self) -> bool:
        return _hermitian(self._nonzero_rows())

    def is_positive_semidefinite(self) -> bool:
        """Exact semidefiniteness, judged block by block.

        The matrix is block diagonal over the connected components of its
        nonzero pattern, and it is PSD iff every block is. A block of one or
        two indices is judged in closed form (`_small_psd`). A larger one is
        cleared of denominators and goes through fraction-free (Bareiss)
        elimination over the Gaussian integers: a Hermitian matrix is PSD
        iff every pivot is real and nonnegative and a zero pivot comes with
        a zero row, which then drops out; no floating point involved.
        """
        nonzeros = self._nonzero_rows()
        if not _hermitian(nonzeros):
            return False
        for block in _blocks(nonzeros):
            judge = _bareiss_psd if len(block) > 2 else _small_psd
            if not judge(nonzeros, block):
                return False
        return True

    def to_text(self) -> str:
        """Row-major exact text: header line, then one row per line."""
        lines = [
            f"fragment level={self.index.level} pad={self.index.pad} "
            f"index={'|'.join(format_tuple(t) for t in self.index.tuples)}"
        ]
        for row in self.rows:
            lines.append(" ".join(c.to_text() for c in row))
        return "\n".join(lines)


def _nonzeros(rows: tuple[tuple[Scalar, ...], ...]) -> list[dict[int, Scalar]]:
    """Each row's nonzero entries, by column. Rows that `fragment_matrix`
    builds share one zero, which is skipped without testing it."""
    return [{j: c for j, c in enumerate(row) if c is not _ZERO_SCALAR and c} for row in rows]


def _hermitian(nonzeros: list[dict[int, Scalar]]) -> bool:
    """Whether the matrix with these nonzero entries equals its conjugate
    transpose: every nonzero entry has a nonzero mirror, and each pair on or
    above the diagonal agrees in `re` and is opposite in `im`."""
    for i, entries in enumerate(nonzeros):
        for j, c in entries.items():
            mirror = nonzeros[j].get(i)
            if mirror is None:
                return False
            if j >= i and (c.a != mirror.a or c.b != -mirror.b or c.d != mirror.d):
                return False
    return True


def _blocks(nonzeros: list[dict[int, Scalar]]) -> list[list[int]]:
    """Connected components of the nonzero pattern of a Hermitian matrix,
    each in ascending index order, ordered by their least index."""
    n = len(nonzeros)
    seen = [False] * n
    blocks = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        block, frontier = [], [start]
        while frontier:
            i = frontier.pop()
            block.append(i)
            for j in nonzeros[i]:
                if not seen[j]:
                    seen[j] = True
                    frontier.append(j)
        blocks.append(sorted(block))
    return blocks


def _small_psd(nonzeros: list[dict[int, Scalar]], block: list[int]) -> bool:
    """Closed-form verdict on a Hermitian block of one or two indices: [x]
    is PSD iff x >= 0, and [[x, z], [conj(z), y]] iff x >= 0, y >= 0 and
    x*y >= |z|^2. A two-index block is connected, so z is nonzero, and then
    x >= 0 and x*y >= |z|^2 > 0 already force y > 0. A diagonal entry of a
    Hermitian matrix is real, and the last inequality is compared as integer
    cross-products of the triples: (x.a/x.d) * (y.a/y.d) >= (z.a^2 + z.b^2)
    / z.d^2 with every d > 0."""
    i = block[0]
    x = nonzeros[i].get(i, _ZERO_SCALAR)
    if len(block) == 1:
        return x.a >= 0
    j = block[1]
    y = nonzeros[j].get(j, _ZERO_SCALAR)
    z = nonzeros[i][j]
    return (
        x.a >= 0
        and x.a * y.a * z.d * z.d >= (z.a * z.a + z.b * z.b) * x.d * y.d
    )


def _bareiss_psd(nonzeros: list[dict[int, Scalar]], block: list[int]) -> bool:
    """Fraction-free (Bareiss) elimination of the Hermitian block `block`.

    The block is scaled by the lcm of its denominators, which keeps it PSD
    exactly when it was, and eliminated over the Gaussian integers with
    exact division by the previous nonzero pivot. Each pivot is then a
    principal minor, with the sign of the rational pivot it stands for.
    Only the upper triangle is filled: below it, entry (i, k) is the
    conjugate of entry (k, i). The working lists live only in this call.
    """
    n = len(block)
    scale = lcm(*[c.d for i in block for c in nonzeros[i].values()])
    re = []
    im = []
    for r, i in enumerate(block):
        entries = nonzeros[i]
        re_r = [0] * n
        im_r = [0] * n
        for s in range(r, n):
            c = entries.get(block[s])
            if c is not None:
                f = scale // c.d
                re_r[s] = c.a * f
                im_r[s] = c.b * f
        re.append(re_r)
        im.append(im_r)
    prev = 1
    for k in range(n):
        re_k, im_k = re[k], im[k]
        p = re_k[k]
        if im_k[k] or p < 0:
            return False
        if not p:
            # A zero pivot of a PSD matrix has a zero row, which drops out;
            # the previous pivot stays the divisor.
            if any(re_k[k + 1:]) or any(im_k[k + 1:]):
                return False
            continue
        for i in range(k + 1, n):
            re_i, im_i = re[i], im[i]
            # Entry (i, k) = conj(entry (k, i)) = ur + ui*i.
            ur, ui = re_k[i], -im_k[i]
            if ur or ui:
                for j in range(i, n):
                    vr, vi = re_k[j], im_k[j]
                    re_i[j] = (p * re_i[j] - ur * vr + ui * vi) // prev
                    im_i[j] = (p * im_i[j] - ur * vi - ui * vr) // prev
            elif p != prev:
                # A zero entry (i, k) leaves only the scaling by p/prev.
                for j in range(i, n):
                    re_i[j] = p * re_i[j] // prev
                    im_i[j] = p * im_i[j] // prev
        prev = p
    return True


class DiagonalState:
    """A finite rational mixture of basis vector states.

    Weights are positive rationals summing to one and the described points
    are pairwise distinct, so evaluation against any polynomial is exact.
    """

    __slots__ = ("points",)

    def __init__(self, points: Iterable[tuple[SequenceDesc, RationalLike]]):
        cleaned: list[tuple[SequenceDesc, Fraction]] = []
        seen: set[SequenceDesc] = set()
        total = Fraction(0)
        for x, w in points:
            w = Fraction(w)
            if w <= 0:
                raise ValueError(f"state weights must be positive, got {w}")
            if x in seen:
                raise ValueError(f"duplicate support point {format_seqdesc(x)}")
            seen.add(x)
            cleaned.append((x, w))
            total += w
        if total != 1:
            raise ValueError(f"state weights must sum to 1, got {total}")
        self.points = tuple(cleaned)

    def evaluate(self, p: Polynomial) -> Scalar:
        total = _ZERO_SCALAR
        for x, w in self.points:
            total = total + p.g_eval(x) * w
        return total

    def mass(self, t: Tup) -> Scalar:
        """The weight of the points in the cylinder of t: exactly
        `evaluate(Polynomial.projection(t))`."""
        return Scalar.of(sum(w for x, w in self.points if member(x, t)))

    def support_set(self, max_len: int) -> list[Tup]:
        """All tuples of length 1..max_len whose cylinder carries mass: the
        tail-completed prefixes of the support points, shortest first."""
        if max_len < 1:
            raise ValueError("max_len must be at least 1")
        return [t for level in self._levels(max_len) for t in level]

    def is_support(self, max_len: int, tuples: tuple[Tup, ...]) -> bool:
        """Whether tuples is `support_set(max_len)`, compared one level at a
        time and refused at the first level that differs, so a wrong list
        costs about what reading it cost, whatever max_len asks for."""
        if max_len < 1:
            raise ValueError("max_len must be at least 1")
        start = 0
        for level in self._levels(max_len):
            if tuples[start:start + len(level)] != level:
                return False
            start += len(level)
        return start == len(tuples)

    def _levels(self, max_len: int) -> Iterator[tuple[Tup, ...]]:
        """The support's tuples of each length 1..max_len, each level sorted."""
        heads = [()] * len(self.points)
        for n in range(1, max_len + 1):
            heads = [h + (x.coord(n),) for h, (x, _) in zip(heads, self.points)]
            yield tuple(sorted(set(heads)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DiagonalState) and sorted(
            self.points, key=_point_key
        ) == sorted(other.points, key=_point_key)

    def __repr__(self) -> str:
        return f"DiagonalState({format_state(self)})"


def _point_key(pw: tuple[SequenceDesc, Fraction]):
    x, w = pw
    return (x.prefix, x.tail, w)


def format_state(rho: DiagonalState) -> str:
    return ";".join(f"{w}@{format_seqdesc(x)}" for x, w in rho.points)


def parse_state_text(text: str) -> DiagonalState:
    """Parse `1/2@(1,2)/0;1/2@(3)/7`: points with `n` or `n/d` weights summing to 1."""
    from .cylinders import parse_natural, parse_seqdesc_text

    points = []
    for item in text.strip().split(";"):
        weight_text, sep, point_text = item.partition("@")
        if not sep:
            raise ValueError(f"malformed state item {item!r} (expected weight@point)")
        num, slash, den = weight_text.strip().partition("/")
        try:
            w = Fraction(parse_natural(num), parse_natural(den) if slash else 1)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed state weight {weight_text!r}") from exc
        points.append((parse_seqdesc_text(point_text), w))
    return DiagonalState(points)
