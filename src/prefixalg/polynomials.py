"""Exact-coefficient linear combinations of partial-isometry monomials.

Everything here is exact: coefficients are complex rationals, states are
finite rational mixtures of basis vector states, and fragment matrices have
complex-rational entries. Every identity the certificate machinery relies on
is an algebraic identity, so there are no tolerances anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Union

from .cylinders import Frozen, SequenceDesc, Tup, extends, format_seqdesc, format_tuple, member
from .monomials import V, ZERO, Monomial, act, adjoint, format_monomial, multiply

RationalLike = Union[int, Fraction]

_ZERO_Q = Fraction(0)


class Scalar(Frozen):
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction = _ZERO_Q) -> None:
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        self.__post_init__()

    def __post_init__(self) -> None:
        # Looked up on the instance, so a wrapper set on the class sees every
        # direct construction. Parts given as ints become Fractions.
        if type(self.re) is not Fraction:
            object.__setattr__(self, "re", Fraction(self.re))
        if type(self.im) is not Fraction:
            object.__setattr__(self, "im", Fraction(self.im))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.re, self.im) == (other.re, other.im)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    @staticmethod
    def of(value: "ScalarLike") -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return Scalar(Fraction(value))

    # Arithmetic builds its results with `_scalar`: the parts are Fractions
    # already, so neither `__init__` nor `__post_init__` needs to run.

    def __add__(self, other: "ScalarLike") -> "Scalar":
        o = other if other.__class__ is Scalar else Scalar.of(other)
        return _scalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: "ScalarLike") -> "Scalar":
        o = other if other.__class__ is Scalar else Scalar.of(other)
        return _scalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: "ScalarLike") -> "Scalar":
        return Scalar.of(other) - self

    def __mul__(self, other: "ScalarLike") -> "Scalar":
        o = other if other.__class__ is Scalar else Scalar.of(other)
        if self is ONE:
            return o
        if o is ONE:
            return self
        if not self.im and not o.im:
            return _scalar(self.re * o.re, _ZERO_Q)
        return _scalar(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other: "ScalarLike") -> "Scalar":
        o = Scalar.of(other)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("scalar division by zero")
        return self * _scalar(o.re / d, -o.im / d)

    def __neg__(self) -> "Scalar":
        return _scalar(-self.re, -self.im)

    def conjugate(self) -> "Scalar":
        return _scalar(self.re, -self.im)

    def abs_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def to_text(self) -> str:
        """Canonical text: `0`, `3/2`, `-2`, `i`, `-3/4i`, `1/2+3/4i`, ..."""
        if not self:
            return "0"
        parts = []
        if self.re != 0:
            parts.append(str(self.re))
        if self.im != 0:
            mag = abs(self.im)
            body = "i" if mag == 1 else f"{mag}i"
            if self.im < 0:
                parts.append(f"-{body}")
            elif parts:
                parts.append(f"+{body}")
            else:
                parts.append(body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Scalar({self.to_text()})"


ScalarLike = Union[Scalar, int, Fraction]

# The slot descriptors write a field past the class's refusing __setattr__.
_new_object = object.__new__
_set_re = Scalar.__dict__["re"].__set__
_set_im = Scalar.__dict__["im"].__set__


def _scalar(re: Fraction, im: Fraction) -> Scalar:
    """The Scalar re + im*i from two Fractions: a bare instance whose two
    slots are set directly, without `__init__` or `__post_init__`."""
    s = _new_object(Scalar)
    _set_re(s, re)
    _set_im(s, im)
    return s


ONE = Scalar(Fraction(1))
_ZERO_SCALAR = Scalar(Fraction(0))


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
        for m, c in other.terms.items():
            prev = res.get(m)
            s = c if prev is None else prev + c
            if s:
                res[m] = s
            else:
                res.pop(m, None)
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
            res: dict[V, Scalar] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
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
        total = Scalar(Fraction(0))
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
        total = Scalar(Fraction(0))
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
        total = Scalar(Fraction(0))
        for m, c in self.terms.items():
            if act(m, y) == z:
                total = total + c
        return total

    def fragment_matrix(
        self, level: Optional[int] = None, index: Optional["FragmentIndex"] = None
    ) -> "FragmentMatrix":
        if index is None:
            if level is None:
                raise ValueError("fragment_matrix needs a level or a prebuilt index")
            index = fragment_index([self], level)
        elif level is not None and level != index.level:
            raise ValueError("explicit level disagrees with the supplied index")
        if index.level < self.max_tuple_len():
            raise ValueError(
                f"fragment level {index.level} is below the longest tuple "
                f"in the polynomial ({self.max_tuple_len()})"
            )
        # Every index tuple t has length `level` and no monomial tuple is
        # longer, so V(a, b) sends the point t/pad to (b + t[len(a):])/pad
        # when t begins with a, and kills it otherwise: `act` on tuples.
        tuples = index.tuples
        pos = {t: i for i, t in enumerate(tuples)}
        by_first, everywhere = _by_first_label(
            (m.dom, m.ran, c) for m, c in self.terms.items()
        )
        nonzeros: list[dict[int, Scalar]] = [{} for _ in tuples]
        for j, t in enumerate(tuples):
            for rules in (by_first.get(t[0], ()) if t else (), everywhere):
                for dom, ran, c in rules:
                    k = len(dom)
                    if t[:k] == dom:
                        i = pos.get(ran + t[k:])
                        if i is not None:
                            entries = nonzeros[i]
                            prev = entries.get(j)
                            entries[j] = c if prev is None else prev + c
        rows = []
        for entries in nonzeros:
            row = [_ZERO_SCALAR] * len(tuples)
            for j, c in entries.items():
                row[j] = c
            rows.append(tuple(row))
        return FragmentMatrix(index=index, rows=tuple(rows))


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
    polys = list(polys)
    labels: set[int] = set()
    for p in polys:
        labels |= p.labels()
    pad = 0
    while pad in labels:
        pad += 1
    rewrites: set[tuple[Tup, Tup]] = set()
    seeds: set[Tup] = set()
    for p in polys:
        if level < p.max_tuple_len():
            raise ValueError("fragment level is below the longest tuple present")
        for m in p.terms:
            rewrites.add((m.dom, m.ran))
            rewrites.add((m.ran, m.dom))
            seeds.add(m.dom + (pad,) * (level - len(m.dom)))
            seeds.add(m.ran + (pad,) * (level - len(m.ran)))
    by_first, everywhere = _by_first_label(rewrites)
    closed: set[Tup] = set(seeds)
    frontier = list(seeds)
    while frontier:
        t = frontier.pop()
        for rules in (by_first.get(t[0], ()) if t else (), everywhere):
            for src, dst in rules:
                k = len(src)
                if t[:k] == src:
                    img = dst + t[k:]
                    if img not in closed:
                        closed.add(img)
                        frontier.append(img)
    return FragmentIndex(tuples=tuple(sorted(closed)), level=level, pad=pad)


class FragmentMatrix(Frozen):
    """Exact matrix of a polynomial on a finite family of padded cylinders.

    rows[i][j] is the coefficient of the i-th index point in the image of
    the j-th index point (output row, input column).
    """

    __slots__ = ("index", "rows")

    def __init__(self, index: FragmentIndex, rows: tuple[tuple[Scalar, ...], ...]) -> None:
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "rows", rows)

    def size(self) -> int:
        return len(self.index.tuples)

    def is_hermitian(self) -> bool:
        return _hermitian(_nonzeros(self.rows))

    def is_positive_semidefinite(self) -> bool:
        """Exact semidefiniteness, judged block by block.

        The matrix is block diagonal over the connected components of its
        nonzero pattern, and it is PSD iff every block is. Each block goes
        through rational Schur-complement elimination: a Hermitian matrix is
        PSD iff every pivot stays nonnegative and a zero pivot forces a zero
        row and column; no floating point involved.
        """
        nonzeros = _nonzeros(self.rows)
        if not _hermitian(nonzeros):
            return False
        return all(_schur_psd(nonzeros, block) for block in _blocks(nonzeros))

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
            if j >= i and (c.re != mirror.re or c.im != -mirror.im):
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


def _schur_psd(nonzeros: list[dict[int, Scalar]], block: list[int]) -> bool:
    """Exact Schur-complement elimination of the Hermitian block `block`,
    densified from its nonzero entries."""
    work = [[nonzeros[i].get(j, _ZERO_SCALAR) for j in block] for i in block]
    n = len(work)
    for k in range(n):
        pivot = work[k]
        d = pivot[k]
        if d.im != 0 or d.re < 0:
            return False
        if d.re == 0:
            if any(pivot[k + 1:]):
                return False
            continue
        inverse = 1 / d.re
        cols = [j for j in range(k + 1, n) if pivot[j]]
        for i in range(k + 1, n):
            row = work[i]
            if not row[k]:
                continue
            factor = _scalar(row[k].re * inverse, row[k].im * inverse)
            for j in cols:
                row[j] = row[j] - factor * pivot[j]
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
        total = Scalar(Fraction(0))
        for x, w in self.points:
            total = total + p.g_eval(x) * w
        return total

    def support_set(self, max_len: int) -> list[Tup]:
        """All tuples of length 1..max_len whose cylinder carries mass.

        These are exactly the prefixes (tail-completed) of the support
        points, one chain per point and level.
        """
        if max_len < 1:
            raise ValueError("max_len must be at least 1")
        out: set[Tup] = set()
        for x, _ in self.points:
            for n in range(1, max_len + 1):
                out.add(x.head(n))
        return sorted(out, key=lambda t: (len(t), t))

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
