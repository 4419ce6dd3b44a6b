"""The benchmark's own oracle: a few lines per rule, sharing no code with
prefixalg, so every output the benchmark times is checked by a computation
made apart from the program.

Representations:
  point      (prefix, tail)  the sequence prefix, tail, tail, ...; canonical
                             form strips trailing entries equal to the tail
  monomial   (dom, ran)      V(dom;ran); a projection has dom == ran
  complex    (re, im)        a pair of Fractions
  polynomial {monomial: complex}, no zero coefficients
"""

from __future__ import annotations

from fractions import Fraction

ZERO_C = (Fraction(0), Fraction(0))


# -- complex rationals ------------------------------------------------------


def cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def conj(a):
    return (a[0], -a[1])


def parse_scalar(text: str):
    """`3/2`, `-2`, `i`, `-3/4i`, `1/2+3/4i`, `(1/2-i)` as a complex pair."""
    s = text.replace(" ", "").strip("()")
    if not s.endswith("i"):
        return (Fraction(s), Fraction(0))
    cut = max(s.rfind("+"), s.rfind("-"))
    re_text, im_text = (s[:cut], s[cut:-1]) if cut > 0 else ("", s[:-1])
    if im_text in ("", "+", "-"):
        im_text += "1"
    return (Fraction(re_text or 0), Fraction(im_text))


# -- points and the prefix-rewriting action ----------------------------------


def canon(x):
    prefix, tail = x
    k = len(prefix)
    while k and prefix[k - 1] == tail:
        k -= 1
    return (tuple(prefix[:k]), tail)


def coord(x, i):
    """0-indexed coordinate of a point."""
    return x[0][i] if i < len(x[0]) else x[1]


def head(x, n):
    return tuple(coord(x, i) for i in range(n))


def in_cylinder(x, t) -> bool:
    return head(x, len(t)) == tuple(t)


def act(m, x):
    """V(dom;ran) on the basis vector of x: the image point, or None."""
    dom, ran = m
    if not in_cylinder(x, dom):
        return None
    prefix, tail = x
    return canon((tuple(ran) + tuple(prefix[len(dom):]), tail))


def act_word(word, x):
    """A product of monomials acting on x, rightmost factor first."""
    for m in reversed(word):
        x = act(m, x)
        if x is None:
            return None
    return x


def image(poly_terms, x) -> dict:
    """The image vector {point: coefficient} of x under sum(c * word)."""
    out: dict = {}
    for c, word in poly_terms:
        z = act_word(word, x)
        if z is not None:
            out[z] = cadd(out.get(z, ZERO_C), c)
    return {z: c for z, c in out.items() if c != ZERO_C}


def poly_image(poly: dict, x) -> dict:
    return image([(c, [m]) for m, c in poly.items()], x)


# -- the product rule ---------------------------------------------------------


def product(m1, m2):
    """m1 * m2 (m2 acts first) in closed form, or None for zero."""
    if m1 is None or m2 is None:
        return None
    (a, b), (c, d) = m1, m2
    if d[: len(a)] == a:
        return (c, b + d[len(a):])
    if a[: len(d)] == d:
        return (c + a[len(d):], b)
    return None


def word_product(word):
    acc = word[0]
    for m in word[1:]:
        acc = product(acc, m)
    return acc


def normal_form(poly_terms) -> dict:
    """The polynomial of sum(c * word), each word collapsed by the product rule."""
    out: dict = {}
    for c, word in poly_terms:
        m = word_product(word)
        if m is not None:
            out[m] = cadd(out.get(m, ZERO_C), c)
    return {m: c for m, c in out.items() if c != ZERO_C}


def star_square(poly: dict) -> dict:
    """q' * q by the product rule."""
    terms = [
        (cmul(conj(c1), c2), [(m1[1], m1[0]), m2])
        for m1, c1 in poly.items()
        for m2, c2 in poly.items()
    ]
    return normal_form(terms)


# -- the avoidance rule -------------------------------------------------------


def least_free(blocked) -> int:
    label = 0
    while label in blocked:
        label += 1
    return label


class Log:
    """The registry's records as read from its text, re-checked on the way in
    against the least-free-label rule and the support-prefix rule.
    """

    def __init__(self, text: str):
        self.records: list = []
        self.blocked: dict[int, set] = {}  # depth -> labels used there
        self.protected: dict[int, set] = {}  # depth -> labels protected there
        self.problems: list[str] = []
        for line in text.splitlines():
            if line.startswith(("generator ", "protection ")):
                self.add(line)

    def add(self, line: str):
        f = fields(line)
        stage = int(f["stage"])
        if stage != len(self.records):
            self.problems.append(f"stage {stage} out of order")
        if line.startswith("generator "):
            problem = link_problem(self, f)
            if problem:
                self.problems.append(f"stage {stage}: {problem}")
            rec = ("g", stage, tup(f["dom"]), tup(f["ran"]))
            self._block([rec[2], rec[3]])
        else:
            tuples = tuple(tup(t) for t in f["tuples"].split("|")) if f["tuples"] else ()
            state = parse_state(f["state"]) if f["state"] != "-" else None
            if state is not None and support_prefixes(state, int(f["horizon"])) != tuples:
                self.problems.append(f"stage {stage}: tuples are not the support prefixes")
            rec = ("p", stage, tuples, state, int(f["horizon"]))
            self._block(tuples)
            for t in tuples:
                for n, label in enumerate(t, start=1):
                    self.protected.setdefault(n, set()).add(label)
        self.records.append(rec)
        return rec

    def _block(self, tuples):
        for t in tuples:
            for n, label in enumerate(t, start=1):
                self.blocked.setdefault(n, set()).add(label)

    def protection(self, stage: int):
        """("p", stage, tuples, state points, horizon)"""
        return self.records[stage]

    def vanishing_tuple(self, stage: int) -> tuple:
        blocked = {t[0] for t in self.protection(stage)[2]}
        for rec in self.records[: stage + 1]:
            if rec[0] == "g":
                blocked |= {rec[2][0], rec[3][0]}
        return (least_free(blocked),)


def link_problem(log: Log, f: dict) -> str:
    """Why a generator line breaks the link rule against the log, or ''."""
    req_dom, req_ran = tup(f["req_dom"]), tup(f["req_ran"])
    n = max(len(req_dom), len(req_ran)) + 1
    fresh = least_free(log.blocked.get(n, ()))
    if int(f["n"]) != n:
        return f"length {f['n']} is not one past the longer request ({n})"
    if int(f["fresh"]) != fresh:
        return f"fresh label {f['fresh']} is not the least free label {fresh}"
    if tup(f["dom"]) != req_dom + (fresh,) * (n - len(req_dom)):
        return "dom does not extend the request by the fresh label"
    if tup(f["ran"]) != req_ran + (fresh,) * (n - len(req_ran)):
        return "ran does not extend the request by the fresh label"
    return ""


# -- states and their support prefixes ---------------------------------------


def parse_state(text: str):
    points = []
    for item in text.split(";"):
        weight, _, point = item.partition("@")
        prefix, _, tail = point.rpartition("/")
        points.append((Fraction(weight), canon((tup(prefix), int(tail)))))
    return points


def support_prefixes(points, horizon: int) -> tuple:
    out = {head(x, n) for _, x in points for n in range(1, horizon + 1)}
    return tuple(sorted(out, key=lambda t: (len(t), t)))


def state_value(points, word):
    """rho(word) for a diagonal state: the weight of points the word fixes."""
    return sum((w for w, x in points if act_word(word, x) == x), Fraction(0))


# -- reading program text ------------------------------------------------------


def tup(text: str) -> tuple:
    body = text.strip()[1:-1]
    return tuple(int(v) for v in body.split(",")) if body else ()


def fields(line: str) -> dict:
    return dict(part.split("=", 1) for part in line.split(" ")[1:])


def parse_monomial(text: str):
    s = text.strip()
    if s.startswith("P("):
        t = tup(s[2:-1])
        return (t, t)
    dom, _, ran = s[2:-1].partition(";")
    return (tup(dom), tup(ran))


def parse_poly(text: str) -> dict:
    """A canonical polynomial as printed by the program: signed terms, each a
    monomial with an optional `coefficient *` in front."""
    s = text.replace(" ", "")
    if s == "0":
        return {}
    parts, cur, depth = [], "", 0
    for ch in s:
        depth += (ch == "(") - (ch == ")")
        if depth == 0 and ch in "+-" and cur:
            parts.append(cur)
            cur = ""
        cur += ch
    parts.append(cur)
    out: dict = {}
    for part in parts:
        sign = -1 if part.startswith("-") else 1
        coef_text, star, mono_text = part.lstrip("+-").rpartition("*")
        c = parse_scalar(coef_text) if star else (Fraction(1), Fraction(0))
        m = parse_monomial(mono_text)
        out[m] = cadd(out.get(m, ZERO_C), (sign * c[0], sign * c[1]))
    return out


# -- exact complex-rational matrices -------------------------------------------


def gram(columns: list[dict], n: int) -> list[list]:
    """A^dagger A for the n x n matrix A given by its sparse columns
    {row: complex}."""
    return [
        [
            _dot(columns[i], columns[j]) for j in range(n)
        ]
        for i in range(n)
    ]


def _dot(col_i: dict, col_j: dict):
    total = ZERO_C
    for k, c in col_j.items():
        if k in col_i:
            total = cadd(total, cmul(conj(col_i[k]), c))
    return total
