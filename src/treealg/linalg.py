"""Exact rational scalars, formal linear combinations and row reduction.

Every coefficient in the system is a ``fractions.Fraction`` (arbitrary
precision, always reduced, positive denominator).  The rest of the
package does linear algebra in ``LinComb``s only: a ``Span`` over an
ordered list of keys, and ``kernel_basis`` of a map given by the
images of its columns.  These two are the only place where a
combination becomes a coordinate row.  Rows are dense; after clearing
denominators, every elimination runs on integer rows in the
pure-Python kernel ``treealg._kernel``.

``EchelonSpan`` is ``Span``'s engine on dense rows and keeps its name,
as do ``to_int_row``, ``kernel_basis`` and ``_kernel``: the benchmark's
tracer (``perfbench/tracer.py``) wraps them by name and reads the
dense vector that ``EchelonSpan`` receives.
"""

from bisect import bisect
from fractions import Fraction
from math import lcm

from treealg import _kernel

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(x) -> Fraction:
    """Coerce ints, strings like '-2/3' and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def rat_str(x: Fraction) -> str:
    """Exact 'p/q' or 'p' form used in all output."""
    return str(x)


class LinComb:
    """Finite formal rational combination over canonically printable keys.

    Keys may be any hashable values whose ``str`` is a canonical
    encoding (two structurally equal basis elements print identically).
    Zero coefficients are never stored.  Instances are immutable by
    convention: all operations return new objects.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        d = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for k, c in items:
                c = rat(c)
                if not c:
                    continue
                c0 = d.get(k)
                if c0 is None:
                    d[k] = c
                else:
                    c = c0 + c
                    if c:
                        d[k] = c
                    else:
                        del d[k]
        self.terms = d

    @classmethod
    def single(cls, key, coeff=1):
        return cls([(key, coeff)])

    def items(self):
        """Terms sorted by the canonical key encoding."""
        return sorted(self.terms.items(), key=lambda kv: str(kv[0]))

    def coeff(self, key) -> Fraction:
        return self.terms.get(key, ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return isinstance(other, LinComb) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        return combine(self, ONE, other)

    def __sub__(self, other):
        return combine(self, Fraction(-1), other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = rat(c)
        if not c:
            return LinComb()
        out = LinComb()
        out.terms = {k: c * v for k, v in self.terms.items()}
        return out

    def __rmul__(self, c):
        return self.scale(c)

    def map_keys(self, f):
        """Apply f to every key (coefficients of collided keys add)."""
        return LinComb((f(k), c) for k, c in self.terms.items())

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for k, c in self.items():
            if c < 0:
                sign = "-" if not parts else " - "
                c = -c
            else:
                sign = "" if not parts else " + "
            body = str(k) if c == 1 else "%s*%s" % (c, k)
            parts.append(sign + body)
        return "".join(parts)

    def __repr__(self):
        return "<LinComb %s>" % self


def combine(a: LinComb, c, b: LinComb) -> LinComb:
    """a + c*b with zero-coefficient pruning."""
    c = rat(c)
    out = LinComb()
    d = dict(a.terms)
    if c:
        for k, v in b.terms.items():
            w = d.get(k)
            if w is None:
                d[k] = c * v
            else:
                w = w + c * v
                if w:
                    d[k] = w
                else:
                    del d[k]
    out.terms = d
    return out


def to_int_row(vec) -> list:
    """Clear denominators of a Fraction/int vector (positive scale)."""
    mult = 1
    for x in vec:
        if isinstance(x, Fraction) and x.denominator != 1:
            mult = lcm(mult, x.denominator)
    if mult == 1:
        return [int(x) for x in vec]
    return [int(x * mult) for x in vec]


class EchelonSpan:
    """Growing row space in forward echelon form over integer rows.

    insert() reduces a vector against the current rows and keeps the
    remainder when it is nonzero.  Rows are kept sorted by pivot with
    positive content-free pivots; the canonical reduced form is
    computed on demand by rref_rows().
    """

    __slots__ = ("ncols", "rows", "pivots")

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []
        self.pivots = []

    @property
    def rank(self):
        return len(self.rows)

    def residual(self, vec):
        """Normalized integer remainder of vec after elimination."""
        return _kernel.reduce_row(to_int_row(vec), self.rows, self.pivots)

    def contains(self, vec) -> bool:
        return not any(self.residual(vec))

    def insert(self, vec):
        """Adjoin vec; returns the stored remainder row if the rank grew,
        None otherwise."""
        w = self.residual(vec)
        for p in range(self.ncols):
            if w[p]:
                k = bisect(self.pivots, p)
                self.rows.insert(k, w)
                self.pivots.insert(k, p)
                return w
        return None

    def reduce_exact(self, vec):
        """Exact remainder of a Fraction vector modulo the row space.

        Unlike residual(), no rescaling: this is the Q-linear projection
        onto the complement of the pivot columns.
        """
        v = [rat(x) for x in vec]
        for r, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                f = Fraction(c, r[p])
                v = [a - f * b for a, b in zip(v, r)]
        return v

    def rref_rows(self):
        """Canonical basis of the span: RREF rows with pivot 1."""
        rows, pivots = _kernel.rref([list(r) for r in self.rows], self.ncols)
        return [[Fraction(x, r[p]) for x in r] for r, p in zip(rows, pivots)], pivots


class Span:
    """Subspace of the rational combinations of an ordered list of keys.

    Every method takes and returns LinComb; a key outside the list
    raises KeyError.  The order of the keys is the column order of the
    echelon form: pivots fall on the earliest keys.
    """

    __slots__ = ("columns", "index", "echelon")

    def __init__(self, columns):
        self.columns = list(columns)
        self.index = {k: i for i, k in enumerate(self.columns)}
        self.echelon = EchelonSpan(len(self.columns))

    def _vec(self, combo):
        v = [ZERO] * len(self.columns)
        for k, c in combo.terms.items():
            v[self.index[k]] = c
        return v

    def _combo(self, row) -> LinComb:
        return LinComb((self.columns[i], c) for i, c in enumerate(row) if c)

    @property
    def rank(self):
        return self.echelon.rank

    def insert(self, combo: LinComb):
        """Adjoin combo; returns its remainder (up to scale) if the rank
        grew, None otherwise."""
        row = self.echelon.insert(self._vec(combo))
        return None if row is None else self._combo(row)

    def contains(self, combo: LinComb) -> bool:
        return self.echelon.contains(self._vec(combo))

    def reduce(self, combo: LinComb) -> LinComb:
        """Canonical representative of combo modulo the span: it vanishes
        at every pivot key."""
        return self._combo(self.echelon.reduce_exact(self._vec(combo)))

    def basis(self):
        """Canonical basis: the reduced echelon rows, pivot coefficient 1."""
        rows, _ = self.echelon.rref_rows()
        return [self._combo(r) for r in rows]

    def pivot_keys(self):
        return [self.columns[p] for p in self.echelon.pivots]


def kernel_basis(columns, images):
    """Basis of the kernel of the linear map sending columns[j] to the
    LinComb images[j]: one LinComb over the columns per free column."""
    rows = {}
    for j, image in enumerate(images):
        for k, c in image.terms.items():
            if k not in rows:
                rows[k] = [ZERO] * len(columns)
            rows[k][j] = c
    ech, pivots = _kernel.rref([to_int_row(r) for r in rows.values()], len(columns))
    pivot_set = set(pivots)
    out = []
    for free in range(len(columns)):
        if free in pivot_set:
            continue
        v = [ZERO] * len(columns)
        v[free] = ONE
        for r, p in zip(ech, pivots):
            if r[free]:
                v[p] = Fraction(-r[free], r[p])
        out.append(LinComb((columns[i], c) for i, c in enumerate(v) if c))
    return out


def span_contains(generators, candidate: LinComb) -> bool:
    """Is candidate in the rational span of the generators?"""
    generators = list(generators)
    span = Span(dict.fromkeys(k for c in generators + [candidate] for k in c.terms))
    for g in generators:
        span.insert(g)
    return span.contains(candidate)
