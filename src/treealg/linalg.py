"""Exact rational scalars, formal linear combinations and row reduction.

Every coefficient in the system is a ``fractions.Fraction`` (arbitrary
precision, always reduced, positive denominator).  The rest of the
package does linear algebra in ``LinComb``s only: a ``Span`` over an
ordered list of keys, and ``kernel_basis`` of a map given by the
images of its columns.  These two are the only place where a
combination becomes a coordinate row.  Rows are sparse: a ``dict``
from column index to coefficient that stores no zero.  ``reduce``
eliminates a ``Fraction`` row exactly; everything else clears
denominators and eliminates integer rows in ``treealg._kernel``.

``EchelonSpan`` (``Span``'s engine), ``to_int_row`` and ``_kernel``
with its ``BACKEND``, ``reduce_row`` and ``rref`` keep their names
only because the benchmark's tracer (``perfbench/tracer.py``) wraps
or reads them by name; folding them into ``Span`` waits for the
benchmark change of ROADMAP item 1.
"""

from bisect import insort
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


def to_int_row(vec) -> dict:
    """Clear denominators of a sparse Fraction/int row (positive scale)."""
    mult = 1
    for x in vec.values():
        if isinstance(x, Fraction) and x.denominator != 1:
            mult = lcm(mult, x.denominator)
    if mult == 1:
        return {k: int(x) for k, x in vec.items()}
    return {k: int(x * mult) for k, x in vec.items()}


class EchelonSpan:
    """Growing row space in forward echelon form over sparse integer rows.

    insert() reduces a row against the current rows and keeps the
    remainder when it is nonzero.  Rows are content-free with positive
    pivots and are stored in a dict keyed by pivot, beside the sorted
    list of pivots; the canonical reduced form is computed on demand
    by rref_rows().
    """

    __slots__ = ("rows", "pivots")

    def __init__(self):
        self.rows = {}
        self.pivots = []

    @property
    def rank(self):
        return len(self.pivots)

    def residual(self, vec):
        """Normalized integer remainder of vec after elimination."""
        return _kernel.reduce_row(to_int_row(vec), self.rows)

    def contains(self, vec) -> bool:
        return not self.residual(vec)

    def insert(self, vec):
        """Adjoin vec; returns the stored remainder row if the rank grew,
        None otherwise."""
        w = self.residual(vec)
        if not w:
            return None
        p = min(w)
        self.rows[p] = w
        insort(self.pivots, p)
        return w

    def reduce_exact(self, vec):
        """Exact remainder of a sparse Fraction row modulo the row space.

        Unlike residual(), no rescaling: this is the Q-linear projection
        onto the complement of the pivot columns.
        """
        return _kernel.eliminate(vec, self.rows, lambda c, q: (1, Fraction(c, q)))

    def rref_rows(self):
        """Canonical basis of the span: RREF rows with pivot 1, by pivot."""
        rows = _kernel.rref(self.rows[p] for p in self.pivots)
        return [{k: Fraction(x, r[p]) for k, x in r.items()} for p, r in rows.items()]


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
        self.echelon = EchelonSpan()

    def _vec(self, combo):
        return {self.index[k]: c for k, c in combo.terms.items()}

    def _combo(self, row) -> LinComb:
        return LinComb((self.columns[i], row[i]) for i in sorted(row))

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
        return [self._combo(r) for r in self.echelon.rref_rows()]

    def pivot_keys(self):
        return [self.columns[p] for p in self.echelon.pivots]


def kernel_basis(columns, images):
    """Basis of the kernel of the linear map sending columns[j] to the
    LinComb images[j]: one LinComb over the columns per free column."""
    rows = {}
    for j, image in enumerate(images):
        for k, c in image.terms.items():
            rows.setdefault(k, {})[j] = c
    ech = _kernel.rref(to_int_row(r) for r in rows.values())
    out = {free: {free: ONE} for free in range(len(columns)) if free not in ech}
    for p, r in ech.items():
        for k, x in r.items():
            if k != p:
                # in RREF every non-pivot entry sits in a free column
                out[k][p] = Fraction(-x, r[p])
    return [LinComb((columns[i], v[i]) for i in sorted(v)) for v in out.values()]


def span_contains(generators, candidate: LinComb) -> bool:
    """Is candidate in the rational span of the generators?"""
    generators = list(generators)
    span = Span(dict.fromkeys(k for c in generators + [candidate] for k in c.terms))
    for g in generators:
        span.insert(g)
    return span.contains(candidate)
