"""Exact rational scalars, formal linear combinations and row reduction.

Every coefficient in the system is a ``fractions.Fraction`` (arbitrary
precision, always reduced, positive denominator).  Matrices are dense;
after clearing denominators, every elimination runs on integer rows in
the pure-Python kernel ``treealg._kernel``.
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


class RatMatrix:
    """Dense matrix of Fractions."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = [[rat(x) for x in r] for r in entries]
        assert len(entries) == rows and all(len(r) == cols for r in entries)
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, entries, cols=None):
        entries = list(entries)
        if cols is None:
            cols = len(entries[0]) if entries else 0
        return cls(len(entries), cols, entries)

    def transpose(self):
        return RatMatrix.from_rows(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def __eq__(self, other):
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __str__(self):
        return "\n".join(" ".join(rat_str(x) for x in r) for r in self.entries)


def rowreduce(m: RatMatrix):
    """Reduced row echelon form over Q.  Returns (echelon, rank, pivots)."""
    int_rows = [to_int_row(r) for r in m.entries]
    rows, pivots = _kernel.rref(int_rows, m.cols)
    frac_rows = [[Fraction(x, r[p]) for x in r] for r, p in zip(rows, pivots)]
    rank = len(rows)
    frac_rows += [[ZERO] * m.cols for _ in range(m.rows - rank)]
    return RatMatrix(m.rows, m.cols, frac_rows), rank, tuple(pivots)


def kernel_basis(m: RatMatrix):
    """Basis of the right null space, one Fraction vector per free column."""
    int_rows = [to_int_row(r) for r in m.entries]
    rows, pivots = _kernel.rref(int_rows, m.cols)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = [ZERO] * m.cols
        v[free] = ONE
        for r, p in zip(rows, pivots):
            if r[free]:
                v[p] = Fraction(-r[free], r[p])
        basis.append(v)
    return basis


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


def lincombs_to_matrix(combos):
    """Common column basis (keys sorted by str) and coefficient rows."""
    keys = sorted({k for c in combos for k in c.terms}, key=str)
    index = {k: i for i, k in enumerate(keys)}
    rows = []
    for c in combos:
        v = [ZERO] * len(keys)
        for k, x in c.terms.items():
            v[index[k]] = x
        rows.append(v)
    return keys, rows


def span_contains(generators, candidate: LinComb) -> bool:
    """Is candidate in the rational span of the generators?

    Decided by rank comparison before and after adjoining candidate.
    """
    keys, rows = lincombs_to_matrix(list(generators) + [candidate])
    span = EchelonSpan(len(keys))
    for v in rows[:-1]:
        span.insert(v)
    before = span.rank
    span.insert(rows[-1])
    return span.rank == before
