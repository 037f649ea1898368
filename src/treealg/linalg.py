"""Exact rational scalars, formal linear combinations and row reduction.

Every coefficient in the system is an exact ``int`` or
``fractions.Fraction``; a ``Fraction`` comes only from a division or
from parsed input, so integer arithmetic stays on ints.  The rest of the
package does linear algebra in ``LinComb``s only, through a ``Span``
over an ordered list of keys and ``kernel_basis``; only these two make
a combination a coordinate row, a ``dict`` from column index to
coefficient that stores no zero.  Elimination runs fraction-free on
integer rows in ``treealg._kernel``.  ``Span.reduce`` eliminates
nothing: it subtracts rows of the span's kept canonical RREF.

Sums of combinations go through one accumulation, ``add_into`` (d +=
c*terms in place on dicts of terms): ``combine`` (``+``, ``-``) and
``LinComb.sum``, which builds a whole linear or multilinear extension
in one pass.  ``dendriform.product_sum`` does the same for sums of
products in its own loop, since a product of two trees is a tuple of
distinct trees, each with coefficient 1, and not a dict of terms.

The package's element types (``DendElement``, ``TensorSquareElement``)
subclass ``LinComb``.  Arithmetic keeps the class of its left operand,
equality holds only between combinations of the same class, and a
subclass prints in its own ``items()`` order through its ``_term``.
Every public result is a ``LinComb``.  Below that, the cached products
of two trees (``dendriform._tree_prec``, ``_tree_succ`` and
``_tree_star``) are tuples of trees, which ``product_sum`` and
``bialgebra._delta_tree`` read; ``_delta_tree`` itself stays a
``LinComb``.

``EchelonSpan`` (``Span``'s engine), ``to_int_row`` and ``_kernel``
keep their names only because the benchmark's tracer
(``perfbench/tracer.py``) wraps or reads them by name; folding them
into ``Span`` waits for the benchmark change of ROADMAP item 1.
"""

from bisect import insort
from fractions import Fraction
from math import lcm

from treealg import _kernel


def rat(x):
    """An exact scalar: an int or a Fraction is returned as it is, and
    anything else (a string like '-2/3', a float, a bool) becomes a
    Fraction."""
    if type(x) is int or isinstance(x, Fraction):
        return x
    return Fraction(x)


def add_into(d, c, terms):
    """d += c*terms, in place on dicts of terms, dropping the keys that
    cancel.  c must be nonzero; the callers that can meet c = 0 skip it,
    so the loop does not pay for the test."""
    for k, v in terms.items():
        w = d.get(k)
        if w is None:
            d[k] = c * v
        else:
            w += c * v
            if w:
                d[k] = w
            else:
                del d[k]


def _from_terms(cls, terms):
    """An instance of the LinComb class cls holding the dict terms as it
    is, without running __init__; terms must store no zero."""
    out = object.__new__(cls)
    out.terms = terms
    return out


class LinComb:
    """Finite formal rational combination over canonically printable keys.

    Keys may be any hashable values whose ``str`` is a canonical
    encoding (two structurally equal basis elements print identically).
    Zero coefficients are never stored.  Instances are immutable by
    convention: all operations return new objects of the same class.
    terms may be a dict, an iterable of (key, coefficient) pairs or a
    LinComb.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        d = {}
        if isinstance(terms, LinComb):
            d = dict(terms.terms)
        elif terms:
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
        """coeff times key, the zero combination when coeff is 0."""
        c = rat(coeff)
        return _from_terms(cls, {key: c} if c else {})

    @classmethod
    def sum(cls, parts):
        """Sum of c*x over the pairs (x, c) of parts, in one pass, as a
        cls; x is a LinComb or a dict of terms storing no zero."""
        d = {}
        for x, c in parts:
            c = rat(c)
            if c:
                add_into(d, c, x.terms if isinstance(x, LinComb) else x)
        return _from_terms(cls, d)

    def items(self):
        """Terms in print order: sorted by the canonical key encoding.
        Subclasses override it with their own order."""
        return sorted(self.terms.items(), key=lambda kv: str(kv[0]))

    def coeff(self, key):
        return self.terms.get(key, 0)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        return combine(self, 1, other)

    def __sub__(self, other):
        return combine(self, -1, other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = rat(c)
        return _from_terms(type(self), {k: c * v for k, v in self.terms.items()} if c else {})

    def __rmul__(self, c):
        return self.scale(c)

    def map_keys(self, f):
        """Apply f to every key (coefficients of collided keys add)."""
        return type(self)((f(k), c) for k, c in self.terms.items())

    def _term(self, key, c) -> str:
        """One printed term, c > 0 being the coefficient's absolute value."""
        return str(key) if c == 1 else "%s*%s" % (c, key)

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
            parts.append(sign + self._term(k, c))
        return "".join(parts)

    def __repr__(self):
        return "<%s %s>" % (type(self).__name__, self)


def combine(a: LinComb, c, b: LinComb) -> LinComb:
    """a + c*b with zero-coefficient pruning, of the class of a."""
    c = rat(c)
    d = dict(a.terms)
    if c:
        add_into(d, c, b.terms)
    return _from_terms(type(a), d)


def to_int_row(vec) -> dict:
    """Clear denominators of a sparse int/Fraction row (positive scale)."""
    mult = lcm(*(x.denominator for x in vec.values()))
    return {k: int(x * mult) for k, x in vec.items()}


class EchelonSpan:
    """Growing row space over sparse integer rows.

    insert() reduces a row against the current rows and keeps the
    remainder when it is nonzero.  Rows are content-free with positive
    pivots and are stored in a dict keyed by pivot, beside the sorted
    list of pivots.  ``_rref`` is None or the canonical reduced form: a
    table pivot -> RREF row, pivot coefficient 1 and 0 at every other
    pivot.  rref_rows() builds it, reduce_exact() reads it and insert()
    drops it when the rank grows.  Its row dicts are shared and only
    read.
    """

    __slots__ = ("rows", "pivots", "_rref")

    def __init__(self):
        self.rows = {}
        self.pivots = []
        self._rref = None

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
        self._rref = None
        return w

    def reduce_exact(self, vec):
        """Exact remainder of a sparse rational row modulo the row space.

        vec - sum of vec[p]*R_p over the pivots p of vec, R_p the RREF
        row of p: zero at every pivot, it is the Q-linear projection
        onto the complement of the pivot columns.
        """
        if self._rref is None:
            self.rref_rows()
        out = dict(vec)
        for p in vec.keys() & self._rref.keys():
            add_into(out, -vec[p], self._rref[p])
        return out

    def rref_rows(self):
        """Canonical basis of the span: RREF rows with pivot 1, by pivot."""
        if self._rref is None:
            rows = _kernel.rref(self.rows[p] for p in self.pivots)
            self._rref = {p: {k: Fraction(x, r[p]) for k, x in r.items()} for p, r in rows.items()}
        return list(self._rref.values())


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
    """Reduced echelon basis of the kernel of the linear map sending
    columns[j] to the LinComb images[j], over the column order: one
    LinComb per free column, in column order, leading with its free
    column with coefficient 1 and 0 at every other free column.

    The elimination runs over the reversed columns, so its pivots fall
    on the latest columns, and a kernel vector is 1 at its free column
    and nonzero only at pivots after it."""
    n = len(columns)
    rows = {}
    for j, image in enumerate(reversed(images)):
        for k, c in image.terms.items():
            rows.setdefault(k, {})[j] = c
    ech = _kernel.rref(to_int_row(r) for r in rows.values())
    out = {free: {free: 1} for free in range(n) if free not in ech}
    for p, r in ech.items():
        for k, x in r.items():
            if k != p:
                # in RREF every non-pivot entry sits in a free column
                out[k][p] = Fraction(-x, r[p])
    return [LinComb((columns[n - 1 - i], v[i]) for i in sorted(v)) for v in reversed(out.values())]
