"""Differential test of the sparse elimination engine against the dense one.

The oracle below is a copy of the dense engine that ``treealg.linalg``
and ``treealg._kernel`` used before rows became sparse: the kernel's
``normalize_row``, ``reduce_row`` and ``rref`` on dense integer lists,
then ``to_int_row``, ``EchelonSpan``, ``Span`` and ``kernel_basis``.
It is verbatim except that the kernel's functions are called without
their module prefix, and that it defines the constants ``ZERO`` and
``ONE`` that ``treealg.linalg`` no longer has.  The tests require both engines to give the same
insert remainders, ranks, pivots, membership, reductions, canonical
bases and kernels, term order included.
"""

from bisect import bisect
from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings, strategies as st

from treealg import linalg
from treealg.linalg import LinComb, rat

ZERO = Fraction(0)
ONE = Fraction(1)


def normalize_row(v):
    """Divide by the content and make the first nonzero entry positive."""
    g = 0
    for x in v:
        if x:
            g = gcd(g, x)
            if g == 1:
                break
    if g == 0:
        return list(v)
    for x in v:
        if x:
            if x < 0:
                g = -g
            break
    return [x // g for x in v]


def reduce_row(v, rows, pivots):
    """Eliminate v at the given pivot columns; return the normalized rest.

    ``rows`` must be in echelon form with strictly increasing ``pivots``
    and positive pivot entries.
    """
    v = list(v)
    for r, p in zip(rows, pivots):
        c = v[p]
        if c:
            q = r[p]
            g = gcd(c, q)
            mv = q // g
            mr = c // g
            v = [mv * a - mr * b for a, b in zip(v, r)]
    return normalize_row(v)


def rref(mat, ncols):
    """Reduced row echelon form of integer rows, up to positive row scale.

    Returns (rows, pivots) with rows sorted by pivot, each content-free
    with positive pivot, and zero above and below every pivot.
    """
    rows = []
    pivots = []
    for v in mat:
        w = reduce_row(v, rows, pivots)
        p = -1
        for i in range(ncols):
            if w[i]:
                p = i
                break
        if p >= 0:
            k = bisect(pivots, p)
            rows.insert(k, w)
            pivots.insert(k, p)
    for i in range(len(rows) - 1, -1, -1):
        r = rows[i]
        p = pivots[i]
        q = r[p]
        for j in range(i):
            u = rows[j]
            c = u[p]
            if c:
                g = gcd(c, q)
                mu = q // g
                mr = c // g
                rows[j] = normalize_row([mu * a - mr * b for a, b in zip(u, r)])
    return rows, pivots


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
        return reduce_row(to_int_row(vec), self.rows, self.pivots)

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
        rows, pivots = rref([list(r) for r in self.rows], self.ncols)
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
    ech, pivots = rref([to_int_row(r) for r in rows.values()], len(columns))
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


KEYS = ["a", "b", "c", "d", "e", "f"]
coeffs = st.builds(
    Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
)


@st.composite
def combos(draw):
    """A combination over KEYS with denominators, negatives, repeated
    keys and, at random, some of its terms cancelled; may be zero."""
    pairs = draw(st.lists(st.tuples(st.sampled_from(KEYS), coeffs), max_size=6))
    cancelled = draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    return LinComb(pairs + [(k, -c) for k, c in cancelled])


@st.composite
def combo_lists(draw):
    """Random combinations, then a few combinations of those."""
    out = draw(st.lists(combos(), max_size=7))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if out:
            a, b = draw(st.sampled_from(out)), draw(st.sampled_from(out))
            out.append(a.scale(draw(coeffs)) + b)
    return out


def same(a, b):
    return a == b and list(a.terms.items()) == list(b.terms.items())


@settings(max_examples=100, deadline=None)
@given(st.permutations(KEYS), combo_lists(), st.lists(combos(), max_size=4))
def test_span_matches_dense_engine(columns, gens, probes):
    sparse, dense = linalg.Span(columns), Span(columns)

    def check():
        assert sparse.pivot_keys() == dense.pivot_keys()
        got, want = sparse.basis(), dense.basis()
        assert len(got) == len(want) and all(map(same, got, want))
        for p in probes + gens:
            assert sparse.contains(p) == dense.contains(p)
            assert same(sparse.reduce(p), dense.reduce(p))

    # on the empty span, then after every insert, so that a canonical
    # form kept from an earlier rank shows
    check()
    for g in gens:
        got, want = sparse.insert(g), dense.insert(g)
        assert (got is None) == (want is None)
        assert got is None or same(got, want)
        assert sparse.rank == dense.rank
        check()


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=6).flatmap(
        lambda n: st.tuples(
            st.permutations(["x%d" % i for i in range(n)]),
            st.lists(combos(), min_size=n, max_size=n),
        )
    )
)
def test_kernel_basis_matches_dense_engine(columns_images):
    columns, images = columns_images
    got = linalg.kernel_basis(columns, images)
    want = kernel_basis(columns, images)
    assert len(got) == len(want) and all(map(same, got, want))
