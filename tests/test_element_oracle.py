"""Differential test of the element layer against the one it replaced.

The oracle below is a copy of the element layer from before
``DendElement`` and ``TensorSquareElement`` became ``LinComb``s:
``DendElement`` with a separate ``unit`` and ``body``, the products
``dprec``, ``dsucc`` and ``dstar`` with their unit special cases,
``eval_pbt`` and ``substitute``, ``TensorSquareElement`` wrapping a
``LinComb`` in ``combo``, ``coproduct`` and ``zin_eval``.  It is
verbatim; the tree products and caches it calls are the package's own.
Hypothesis draws elements over two letters up to degree 3, with and
without a unit part, with ``Fraction`` coefficients and cancelling
terms.  Both layers must print, compare, multiply, raise and map alike.

The second oracle copies the term-by-term sums that ``LinComb.sum``
replaced, verbatim but for the names of the functions they call, on
the package's own element types: the inline accumulator of
``_delta_tree`` (uncached here, so it shares no cache with the
package), ``coproduct``, ``psi_corolla``, ``compat_defect`` and
``BraceStructure.brace_multi``.  Their results must equal the
package's term for term.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product

from hypothesis import example, given, settings, strategies as st

from treealg import bialgebra as new_bialgebra
from treealg import dendriform as new_dendriform
from treealg import words as new_words
from treealg.bialgebra import _delta_tree
from treealg.dendriform import UnitProductError, _tree_prec, _tree_star, _tree_succ, pbt_expr
from treealg.envelope import BraceError, harvest_brace, trivial_brace
from treealg.linalg import LinComb, rat
from treealg.trees import LEAF, PBT, pbt_basis
from treealg.words import EMPTY, _zin_tree


def _acc(d, c, lin):
    """d += c*lin, in place on a plain dict."""
    for k, v in lin.terms.items():
        w = d.get(k)
        if w is None:
            d[k] = c * v
        else:
            w = w + c * v
            if w:
                d[k] = w
            else:
                del d[k]


class DendElement:
    """Element of the unital free dendriform algebra."""

    __slots__ = ("unit", "body")

    def __init__(self, unit=0, body=None):
        self.unit = rat(unit)
        self.body = body if body is not None else LinComb()

    @classmethod
    def generator(cls, name) -> "DendElement":
        return cls(0, LinComb.single(PBT(LEAF, name, LEAF)))

    @classmethod
    def one(cls) -> "DendElement":
        return cls(1)

    @classmethod
    def from_tree(cls, t: PBT, coeff=1) -> "DendElement":
        """coeff times the basis tree t.  LEAF, the empty tree, stands
        for the unit, so from_tree(LEAF) is coeff times 1."""
        if t.is_leaf():
            return cls(coeff)
        return cls(0, LinComb.single(t, coeff))

    def is_zero(self) -> bool:
        return not self.unit and self.body.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, DendElement)
            and self.unit == other.unit
            and self.body == other.body
        )

    def __hash__(self):
        return hash((self.unit, self.body))

    def __add__(self, other):
        return DendElement(self.unit + other.unit, self.body + other.body)

    def __sub__(self, other):
        return DendElement(self.unit - other.unit, self.body - other.body)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = rat(c)
        return DendElement(c * self.unit, self.body.scale(c))

    def __rmul__(self, c):
        return self.scale(c)

    def degrees(self):
        """Degrees with nonzero component (unit counts as degree 0)."""
        out = set()
        if self.unit:
            out.add(0)
        for t in self.body.terms:
            out.add(t.degree)
        return sorted(out)

    def top_degree(self) -> int:
        degs = self.degrees()
        return degs[-1] if degs else 0

    def decorations(self):
        out = set()
        for t in self.body.terms:
            out.update(t.decorations())
        return out

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        if self.unit:
            parts.append(str(self.unit))
        for t, c in sorted(
            self.body.terms.items(), key=lambda kv: (kv[0].degree, pbt_expr(kv[0]))
        ):
            if c < 0:
                sign = "-" if not parts else " - "
                c = -c
            else:
                sign = "" if not parts else " + "
            body = pbt_expr(t) if c == 1 else "%s*%s" % (c, pbt_expr(t))
            parts.append(sign + body)
        return "".join(parts)

    def __repr__(self):
        return "<DendElement %s>" % self


DEND_ZERO = DendElement()
DEND_ONE = DendElement(1)


def dprec(x: DendElement, y: DendElement) -> DendElement:
    """x < y.  1<t = 0, t<1 = t; 1<1 raises."""
    if x.unit and y.unit:
        raise UnitProductError("1<1 is undefined")
    d = {}
    if y.unit:
        _acc(d, y.unit, x.body)
    for t, a in x.body.terms.items():
        for s, b in y.body.terms.items():
            _acc(d, a * b, _tree_prec(t, s))
    out = DendElement()
    out.body = LinComb(d)
    return out


def dsucc(x: DendElement, y: DendElement) -> DendElement:
    """x > y.  t>1 = 0, 1>t = t; 1>1 raises."""
    if x.unit and y.unit:
        raise UnitProductError("1>1 is undefined")
    d = {}
    if x.unit:
        _acc(d, x.unit, y.body)
    for t, a in x.body.terms.items():
        for s, b in y.body.terms.items():
            _acc(d, a * b, _tree_succ(t, s))
    out = DendElement()
    out.body = LinComb(d)
    return out


def dstar(x: DendElement, y: DendElement) -> DendElement:
    """x * y = x<y + x>y, with 1*1 = 1."""
    d = {}
    if x.unit:
        _acc(d, x.unit, y.body)
    if y.unit:
        _acc(d, y.unit, x.body)
    for t, a in x.body.terms.items():
        for s, b in y.body.terms.items():
            _acc(d, a * b, _tree_star(t, s))
    out = DendElement(x.unit * y.unit)
    out.body = LinComb(d)
    return out


def eval_pbt(t, assign) -> DendElement:
    """Evaluate a decorated tree as the product expression it denotes:
    a node is left > decoration < right, a leaf is the unit."""
    if t.is_leaf():
        return DEND_ONE
    mid = assign[t.label]
    if not t.right.is_leaf():
        mid = dprec(mid, eval_pbt(t.right, assign))
    if not t.left.is_leaf():
        mid = dsucc(eval_pbt(t.left, assign), mid)
    return mid


def substitute(e: DendElement, assign) -> DendElement:
    """Evaluate every tree of e with each letter replaced by its value
    in assign; the unit part is kept."""
    out = DendElement(e.unit)
    for t, c in e.body.terms.items():
        out = out + eval_pbt(t, assign).scale(c)
    return out


class TensorSquareElement:
    """Rational combination of ordered pairs of basis-trees-or-unit.

    Keys are (left, right) with LEAF standing for the unit leg."""

    __slots__ = ("combo",)

    def __init__(self, combo=None):
        self.combo = combo if combo is not None else LinComb()

    @classmethod
    def single(cls, left, right, coeff=1):
        return cls(LinComb.single((left, right), coeff))

    @classmethod
    def from_product(cls, x: DendElement, y: DendElement):
        """x (x) y for two algebra elements."""
        xs = list(x.body.terms.items())
        if x.unit:
            xs.append((LEAF, x.unit))
        ys = list(y.body.terms.items())
        if y.unit:
            ys.append((LEAF, y.unit))
        return cls(LinComb(((t, s), a * b) for t, a in xs for s, b in ys))

    def is_zero(self):
        return self.combo.is_zero()

    def __eq__(self, other):
        return isinstance(other, TensorSquareElement) and self.combo == other.combo

    def __add__(self, other):
        return TensorSquareElement(self.combo + other.combo)

    def __sub__(self, other):
        return TensorSquareElement(self.combo - other.combo)

    def scale(self, c):
        return TensorSquareElement(self.combo.scale(c))

    def __rmul__(self, c):
        return self.scale(c)

    def map_legs(self, f):
        """Apply the linear map f, on DendElements, to both legs."""
        out = TensorSquareElement()
        for (l, r), c in self.combo.terms.items():
            legs = f(DendElement.from_tree(l)), f(DendElement.from_tree(r))
            out = out + TensorSquareElement.from_product(*legs).scale(c)
        return out

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for (l, r), c in sorted(
            self.combo.terms.items(),
            key=lambda kv: (
                kv[0][0].degree + kv[0][1].degree,
                pbt_expr(kv[0][0]),
                pbt_expr(kv[0][1]),
            ),
        ):
            if c < 0:
                sign = "-" if not parts else " - "
                c = -c
            else:
                sign = "" if not parts else " + "
            body = "%s (x) %s" % (pbt_expr(l), pbt_expr(r))
            if c != 1:
                body = "%s*[%s]" % (c, body)
            parts.append(sign + body)
        return "".join(parts)

    def __repr__(self):
        return "<TensorSquare %s>" % self


def coproduct(e: DendElement) -> TensorSquareElement:
    combo = LinComb()
    if e.unit:
        combo = combo + LinComb.single((LEAF, LEAF), e.unit)
    for t, c in e.body.terms.items():
        combo = combo + _delta_tree(t).scale(c)
    return TensorSquareElement(combo)


def zin_eval(e: DendElement) -> LinComb:
    """Algebra morphism onto words: generators become one-letter words,
    x<y maps to x.y, x>y to y.x, the unit to the empty word."""
    out = LinComb()
    if e.unit:
        out = out + LinComb.single(EMPTY, e.unit)
    for t, c in e.body.terms.items():
        out = out + _zin_tree(t).scale(c)
    return out


NewDend = new_dendriform.DendElement
NewTensor = new_bialgebra.TensorSquareElement
OPS = [
    (dprec, new_dendriform.dprec),
    (dsucc, new_dendriform.dsucc),
    (dstar, new_dendriform.dstar),
]
TREES = [t for d in (1, 2, 3) for t in pbt_basis(d, ["a", "b"])]
COEFFS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def elements(draw, max_degree=3, max_terms=4, unit=True):
    """(unit, [(tree, coefficient), ...]); a drawn term may be cancelled."""
    trees = [t for t in TREES if t.degree <= max_degree]
    terms = draw(st.lists(st.tuples(st.sampled_from(trees), COEFFS), max_size=max_terms))
    if terms and draw(st.booleans()):
        t, c = draw(st.sampled_from(terms))
        terms.append((t, -c))
    return draw(st.one_of(st.just(0), COEFFS)) if unit else 0, terms


def both(drawn):
    unit, terms = drawn
    return DendElement(unit, LinComb(terms)), NewDend(terms + [(LEAF, unit)])


def terms_of(x: DendElement) -> dict:
    out = dict(x.body.terms)
    if x.unit:
        out[LEAF] = x.unit
    return out


def assert_same(old, new):
    assert type(new) is NewDend
    assert terms_of(old) == new.terms
    assert str(old) == str(new)
    assert old.unit == new.unit


def assert_same_tensor(old, new):
    assert type(new) is NewTensor
    assert old.combo.terms == new.terms
    assert str(old) == str(new)


def outcome(op, x, y):
    try:
        return op(x, y)
    except UnitProductError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(elements(), elements(), COEFFS)
def test_arithmetic_and_printing_agree(xd, yd, c):
    (x, nx), (y, ny) = both(xd), both(yd)
    assert_same(x, nx)
    assert (x == y) == (nx == ny)
    assert x.is_zero() == nx.is_zero()
    assert (x.degrees(), x.top_degree(), x.decorations()) == (
        nx.degrees(),
        nx.top_degree(),
        nx.decorations(),
    )
    assert_same(x + y, nx + ny)
    assert_same(x - y, nx - ny)
    assert_same(x - x, nx - nx)
    assert_same(-x, -nx)
    assert_same(x.scale(c), nx.scale(c))


@settings(max_examples=150, deadline=None)
@given(elements(), elements())
@example((1, []), (1, []))
@example((Fraction(1, 2), [(TREES[0], 1)]), (-1, [(TREES[1], 2)]))
def test_products_agree(xd, yd):
    (x, nx), (y, ny) = both(xd), both(yd)
    for op, new_op in OPS:
        old, new = outcome(op, x, y), outcome(new_op, nx, ny)
        if isinstance(old, str):
            assert new == old
        else:
            assert_same(old, new)


@settings(max_examples=100, deadline=None)
@given(elements(), elements(), elements(max_degree=1, max_terms=2))
def test_coproducts_and_tensors_agree(xd, yd, zd):
    (x, nx), (y, ny), (z, nz) = both(xd), both(yd), both(zd)
    assert_same_tensor(coproduct(x), new_bialgebra.coproduct(nx))
    t, nt = TensorSquareElement.from_product(x, y), NewTensor.from_product(nx, ny)
    assert_same_tensor(t, nt)
    assert (t == TensorSquareElement()) == (nt == NewTensor())
    assert_same_tensor(
        t.map_legs(lambda e: dstar(e, z)),
        nt.map_legs(lambda s: new_dendriform.dstar(NewDend.from_tree(s), nz)),
    )


@settings(max_examples=100, deadline=None)
@given(elements())
def test_zin_eval_agrees(xd):
    x, nx = both(xd)
    assert zin_eval(x) == new_words.zin_eval(nx)


@settings(max_examples=100, deadline=None)
@given(elements(), elements(max_degree=2, max_terms=3), elements(max_degree=2, max_terms=3))
def test_substitute_agrees(xd, ad, bd):
    x, nx = both(xd)
    (a, na), (b, nb) = both(ad), both(bd)
    old = outcome(substitute, x, {"a": a, "b": b})
    new = outcome(new_dendriform.substitute, nx, {"a": na, "b": nb})
    if isinstance(old, str):
        assert new == old
    else:
        assert_same(old, new)


# -- the term-by-term sums replaced by LinComb.sum, verbatim -----------

upcomb, downcomb = new_dendriform.upcomb, new_dendriform.downcomb
new_dprec, new_dsucc, new_dstar = new_dendriform.dprec, new_dendriform.dsucc, new_dendriform.dstar


def old_delta_tree(t) -> LinComb:
    if t.is_leaf():
        return LinComb.single((LEAF, LEAF))
    acc = {(t, LEAF): 1}
    for (l1, l2), a in old_delta_tree(t.left).terms.items():
        for (r1, r2), b in old_delta_tree(t.right).terms.items():
            right = PBT(l2, t.label, r2)
            if l1.is_leaf():
                star = {r1: 1}
            elif r1.is_leaf():
                star = {l1: 1}
            else:
                star = _tree_star(l1, r1).terms
            ab = a * b
            for u, cu in star.items():
                key = (u, right)
                w = acc.get(key)
                if w is None:
                    acc[key] = ab * cu
                else:
                    w = w + ab * cu
                    if w:
                        acc[key] = w
                    else:
                        del acc[key]
    return LinComb(acc)


def old_coproduct(e):
    out = NewTensor()
    for t, c in e.terms.items():
        out = out + old_delta_tree(t).scale(c)
    return out


def old_psi_corolla(args, sign_offset=1):
    n1 = len(args)
    if n1 < 2:
        raise ValueError("a corolla image needs at least 2 arguments, got %d" % n1)
    out = NewDend()
    for i in range(1, n1 + 1):
        up = upcomb(args[1:i])
        down = downcomb(args[i:])
        term = new_dprec(new_dsucc(up, args[0]), down)
        if (i + sign_offset) % 2:
            out = out - term
        else:
            out = out + term
    return out


def old_compat_defect(x, y, side):
    if side not in ("<", ">"):
        raise ValueError("side must be '<' or '>', got %r" % (side,))
    if x.unit or y.unit:
        raise ValueError("compatibility is stated on the positive part")
    op = new_dprec if side == "<" else new_dsucc
    prod = op(x, y)
    lhs = old_coproduct(prod)
    rhs = NewTensor.from_product(prod, NewDend.one())
    for (x1, x2), a in old_coproduct(x).terms.items():
        for (y1, y2), b in old_coproduct(y).terms.items():
            if x2.is_leaf() and y2.is_leaf():
                continue
            left = new_dstar(NewDend.from_tree(x1), NewDend.from_tree(y1))
            right = op(NewDend.from_tree(x2), NewDend.from_tree(y2))
            rhs = rhs + NewTensor.from_product(left, right).scale(a * b)
    return lhs - rhs


def old_brace_multi(self, root: LinComb, args) -> LinComb:
    out = LinComb()
    spread = [list(a.terms.items()) for a in args]
    for r, cr in root.terms.items():
        for combo in product(*spread):
            coeff = cr
            for _, c in combo:
                coeff = coeff * c
            out = out + self.brace(r, [i for i, _ in combo]).scale(coeff)
    return out


def test_delta_tree_agrees():
    for d in range(1, 6):
        for t in pbt_basis(d, ["a", "b"]):
            old, new = old_delta_tree(t), _delta_tree(t)
            assert type(new) is LinComb
            assert new.terms == old.terms, t


def new_element(drawn):
    return both(drawn)[1]


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from([0, 1]))
def test_psi_corolla_agrees(data, sign_offset):
    arity = data.draw(st.integers(2, 5))
    small = elements(max_degree=2 if arity < 4 else 1, max_terms=2, unit=False)
    args = [new_element(data.draw(small)) for _ in range(arity)]
    old, new = old_psi_corolla(args, sign_offset), new_dendriform.psi_corolla(args, sign_offset)
    assert type(new) is NewDend
    assert new.terms == old.terms


@settings(max_examples=60, deadline=None)
@given(elements(max_degree=2, max_terms=3, unit=False), elements(max_degree=2, max_terms=3, unit=False))
def test_compat_defect_agrees(xd, yd):
    x, y = new_element(xd), new_element(yd)
    for side in ("<", ">"):
        # the defect vanishes on every pair, so the coproducts that
        # both sides are built from are compared too
        old, new = old_compat_defect(x, y, side), new_bialgebra.compat_defect(x, y, side)
        assert type(new) is NewTensor
        assert new.terms == old.terms == {}
        assert old_coproduct(x).terms == new_bialgebra.coproduct(x).terms


@lru_cache(maxsize=None)
def brace_structure(name):
    return trivial_brace(2) if name == "trivial" else harvest_brace(1, 4)[0]


def combos(indices):
    return st.lists(st.tuples(st.sampled_from(indices), COEFFS), max_size=3).map(LinComb)


def brace_outcome(multi, b, root, args):
    try:
        return multi(b, root, args).terms
    except BraceError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["trivial", "harvest"]), st.data())
def test_brace_multi_agrees(name, data):
    # harvest_brace(1, 4) is truncated at weight 4: heavy tuples raise
    b = brace_structure(name)
    root = data.draw(combos(range(min(b.dim, 3))))
    args = data.draw(st.lists(combos(range(min(b.dim, 2))), max_size=3))
    old = brace_outcome(old_brace_multi, b, root, args)
    new = brace_outcome(type(b).brace_multi, b, root, args)
    assert new == old
