"""Coproduct on the unital free dendriform algebra, compatibility
defects of the two half-products, and primitive elements.

The coproduct follows the structural recursion on the decomposition
t = x v y of a basis tree:

    delta(t) = t(x)1 + sum (x1 * y1) (x) (x2 v y2),

with delta(1) = 1(x)1.  The Sweedler sums in the compatibility checks
omit the unique ghost term whose both right legs are the unit.
"""

from functools import lru_cache

from treealg.linalg import LinComb, Span, kernel_basis
from treealg.trees import LEAF, PBT, pbt_basis
from treealg.dendriform import (
    DendElement,
    _tree_star,
    dprec,
    dsucc,
    dstar,
    pbt_expr,
    psi_corolla,
)


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

    def map_legs(self, f_left, f_right):
        """Apply linear maps (as LEAF-or-tree -> DendElement) legwise."""
        out = TensorSquareElement()
        for (l, r), c in self.combo.terms.items():
            out = out + TensorSquareElement.from_product(f_left(l), f_right(r)).scale(c)
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


@lru_cache(maxsize=None)
def _delta_tree(t) -> LinComb:
    if t.is_leaf():
        return LinComb.single((LEAF, LEAF))
    acc = {(t, LEAF): 1}
    for (l1, l2), a in _delta_tree(t.left).terms.items():
        for (r1, r2), b in _delta_tree(t.right).terms.items():
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


def coproduct(e: DendElement) -> TensorSquareElement:
    combo = LinComb()
    if e.unit:
        combo = combo + LinComb.single((LEAF, LEAF), e.unit)
    for t, c in e.body.terms.items():
        combo = combo + _delta_tree(t).scale(c)
    return TensorSquareElement(combo)


def reduced_coproduct(e: DendElement) -> TensorSquareElement:
    """delta(x) - x(x)1 - 1(x)x on the positive part."""
    assert not e.unit, "reduced coproduct applies to the positive part"
    d = coproduct(e)
    d = d - TensorSquareElement.from_product(e, DendElement.one())
    d = d - TensorSquareElement.from_product(DendElement.one(), e)
    return d


def is_primitive(e: DendElement) -> bool:
    return reduced_coproduct(e).is_zero()


def compat_defect(x: DendElement, y: DendElement, side: str) -> TensorSquareElement:
    """delta(x # y) minus the Sweedler expansion (x1*y1)(x)(x2 # y2)
    + (x # y)(x)1, the ghost term with both right legs 1 omitted.
    side is '<' or '>'."""
    assert side in ("<", ">")
    assert not x.unit and not y.unit, "compatibility is stated on the positive part"
    op = dprec if side == "<" else dsucc
    prod = op(x, y)
    lhs = coproduct(prod)
    rhs = TensorSquareElement.from_product(prod, DendElement.one())
    for (x1, x2), a in coproduct(x).combo.terms.items():
        for (y1, y2), b in coproduct(y).combo.terms.items():
            if x2.is_leaf() and y2.is_leaf():
                continue
            left = dstar(_leg(x1), _leg(y1))
            right = op(_leg(x2), _leg(y2))
            rhs = rhs + TensorSquareElement.from_product(left, right).scale(a * b)
    return lhs - rhs


def _leg(key) -> DendElement:
    return DendElement.one() if key.is_leaf() else DendElement.from_tree(key)


def primitives(degree: int, alphabet) -> list:
    """Basis of the primitive part of the given degree, in reduced
    echelon form over the canonical tree order."""
    assert degree >= 1
    if isinstance(alphabet, int):
        alphabet = [chr(ord("a") + i) for i in range(alphabet)]
    # expression-string order puts the < combs first, so the echelon
    # pivots land on them and printed bases read like a<a - a>a
    basis = sorted(pbt_basis(degree, alphabet), key=pbt_expr)
    images = [
        LinComb(
            ((l, r), c)
            for (l, r), c in _delta_tree(t).terms.items()
            if not l.is_leaf() and not r.is_leaf()
        )
        for t in basis
    ]
    span = Span(basis)
    for v in kernel_basis(basis, images):
        span.insert(v)
    return [DendElement(0, b) for b in span.basis()]


def primitive_dims(alphabet, max_degree: int):
    return {n: len(primitives(n, alphabet)) for n in range(1, max_degree + 1)}


def brace_on_primitives(args) -> DendElement:
    """Brace operation {x1 | x2,...,xn} on primitives, realized as the
    corolla image; the output is primitive again (verified)."""
    args = list(args)
    assert args
    for x in args:
        if not is_primitive(x):
            raise ValueError("argument %s is not primitive" % x)
    if len(args) == 1:
        return args[0]
    out = psi_corolla(args)
    if not is_primitive(out):
        raise AssertionError("brace of primitives failed to be primitive")
    return out
