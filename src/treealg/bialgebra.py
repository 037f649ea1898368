"""Coproduct on the unital free dendriform algebra, compatibility
defects of the two half-products, and primitive elements.

The coproduct follows the structural recursion on the decomposition
t = x v y of a basis tree:

    delta(t) = t(x)1 + sum (x1 * y1) (x) (x2 v y2),

with delta(1) = 1(x)1.  The Sweedler sums in the compatibility checks
omit the unique ghost term whose both right legs are the unit.
"""

from functools import lru_cache

from treealg.linalg import LinComb, kernel_basis
from treealg.trees import LEAF, PBT, generator_names, pbt_basis
from treealg.dendriform import (
    DendElement,
    _tree_star,
    _unit_star,
    dprec,
    dsucc,
    dstar,
    pbt_expr,
)


class TensorSquareElement(LinComb):
    """Rational combination of ordered pairs (left, right) of basis
    trees, LEAF standing for a unit leg, as in DendElement."""

    __slots__ = ()

    @classmethod
    def from_product(cls, x: DendElement, y: DendElement):
        """x (x) y for two algebra elements."""
        return cls(((t, s), a * b) for t, a in x.terms.items() for s, b in y.terms.items())

    def map_legs(self, f):
        """Apply the linear map given by f on basis trees (LEAF
        included), f(t) a DendElement, to both legs."""
        return TensorSquareElement.sum(
            (TensorSquareElement.from_product(f(l), f(r)), c) for (l, r), c in self.terms.items()
        )

    def items(self):
        """Terms by total degree, then by the two legs' expressions."""

        def key(kv):
            (l, r), _ = kv
            return l.degree + r.degree, pbt_expr(l), pbt_expr(r)

        return sorted(self.terms.items(), key=key)

    def _term(self, key, c) -> str:
        body = "%s (x) %s" % (pbt_expr(key[0]), pbt_expr(key[1]))
        return body if c == 1 else "%s*[%s]" % (c, body)


@lru_cache(maxsize=None)
def _delta_tree(t) -> LinComb:
    if t.is_leaf():
        return LinComb.single((LEAF, LEAF))
    parts = [({(t, LEAF): 1}, 1)]
    for (l1, l2), a in _delta_tree(t.left).terms.items():
        for (r1, r2), b in _delta_tree(t.right).terms.items():
            right = PBT(l2, t.label, r2)
            if l1.is_leaf() or r1.is_leaf():
                star = _unit_star(l1, r1)
            else:
                star = _tree_star(l1, r1)
            parts.append(({(u, right): 1 for u in star}, a * b))
    return LinComb.sum(parts)


def coproduct(e: DendElement) -> TensorSquareElement:
    return TensorSquareElement.sum((_delta_tree(t), c) for t, c in e.terms.items())


def reduced_coproduct(e: DendElement) -> TensorSquareElement:
    """delta(x) - x(x)1 - 1(x)x on the positive part."""
    if e.unit:
        raise ValueError("reduced coproduct applies to the positive part")
    one, tensor = DendElement.one(), TensorSquareElement.from_product
    return coproduct(e) - tensor(e, one) - tensor(one, e)


def compat_defect(x: DendElement, y: DendElement, side: str) -> TensorSquareElement:
    """delta(x # y) minus the Sweedler expansion (x1*y1)(x)(x2 # y2)
    + (x # y)(x)1, the ghost term with both right legs 1 omitted.
    side is '<' or '>'."""
    if side not in ("<", ">"):
        raise ValueError("side must be '<' or '>', got %r" % (side,))
    if x.unit or y.unit:
        raise ValueError("compatibility is stated on the positive part")
    op = dprec if side == "<" else dsucc
    prod = op(x, y)
    sweedler = [(TensorSquareElement.from_product(prod, DendElement.one()), 1)]
    delta_y = coproduct(y).terms.items()
    for (x1, x2), a in coproduct(x).terms.items():
        for (y1, y2), b in delta_y:
            if x2.is_leaf() and y2.is_leaf():
                continue
            left = dstar(DendElement.from_tree(x1), DendElement.from_tree(y1))
            right = op(DendElement.from_tree(x2), DendElement.from_tree(y2))
            sweedler.append((TensorSquareElement.from_product(left, right), a * b))
    return coproduct(prod) - TensorSquareElement.sum(sweedler)


def primitives(degree: int, alphabet) -> list:
    """Basis of the primitive part of the given degree, in reduced
    echelon form over the canonical tree order."""
    if degree < 1:
        raise ValueError("degree must be at least 1, got %r" % (degree,))
    if isinstance(alphabet, int):
        alphabet = generator_names(alphabet)
    # expression-string order puts the < combs first, so the echelon
    # pivots land on them and printed bases read like a<a - a>a
    basis = sorted(pbt_basis(degree, alphabet), key=pbt_expr)
    images = [reduced_coproduct(DendElement.from_tree(t)) for t in basis]
    return [DendElement(v) for v in kernel_basis(basis, images)]
