"""Coproduct on the unital free dendriform algebra, compatibility
defects of the two half-products, and primitive elements.

The coproduct follows the structural recursion on the decomposition
t = x v y of a basis tree:

    delta(t) = t(x)1 + sum (x1 * y1) (x) (x2 v y2),

with delta(1) = 1(x)1.  The Sweedler sums in the compatibility checks
omit the unique ghost term whose both right legs are the unit.
"""

from functools import lru_cache

from treealg.linalg import LinComb, _from_terms, add_into, kernel_basis
from treealg.trees import LEAF, generator_names, pbt_basis
from treealg.dendriform import (
    _PRODUCTS,
    DendElement,
    _nodes,
    _tree_star,
    _unit_star,
    pbt_expr,
    product_sum,
)


class TensorSquareElement(LinComb):
    """Rational combination of ordered pairs (left, right) of basis
    trees, LEAF standing for a unit leg, as in DendElement."""

    __slots__ = ()

    @classmethod
    def from_product(cls, x: DendElement, y: DendElement):
        """x (x) y for two algebra elements.  The pairs of terms are
        distinct keys and a product of nonzero coefficients is nonzero,
        so the dict is built as it is stored."""
        ys = y.terms.items()
        return _from_terms(cls, {(t, s): a * b for t, a in x.terms.items() for s, b in ys})

    def map_legs(self, f):
        """Apply the linear map given by f on basis trees (LEAF
        included), f(t) a DendElement, to both legs.

        The terms are grouped by left leg l: sum c*f(r) over the group
        goes into one dict, and f(l) (x) that sum into the result.  f is
        called once per distinct leg."""
        images = {}
        by_left = {}
        for (l, r), c in self.terms.items():
            image = images.get(r)
            if image is None:
                image = images[r] = f(r).terms
            right = by_left.get(l)
            if right is None:
                right = by_left[l] = {}
            add_into(right, c, image)
        out = {}
        for l, right in by_left.items():
            image = images.get(l)
            if image is None:
                image = images[l] = f(l).terms
            for u, a in image.items():
                add_into(out, a, {(u, v): b for v, b in right.items()})
        return _from_terms(TensorSquareElement, out)

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
    if t is LEAF:
        return LinComb.single((LEAF, LEAF))
    d = {(t, LEAF): 1}
    get = d.get
    label = t.label
    delta_right = _delta_tree(t.right).terms.items()
    for (l1, l2), a in _delta_tree(t.left).terms.items():
        for (r1, r2), b in delta_right:
            right = _nodes[l2, label, r2]
            k = a * b
            for u in _unit_star(l1, r1) if l1 is LEAF or r1 is LEAF else _tree_star(l1, r1):
                w = get((u, right), 0) + k
                if w:
                    d[u, right] = w
                else:
                    del d[u, right]
    return _from_terms(LinComb, d)


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
    side is '<' or '>'.

    Both sums are accumulated as one dict of tensor terms from the
    terms of _delta_tree and the cached tree products, with the unit
    rules at LEAF, as in product_sum."""
    if side not in ("<", ">"):
        raise ValueError("side must be '<' or '>', got %r" % (side,))
    if x.unit or y.unit:
        raise ValueError("compatibility is stated on the positive part")
    tree_op, unit_rule = _PRODUCTS[side]
    prod = product_sum(((x, side, y, 1),))
    d = {}
    for u, c in prod.terms.items():
        add_into(d, c, _delta_tree(u).terms)
    add_into(d, -1, {(u, LEAF): c for u, c in prod.terms.items()})
    delta_y = [(k, c * b) for s, c in y.terms.items() for k, b in _delta_tree(s).terms.items()]
    get = d.get
    for t, c in x.terms.items():
        for (x1, x2), a in _delta_tree(t).terms.items():
            ca = -c * a
            for (y1, y2), b in delta_y:
                if x2 is not LEAF and y2 is not LEAF:
                    rights = tree_op(x2, y2)
                elif x2 is y2:
                    continue  # the ghost term
                else:
                    rights = unit_rule(x2, y2)
                lefts = _unit_star(x1, y1) if x1 is LEAF or y1 is LEAF else _tree_star(x1, y1)
                k = ca * b
                for u in lefts:
                    for v in rights:
                        w = get((u, v), 0) + k
                        if w:
                            d[u, v] = w
                        else:
                            del d[u, v]
    return _from_terms(TensorSquareElement, d)


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
