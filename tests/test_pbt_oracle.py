"""Differential test of the hash-consed binary trees against the ones
they replaced.

The oracle below is a copy of the decorated binary trees from before
nodes were hash-consed: ``PBT`` with string equality and an eagerly
computed ``_hash``, ``_Leaf`` with its own ``__eq__``/``__hash__``, the
tree products ``_tree_prec``, ``_tree_succ`` and ``_tree_star``, the
unit rule ``_unit_star`` and the coproduct recursion ``_delta_tree``.
It is verbatim, on the package's ``LinComb``, and shares no cache with
the package.  Every product of two trees of degree at most 4 over two
letters, and the coproduct of each such tree, must print alike in both.

The identity contract of the new trees is checked beside it: building a
tree, parsing its print form and relabelling it back all return the
node that already exists, and so do the trees in the product cache.
"""

from functools import lru_cache
from itertools import product

from treealg import bialgebra as new_bialgebra
from treealg import dendriform as new_dendriform
from treealg import trees as new_trees
from treealg.linalg import LinComb

NEW_TREES = [t for d in range(1, 5) for t in new_trees.pbt_basis(d, ["a", "b"])]


class PBT:
    """Planar binary tree with generator-decorated internal nodes.

    LEAF is the unique empty tree (degree 0); it stands for the unit
    when a node slot is vacant and never occurs as a basis element.
    """

    __slots__ = ("left", "label", "right", "_str", "_hash", "degree")

    def __init__(self, left, label, right):
        self.left = left
        self.label = label
        self.right = right
        self._str = "(%s %s %s)" % (left._str, label, right._str)
        self._hash = hash(self._str)
        self.degree = left.degree + 1 + right.degree

    def __str__(self):
        return self._str

    def __repr__(self):
        return "PBT(%r)" % self._str

    def __eq__(self, other):
        return isinstance(other, (PBT, _Leaf)) and self._str == other._str

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self._str < other._str

    def is_leaf(self):
        return False


class _Leaf:
    __slots__ = ()
    _str = "*"
    degree = 0
    label = None

    def __str__(self):
        return "*"

    def __repr__(self):
        return "LEAF"

    def __eq__(self, other):
        return other is self or (isinstance(other, _Leaf))

    def __hash__(self):
        return hash("*")

    def __lt__(self, other):
        return "*" < other._str

    def is_leaf(self):
        return True


LEAF = _Leaf()


@lru_cache(maxsize=None)
def _tree_prec(t: PBT, s: PBT) -> LinComb:
    if t.right.is_leaf():
        rs = {s: 1}
    else:
        rs = _tree_star(t.right, s).terms
    return LinComb((PBT(t.left, t.label, u), c) for u, c in rs.items())


@lru_cache(maxsize=None)
def _tree_succ(t: PBT, s: PBT) -> LinComb:
    if s.left.is_leaf():
        tl = {t: 1}
    else:
        tl = _tree_star(t, s.left).terms
    return LinComb((PBT(u, s.label, s.right), c) for u, c in tl.items())


@lru_cache(maxsize=None)
def _tree_star(t: PBT, s: PBT) -> LinComb:
    return _tree_prec(t, s) + _tree_succ(t, s)


def _unit_star(t, s):
    """1*s = s, t*1 = t."""
    return {s if t.is_leaf() else t: 1}


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
                star = _tree_star(l1, r1).terms
            parts.append(({(u, right): cu for u, cu in star.items()}, a * b))
    return LinComb.sum(parts)


def old_tree(t):
    """The oracle's copy of a package tree."""
    if t.is_leaf():
        return LEAF
    return PBT(old_tree(t.left), t.label, old_tree(t.right))


OLD_TREES = [old_tree(t) for t in NEW_TREES]


def interned(t):
    """t and each of its subtrees is the node the table holds."""
    if t.is_leaf():
        return t is new_trees.LEAF
    key = (t.left, t.label, t.right)
    return new_trees.PBT._nodes.get(key) is t and interned(t.left) and interned(t.right)


def test_products_print_as_the_old_ones():
    pairs = list(zip(NEW_TREES, OLD_TREES))
    assert len(pairs) == 2 + 8 + 40 + 224
    for (t, ot), (s, os) in product(pairs, repeat=2):
        assert str(new_dendriform._tree_prec(t, s)) == str(_tree_prec(ot, os))
        assert str(new_dendriform._tree_succ(t, s)) == str(_tree_succ(ot, os))
        assert str(new_dendriform._tree_star(t, s)) == str(_tree_star(ot, os))


def test_coproduct_prints_as_the_old_one():
    for t, ot in zip(NEW_TREES, OLD_TREES):
        new = new_bialgebra.coproduct(new_dendriform.DendElement.from_tree(t))
        assert str(new) == str(new_bialgebra.TensorSquareElement(_delta_tree(ot)))


def test_equal_trees_are_one_node():
    rename = {"a": "x", "b": "y"}
    back = {v: k for k, v in rename.items()}
    for t in NEW_TREES:
        assert new_trees.PBT(t.left, t.label, t.right) is t
        assert new_trees.parse_pbt(str(t)) is t
        assert t.relabel(rename).relabel(back) is t
        assert interned(t)


def test_product_cache_holds_table_nodes():
    # the trees of degree 1 to 3, whose products reach degree 6
    for t, s in product(NEW_TREES[:50], repeat=2):
        for u in new_dendriform._tree_prec(t, s).terms:
            assert interned(u)
