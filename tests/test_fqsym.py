"""The tree layer checked against an independent model: the
Loday-Ronco embedding phi of the free dendriform algebra into FQSym
(Loday-Ronco, "Hopf algebra of the planar binary trees", 1998; see
also Aguiar-Sottile, "Structure of the Loday-Ronco Hopf algebra of
trees").

A basis word is a tuple of (value, letter) pairs whose values form a
permutation; u < v sums the shuffles of u with v shifted by |u| that
end in a letter of u, u > v is the rest of the shuffle, and the
coproduct is w -> sum std(prefix) (x) std(suffix).  phi sends
t = left > (label < right) to phi(left) > ((1, label) < phi(right)).
The model shares no code with the package's products or coproduct;
LinComb and Span serve only as containers.  Over the letters a, b: phi
is a morphism of <, > and * on every pair of trees of degree sum <= 4,
injective in each degree <= 5 (so the morphism check determines the
products), and it carries the coproduct of every tree of degree <= 5
to the deconcatenation of its image.
"""

from functools import lru_cache

from treealg.bialgebra import coproduct
from treealg.dendriform import DendElement, dprec, dstar, dsucc
from treealg.linalg import LinComb, Span
from treealg.trees import pbt_basis

TREES = {d: pbt_basis(d, ["a", "b"]) for d in range(1, 6)}


def shuffles(u, v):
    """Every interleaving of the words u and v, with multiplicity."""
    if not u or not v:
        yield u + v
        return
    for w in shuffles(u[:-1], v):
        yield w + u[-1:]
    for w in shuffles(u, v[:-1]):
        yield w + v[-1:]


def shift(v, n):
    return tuple((value + n, letter) for value, letter in v)


def prec(u, v):
    """u < v on two non-empty words: the shifted shuffles ending in u."""
    return LinComb((w + u[-1:], 1) for w in shuffles(u[:-1], shift(v, len(u))))


def succ(u, v):
    """u > v on two non-empty words: the shifted shuffles ending in v."""
    return LinComb((w, 1) for w in shuffles(u, shift(v, len(u)))) - prec(u, v)


def star(u, v):
    return prec(u, v) + succ(u, v)


def bilinear(op, x, y):
    return LinComb.sum((op(u, v), a * b) for u, a in x.terms.items() for v, b in y.terms.items())


def std(w):
    rank = {value: i + 1 for i, value in enumerate(sorted(value for value, _ in w))}
    return tuple((rank[value], letter) for value, letter in w)


def delta(x):
    """std-deconcatenation, extended linearly."""
    return LinComb.sum(
        (LinComb(((std(w[:i]), std(w[i:])), 1) for i in range(len(w) + 1)), c) for w, c in x.terms.items()
    )


@lru_cache(maxsize=None)
def phi(t):
    """The image of a tree (the empty tree is the unit) in FQSym."""
    if t.is_leaf():
        return LinComb.single(())
    a = LinComb.single(((1, t.label),))
    inner = a if t.right.is_leaf() else bilinear(prec, a, phi(t.right))
    return inner if t.left.is_leaf() else bilinear(succ, phi(t.left), inner)


def phi_linear(x):
    return LinComb.sum((phi(t), c) for t, c in x.terms.items())


def phi_tensor(x):
    """phi (x) phi on a combination of pairs of trees."""
    return LinComb.sum(
        (LinComb(((u, v), a * b) for u, a in phi(l).terms.items() for v, b in phi(r).terms.items()), c)
        for (l, r), c in x.terms.items()
    )


def test_phi_is_a_morphism_of_both_products():
    pairs = [
        (t, s) for d in range(1, 4) for e in range(1, 5 - d) for t in TREES[d] for s in TREES[e]
    ]
    assert len(pairs) == 260
    for t, s in pairs:
        x, y = DendElement.from_tree(t), DendElement.from_tree(s)
        for ours, model in ((dprec, prec), (dsucc, succ), (dstar, star)):
            assert phi_linear(ours(x, y)) == bilinear(model, phi(t), phi(s)), (ours.__name__, t, s)


def test_phi_is_injective_in_each_degree():
    ranks = []
    for d in range(1, 6):
        images = [phi(t) for t in TREES[d]]
        span = Span(sorted({w for x in images for w in x.terms}))
        for x in images:
            span.insert(x)
        ranks.append(span.rank)
    assert ranks == [2, 8, 40, 224, 1344]


def test_phi_intertwines_the_coproducts():
    trees = [t for d in TREES for t in TREES[d]]
    assert len(trees) == 1618
    for t in trees:
        assert phi_tensor(coproduct(DendElement.from_tree(t))) == delta(phi(t)), t

