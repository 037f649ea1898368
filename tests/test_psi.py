"""psi_evaluator keeps the value of each planar subtree for one argument
list; psi_eval is one call of it.  The oracle is the recursion it
replaced, copied verbatim below, which evaluates every tree from
scratch.  The psi-morphism suite reads its right side as
_graft(psi(T), i, psi(S)); the last test checks that against the oracle
with psi(S) in the slot i."""

from fractions import Fraction
from itertools import combinations

import pytest

from treealg.dendriform import DendElement, dprec, dsucc, psi_corolla, psi_eval, psi_evaluator
from treealg.linalg import LinComb
from treealg.operads import _graft, compose_ape, phi
from treealg.trees import PlanarTree, parse_planar, planar_trees, rooted_trees


def old_psi_eval(op, args) -> DendElement:
    """Evaluate a planar-tree operation in the free dendriform algebra.

    op is a PlanarTree or a LinComb of them, with vertex labels 1..n;
    args[i] substitutes for label str(i+1).  A tree acts through its
    unique decomposition into corollas grafted at leaves: the root
    corolla applies to (root argument, values of the child subtrees).
    """
    combo = LinComb.single(op) if isinstance(op, PlanarTree) else op
    assign = {str(i + 1): x for i, x in enumerate(args)}
    return DendElement.sum((_old_psi_tree(t, assign), c) for t, c in combo.terms.items())


def _old_psi_tree(t: PlanarTree, assign) -> DendElement:
    root = assign[t.label]
    if not t.children:
        return root
    vals = [_old_psi_tree(c, assign) for c in t.children]
    return psi_corolla([root] + vals)


def _gens(n):
    return [DendElement.generator(str(i)) for i in range(1, n + 1)]


A, B, C = (DendElement.generator(x) for x in "abc")
# arguments that are not generators: a sum with a Fraction, a product,
# a corolla image and a generator
MIXED = [C, A + B.scale(Fraction(1, 2)), dprec(A, B) - dsucc(B, C), psi_corolla([A, B]), B]


def _labelled_trees(max_vertices):
    """Every planar tree on a set of labels from 1..max_vertices."""
    labels = [str(i) for i in range(1, max_vertices + 1)]
    return [t for k in range(1, max_vertices + 1) for ls in combinations(labels, k) for t in planar_trees(ls)]


def test_psi_matches_old_on_every_tree_to_five_vertices():
    trees = _labelled_trees(5)
    args = _gens(5)
    psi = psi_evaluator(args)
    # largest first, so the smaller trees are read from the memo
    for t in reversed(trees):
        assert psi(t) == old_psi_eval(t, args), t
    assert all(psi_eval(t, args) == old_psi_eval(t, args) for t in trees[:40])


def test_psi_matches_old_on_arguments_that_are_not_generators():
    # one tree evaluated on two argument lists in turn: a memo that
    # outlived its arguments would return the first list's values
    path = parse_planar("1(2(3))")
    assert psi_eval(path, [C, A, B]) == psi_corolla([C, psi_corolla([A, B])])
    assert psi_eval(path, MIXED[:3]) == old_psi_eval(path, MIXED[:3])
    for args in (MIXED, _gens(5), MIXED[::-1]):
        psi = psi_evaluator(args)
        for t in _labelled_trees(4):
            assert psi(t) == old_psi_eval(t, args), (t, args)


def test_psi_matches_old_on_compositions_and_symmetrizations():
    for p in range(1, 4):
        for q in range(1, 6 - p):
            args = MIXED if p + q == 5 else _gens(p + q)
            psi = psi_evaluator(args)
            for T in planar_trees([str(i) for i in range(1, p + 1)]):
                for S in planar_trees([str(i) for i in range(p + 1, p + q + 1)]):
                    for i in range(1, p + 1):
                        combo = compose_ape(T, str(i), S)
                        assert psi(combo) == old_psi_eval(combo, args), (T, S, i)
    for n in range(1, 5):
        args = MIXED[:n]
        psi = psi_evaluator(args)
        for t in rooted_trees([str(i) for i in range(1, n + 1)]):
            assert psi(phi(t)) == old_psi_eval(phi(t), args), t
    combo = LinComb([(parse_planar("1(2,3)"), 3), (parse_planar("2(3(1))"), Fraction(-1, 2))])
    assert psi_eval(combo, MIXED[:3]) == old_psi_eval(combo, MIXED[:3])


def test_graft_of_psi_images_is_psi_with_psi_in_the_slot():
    for p in range(1, 5):
        for q in range(1, 6 - p):
            gens = _gens(p + q)
            psi = psi_evaluator(gens)
            for T in planar_trees([str(i) for i in range(1, p + 1)]):
                for S in planar_trees([str(i) for i in range(p + 1, p + q + 1)]):
                    inner = old_psi_eval(S, gens)
                    for i in range(1, p + 1):
                        expected = old_psi_eval(T, gens[: i - 1] + [inner] + gens[i:p])
                        assert _graft(psi(T), str(i), psi(S)) == expected, (T, S, i)


@pytest.mark.parametrize("text, args", [("1(2)", [A]), ("1", []), ("2", [A]), ("1(3,2)", [A, B])])
def test_a_label_with_no_argument_raises_value_error(text, args):
    label = max(parse_planar(text).labels())
    with pytest.raises(ValueError, match="label '%s'" % label):
        psi_eval(parse_planar(text), args)
