"""Differential tests of the shared tree-operad code against the code it
replaced.

PlanarTree and RootedTree used to be two copies of one class, and the
planar and non-planar compositions each repeated the vertex lookup, the
label check, the substitution and the bilinear extension.  The old_* functions below are
verbatim copies of the replaced code, renamed so they call each other.
"""

from itertools import combinations_with_replacement, product

import pytest

from treealg.linalg import LinComb
from treealg.operads import _as_combo, compose_ape, compose_prelie
from treealg.trees import (
    PlanarTree,
    RootedTree,
    angles,
    parse_planar,
    parse_rooted,
    planar_trees,
    rooted_trees,
)


def old_compose_ape_trees(outer: PlanarTree, at, inner: PlanarTree):
    """All graftings of the entering edges of `at` onto angles of inner,
    one tree per weakly increasing assignment."""
    node = outer.find(at)
    if node is None:
        raise KeyError("no vertex %r in %s" % (at, outer))
    clash = (outer.label_set() - {at}) & inner.label_set()
    if clash:
        raise ValueError("label collision %s between %s and %s" % (sorted(clash), outer, inner))
    entering = node.children
    k = len(entering)
    angle_list = angles(inner)

    def rebuild(s, insertions):
        parts = list(insertions.get((s.label, 0), ()))
        for i, c in enumerate(s.children):
            parts.append(rebuild(c, insertions))
            parts.extend(insertions.get((s.label, i + 1), ()))
        return PlanarTree(s.label, parts)

    def substitute(t, replacement):
        if t.label == at:
            return replacement
        return PlanarTree(t.label, [substitute(c, replacement) for c in t.children])

    out = []
    for combo in combinations_with_replacement(range(len(angle_list)), k):
        insertions = {}
        for child, ai in zip(entering, combo):
            insertions.setdefault(tuple(angle_list[ai]), []).append(child)
        grafted = rebuild(inner, insertions)
        out.append(substitute(outer, grafted))
    return out


def old_compose_ape(outer, at, inner) -> LinComb:
    """Planar-tree operad composition, extended bilinearly.

    Every weakly increasing map from the entering edges of `at` to the
    angles of the inner tree contributes one grafting; edges sharing an
    angle keep their left-to-right order.
    """
    out = LinComb()
    for t, a in _as_combo(outer).terms.items():
        for s, b in _as_combo(inner).terms.items():
            out = out + LinComb((u, 1) for u in old_compose_ape_trees(t, at, s)).scale(a * b)
    return out


def old_compose_prelie_trees(outer: RootedTree, at, inner: RootedTree):
    node = outer.find(at)
    if node is None:
        raise KeyError("no vertex %r in %s" % (at, outer))
    clash = (outer.label_set() - {at}) & inner.label_set()
    if clash:
        raise ValueError("label collision %s between %s and %s" % (sorted(clash), outer, inner))
    entering = node.children
    vertices = inner.labels()

    def rebuild(s, attach):
        parts = [rebuild(c, attach) for c in s.children]
        parts.extend(attach.get(s.label, ()))
        return RootedTree(s.label, parts)

    def substitute(t, replacement):
        if t.label == at:
            return replacement
        return RootedTree(t.label, [substitute(c, replacement) for c in t.children])

    out = []
    for choice in product(vertices, repeat=len(entering)):
        attach = {}
        for child, v in zip(entering, choice):
            attach.setdefault(v, []).append(child)
        out.append(substitute(outer, rebuild(inner, attach)))
    return out


def old_compose_prelie(outer, at, inner) -> LinComb:
    """Non-planar composition: entering edges graft onto arbitrary
    vertices of the inner tree, one term per assignment."""
    out = LinComb()
    for t, a in _as_combo(outer).terms.items():
        for s, b in _as_combo(inner).terms.items():
            out = out + LinComb(
                (u, 1) for u in old_compose_prelie_trees(t, at, s)
            ).scale(a * b)
    return out


def same(a: LinComb, b: LinComb):
    """Equal terms in the same order, with keys of the same class."""
    return list(a.terms.items()) == list(b.terms.items()) and all(
        type(x) is type(y) for x, y in zip(a.terms, b.terms)
    )


def labels(lo, hi):
    return [str(i) for i in range(lo, hi + 1)]


@pytest.mark.parametrize(
    "species, trees_on, new, old",
    [
        ("planar", planar_trees, compose_ape, old_compose_ape),
        ("nonplanar", rooted_trees, compose_prelie, old_compose_prelie),
    ],
)
def test_compositions_match_old_code_at_every_vertex(species, trees_on, new, old):
    checks = 0
    for p in range(1, 4):
        for q in range(1, 4):
            for outer in trees_on(labels(1, p)):
                for inner in trees_on(labels(p + 1, p + q)):
                    for v in outer.labels():
                        assert same(new(outer, v, inner), old(outer, v, inner)), (outer, v, inner)
                        checks += 1
    assert checks == {"planar": 41 * 15, "nonplanar": 32 * 12}[species]


@pytest.mark.parametrize(
    "parse, new, old",
    [
        (parse_planar, compose_ape, old_compose_ape),
        (parse_rooted, compose_prelie, old_compose_prelie),
    ],
)
def test_compositions_match_old_code_on_combinations_and_errors(parse, new, old):
    outer = LinComb([(parse("1(2,3)"), 2), (parse("1(3(2))"), -1)])
    inner = LinComb([(parse("4(5)"), 3), (parse("5(4)"), "1/2")])
    assert same(new(outer, "3", inner), old(outer, "3", inner))
    assert same(new(outer, "1", LinComb()), LinComb())
    for args in ((parse("1(2)"), "9", parse("3")), (parse("1(2,3)"), "2", parse("3(4)"))):
        with pytest.raises((KeyError, ValueError)) as got:
            new(*args)
        with pytest.raises((KeyError, ValueError)) as want:
            old(*args)
        assert (got.type, str(got.value)) == (want.type, str(want.value))
