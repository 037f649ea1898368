import copy
import pickle
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from treealg.dendriform import DendElement, dstar
from treealg.linalg import LinComb
from treealg.trees import (
    LABEL_RE,
    LEAF,
    PBT,
    Angle,
    DuplicateLabelError,
    ParseError,
    angles,
    catalan,
    generator_names,
    parse_pbt,
    parse_planar,
    parse_rooted,
    pbt_basis,
    pbt_shapes,
    planar_shapes,
    planar_trees,
    rooted_trees,
    to_rooted,
    weighted_pbt_basis,
)


def catalan_oracle(n):
    """The recursion C_n = sum C_i C_{n-1-i}, independent of catalan()."""
    vals = [1]
    for k in range(1, n + 1):
        vals.append(sum(vals[i] * vals[k - 1 - i] for i in range(k)))
    return vals[n]


def cayley_count_oracle(n):
    """Rooted labeled trees on n vertices by brute-force parent maps."""
    count = 0
    for root in range(n):
        others = [v for v in range(n) if v != root]
        for parents in product(range(n), repeat=len(others)):
            parent = dict(zip(others, parents))
            ok = True
            for v in others:
                seen = set()
                w = v
                while w != root:
                    if w in seen or w not in parent:
                        ok = False
                        break
                    seen.add(w)
                    w = parent[w]
                if not ok:
                    break
            if ok:
                count += 1
    return count


def test_parse_planar_example():
    t = parse_planar("1(2,3)")
    assert t.label == "1" and [c.label for c in t.children] == ["2", "3"]
    assert str(t) == "1(2,3)"


def test_parse_nonplanar_sorts():
    assert str(parse_rooted("1(3,2)")) == "1(2,3)"


def test_planar_and_rooted_trees_stay_distinct():
    p, r = parse_planar("1(2,3)"), parse_rooted("1(2,3)")
    assert str(p) == str(r) and hash(p) == hash(r)
    assert p != r and r != p
    assert (repr(p), repr(r)) == ("PlanarTree('1(2,3)')", "RootedTree('1(2,3)')")
    assert len(LinComb([(p, 1), (r, 1)]).terms) == 2
    assert to_rooted(p) == r


def test_parse_pbt_example():
    t = parse_pbt("(* a (* b *))")
    assert t.left is LEAF and t.label == "a" and t.right.label == "b"
    assert str(t) == "(* a (* b *))"


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_planar("1(2,,3)")
    with pytest.raises(ParseError):
        parse_planar("1(2")
    with pytest.raises(DuplicateLabelError):
        parse_planar("1(2,2)")
    with pytest.raises(ParseError):
        parse_pbt("(* a *")


def test_angles_single_vertex():
    assert angles(parse_planar("1")) == [Angle("1", 0)]


def test_angles_corolla():
    assert len(angles(parse_planar("1(2,3)"))) == 5


def test_angles_six_vertex_tree():
    # any 6-vertex planar tree has 11 angles
    assert len(angles(parse_planar("4(5(6,7),8(9))"))) == 11


def test_angles_count_exhaustive():
    for v in range(1, 8):
        for t in planar_shapes(v):
            assert len(angles(t)) == 2 * v - 1


def test_angle_order_at_one_vertex_is_slot_order():
    t = parse_planar("1(2(4),3,5)")
    for v in t.labels():
        slots = [a.slot for a in angles(t) if a.vertex == v]
        assert slots == sorted(slots)


def test_planar_shape_counts():
    assert len(planar_shapes(3)) == 2
    for n in range(1, 8):
        assert len(planar_shapes(n)) == catalan_oracle(n - 1)
    assert {str(t) for t in planar_shapes(3)} == {"1(2(3))", "1(2,3)"}
    # by the size of the root's first subtree, then by that subtree's
    # shape, then by the shapes of the rest
    assert [str(t) for t in planar_shapes(4)] == [
        "1(2,3,4)", "1(2,3(4))", "1(2(3),4)", "1(2(3,4))", "1(2(3(4)))"
    ]


def test_labeled_rooted_trees_cayley():
    for n in range(1, 5):
        labels = [str(i) for i in range(1, n + 1)]
        assert len(rooted_trees(labels)) == cayley_count_oracle(n)
        assert len(rooted_trees(labels)) == n ** (n - 1)


def test_pbt_shape_counts():
    for n in range(0, 8):
        assert len(pbt_shapes(n)) == catalan_oracle(n)
    assert len(pbt_shapes(4)) == 14


def test_planar_labeled_count():
    assert planar_trees([]) == []
    assert len(planar_trees(["1", "2", "3"])) == catalan(2) * 6
    # by shape in planar_shapes order, then by the labels in preorder, in
    # itertools.permutations order
    for n in range(1, 6):
        labels = [str(i) for i in range(1, n + 1)]
        spec = [
            shape.relabel(dict(zip(labels, perm)))
            for shape in planar_shapes(n)
            for perm in permutations(labels)
        ]
        assert planar_trees(labels) == spec


def test_parse_print_roundtrip_enumerated():
    for n in range(1, 7):
        for t in planar_shapes(n):
            assert parse_planar(str(t)) == t
    for n in range(1, 5):
        for t in planar_trees([str(i) for i in range(1, n + 1)]):
            assert parse_planar(str(t)) == t
        for t in rooted_trees([str(i) for i in range(1, n + 1)]):
            assert parse_rooted(str(t)) == t
    for n in range(1, 7):
        for t in pbt_shapes(n):
            assert parse_pbt(str(t)) == t
    for t in pbt_basis(3, ["a", "b"]):
        assert parse_pbt(str(t)) == t


def test_nonplanar_canonicalization_permutation_invariant():
    # all planar embeddings of one rooted tree canonicalize identically
    groups = {}
    for t in planar_trees(["1", "2", "3"]):
        groups.setdefault(to_rooted(t), set()).add(t)
    assert len(groups) == 9


def test_relabel_roundtrip():
    t = parse_planar("1(2(4),3)")
    mapping = {"1": "x", "2": "y", "3": "z", "4": "w"}
    back = {v: k for k, v in mapping.items()}
    assert t.relabel(mapping).relabel(back) == t


def test_pbt_labels_must_be_strings():
    # trees are one node per (left, label, right), so a label 1 and a
    # label "1" would give two distinct trees that print alike
    one = PBT(LEAF, "1", LEAF)
    for label in (1, 1.0, None, ("1",)):
        with pytest.raises(TypeError):
            PBT(LEAF, label, LEAF)
        with pytest.raises(TypeError):
            PBT(one, label, LEAF)
        # the table builds every node, so a direct lookup checks too
        with pytest.raises(TypeError):
            PBT._nodes[LEAF, label, LEAF]
    assert PBT(LEAF, "1", LEAF) is one


def interned(t):
    """t and each of its subtrees is the node the table holds."""
    if t.is_leaf():
        return t is LEAF
    return PBT._nodes.get((t.left, t.label, t.right)) is t and interned(t.left) and interned(t.right)


def test_equal_trees_are_one_node():
    rename = {"a": "x", "b": "y"}
    back = {v: k for k, v in rename.items()}
    for t in (t for d in range(1, 5) for t in pbt_basis(d, ["a", "b"])):
        assert PBT(t.left, t.label, t.right) is t
        assert parse_pbt(str(t)) is t
        assert t.relabel(rename).relabel(back) is t
        assert interned(t)
    basis = pbt_basis(5, ["a", "b"])
    size = len(PBT._nodes)
    assert pbt_basis(5, ["a", "b"]) == basis and len(PBT._nodes) == size


def eager_str(t):
    """The printed form as the constructor built it, "(left label right)"
    from the printed children, computed here from scratch."""
    if t is LEAF:
        return "*"
    return "(%s %s %s)" % (eager_str(t.left), t.label, eager_str(t.right))


def test_printed_form_on_first_use_is_the_eager_one():
    # the printed form is built when first read, children first; it must
    # be the string the constructor used to build, and sort the same;
    # on letters no other test uses, < is the first to read it
    for alphabet in (["a", "b"], ["print_p", "print_q"]):
        trees = [t for d in range(1, 6) for t in pbt_basis(d, alphabet)]
        assert sorted([*trees, LEAF]) == sorted([*trees, LEAF], key=eager_str)
        expected = [eager_str(t) for t in trees]
        assert [str(t) for t in trees] == expected
        assert [repr(t) for t in trees] == ["PBT(%r)" % e for e in expected]
    # combs far deeper than the recursion limit print too
    n = 2000
    left = right = LEAF
    for _ in range(n):
        left = PBT(left, "a", LEAF)
        right = PBT(LEAF, "a", right)
    assert str(left) == "(" * n + "*" + " a *)" * n
    assert str(right) == "(* a " * n + "*" + ")" * n
    assert repr(left) == "PBT(%r)" % str(left)
    assert left < right and not right < left


def test_generator_names():
    names = generator_names(30)
    assert names[:26] == list("abcdefghijklmnopqrstuvwxyz")
    assert len(set(names)) == 30
    assert all(LABEL_RE.fullmatch(a) and a != "1" for a in names)


@pytest.mark.parametrize("alphabet", [["a"], ["a", "b"], ["a", "b", "c"]])
def test_pbt_basis_order(alphabet):
    # by shape in pbt_shapes order, then by decoration word in
    # itertools.product order; each tree is its shape, whose infix labels
    # are 1..d, relabelled by its word
    for d in range(1, 7):
        spec = [
            shape.relabel({str(i + 1): a for i, a in enumerate(word)})
            for shape in pbt_shapes(d)
            for word in product(alphabet, repeat=d)
        ]
        assert pbt_basis(d, alphabet) == spec


def test_weighted_pbt_basis_matches_flat_weights():
    flat = weighted_pbt_basis(["a", "b"], {"a": 1, "b": 1}, 3)
    plain = [t for d in range(1, 4) for t in pbt_basis(d, ["a", "b"])]
    assert sorted(map(str, flat)) == sorted(map(str, plain))


def test_weighted_pbt_basis_respects_weights():
    out = weighted_pbt_basis(["a", "b"], {"a": 1, "b": 2}, 2)
    degs = sorted(
        sum({"a": 1, "b": 2}[x] for x in t.decorations()) for t in out
    )
    assert degs == [1, 2, 2, 2]  # a; b; a<a; a>a


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_pbt_infix_decorations(n, data):
    shapes = pbt_shapes(n)
    t = shapes[data.draw(st.integers(min_value=0, max_value=len(shapes) - 1))]
    assert t.decorations() == [str(i) for i in range(1, n + 1)]


def test_copies_and_pickles_are_the_interned_tree():
    # equality of trees is identity, so a copy or an unpickled tree must
    # be the node of the table, and the empty tree must be LEAF
    round_trips = (copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t)))
    trees = [LEAF] + [t for d in range(1, 6) for t in pbt_basis(d, ["a", "b"])[:: 7 * d]]
    for t in trees:
        for f in round_trips:
            assert f(t) is t
    a = DendElement.generator("a")
    x = DendElement.from_tree(parse_pbt("((* b *) a *)")) + a.scale(3)
    for u in (DendElement.one(), a, x):
        for f in round_trips[1:]:
            c = f(u)
            assert c == u
            assert dstar(c, a) == dstar(u, a) and dstar(a, c) == dstar(a, u)
