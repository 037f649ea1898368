import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from pathlib import Path

import pytest

from treealg import dendriform, suites
from treealg.operads import ideal_closure
from treealg.suites import run_suite
from treealg.trees import LEAF, PBT, ParseError, parse_pbt, parse_planar, pbt_basis
from treealg.dendriform import (
    DEND_ONE,
    DendElement,
    DendSpan,
    UnitProductError,
    _tree_prec,
    _tree_star,
    _tree_succ,
    _unit_star,
    downcomb,
    dprec,
    dstar,
    dsucc,
    parse_expr,
    pbt_expr,
    pli,
    product_sum,
    psi_corolla,
    psi_eval,
    substitute,
    upcomb,
)

A = DendElement.generator("a")
B = DendElement.generator("b")
C = DendElement.generator("c")


def test_product_tree_forms():
    assert str(next(iter(dprec(A, A).terms))) == "(* a (* a *))"
    assert str(next(iter(dsucc(A, A).terms))) == "((* a *) a *)"


def test_unit_laws():
    assert dsucc(DEND_ONE, A) == A
    assert dprec(A, DEND_ONE) == A
    assert dprec(DEND_ONE, A).is_zero()
    assert dsucc(A, DEND_ONE).is_zero()
    assert dstar(DEND_ONE, DEND_ONE) == DEND_ONE


def test_unit_times_unit_undefined():
    with pytest.raises(UnitProductError):
        dprec(DEND_ONE, DEND_ONE)
    with pytest.raises(UnitProductError):
        dsucc(DEND_ONE, DEND_ONE)
    half = DendElement.one().scale(Fraction(1, 2))
    with pytest.raises(UnitProductError):
        dprec(half + A, DEND_ONE + B)


def test_unit_products_leave_the_tree_caches_alone(fresh_tree_caches):
    # a<b built from its tree, so that no product fills a cache
    x = DendElement.from_tree(parse_pbt("(* a (* b *))")) - A.scale(Fraction(1, 2))
    for op in (dprec, dsucc, dstar):
        op(DEND_ONE, x)
        op(x, DEND_ONE)
    assert dstar(DEND_ONE, DEND_ONE) == DEND_ONE
    assert [f.cache_info().currsize for f in fresh_tree_caches] == [0, 0, 0]


def test_wrong_star_alone_is_star_split(monkeypatch, fresh_tree_caches):
    # the axioms suite checks x*y = x<y + x>y on every pair it multiplies,
    # so a star product wrong on one pair is reported there, and only there
    a, b = parse_pbt("(* a *)"), parse_pbt("(* b *)")
    original = dendriform._tree_star

    def wrong_star(t, s):
        if t is a and s is b:
            return original(t, s) + (PBT(LEAF, "b", a),)
        return original(t, s)

    monkeypatch.setattr(dendriform, "_tree_star", wrong_star)
    monkeypatch.setitem(dendriform._PRODUCTS, "*", (wrong_star, _unit_star))
    splits = [d for d in run_suite("axioms", 4)["defects"] if d["axiom"] == "star-split"]
    assert splits == [{"axiom": "star-split", "pair": [str(a), str(b)]}]


# The axioms suite as it was when it summed each identity with
# product_sum: a verbatim copy, the oracle of the test below.
def old_suite_axioms(bound=5):
    """Dendriform axioms, unit laws, and associativity of the sum
    product on basis trees over two generators.

    Every triple (x, y, z) with degree sum at most bound is checked in
    Loday's form, one product_sum per identity:

        eq1          (x<y)<z - x<(y*z)
        eq2          (x>y)<z - x>(y<z)
        eq3          (x*y)>z - x>(y>z)
        star-assoc   (x*y)*z - x*(y*z)

    and every pair with degree sum below bound is checked to satisfy
    star-split, x*y = x<y + x>y.  The products are bilinear, so
    star-split on (y, z) and (x, y) turns the star form into the
    expanded one, x<(y*z) = x<(y<z) + x<(y>z) and
    (x*y)>z = (x<y)>z + (x>y)>z: the two check the same thing.  The
    unit laws are checked on every basis tree of degree at most bound.
    """
    defects = []
    trees = {d: pbt_basis(d, ["a", "b"]) for d in range(1, bound + 1)}
    basis = {d: [(t, DendElement.from_tree(t)) for t in trees[d]] for d in range(1, bound - 1)}
    degree_pairs = [(d1, d2) for d1, d2 in product(range(1, bound - 1), repeat=2) if d1 + d2 < bound]
    # x<y, x>y and x*y of every pair with degree sum below bound: the
    # products x.y and y.z of every triple
    table = {}
    for d1, d2 in degree_pairs:
        for t1, x in basis[d1]:
            for t2, y in basis[d2]:
                xy = table[t1, t2] = (dprec(x, y), dsucc(x, y), dstar(x, y))
                if xy[2] != xy[0] + xy[1]:
                    defects.append({"axiom": "star-split", "pair": [str(t1), str(t2)]})
    checked = 0
    for d1, d2 in degree_pairs:
        for d3 in range(1, bound - d1 - d2 + 1):
            for t1, x in basis[d1]:
                for t2, y in basis[d2]:
                    xy_prec, xy_succ, xy_star = table[t1, t2]
                    for t3, z in basis[d3]:
                        checked += 1
                        yz_prec, yz_succ, yz_star = table[t2, t3]
                        for name, parts in (
                            ("eq1", ((xy_prec, "<", z, 1), (x, "<", yz_star, -1))),
                            ("eq2", ((xy_succ, "<", z, 1), (x, ">", yz_prec, -1))),
                            ("eq3", ((xy_star, ">", z, 1), (x, ">", yz_succ, -1))),
                            ("star-assoc", ((xy_star, "*", z, 1), (x, "*", yz_star, -1))),
                        ):
                            if product_sum(parts).terms:
                                defects.append({"axiom": name, "triple": [str(t1), str(t2), str(t3)]})
    units_checked = 0
    for d in range(1, bound + 1):
        for t in trees[d]:
            x = DendElement.from_tree(t)
            units_checked += 1
            good = (
                dsucc(DEND_ONE, x) == x
                and dprec(x, DEND_ONE) == x
                and dprec(DEND_ONE, x).is_zero()
                and dsucc(x, DEND_ONE).is_zero()
            )
            if not good:
                defects.append({"axiom": "unit", "element": str(t)})
    return {"triples": checked, "unit_checks": units_checked}, defects


def _mutate(monkeypatch, mutants, unit=False, cached=False):
    """Replace each tree product op of mutants, or with unit set its unit
    rule, by mutants[op](original, u, v), with cached an lru_cache of
    it; return the defects of old_suite_axioms(5), after checking that
    the suite reports the same ones in the same order."""
    slot = 1 if unit else 0
    for op, mutated in mutants.items():
        rules = list(dendriform._PRODUCTS[op])
        rules[slot] = partial(mutated, rules[slot])
        if cached:
            rules[slot] = lru_cache(maxsize=None)(rules[slot])
        monkeypatch.setitem(dendriform._PRODUCTS, op, tuple(rules))
    expected = old_suite_axioms(5)[1]
    assert run_suite("axioms", 5)["defects"] == expected
    return expected


def _wrong_on(t, s, wrong):
    """A product that drops or repeats the first tree on the pair (t, s)."""

    def mutated(original, u, v):
        out = original(u, v)
        if u is t and v is s:
            return out[1:] if wrong == "drop" else out + out[:1]
        return out

    return mutated


@pytest.mark.parametrize("op", ["<", ">", "*"])
@pytest.mark.parametrize("wrong", ["drop", "repeat"])
def test_axioms_on_tuples_match_product_sum(monkeypatch, op, wrong):
    # the suite sums the cached tuples itself; with one product wrong on
    # one pair it must report what product_sum reports.  A repeated tree
    # has coefficient 2 in product_sum, so the suite must count trees,
    # not collect them into a set
    t, s = parse_pbt("(* a (* b *))"), parse_pbt("(* b *)")
    assert _mutate(monkeypatch, {op: _wrong_on(t, s, wrong)})


# The suite reads star-assoc off eq1-eq3 where every star tuple it would
# read splits into the < tuple and the > tuple, and sums it elsewhere.
# The products below are wrong where the six above do not reach, or
# break that split; each must still give what product_sum gives.


@pytest.mark.parametrize(
    "op, wrong, cached",
    [
        pytest.param("*", "drop", False, id="*-drop"),
        pytest.param("<", "repeat", False, id="<-repeat"),
        pytest.param("*", "drop", True, id="*-drop-cached"),
    ],
)
def test_axioms_wrong_at_the_top_degree_match_product_sum(monkeypatch, op, wrong, cached):
    # u, the tree of a<(b<(a<b)), and z = a have degree sum equal to the
    # bound, so u*z is read by star-assoc alone and u<z by the left side
    # of eq1 alone.  The split check reads a cached star through its
    # __wrapped__, which must be the wrong star itself
    u, z = parse_pbt("(* a (* b (* a (* b *))))"), parse_pbt("(* a *)")
    assert _mutate(monkeypatch, {op: _wrong_on(u, z, wrong)}, cached=cached)


def test_axioms_cache_no_top_degree_star(fresh_tree_caches):
    # the split check's stars of degree sum 5 are read once and not
    # stored: the star cache holds the tabled pairs, degree sum below 5
    run_suite("axioms", 5)
    sizes = {d: len(pbt_basis(d, ["a", "b"])) for d in range(1, 4)}
    tabled = sum(sizes[d1] * sizes[d2] for d1 in range(1, 4) for d2 in range(1, 5 - d1))
    assert [f.cache_info().currsize for f in fresh_tree_caches] == [1796, 1796, tabled]


@pytest.mark.parametrize("wrong", ["far", "drop"])
def test_axioms_prec_and_star_wrong_alike_match_product_sum(monkeypatch, wrong):
    # a<b and a*b gain the same degree-5 tree, or lose the same tree, so
    # the split holds on every pair.  With the far tree a tabled star
    # tuple leaves the basis of its degree; with the dropped one every
    # premise holds, and only eq1-eq3 failing on a triple sends
    # star-assoc to the sum there
    a, b = parse_pbt("(* a *)"), parse_pbt("(* b *)")
    far = parse_pbt("(* a (* b (* a (* b (* a *)))))")
    prec, succ = (dendriform._PRODUCTS[op][0] for op in "<>")

    def wrong_prec(original, u, v):
        out = original(u, v)
        if u is a and v is b:
            return out + (far,) if wrong == "far" else out[1:]
        return out

    def wrong_star(original, u, v):
        return wrong_prec(prec, u, v) + succ(u, v)

    assert _mutate(monkeypatch, {"<": wrong_prec, "*": wrong_star})


def test_axioms_star_wrong_off_the_basis_match_product_sum(monkeypatch, fresh_tree_caches):
    # the products carried along the swap of a<b with the tree c<b off
    # the basis form a dendriform algebra isomorphic to the free one, so
    # eq1-eq3 hold on every triple and the split on every basis pair;
    # (c<b)*a, read by star-assoc on (a, b, a) alone, is wrong.  Only
    # the basis check on a*b keeps the suite from deriving star-assoc
    u, w, a = parse_pbt("(* a (* b *))"), parse_pbt("(* c (* b *))"), parse_pbt("(* a *)")
    swap = {u: w, w: u}

    def carried(original, s, t):
        return tuple(swap.get(v, v) for v in original(swap.get(s, s), swap.get(t, t)))

    def star(original, s, t):
        out = carried(original, s, t)
        return out[1:] if s is w and t is a else out

    expected = _mutate(monkeypatch, {"<": carried, ">": carried, "*": star})
    assert expected == [{"axiom": "star-assoc", "triple": ["(* a *)", "(* b *)", "(* a *)"]}]


def test_axioms_sum_star_assoc_only_where_the_split_fails(monkeypatch):
    # with the free products eq1-eq3 decide star-assoc on every triple.
    # A star tuple that puts the > tuple before the < tuple breaks no
    # identity but every split, so star-assoc is summed on every triple
    calls = []
    sides_agree = suites._sides_agree

    def counted(*sides):
        calls.append(None)
        return sides_agree(*sides)

    monkeypatch.setattr(suites, "_sides_agree", counted)
    triples = run_suite("axioms", 5)["result"]["triples"]
    assert len(calls) == 3 * triples
    calls.clear()
    prec, succ = (dendriform._PRODUCTS[op][0] for op in "<>")
    assert _mutate(monkeypatch, {"*": lambda star, u, v: succ(u, v) + prec(u, v)}) == []
    assert len(calls) == 4 * triples


def test_sides_agree_is_multiset_equality(monkeypatch):
    # the specification: the two concatenated sides are equal as
    # multisets of trees, which Counter equality decides
    def spec(left, op, z, x, op2, right):
        a = Counter(w for u in left for w in op(u, z))
        return a == Counter(w for v in right for w in op2(x, v))

    w, v, t = parse_pbt("(* a *)"), parse_pbt("(* a (* b *))"), parse_pbt("((* b *) a *)")
    # each side is a list of chunks, and the product hands a chunk back
    # as a tuple, a list or a generator
    named = [
        ([(w, v, t)], [(t, w, v)], True),  # permuted
        ([(w,), (v, t)], [(t, w), (v,)], True),  # permuted across chunks
        ([(w, v)], [(w, v, v)], False),  # unequal lengths
        ([(w, w, v)], [(w, v, v)], False),  # same set, other multiplicities
        ([], [], True),  # empty sides
        ([()], [(), ()], True),
        ([], [(w,)], False),
    ]
    words = [seq for n in range(4) for seq in product((w, v, t), repeat=n)]
    cases = named + [
        (chunks(a), chunks(b), None)
        for a in words
        for b in words
        for chunks in (lambda s: [s], lambda s: [(u,) for u in s])
    ]
    for kind in (tuple, list, iter):
        op = lambda u, z: kind(u)
        op2 = lambda x, u: kind(u)
        for left, right, expected in cases:
            answer = suites._sides_agree(left, op, None, None, op2, right)
            assert answer == spec(left, op, None, None, op2, right)
            assert expected is None or answer is expected
    # every comparison the axioms suite makes, on the free products
    calls = []
    sides_agree = suites._sides_agree

    def recorded(*sides):
        calls.append(sides)
        return sides_agree(*sides)

    monkeypatch.setattr(suites, "_sides_agree", recorded)
    run_suite("axioms", 4)
    assert calls
    for sides in calls:
        assert sides_agree(*sides) == spec(*sides)


@pytest.mark.parametrize("op", ["<", ">"])
@pytest.mark.parametrize("wrong", ["drop", "repeat", "other", "extra", "list", "generator"])
def test_axioms_unit_laws_on_tuples_match_product_sum(monkeypatch, op, wrong):
    # the suite reads the unit laws off the unit rules' tuples; with a
    # rule wrong on one tree it must report what the products with 1
    # report.  A list or a generator of the right trees is no defect
    t = parse_pbt("(* a (* b (* a (* b (* a *)))))")
    other = parse_pbt("(* b (* a (* b (* a (* b *)))))")
    wrongs = {
        "drop": lambda out: (),
        "repeat": lambda out: out + out,
        "other": lambda out: tuple(other if u is t else u for u in out),
        "extra": lambda out: out + (other,),
        "list": list,
        "generator": lambda out: (u for u in out),
    }

    def mutated(original, u, v):
        out = original(u, v)
        return wrongs[wrong](out) if t in (u, v) else out

    expected = [] if wrong in ("list", "generator") else [{"axiom": "unit", "element": str(t)}]
    assert _mutate(monkeypatch, {op: mutated}, unit=True) == expected


def test_axioms_multiply_elements_only_for_star_split(monkeypatch):
    # the identities are read off the cached tuples and the unit laws off
    # the unit rules, so product_sum runs only in the star-split check:
    # x<y, x>y and x*y for each tabled pair, degree sum below the bound
    calls = []
    original = dendriform.product_sum

    def counted(parts):
        calls.append(None)
        return original(parts)

    monkeypatch.setattr(dendriform, "product_sum", counted)
    run_suite("axioms", 5)
    sizes = {d: len(pbt_basis(d, ["a", "b"])) for d in range(1, 4)}
    pairs = sum(sizes[d1] * sizes[d2] for d1, d2 in product(sizes, repeat=2) if d1 + d2 < 5)
    assert len(calls) == 3 * pairs


def test_product_cache_holds_table_nodes():
    # parse_pbt builds from the table, so it returns u only if u and
    # each of its subtrees is the table's node
    trees = [t for d in range(1, 4) for t in pbt_basis(d, ["a", "b"])]
    for t, s in product(trees, repeat=2):
        for u in _tree_prec(t, s):
            assert parse_pbt(str(u)) is u


def test_tree_products_are_distinct_trees(fresh_tree_caches):
    # each tree of a product has coefficient 1: _delta_tree makes a dict
    # of a product's trees, where a repeated tree would count once
    trees = [t for d in range(1, 4) for t in pbt_basis(d, ["a", "b"])]
    for t, s in product(trees, repeat=2):
        prec, succ, star = _tree_prec(t, s), _tree_succ(t, s), _tree_star(t, s)
        for terms in (prec, succ, star):
            assert type(terms) is tuple and len(set(terms)) == len(terms), (str(t), str(s))
        assert not set(prec) & set(succ), (str(t), str(s))
        assert star == prec + succ


def test_axiom_instance():
    assert (dprec(dprec(A, B), C) - dprec(A, dprec(B, C)) - dprec(A, dsucc(B, C))).is_zero()


def test_axioms_one_generator_to_degree_six():
    basis = {d: pbt_basis(d, ["a"]) for d in range(1, 5)}
    for d1, d2, d3 in product(basis, repeat=3):
        if d1 + d2 + d3 > 6:
            continue
        for t1 in basis[d1]:
            x = DendElement.from_tree(t1)
            for t2 in basis[d2]:
                y = DendElement.from_tree(t2)
                for t3 in basis[d3]:
                    z = DendElement.from_tree(t3)
                    assert (
                        dprec(dprec(x, y), z)
                        - dprec(x, dprec(y, z))
                        - dprec(x, dsucc(y, z))
                    ).is_zero()
                    assert (dprec(dsucc(x, y), z) - dsucc(x, dprec(y, z))).is_zero()
                    assert (
                        dsucc(x, dsucc(y, z))
                        - dsucc(dsucc(x, y), z)
                        - dsucc(dprec(x, y), z)
                    ).is_zero()
                    assert (dstar(dstar(x, y), z) - dstar(x, dstar(y, z))).is_zero()


def test_degree_additivity():
    x = dprec(A, B)
    y = dsucc(dstar(A, B), C)
    assert {t.degree for t in x.terms} == {2} and {t.degree for t in y.terms} == {3}
    assert {t.degree for t in dprec(x, y).terms} == {5}


def test_combs():
    assert upcomb([A]) == A
    assert upcomb([A, B]) == dprec(A, B)
    assert downcomb([A, B]) == dsucc(A, B)
    assert upcomb([]) == DEND_ONE
    assert downcomb([]) == DEND_ONE
    assert upcomb([A, B, C]) == dprec(A, dprec(B, C))
    assert downcomb([A, B, C]) == dsucc(dsucc(A, B), C)


def test_psi_corolla_arity2():
    assert psi_corolla([A, B]) == dprec(A, B) - dsucc(B, A)


def test_psi_corolla_arity3():
    z, x, y = C, A, B
    expected = dprec(z, dsucc(x, y)) - dprec(dsucc(x, z), y) + dsucc(dprec(x, y), z)
    assert psi_corolla([z, x, y]) == expected


def test_psi_path_decomposes_into_corollas():
    out = psi_eval(parse_planar("1(2(3))"), [C, A, B])
    assert out == psi_corolla([C, psi_corolla([A, B])])


def test_psi_sign_oracle():
    target = dprec(A, B) - dsucc(B, A)
    assert psi_corolla([A, B]) == target
    assert -psi_corolla([A, B]) == target.scale(-1)


def _rank_per_degree(span):
    """How many echelon rows of a DendSpan have their pivot tree in each
    weighted degree 1..cutoff."""
    ranks = dict.fromkeys(range(1, span.cutoff + 1), 0)
    for t in span.span.pivot_keys():
        ranks[span.wdeg(t)] += 1
    return ranks


def test_s_closure_examples():
    seed = dprec(A, A) - dsucc(A, A)
    span2 = DendSpan({"a": 1}, 2).saturate([seed])
    assert _rank_per_degree(span2) == {1: 0, 2: 1}
    span3 = DendSpan({"a": 1}, 3).saturate([seed])
    assert _rank_per_degree(span3) == {1: 0, 2: 1, 3: 4}
    empty = DendSpan({"a": 1}, 3).saturate([])
    assert empty.rank == 0
    # c alone: the closure needs (a<b)>c, which no product with a letter gives
    assert DendSpan({"a": 1, "b": 1, "c": 1}, 3).saturate([C]).contains(dsucc(dprec(A, B), C))
    # inhomogeneous seeds cut near the cutoff, and weighted letters; the
    # closure by every basis tree on all four sides gives the same spans
    dims = _rank_per_degree(DendSpan({"a": 1, "b": 1}, 4).saturate([A + dprec(A, B)]))
    assert dims == {1: 0, 2: 1, 3: 8, 4: 58}
    seeds = [dprec(A, A) - dsucc(B, A), dsucc(A, dprec(B, A)) - B]
    dims = _rank_per_degree(DendSpan({"a": 1, "b": 1}, 4).saturate(seeds))
    assert dims == {1: 0, 2: 1, 3: 9, 4: 66}
    dims = _rank_per_degree(DendSpan({"a": 1, "b": 2}, 5).saturate([dprec(A, B) - dsucc(B, A)]))
    assert dims == {1: 0, 2: 0, 3: 1, 4: 4, 5: 19}


def test_s_closure_rejects_unit_seed():
    with pytest.raises(ValueError):
        DendSpan({"a": 1}, 2).saturate([DEND_ONE + A])
    with pytest.raises(ValueError):
        DendSpan({"a": 1}, 2).saturate([A]).contains(DEND_ONE + A)
    # an arity's span of an operad closure has no unit column
    with pytest.raises(KeyError):
        ideal_closure({}, 2)[2].contains(DEND_ONE + DendElement.generator("1"))


UNIT_SEED_RUNNER = """
from treealg.dendriform import DEND_ONE, DendElement, DendSpan
assert False, "this runner must run under python -O"
a = DendElement.generator("a")
for call in (lambda: DendSpan({"a": 1}, 2).saturate([DEND_ONE + a]),
             lambda: DendSpan({"a": 1}, 2).saturate([a]).contains(DEND_ONE + a)):
    try:
        call()
    except ValueError:
        continue
    raise SystemExit("no ValueError")
"""


def test_s_closure_rejects_unit_seed_under_optimize():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", UNIT_SEED_RUNNER], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr


BAD_WEIGHT_RUNNER = """
from treealg.dendriform import DendSpan
assert False, "this runner must run under python -O"
for weight in (0, -1, 1.5):
    try:
        DendSpan({"a": weight}, 2)
    except ValueError as exc:
        assert "'a'" in str(exc), exc
        continue
    raise SystemExit("no ValueError for %r" % weight)
"""


def test_s_closure_rejects_bad_weight_under_optimize():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", BAD_WEIGHT_RUNNER], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr


def test_dendspan_rejects_bool_weight():
    # bool is an int; a letter weight is rejected as BraceStructure does
    for w in (True, False):
        with pytest.raises(ValueError, match="letter 'a' has weight %s, not an integer >= 1" % w):
            DendSpan({"a": w}, 2)


def test_pli_counts():
    from math import comb

    assert len(pli(1, 1)) == 2
    assert len(pli(2, 1)) == 3
    assert len(pli(2, 2)) == 6
    for p, q in ((1, 3), (3, 1), (2, 3)):
        assert len(pli(p, q)) == comb(p + q, p)


def test_pli_chain_conditions():
    for sigma in pli(2, 2):
        assert sigma[1] < sigma[0]
        assert sigma[2] < sigma[3]


def test_pbt_expr_roundtrip():
    for d in range(1, 5):
        for t in pbt_basis(d, ["a", "b"]):
            assert parse_expr(pbt_expr(t)) == DendElement.from_tree(t)


def test_parse_expr_grammar():
    assert parse_expr("1") == DEND_ONE
    assert parse_expr("a<b") == dprec(A, B)
    assert parse_expr("a>b") == dsucc(A, B)
    assert parse_expr("a*b") == dstar(A, B)
    assert parse_expr("a>b<c") == dsucc(A, dprec(B, C))
    assert parse_expr("a>b<c") == dprec(dsucc(A, B), C)
    assert parse_expr("(a<b)<a") == dprec(dprec(A, B), A)
    assert parse_expr("a<b<c") == dprec(dprec(A, B), C)
    assert parse_expr("{a|b}") == psi_corolla([A, B])
    assert parse_expr("{a|b,c}") == psi_corolla([A, B, C])
    assert parse_expr("{a|{b|c}}") == psi_corolla([A, psi_corolla([B, C])])


def test_parse_expr_rejects_mixed_chains():
    for bad in ("a<b>c", "a*b<c", "a>b>c<d", "a<"):
        with pytest.raises(ParseError):
            parse_expr(bad)


@pytest.mark.parametrize("text, pos", [("a<b>c", 3), ("a<", 2), ("a)", 1), ("{a}", 2)])
def test_parse_expr_error_positions(text, pos):
    with pytest.raises(ParseError) as err:
        parse_expr(text)
    assert err.value.pos == pos
    assert str(err.value).endswith("(at position %d)" % pos)


def test_element_str_examples():
    assert str(psi_corolla([A, A])) == "a<a - a>a"
    assert str(DEND_ONE) == "1"
    assert str(DendElement()) == "0"
    assert str(A.scale(Fraction(2, 3))) == "2/3*a"
    x = DEND_ONE.scale(Fraction(1, 2)) + A.scale(Fraction(2, 3)) - dprec(A, B)
    assert str(x) == "1/2 + 2/3*a - a<b"
    assert str(-x) == "-1/2 - 2/3*a + a<b"
    assert str(A - DEND_ONE.scale(Fraction(1, 2))) == "-1/2 + a"


def test_from_tree_of_leaf_is_the_unit():
    assert DendElement.from_tree(LEAF) == DendElement.one()
    assert DendElement.from_tree(LEAF, 3) == DendElement.one().scale(3)


def test_substitute_keeps_the_unit():
    e = DEND_ONE.scale(2) + dprec(A, B)
    assert substitute(e, {"a": B, "b": dsucc(A, C)}) == DEND_ONE.scale(2) + dprec(B, dsucc(A, C))
    # a<b goes to (1+b)<(2a) = 2*b<a, since 1<s = 0
    x = DEND_ONE.scale(Fraction(1, 2)) + A.scale(Fraction(2, 3)) - dprec(A, B)
    assert str(substitute(x, {"a": DEND_ONE + B, "b": A.scale(2)})) == "7/6 + 2/3*b - 2*b<a"
