from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest

from treealg.linalg import LinComb
from treealg.words import EMPTY, Word, deconcat, halfshuffle, shuffle, zin_eval
from treealg.dendriform import DendElement, dprec, dsucc, psi_corolla
from treealg.operads import multilinear_basis
from treealg.suites import zinbiel_ideal
from treealg.trees import pbt_basis


def W(s):
    return Word(tuple(s))


def test_deconcat_examples():
    assert deconcat(EMPTY) == LinComb.single((EMPTY, EMPTY))
    assert deconcat(W("a")) == LinComb([((EMPTY, W("a")), 1), ((W("a"), EMPTY), 1)])
    assert deconcat(W("ab")) == LinComb(
        [((EMPTY, W("ab")), 1), ((W("a"), W("b")), 1), ((W("ab"), EMPTY), 1)]
    )


def test_deconcat_coassociative_counital():
    for length in range(0, 7):
        w = W("abcdef"[:length])
        d = deconcat(w)
        # counit: empty-prefix and empty-suffix parts recover w
        left = LinComb((s, c) for (p, s), c in d.terms.items() if p == EMPTY)
        right = LinComb((p, c) for (p, s), c in d.terms.items() if s == EMPTY)
        assert left == LinComb.single(w) and right == LinComb.single(w)
        lhs = {}
        rhs = {}
        for (p, s), c in d.terms.items():
            for (p2, s2), c2 in deconcat(p).terms.items():
                lhs[(p2, s2, s)] = lhs.get((p2, s2, s), 0) + c * c2
            for (p2, s2), c2 in deconcat(s).terms.items():
                rhs[(p, p2, s2)] = rhs.get((p, p2, s2), 0) + c * c2
        assert {k: v for k, v in lhs.items() if v} == {k: v for k, v in rhs.items() if v}


def test_halfshuffle_examples():
    assert halfshuffle(W("a"), W("b")) == LinComb.single(W("ab"))
    assert halfshuffle(W("ab"), W("c")) == LinComb([(W("abc"), 1), (W("acb"), 1)])
    with pytest.raises(ValueError):
        halfshuffle(EMPTY, W("a"))


def test_zinbiel_axiom_exhaustive():
    words_pool = [W("a"), W("b"), W("ab"), W("ba"), W("abc")]

    def half_combo(x, y):
        out = LinComb()
        for w, a in x.terms.items():
            for u, b in y.terms.items():
                out = out + halfshuffle(w, u).scale(a * b)
        return out

    for x in words_pool:
        for y in words_pool:
            for z in words_pool:
                if len(x) + len(y) + len(z) > 6:
                    continue
                lhs = half_combo(halfshuffle(x, y), LinComb.single(z))
                rhs = half_combo(LinComb.single(x), halfshuffle(y, z)) + half_combo(
                    LinComb.single(x), halfshuffle(z, y)
                )
                assert lhs == rhs


def test_shuffle_examples():
    assert shuffle(W("a"), W("b")) == LinComb([(W("ab"), 1), (W("ba"), 1)])
    assert shuffle(W("ab"), W("c")) == LinComb(
        [(W("abc"), 1), (W("acb"), 1), (W("cab"), 1)]
    )
    assert shuffle(EMPTY, W("xy")) == LinComb.single(W("xy"))


def test_shuffle_term_count():
    w, u = W("abc"), W("de")
    out = shuffle(w, u)
    assert sum(out.terms.values()) == comb(5, 2)


def test_shuffle_commutative_associative():
    pool = [EMPTY, W("a"), W("b"), W("ab"), W("cd")]
    for x in pool:
        for y in pool:
            assert shuffle(x, y) == shuffle(y, x)
            for z in pool:
                if len(x) + len(y) + len(z) > 6:
                    continue
                lhs = LinComb()
                for w, c in shuffle(x, y).terms.items():
                    lhs = lhs + shuffle(w, z).scale(c)
                rhs = LinComb()
                for w, c in shuffle(y, z).terms.items():
                    rhs = rhs + shuffle(x, w).scale(c)
                assert lhs == rhs


def test_zin_eval_examples():
    a = DendElement.generator("a")
    b = DendElement.generator("b")
    assert zin_eval(dprec(a, b)) == LinComb.single(W("ab"))
    assert zin_eval(dsucc(a, b)) == LinComb.single(W("ba"))
    assert zin_eval(dprec(a, a) - dsucc(a, a)).is_zero()
    z, x, y = (DendElement.generator(s) for s in "zxy")
    assert zin_eval(psi_corolla([z, x, y])).is_zero()
    e = DendElement.one().scale(Fraction(1, 2)) + a.scale(Fraction(2, 3)) - dprec(a, b)
    assert zin_eval(e) == LinComb({EMPTY: Fraction(1, 2), W("a"): Fraction(2, 3), W("ab"): -1})


def test_zin_eval_is_algebra_morphism():
    a = DendElement.generator("a")
    b = DendElement.generator("b")
    c = DendElement.generator("c")
    for x in (a, dprec(a, b), dsucc(b, a)):
        for y in (c, dprec(c, a)):
            def half_combo(p, q):
                out = LinComb()
                for w, cw in p.terms.items():
                    for u, cu in q.terms.items():
                        out = out + halfshuffle(w, u).scale(cw * cu)
                return out

            assert zin_eval(dprec(x, y)) == half_combo(zin_eval(x), zin_eval(y))
            assert zin_eval(dsucc(x, y)) == half_combo(zin_eval(y), zin_eval(x))


def test_word_str_forms():
    assert str(W("ab")) == "ab"
    assert str(Word(("alpha", "b"))) == "alpha.b"
    assert str(EMPTY) == ""


# The word evaluation as it was before it ran on letter tuples: verbatim
# copies of the LinComb shuffle recursion, the half-shuffle on it and the
# per-tree recursion, the oracle of the test below.
@lru_cache(maxsize=None)
def old_shuffle_combs(a: tuple, b: tuple) -> LinComb:
    if not a:
        return LinComb.single(Word(b))
    if not b:
        return LinComb.single(Word(a))
    left = old_shuffle_combs(a[1:], b).map_keys(lambda w: Word((a[0],) + w.letters))
    right = old_shuffle_combs(a, b[1:]).map_keys(lambda w: Word((b[0],) + w.letters))
    return left + right


def old_halfshuffle(w: Word, u: Word) -> LinComb:
    if not w.letters:
        raise ValueError("half-shuffle needs a nonempty left factor")
    return old_shuffle_combs(w.letters[1:], u.letters).map_keys(
        lambda v: Word((w.letters[0],) + v.letters)
    )


def old_half_combs(x: LinComb, y: LinComb) -> LinComb:
    return LinComb.sum(
        (old_halfshuffle(w, u), a * b) for w, a in x.terms.items() for u, b in y.terms.items()
    )


@lru_cache(maxsize=None)
def old_zin_tree(t) -> LinComb:
    if t.is_leaf():
        return LinComb.single(EMPTY)
    # node = left > label < right; under x<y -> x.y and x>y -> y.x
    mid = LinComb.single(Word((t.label,)))
    if not t.right.is_leaf():
        mid = old_half_combs(mid, old_zin_tree(t.right))
    if not t.left.is_leaf():
        mid = old_half_combs(mid, old_zin_tree(t.left))
    return mid


def old_zin_eval(e: DendElement) -> LinComb:
    return LinComb.sum((old_zin_tree(t), c) for t, c in e.terms.items())


def test_zin_eval_matches_old():
    # every tree of degree <= 5 on two letters and <= 4 on three (repeated
    # letters give multiplicities above 1), every multilinear tree of
    # arity <= 5, and elements with Fraction coefficients and a unit part
    # whose images cancel partly or wholly
    trees = [t for d in range(1, 6) for t in pbt_basis(d, ["a", "b"])]
    trees += [t for d in range(1, 5) for t in pbt_basis(d, ["a", "b", "c"])]
    trees += [t for n in range(1, 6) for t in multilinear_basis(n)]
    for t in trees:
        e = DendElement.from_tree(t)
        assert zin_eval(e) == old_zin_eval(e), t
    a, b = DendElement.generator("a"), DendElement.generator("b")
    elements = [
        DendElement.one().scale(Fraction(1, 2)) + a.scale(Fraction(2, 3)) - dprec(a, b),
        dprec(a, b) - dsucc(b, a),
        dprec(a, b).scale(Fraction(3, 4)) - dsucc(b, a) + dsucc(a, b).scale(Fraction(-5, 7)),
    ]
    for d in range(1, 5):
        level = pbt_basis(d, ["a", "b"])
        elements.append(DendElement((t, Fraction(i + 1, 3) * (-1) ** i) for i, t in enumerate(level)))
    elements += [DendElement(row) for span in zinbiel_ideal(4).values() for row in span.basis()]
    for e in elements:
        assert zin_eval(e) == old_zin_eval(e), e
    assert all(not zin_eval(e) for e in elements[1:2] + elements[-10:])
