from fractions import Fraction
from math import comb

import pytest

from treealg.linalg import LinComb
from treealg.words import EMPTY, Word, deconcat, halfshuffle, shuffle, zin_eval
from treealg.dendriform import DendElement, dprec, dsucc, psi_corolla


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
