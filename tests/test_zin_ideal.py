"""suite_zin_quotient closes the arity-2 corolla images once and checks
every corolla and pre-Lie image for membership (the argument is in its
docstring).  A generator outside that closure, or a changed arity-2
set, must be reported as "ideals differ".  A word evaluation that is
not onto the words, or does not kill the closure, must be reported
too, although the surjectivity check stops at full rank."""

import pytest

from treealg import suites, words
from treealg.linalg import LinComb
from treealg.dendriform import DendElement
from treealg.operads import multilinear_basis
from treealg.suites import suite_zin_quotient


def _outside_generator_at_arity3(images):
    def patched(n):
        out = images(n)
        return out + [DendElement.from_tree(multilinear_basis(3)[0])] if n == 3 else out

    return patched


def _scaled_generator_at_arity2(images):
    # still in the ideal, so only the literal arity-2 set check sees it
    def patched(n):
        out = images(n)
        return [out[0].scale(2)] + out[1:] if n == 2 else out

    return patched


@pytest.mark.parametrize(
    "target, patch, arity",
    [
        ("_corolla_images", _outside_generator_at_arity3, 3),
        ("_prelie_images", _outside_generator_at_arity3, 3),
        ("_prelie_images", _scaled_generator_at_arity2, 2),
    ],
)
def test_ideals_differ_is_reported(monkeypatch, target, patch, arity):
    monkeypatch.setattr(suites, target, patch(getattr(suites, target)))
    _, defects = suite_zin_quotient(3)
    assert defects == [{"arity": arity, "case": "ideals differ"}]


zinbiel_eval = words.zin_eval


def _sorted_letters(e):
    # the Zinbiel evaluation followed by sorting each word's letters:
    # it kills the closure, but every multilinear word goes to 1..n
    return LinComb.sum(
        (LinComb.single(words.Word(sorted(w.letters))), c) for w, c in zinbiel_eval(e).terms.items()
    )


def _infix_letters(e):
    # the associative evaluation, each tree read as its letters in
    # infix order: onto the words, but x<y - y>x goes to xy - yx
    return LinComb.sum((LinComb.single(words.Word(t.decorations())), c) for t, c in e.terms.items())


def test_word_evaluation_not_surjective_is_reported(monkeypatch):
    monkeypatch.setattr(words, "zin_eval", _sorted_letters)
    _, defects = suite_zin_quotient(4)
    assert defects == [{"arity": n, "case": "word evaluation not surjective"} for n in (2, 3, 4)]


def test_closure_escaping_the_kernel_is_reported(monkeypatch):
    monkeypatch.setattr(words, "zin_eval", _infix_letters)
    _, defects = suite_zin_quotient(4)
    # every basis row of the closure is reported, and nothing else
    spans = suites.zinbiel_ideal(4)
    assert [(d["arity"], d["case"]) for d in defects] == [
        (n, "closure escapes kernel") for n in (2, 3, 4) for _ in range(spans[n].rank)
    ]
