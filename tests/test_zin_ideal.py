"""Differential tests of suite_zin_quotient's single closure against the
code it replaced.

The suite used to saturate two ideals in full, one generated by the
corolla images and one by the symmetrized pre-Lie images of every
arity, and compare them.  It now closes the arity-2 corolla images once
and checks every generator of both ideals for membership.  The old_*
functions below are verbatim copies of the replaced code.
"""

import json
from functools import lru_cache
from itertools import permutations

import pytest

from treealg import suites
from treealg.dendriform import DendElement, psi_eval
from treealg.linalg import EchelonSpan, Span
from treealg.operads import corolla_tree, ideal_closure, multilinear_basis, phi, quotient_dims
from treealg.suites import run_suite, suite_zin_quotient, zinbiel_ideal
from treealg.trees import rooted_trees
from treealg import words


def _labeled_corollas(arity):
    labels = [str(i) for i in range(1, arity + 1)]
    out = []
    for root in labels:
        rest = [x for x in labels if x != root]
        for perm in permutations(rest):
            out.append(corolla_tree(root, perm))
    return out


def _psi_of_labeled(t, arity):
    return psi_eval(t, [DendElement.generator(str(i)) for i in range(1, arity + 1)])


@lru_cache(maxsize=None)
def old_brace_image_closure(max_arity):
    """Two-sided closure of the corolla images, per arity."""
    gens = {
        n: [_psi_of_labeled(t, n) for t in _labeled_corollas(n)]
        for n in range(2, max_arity + 1)
    }
    return ideal_closure(gens, max_arity)


@lru_cache(maxsize=None)
def old_prelie_image_closure(max_arity):
    """Two-sided closure of the symmetrized non-planar tree images."""
    gens = {}
    for n in range(2, max_arity + 1):
        args = [DendElement.generator(str(i)) for i in range(1, n + 1)]
        gens[n] = [
            psi_eval(phi(t), args)
            for t in rooted_trees([str(i) for i in range(1, n + 1)])
        ]
    return ideal_closure(gens, max_arity)


def old_suite_zin_quotient(bound=4):
    """The corolla-image and symmetrized-tree-image ideals coincide, the
    quotient has dimension n! per arity, and the word evaluation
    realizes the quotient."""
    defects = []
    cl_brace = old_brace_image_closure(bound)
    cl_prelie = old_prelie_image_closure(bound)
    dims_b = quotient_dims(cl_brace)
    report = {"quotient_dims": dims_b}
    for n in range(2, bound + 1):
        fact = 1
        for i in range(2, n + 1):
            fact *= i
        if dims_b[n] != fact:
            defects.append({"arity": n, "quotient_dim": dims_b[n], "expected": fact})
        basis_n = cl_brace.basis_elements(n)
        if basis_n != cl_prelie.basis_elements(n):
            defects.append({"arity": n, "case": "ideals differ"})
        # word evaluation: kills the closure, surjective on words
        span = Span(
            sorted(words.Word(p) for p in permutations([str(i) for i in range(1, n + 1)]))
        )
        for e in basis_n:
            img = words.zin_eval(e)
            if not img.is_zero():
                defects.append({"arity": n, "case": "closure escapes kernel", "element": str(e)})
        for t in cl_brace.spans[n].columns:
            span.insert(words.zin_eval(DendElement.from_tree(t)))
        if span.rank != len(span.columns):
            defects.append({"arity": n, "case": "word evaluation not surjective"})
    return report, defects


def test_arity2_closure_equals_both_old_closures():
    new = zinbiel_ideal(4)
    for n in range(2, 5):
        basis = new.basis_elements(n)
        assert basis == old_brace_image_closure(4).basis_elements(n), n
        assert basis == old_prelie_image_closure(4).basis_elements(n), n


@pytest.mark.parametrize("bound", [2, 3, 4])
def test_suite_output_matches_old_suite(bound):
    report, defects = old_suite_zin_quotient(bound)
    old = {"suite": "zin-quotient", "bound": bound, "result": report, "defects": defects}
    assert json.dumps(run_suite("zin-quotient", bound)) == json.dumps(old)


def test_one_closure_makes_fewer_inserts(monkeypatch):
    inserts = []
    insert = EchelonSpan.insert

    def counted(self, vec):
        inserts.append(1)
        return insert(self, vec)

    monkeypatch.setattr(EchelonSpan, "insert", counted)
    counts = {}
    # __wrapped__ bypasses the caches, so every closure is built here
    for name, closure in (
        ("new", zinbiel_ideal),
        ("brace", old_brace_image_closure),
        ("prelie", old_prelie_image_closure),
    ):
        inserts.clear()
        closure.__wrapped__(4)
        counts[name] = len(inserts)
    assert counts == {"new": 1012, "brace": 1624, "prelie": 2602}


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

