"""suite_zin_quotient closes the arity-2 corolla images once and checks
every corolla and pre-Lie image for membership (the argument is in its
docstring).  A generator outside that closure, or a changed arity-2
set, must be reported as "ideals differ"."""

import pytest

from treealg import suites
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
