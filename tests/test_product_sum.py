"""product_sum, the one product loop: parts whose coefficient is 0 add
nothing, cancelling parts leave nothing, an unknown product raises, and
the unit rules' undefined cases still raise inside a sum.

Each test here is the only one in tier-1 that fails on one mutation of
product_sum (CHANGES.md has the survey): skipping the c = 0 check, an
unknown op read as "*", and a coefficient truncated to an int.  That a
sum is the sum of its products, bilinear on basis trees, is pinned by
every suite that multiplies, by tests/test_golden.py and by the FQSym
embedding of tests/test_fqsym.py.
"""

from fractions import Fraction

import pytest

from treealg.dendriform import DEND_ONE, DendElement, UnitProductError, product_sum


def test_unit_times_unit_in_a_sum():
    # dprec, dsucc and dstar on 1 (x) 1: tests/test_dendriform.py
    with pytest.raises(UnitProductError):
        product_sum([(DEND_ONE, "*", DEND_ONE, 1), (DEND_ONE, ">", DEND_ONE, 1)])
    assert product_sum([(DEND_ONE, "*", DEND_ONE, Fraction(1, 2))]) == DEND_ONE.scale(Fraction(1, 2))


def test_parts_that_add_nothing():
    a = DendElement.generator("a")
    assert product_sum([]).is_zero()
    assert product_sum([(a, "<", a, 0)]).is_zero()
    assert product_sum([(a, "*", a, 1), (a, "<", a, -1), (a, ">", a, -1)]).is_zero()


def test_unknown_product_raises():
    a = DendElement.generator("a")
    with pytest.raises(KeyError):
        product_sum([(a, "+", a, 1)])
