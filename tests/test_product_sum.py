"""product_sum, the one product loop: a sum of products is the sum of
its single products, each product is the bilinear extension of the
tree products and unit rules, and the unit rules' undefined cases
still raise."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treealg.dendriform import (
    DEND_ONE,
    DendElement,
    UnitProductError,
    dprec,
    dstar,
    dsucc,
    product_sum,
)
from treealg.trees import LEAF, pbt_basis

TREES = [LEAF] + [t for d in (1, 2) for t in pbt_basis(d, ["a", "b"])]
SINGLE = {"<": dprec, ">": dsucc, "*": dstar}

coeffs = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
).filter(bool)
elements = st.dictionaries(st.sampled_from(TREES), coeffs, max_size=4).map(DendElement)
parts = st.lists(st.tuples(elements, st.sampled_from("<>*"), elements, coeffs), max_size=4)


def undefined(x, op, y):
    return op != "*" and x.unit and y.unit


@settings(max_examples=200, deadline=None)
@given(parts)
def test_product_sum_is_the_sum_of_its_products(ps):
    if any(undefined(x, op, y) for x, op, y, _ in ps):
        with pytest.raises(UnitProductError):
            product_sum(ps)
        return
    expected = DendElement.sum((SINGLE[op](x, y), c) for x, op, y, c in ps)
    assert product_sum(ps) == expected


@settings(max_examples=200, deadline=None)
@given(elements, st.sampled_from("<>*"), elements, coeffs)
def test_product_is_bilinear_on_basis_trees(x, op, y, c):
    if undefined(x, op, y):
        return
    expected = DendElement.sum(
        (product_sum([(DendElement.from_tree(t), op, DendElement.from_tree(s), 1)]), c * a * b)
        for t, a in x.terms.items()
        for s, b in y.terms.items()
    )
    assert product_sum([(x, op, y, c)]) == expected


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
