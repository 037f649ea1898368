"""The weight-bounded tuple enumeration, and the tuples its call sites
must reach.

weighted_tuples yields the index tuples of itertools.product within a
weight bound.  A wrong bound or wrong weights in relation_generators or
harvest_brace change envelope dimensions or harvested constants, which
tests/test_envelope.py and the acceptance suite pin.  validate_brace,
envelope_primitives and theta_roundtrip only check, so on a valid
structure a walk that stops short reports what a full one does: the
tests below state the tuples each must reach.
"""

import math
from itertools import product

from hypothesis import given, strategies as st

from treealg import envelope
from treealg.envelope import (
    BraceStructure,
    build_envelope,
    envelope_primitives,
    harvest_brace,
    theta_roundtrip,
    validate_brace,
    weighted_tuples,
)
from treealg.linalg import LinComb


@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=5),
    st.integers(0, 5),
    st.one_of(st.integers(-1, 12), st.just(math.inf)),
)
def test_weighted_tuples_is_filtered_product(weights, length, bound):
    expected = [
        t
        for t in product(range(len(weights)), repeat=length)
        if sum(weights[i] for i in t) <= bound
    ]
    assert list(weighted_tuples(weights, length, bound)) == expected


def weighted_brace(defective=False):
    """Letters x, y, u of weights 1, 1, 2, known up to total weight 4:
    {x|y} = u and {y|x} = -u; the defective variant adds {x|x,x} = x,
    which breaks the (1,1) relation on x, x, x."""
    products = {(0, (1,)): LinComb.single(2), (1, (0,)): LinComb({2: -1})}
    if defective:
        products[(0, (0, 0))] = LinComb.single(0)
    return BraceStructure(3, ["x", "y", "u"], products, weights=[1, 1, 2], weight_bound=4)


def test_validate_brace_visits_the_tuples_within_both_bounds(monkeypatch):
    # for each (n, m) with n + m + 1 <= 5, every (z, xs, ys) of total
    # weight <= 4 in product order: the last ones weigh exactly 4
    b = weighted_brace()
    seen = []
    brace_relation = envelope.brace_relation

    def recording(brace, z, xs, ys):
        seen.append((len(xs),) + tuple(next(iter(c.terms)) for c in [z, *xs, *ys]))
        return brace_relation(brace, z, xs, ys)

    monkeypatch.setattr(envelope, "brace_relation", recording)
    assert validate_brace(b, 5) == []
    expected = [
        (n, z) + xs + ys
        for n in range(1, 5)
        for m in range(1, 5 - n)
        for z in range(3)
        for xs in product(range(3), repeat=n)
        for ys in product(range(3), repeat=m)
        if b.tuple_weight(z, xs + ys) <= 4
    ]
    assert seen == expected
    monkeypatch.undo()
    assert validate_brace(weighted_brace(defective=True), 3)


def test_structure_roundtrip_checks_every_tuple_within_the_bound():
    # the harvest(1, 4) envelope read against zero constants: each of its
    # nonzero products, of weight up to 4, is a structure-constants
    # defect, by arity and then in product order
    b, _ = harvest_brace(1, 4)
    q = build_envelope(b, 4)
    assert envelope_primitives(q)[2] == []
    q.brace = BraceStructure(b.dim, b.basis, {}, weights=b.weights, weight_bound=4)
    expected = sorted(b.products, key=lambda key: (len(key[1]), key[0], key[1]))
    assert max(b.tuple_weight(*key) for key in expected) == 4
    assert envelope_primitives(q)[2] == [
        {"case": "structure constants", "root": root, "args": list(args)} for root, args in expected
    ]


def test_theta_roundtrip_checks_every_tuple_within_the_bound(monkeypatch):
    # the coproducts are compared on the up-comb of every tuple of
    # primitives of total weight <= 4, by length and then in product order
    seen = []
    upcomb = envelope.upcomb

    def recording(xs):
        seen.append(tuple(next(iter(x.terms)).label for x in xs))
        return upcomb(xs)

    monkeypatch.setattr(envelope, "upcomb", recording)
    assert theta_roundtrip(1, 4)["intertwined"]
    b, _ = harvest_brace(1, 4)
    assert seen == [
        tuple(b.basis[i] for i in t)
        for n in range(1, 5)
        for t in product(range(b.dim), repeat=n)
        if sum(b.weights[i] for i in t) <= 4
    ]


def test_theta_roundtrip_reports_each_tuple_that_does_not_intertwine(monkeypatch):
    # with the evaluation scaled by 2 no coproduct intertwines: each
    # tuple is one defect, in the order the tuples are checked
    eval_pbt = envelope.eval_pbt
    monkeypatch.setattr(envelope, "eval_pbt", lambda t, assign: eval_pbt(t, assign).scale(2))
    rep = theta_roundtrip(1, 3)
    b, _ = harvest_brace(1, 3)
    assert rep["dims_equal"] and rep["surjective"] and not rep["intertwined"]
    assert rep["defects"] == [
        ("intertwining", t) for n in range(1, 4) for t in weighted_tuples(b.weights, n, 3)
    ]
