"""The sparse integer elimination kernel: normal forms, echelon shape, pinned output."""

from math import gcd

from hypothesis import given, settings, strategies as st

from treealg import _kernel

matrices = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=5, max_size=5),
    min_size=1,
    max_size=6,
)


def sparse(row):
    return {i: x for i, x in enumerate(row) if x}


def test_normalize_row_basics():
    assert _kernel.normalize_row({0: 2, 1: -4, 2: 6}) == {0: 1, 1: -2, 2: 3}
    assert _kernel.normalize_row({0: -2, 1: 4}) == {0: 1, 1: -2}
    assert _kernel.normalize_row({3: -2, 5: 4}) == {3: 1, 5: -2}
    assert _kernel.normalize_row({}) == {}


def test_pinned_rref_and_reduce_row():
    # rows need content division and a sign flip before they are stored
    mat = [
        {1: -4, 2: 6, 3: 2, 4: -8},
        {0: -6, 1: 3, 3: 9, 4: 3},
        {0: 2, 1: -1, 2: 4, 3: -3, 4: 5},
        {0: 4, 1: -2, 2: 4, 3: 6, 4: 8},
    ]
    assert _kernel.rref(mat[:2]) == {
        0: {0: 4, 2: -3, 3: -7, 4: 2},
        1: {1: 2, 2: -3, 3: -1, 4: 4},
    }
    assert _kernel.rref(mat) == {
        0: {0: 24, 4: 53},
        1: {1: 12, 4: 53},
        2: {2: 2, 4: 3},
        3: {3: 3, 4: 1},
    }
    rows = _kernel.rref(mat[:2])
    assert _kernel.reduce_row({0: 3, 1: -6, 3: 9, 4: -12}, rows) == {2: 9, 3: -15, 4: 2}


@settings(max_examples=60, deadline=None)
@given(matrices, st.lists(st.integers(min_value=-9, max_value=9), min_size=5, max_size=5))
def test_reduce_row_vanishes_at_pivots(rows, vec):
    ech = _kernel.rref([sparse(r) for r in rows])
    rest = _kernel.reduce_row(sparse(vec), ech)
    assert all(rest.values())
    for p in ech:
        assert p not in rest


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_rref_shape_invariants(rows):
    out = _kernel.rref([sparse(r) for r in rows])
    pivots = list(out)
    assert pivots == sorted(pivots)
    for p, r in out.items():
        # positive content-free pivot, nothing before it, no stored zero
        assert r[p] > 0 and min(r) == p and all(r.values())
        assert gcd(*r.values()) == 1
        for q in pivots:
            if q != p:
                assert q not in r
