"""The integer elimination kernel: normal forms, echelon shape, pinned output."""

from hypothesis import given, settings, strategies as st

from treealg import _kernel

matrices = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=5, max_size=5),
    min_size=1,
    max_size=6,
)


def test_normalize_row_basics():
    assert _kernel.normalize_row([2, -4, 6]) == [1, -2, 3]
    assert _kernel.normalize_row([-2, 4]) == [1, -2]
    assert _kernel.normalize_row([0, 0]) == [0, 0]


def test_pinned_rref_and_reduce_row():
    # rows need content division and a sign flip before they are stored
    mat = [[0, -4, 6, 2, -8], [-6, 3, 0, 9, 3], [2, -1, 4, -3, 5], [4, -2, 4, 6, 8]]
    assert _kernel.rref([list(r) for r in mat[:2]], 5) == (
        [[4, 0, -3, -7, 2], [0, 2, -3, -1, 4]],
        [0, 1],
    )
    assert _kernel.rref([list(r) for r in mat], 5) == (
        [[24, 0, 0, 0, 53], [0, 12, 0, 0, 53], [0, 0, 2, 0, 3], [0, 0, 0, 3, 1]],
        [0, 1, 2, 3],
    )
    rows, pivots = _kernel.rref([list(r) for r in mat[:2]], 5)
    assert _kernel.reduce_row([3, -6, 0, 9, -12], rows, pivots) == [0, 0, 9, -15, 2]


@settings(max_examples=60, deadline=None)
@given(matrices, st.lists(st.integers(min_value=-9, max_value=9), min_size=5, max_size=5))
def test_reduce_row_vanishes_at_pivots(rows, vec):
    ech_rows, pivots = _kernel.rref([list(r) for r in rows], 5)
    rest = _kernel.reduce_row(list(vec), ech_rows, pivots)
    for p in pivots:
        assert rest[p] == 0


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_rref_shape_invariants(rows):
    out, pivots = _kernel.rref([list(r) for r in rows], 5)
    assert list(pivots) == sorted(pivots)
    for i, (r, p) in enumerate(zip(out, pivots)):
        assert r[p] > 0
        assert all(x == 0 for x in r[:p])
        for j, q in enumerate(pivots):
            if j != i:
                assert r[q] == 0
