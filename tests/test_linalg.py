from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

import pytest

from treealg.bialgebra import TensorSquareElement, coproduct
from treealg.dendriform import DendElement, dprec, psi_corolla
from treealg.envelope import BraceError, BraceStructure, relation_generators, trivial_brace
from treealg.linalg import (
    EchelonSpan,
    LinComb,
    Span,
    combine,
    kernel_basis,
    rat,
    to_int_row,
)
from treealg.trees import LEAF, pbt_basis
from treealg.words import zin_eval


def det_cofactor(m):
    """Brute-force determinant by first-row cofactor expansion."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_cofactor(minor)
    return total


def test_combine_examples():
    x = LinComb.single("x")
    y = LinComb.single("y")
    assert combine(x, 1, x.scale(-1)).is_zero()
    assert combine(x, 0, y) == x
    lhs = combine(x.scale(Fraction(2, 3)), 1, combine(x.scale(Fraction(1, 3)), 1, y))
    assert lhs == x + y


def test_combine_commutative_associative_as_stored():
    a = LinComb([("x", 1), ("y", Fraction(1, 2))])
    b = LinComb([("y", Fraction(-1, 2)), ("z", 3)])
    c = LinComb([("x", -1)])
    assert combine(a, 1, b).terms == combine(b, 1, a).terms
    assert combine(combine(a, 1, b), 1, c).terms == combine(a, 1, combine(b, 1, c)).terms


class Tagged(LinComb):
    __slots__ = ()


def test_lincomb_sum():
    x = Tagged.single("x")
    total = Tagged.sum([(x, 2), ({"y": 1}, Fraction(1, 2)), (LinComb.single("z"), 0)])
    assert type(total) is Tagged
    assert total.terms == {"x": 2, "y": Fraction(1, 2)}
    assert type(total.terms["x"]) is int and type(total.terms["y"]) is Fraction
    zero = Tagged.sum([(x, 1), ({"x": 3}, Fraction(-1, 3))])
    assert zero.is_zero() and zero.terms == {} and type(zero) is Tagged
    assert LinComb.sum([]) == LinComb()


def test_lincomb_str_sorted():
    a = LinComb([("y", -2), ("x", 1)])
    assert str(a) == "x - 2*y"
    assert str(LinComb()) == "0"


def row_span(rows):
    """Span of integer rows, one key per column."""
    span = Span(range(len(rows[0])))
    for r in rows:
        span.insert(LinComb(enumerate(r)))
    return span


def column_images(rows):
    """The matrix as a map: column j goes to sum_i rows[i][j] * e_i."""
    return [LinComb((i, r[j]) for i, r in enumerate(rows)) for j in range(len(rows[0]))]


def test_rowreduce_identity():
    span = row_span([[1, 0], [0, 1]])
    assert span.rank == 2 and span.pivot_keys() == [0, 1]
    assert span.basis() == [LinComb.single(0), LinComb.single(1)]


def test_rowreduce_proportional_rows():
    assert row_span([[1, 2], [2, 4]]).rank == 1


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4),
        min_size=4,
        max_size=4,
    )
)
def test_rank_matches_determinant_oracle(rows):
    assert (row_span(rows).rank == 4) == (det_cofactor(rows) != 0)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=5, max_size=5),
        min_size=5,
        max_size=5,
    )
)
def test_rank_equals_transpose_rank(rows):
    transpose = [list(col) for col in zip(*rows)]
    assert row_span(rows).rank == row_span(transpose).rank


def test_rowreduce_is_rref():
    span = row_span([[2, 4, 1], [1, 2, 0], [0, 0, 3]])
    basis = span.basis()
    assert span.rank == len(basis) == 2
    for i, p in enumerate(span.pivot_keys()):
        assert basis[i].coeff(p) == 1
        for j in range(len(basis)):
            if j != i:
                assert basis[j].coeff(p) == 0


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=5, max_size=5),
        min_size=1,
        max_size=6,
    )
)
def test_basis_is_reduced_echelon(rows):
    span = row_span(rows)
    basis = span.basis()
    pivots = span.pivot_keys()
    assert len(basis) == span.rank and pivots == sorted(pivots)
    for i, (b, p) in enumerate(zip(basis, pivots)):
        # pivot 1, nothing before it, zeros at every other pivot
        assert b.coeff(p) == 1 and min(b.terms) == p
        for j, q in enumerate(pivots):
            if j != i:
                assert b.coeff(q) == 0


def test_kernel_identity_empty():
    assert kernel_basis([0, 1], column_images([[1, 0], [0, 1]])) == []


def test_kernel_one_equation():
    (v,) = kernel_basis(["x", "y"], column_images([[1, 1]]))
    assert v.coeff("x") + v.coeff("y") == 0 and v


def test_kernel_of_zero_map_is_everything():
    assert kernel_basis(["x", "y"], [LinComb(), LinComb()]) == [
        LinComb.single("x"),
        LinComb.single("y"),
    ]


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=6, max_size=6),
        min_size=3,
        max_size=5,
    )
)
def test_kernel_vectors_are_exact(rows):
    basis = kernel_basis(list(range(6)), column_images(rows))
    assert len(basis) == 6 - row_span(rows).rank
    for v in basis:
        for row in rows:
            assert sum(row[j] * c for j, c in v.terms.items()) == 0
    if basis:
        assert row_span([[v.coeff(j) for j in range(6)] for v in basis]).rank == len(basis)


def test_span_foreign_key_raises():
    span = Span(["x", "y"])
    for call in (span.insert, span.contains, span.reduce):
        with pytest.raises(KeyError):
            call(LinComb.single("z"))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
        min_size=1,
        max_size=4,
    ),
    st.lists(st.integers(min_value=-5, max_value=5), min_size=4, max_size=4),
)
def test_span_reduce_is_projection(rows, vec):
    span = row_span(rows)
    v = LinComb(enumerate(vec))
    r = span.reduce(v)
    assert span.reduce(r) == r
    assert all(r.coeff(p) == 0 for p in span.pivot_keys())
    assert span.contains(v - r)
    assert span.contains(v) == r.is_zero()


def test_span_insert_returns_remainder_on_growth_only():
    x, y, z = (LinComb.single(k) for k in "xyz")
    span = Span("xyz")
    assert span.insert(x + y) == x + y
    assert span.insert((x + y).scale(3)) is None
    rest = span.insert(x + z)
    # the remainder up to scale: x + z minus the span's x + y
    assert rest is not None and rest.coeff("x") == 0
    assert rest == (z - y).scale(rest.coeff("z"))
    assert span.rank == 2
    assert span.insert(y - z) is None
    assert span.rank == 2


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
        min_size=1,
        max_size=5,
    ),
    st.randoms(use_true_random=False),
)
def test_span_basis_independent_of_insertion_order(rows, rnd):
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    assert row_span(rows).basis() == row_span(shuffled).basis()


def test_echelon_span_reduce_exact_is_projection():
    span = EchelonSpan()
    span.insert({0: 1, 1: 1})
    v = {0: Fraction(3), 1: Fraction(1), 2: Fraction(2)}
    r = span.reduce_exact(v)
    assert r == span.reduce_exact(r)
    assert 0 not in r
    assert span.contains({k: x - r.get(k, 0) for k, x in v.items() if x != r.get(k, 0)})
    assert r == {1: -2, 2: 2}


def test_to_int_row_clears_denominators():
    assert to_int_row({0: Fraction(1, 2), 3: Fraction(1, 3)}) == {0: 3, 3: 2}
    assert to_int_row({1: 2, 2: -1}) == {1: 2, 2: -1}


def test_to_int_row_returns_an_int_row_as_it_is():
    row = {1: 2, 2: -1}
    assert to_int_row(row) is row
    # a Fraction with denominator 1 is not an int: the row is converted
    out = to_int_row({1: Fraction(2), 2: -1})
    assert out == {1: 2, 2: -1} and {type(x) for x in out.values()} == {int}


def test_insert_keeps_its_row_when_the_caller_mutates_an_int_row():
    # to_int_row hands an int row on uncopied, so the echelon must copy
    # it: here the stored row would otherwise be the caller's dict
    span = EchelonSpan()
    row = {0: 1, 2: 3}
    stored = span.insert(row)
    assert stored == {0: 1, 2: 3}
    row[0], row[5] = 7, 1
    assert span.rows == {0: {0: 1, 2: 3}} and stored == {0: 1, 2: 3}
    other = {1: 2, 2: -4}
    span.insert(other)
    del other[1]
    assert span.rows[1] == {1: 1, 2: -2}
    assert span.contains({0: 1, 2: 3}) and not span.contains({0: 7, 2: 3, 5: 1})


def old_combo(span, row):
    """Span._combo before it skipped LinComb.__init__."""
    return LinComb((span.columns[i], row[i]) for i in sorted(row))


def _stores_no_zero_in_column_order(combo, columns):
    order = {k: i for i, k in enumerate(columns)}
    keys = list(combo.terms)
    return (
        type(combo) is LinComb
        and all(type(c) is int or type(c) is Fraction for c in combo.terms.values())
        and all(combo.terms.values())
        and keys == sorted(keys, key=order.__getitem__)
    )


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from([0, 0, 1, -2, 3, Fraction(1, 2), Fraction(-2, 3)]), min_size=5, max_size=5),
        min_size=1,
        max_size=5,
    ),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=5, max_size=5),
)
def test_span_combos_store_no_zero_and_equal_the_lincomb_route(rows, vec):
    columns = list("vwxyz")
    span = Span(columns)
    for r in rows:
        combo = LinComb(zip(columns, r))
        rest = span.insert(combo)
        if rest is not None:
            assert _stores_no_zero_in_column_order(rest, columns)
            assert rest == old_combo(span, span.echelon.rows[span.index[next(iter(rest.terms))]])
    for b, r in zip(span.basis(), span.echelon.rref_rows()):
        assert _stores_no_zero_in_column_order(b, columns) and b == old_combo(span, r)
    v = LinComb(zip(columns, vec))
    reduced = span.reduce(v)
    assert _stores_no_zero_in_column_order(reduced, columns)
    assert reduced == old_combo(span, span.echelon.reduce_exact(span._vec(v)))
    images = [LinComb(zip(range(len(rows)), col)) for col in zip(*rows)]
    kernel = kernel_basis(columns, images)
    for k in kernel:
        # kernel vectors list their keys in reversed column order
        assert _stores_no_zero_in_column_order(k, columns[::-1]) and k == LinComb(k.terms.items())
    assert len(kernel) == len(columns) - span.rank


def test_rational_string_forms():
    assert str(Fraction(-1, 2)) == "-1/2"
    assert str(Fraction(4, 2)) == "2"


A, B, C = (DendElement.generator(n) for n in "abc")


@pytest.mark.parametrize(
    "cls, keys",
    [
        (LinComb, ["x", "y", "z"]),
        (DendElement, [LEAF, *pbt_basis(2, ["a", "b"])[:2]]),
        (TensorSquareElement, [(LEAF, LEAF), *product(pbt_basis(1, ["a"]), pbt_basis(1, ["a", "b"]))]),
    ],
)
def test_mixed_int_and_fraction_coefficients_are_one_value(cls, keys):
    coeffs = [2, Fraction(1, 2), -1]
    mixed = cls(zip(keys, coeffs))
    as_fractions = cls(zip(keys, map(Fraction, coeffs)))
    assert [type(mixed.coeff(k)) for k in keys] == [int, Fraction, int]
    assert mixed == as_fractions
    assert hash(mixed) == hash(as_fractions)
    assert str(mixed) == str(as_fractions)
    # one term, its coefficient read as by rat(): an int stays an int, a
    # string becomes a Fraction, and 0 gives the zero combination; a
    # DendElement is built from a tree by from_tree
    single = getattr(cls, "from_tree", cls.single)
    singles = [single(k, c) for k, c in zip(keys, coeffs)]
    assert all(type(x) is cls for x in singles)
    assert [x.terms for x in singles] == [{k: c} for k, c in zip(keys, coeffs)]
    assert [type(x.coeff(k)) for x, k in zip(singles, keys)] == [int, Fraction, int]
    assert cls.sum((x, 1) for x in singles) == mixed
    half = single(keys[0], "1/2").terms[keys[0]]
    assert type(half) is Fraction and half == Fraction(1, 2)
    assert single(keys[0], 0) == cls()
    assert single(keys[0]).terms == {keys[0]: 1}


def test_rat_keeps_exact_numbers_and_parses_the_rest():
    assert type(rat(3)) is int and rat(3) == 3
    assert type(rat(-2)) is int
    half = Fraction(1, 2)
    assert rat(half) is half
    for text, value in [("-2/3", Fraction(-2, 3)), (0.5, half), ("4/2", 2), (True, 1)]:
        assert type(rat(text)) is Fraction and rat(text) == value


def test_brace_json_coefficients_parse_as_before():
    def coeffs(coeff):
        value = [{"coeff": coeff, "index": 0}]
        data = {"dim": 1, "basis": ["a"], "products": [{"root": 0, "args": [0], "value": value}]}
        products = BraceStructure.from_json(data).to_json()["products"]
        return [item["coeff"] for p in products for item in p["value"]]

    cases = ["-2/3", 2, "4/2", " 3 ", 0, "0"]
    assert [coeffs(c) for c in cases] == [["-2/3"], ["2"], ["2"], ["3"], [], []]
    # a float is read as its binary value and a boolean as 0 or 1: both are refused
    for bad in ["abc", None, [1], 0.5, True, False, float("inf"), float("nan"), {}, "1/0"]:
        with pytest.raises(BraceError):
            coeffs(bad)


def test_integer_arithmetic_stays_on_ints():
    """Tree products, coproducts, corolla signs, relation generators and
    the word evaluation involve no division, so their coefficients are
    ints; promoting them to Fraction would be slower and change nothing."""
    combos = [
        coproduct(dprec(psi_corolla([A, B, C]), A)),
        *relation_generators(trivial_brace(2), 4),
        *(zin_eval(DendElement.from_tree(t)) for t in pbt_basis(4, ["a", "b"])),
    ]
    assert all(combo for combo in combos)
    assert {type(c) for combo in combos for c in combo.terms.values()} == {int}
