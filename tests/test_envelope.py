import json
from itertools import product

import pytest

from treealg.linalg import LinComb, Span, kernel_basis
from treealg.dendriform import (
    DendElement,
    DendSpan,
    dprec,
    dstar,
    dsucc,
    psi_corolla,
    upcomb,
)
from treealg.bialgebra import TensorSquareElement
from treealg import words
from treealg import envelope
from treealg.suites import run_suite
from treealg.trees import LEAF, PBT, weighted_pbt_basis
from treealg.envelope import (
    BraceError,
    BraceStructure,
    HarvestError,
    build_envelope,
    envelope_primitives,
    envelope_word_class,
    harvest_brace,
    relation_generators,
    theta_roundtrip,
    trivial_brace,
    validate_brace,
)

A = DendElement.generator("a")


def assoc_brace():
    """One-dimensional brace of an associative product: {b|b} = b."""
    return BraceStructure(1, ["b"], {(0, (0,)): LinComb.single(0)})


def weighted_inhomogeneous_brace():
    """Letters x, y, u of weights 1, 1, 2 with {x|y} = u, {y|x} = -u and
    {u|x} = u; the last relation u<x - x>u - u is inhomogeneous.  It is
    invalid on purpose: it breaks the brace relation at arity 3."""
    products = {
        (0, (1,)): LinComb.single(2),
        (1, (0,)): LinComb({2: -1}),
        (2, (0,)): LinComb.single(2),
    }
    return BraceStructure(3, ["x", "y", "u"], products, weights=[1, 1, 2])


def heavy_value_brace():
    """{a|a} = b with b of weight 3, heavier than its tuple.  It is
    invalid on purpose: its envelope has primitives beyond the letters,
    combinations of class trees that kernel_basis alone does not give
    in reduced echelon form."""
    return BraceStructure(2, ["a", "b"], {(0, (0,)): LinComb.single(1)}, weights=[1, 3])


def invalid_brace():
    """{b|b} = b together with {b|b,b} = b breaks the (1,1) relation."""
    return BraceStructure(
        1,
        ["b"],
        {(0, (0,)): LinComb.single(0), (0, (0, 0)): LinComb.single(0)},
    )


def test_validate_trivial():
    assert validate_brace(trivial_brace(2), 4) == []


def test_validate_associative_brace():
    # the zero-higher-brace structure of an associative product passes
    # the relations: the (1,1) instance is exactly associativity
    assert validate_brace(assoc_brace(), 6) == []


def test_validate_invalid_brace_pinned_values():
    defects = validate_brace(invalid_brace(), 3)
    assert len(defects) == 1
    d = defects[0]
    assert (d["n"], d["m"]) == (1, 1)
    assert d["lhs"] == "b" and d["rhs"] == "3*b"


def test_brace_fixtures_are_labeled_by_validity():
    # the envelope tests also run on invalid braces; this pins which ones
    assert validate_brace(assoc_brace(), 5) == []
    for dim in (1, 2, 3):
        assert validate_brace(trivial_brace(dim), 4) == []
    for n_gens, max_degree in ((1, 3), (1, 4), (2, 3)):
        assert validate_brace(harvest_brace(n_gens, max_degree)[0], max_degree + 1) == []
    assert len(validate_brace(invalid_brace(), 3)) == 1
    assert len(validate_brace(mixed_brace(), 3)) == 2
    assert len(validate_brace(weighted_inhomogeneous_brace(), 3)) == 3
    assert len(validate_brace(heavy_value_brace(), 3)) == 1


def test_validate_skips_unknown_tuples_of_truncated_structures():
    b, _ = harvest_brace(1, 3)
    # deep validation only exercises tuples within the harvest authority
    assert validate_brace(b, 6) == []


def test_absent_products_are_zero_at_any_arity():
    b = trivial_brace(1)
    assert b.brace(0, (0, 0, 0, 0)).is_zero()
    assert validate_brace(b, 5) == []


def test_relation_generators_trivial():
    gens = relation_generators(trivial_brace(1), 2)
    assert [str(g) for g in gens] == ["a<a - a>a"]
    gens3 = relation_generators(trivial_brace(1), 3)
    assert str(gens3[1]) == "(a<a)>a + a<(a>a) - a>a<a"


def test_relation_generators_with_constant():
    b = assoc_brace()
    gens = relation_generators(b, 2)
    assert [str(g) for g in gens] == ["-b + b<b - b>b"]


def test_envelope_trivial_dim1():
    q = build_envelope(trivial_brace(1), 4)
    assert q.dims() == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}
    assert q.graded and q.stable


def test_envelope_trivial_dim2():
    q = build_envelope(trivial_brace(2), 3)
    assert q.dims() == {0: 1, 1: 2, 2: 4, 3: 8}


def test_envelope_reduction_idempotent_and_kills_generators():
    b = trivial_brace(2)
    q = build_envelope(b, 3)
    for g in relation_generators(b, 3):
        assert q.reduce(g).is_zero()
        if q.span.top_wdeg(g) + 1 > q.bound:
            continue
        for letter in b.basis:
            x = DendElement.generator(letter)
            for prod in (dprec(x, g), dprec(g, x), dsucc(x, g), dsucc(g, x)):
                assert q.reduce(prod).is_zero()
    e = dstar(DendElement.generator("a"), dsucc(DendElement.generator("b"), A))
    assert q.reduce(q.reduce(e)) == q.reduce(e)
    # no pivot key and a difference in the span fix the normal form
    assert not set(q.reduce(e).terms) & set(q.span.span.pivot_keys())
    assert q.span.contains(e - q.reduce(e))


def test_envelope_degree_overflow():
    q = build_envelope(trivial_brace(1), 2)
    with pytest.raises(BraceError):
        q.reduce(upcomb([A, A, A, A]))


def test_class_of_is_reduce_on_every_column():
    # class_of returns a non-pivot column, LEAF among them, without
    # reducing it; a tree off the columns still overflows in reduce
    q = build_envelope(trivial_brace(2), 4)
    for t in q.span.span.columns:
        assert q.class_of(t) == q.reduce(DendElement.from_tree(t)), str(t)
    with pytest.raises(BraceError):
        q.class_of(next(iter(upcomb([A] * 5).terms)))


def test_cmm_reduces_each_up_comb_once(monkeypatch):
    # theta_roundtrip reduces each up-comb once and passes the class to
    # both sides; q.coproduct takes a class and reduces nothing
    calls = []
    reduce = envelope.TruncatedQuotient.reduce

    def counted(self, e):
        calls.append(e)
        return reduce(self, e)

    monkeypatch.setattr(envelope.TruncatedQuotient, "reduce", counted)
    assert run_suite("cmm", 5)["defects"] == []
    assert len(calls) == 64


@pytest.mark.parametrize("suite, bound, count", [("cmm", 5, 0), ("envelope-trivial", 4, 367)])
def test_class_trees_reduce_without_the_span(monkeypatch, suite, bound, count):
    # TruncatedQuotient.reduce returns a multiple of one class tree as it
    # is, without Span.reduce: cmm's 64 up-combs are such multiples, and
    # so are 39 of the 406 elements envelope-trivial reduces (its 36
    # word up-combs and 3 letters)
    calls = []
    reduce = Span.reduce

    def counted(self, combo):
        calls.append(combo)
        return reduce(self, combo)

    monkeypatch.setattr(Span, "reduce", counted)
    assert run_suite(suite, bound)["defects"] == []
    assert len(calls) == count


def old_wdeg(span, t):
    """The weighted degree as DendSpan computed it before its table."""
    return sum(span.weights[a] for a in t.decorations())


def old_degree_dims(span):
    out = {d: 0 for d in range(1, span.cutoff + 1)}
    for t in span.span.pivot_keys():
        out[old_wdeg(span, t)] += 1
    return out


def old_filtration_dims(span, bound):
    cols = {}
    for t in span.span.columns:
        w = old_wdeg(span, t)
        cols[w] = cols.get(w, 0) + 1
    ranks = old_degree_dims(span)
    out = {0: 1}
    for d in range(1, bound + 1):
        out[d] = cols.get(d, 0) - ranks.get(d, 0)
    return out


@pytest.mark.parametrize(
    "weights",
    [trivial_brace(2).letters(), harvest_brace(1, 5)[0].letters(), {"a": 1, "b": 2}],
    ids=["trivial", "harvested", "a1-b2"],
)
def test_wdeg_table_matches_decoration_sum(weights):
    """DendSpan's table of weighted degrees against its specification,
    the sum of the decorations' weights, on every column and on trees
    above the cutoff; the dims and dims_next read from a quotient's class
    table equal the old per-column walk on saturated spans."""
    letters = list(weights)
    gens = [DendElement.generator(x) for x in letters]
    seeds = [dprec(x, y) - dsucc(y, x) for x in gens for y in gens]
    for cutoff in range(1, 6):
        span = DendSpan(weights, cutoff)
        assert span.wdegs[LEAF] == span.wdeg(LEAF) == span.top_wdeg(DendElement.one()) == 0
        assert set(span.wdegs) == set(span.span.columns)
        for t in span.span.columns:
            assert span.wdegs[t] == span.wdeg(t) == old_wdeg(span, t)
        above = [t for t in weighted_pbt_basis(letters, weights, cutoff + 1) if t not in span.wdegs]
        assert above and all(span.wdeg(t) == old_wdeg(span, t) == cutoff + 1 for t in above)
        assert span.top_wdeg(DendElement.from_tree(above[0]) + gens[0]) == cutoff + 1
        for foreign in (PBT(LEAF, "z", LEAF), PBT(span.span.columns[0], "z", LEAF)):
            with pytest.raises(KeyError):
                span.wdeg(foreign)
        span.saturate(seeds)
        assert span.rank > 0 or cutoff == 1
        for bound in range(1, cutoff + 1):
            q = envelope.TruncatedQuotient(None, bound, span, True)
            assert q.dims() == old_filtration_dims(span, bound)
        for row in span.basis_elements():
            assert span.top_wdeg(row) == max(old_wdeg(span, t) for t in row.terms)
    # {x|x} = x on the first letter is not graded, so dims_next is read
    # from a second saturation one degree higher
    b = BraceStructure(len(letters), letters, {(0, (0,)): LinComb.single(0)}, list(weights.values()))
    for bound in (1, 2):
        q = build_envelope(b, bound)
        span_next = DendSpan(weights, bound + 1).saturate(relation_generators(b, bound + 1))
        assert not q.graded and q.dims_next == old_filtration_dims(span_next, bound)


def test_envelope_coproduct_unit():
    q = build_envelope(trivial_brace(1), 3)
    d = q.coproduct(DendElement.one())
    assert d == TensorSquareElement.from_product(DendElement.one(), DendElement.one())


def test_envelope_coproduct_matches_deconcatenation():
    q = build_envelope(trivial_brace(1), 4)
    for length in (2, 3):
        w = words.Word(("a",) * length)
        lhs = q.coproduct(envelope_word_class(q, w.letters))
        rhs = TensorSquareElement()
        for (pre, suf), c in words.deconcat(w).terms.items():
            rhs = rhs + TensorSquareElement.from_product(
                envelope_word_class(q, pre.letters),
                envelope_word_class(q, suf.letters),
            ).scale(c)
        assert lhs == rhs


def test_envelope_product_is_shuffle_two_letters():
    q = build_envelope(trivial_brace(2), 4)
    w = words.Word(("a", "b"))
    u = words.Word(("b",))
    lhs = q.reduce(
        dstar(envelope_word_class(q, w.letters), envelope_word_class(q, u.letters))
    )
    rhs = DendElement()
    for v, c in words.shuffle(w, u).terms.items():
        rhs = rhs + envelope_word_class(q, v.letters).scale(c)
    assert lhs == q.reduce(rhs)


def test_envelope_coideal_check():
    q = build_envelope(trivial_brace(2), 3)
    assert q.verify_coideal() == []


def test_envelope_primitives_trivial():
    for dim in (1, 2):
        q = build_envelope(trivial_brace(dim), 3)
        elems, dims, defects = envelope_primitives(q)
        assert len(elems) == dim and defects == []


def test_envelope_primitives_are_the_reduced_echelon_kernel():
    cases = [
        (trivial_brace(2), 4),
        (harvest_brace(1, 4)[0], 4),
        (harvest_brace(2, 3)[0], 3),
        (assoc_brace(), 4),
        (mixed_brace(), 2),
        (mixed_brace(), 3),
        (weighted_inhomogeneous_brace(), 3),
        (invalid_brace(), 3),
        (heavy_value_brace(), 4),
    ]
    one, tensor = DendElement.one(), TensorSquareElement.from_product
    for b, bound in cases:
        q = build_envelope(b, bound)
        classes = [t for _, trees in sorted(q.quotient_trees().items()) for t in trees]
        images = [
            q.coproduct(DendElement.from_tree(t)) - tensor(q.class_of(t), one) - tensor(one, q.class_of(t))
            for t in classes
        ]
        # the second elimination fixes the answer: the unique basis in
        # reduced echelon form over the class trees
        span = Span(classes)
        for v in kernel_basis(classes, images):
            span.insert(v)
        want = [DendElement(v) for v in span.basis()]
        got = envelope_primitives(q)[0]
        assert got == want and [str(p) for p in got] == [str(p) for p in want]
        for p in got:
            assert q.coproduct(p) == tensor(p, one) + tensor(one, p)


def test_express_reads_coordinates_off_the_leads():
    # a hand-made reduced echelon basis: each element is 1 at its own
    # lead and 0 at the other's
    B, C = DendElement.generator("b"), DendElement.generator("c")
    basis = [A + C.scale(2), B - C]
    leads = [PBT(LEAF, "a", LEAF), PBT(LEAF, "b", LEAF)]
    inside = basis[0].scale(3) - basis[1]
    coords, rest = envelope._express(inside, basis, leads)
    assert coords == LinComb({0: 3, 1: -1}) and rest.is_zero()
    coords, rest = envelope._express(inside + C, basis, leads)
    assert coords == LinComb({0: 3, 1: -1}) and rest == C
    coords, rest = envelope._express(C, basis, leads)
    assert coords.is_zero() and rest == C


def test_letter_off_the_primitive_span_is_a_defect():
    # as many primitives as letters, but the letter a of weight 2 is
    # identified with b<b, which is not primitive: the count passes, and
    # only the letter check finds the defect
    b = BraceStructure(2, ["b", "a"], {}, weights=[1, 2])
    span = DendSpan(b.letters(), 2)
    B = DendElement.generator("b")
    span.insert(DendElement.generator("a") - dprec(B, B))
    q = envelope.TruncatedQuotient(b, 2, span, True)
    elems, _, defects = envelope_primitives(q)
    assert len(elems) == 2
    assert defects[0] == {"case": "primitives", "count": 2, "letters": 2}


def test_envelope_of_associative_brace():
    b = assoc_brace()
    q = build_envelope(b, 4)
    assert q.dims() == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}
    assert q.stable and not q.graded
    elems, dims, defects = envelope_primitives(q)
    assert len(elems) == 1 and defects == []


def mixed_brace():
    """{a|b} = a - b: inhomogeneous, and unstable at bound 2.
    It is invalid on purpose: it breaks the brace relation at arity 3."""
    return BraceStructure(2, ["a", "b"], {(0, (1,)): LinComb([(0, 1), (1, -1)])})


def test_dims_next_is_the_dims_of_the_next_slack_run():
    # the second saturation, one degree further, is the main one of the
    # envelope at the next bound, read up to this bound
    cases = [(assoc_brace(), 2), (assoc_brace(), 3), (mixed_brace(), 2), (weighted_inhomogeneous_brace(), 2)]
    for b, bound in cases:
        q = build_envelope(b, bound)
        assert not q.graded
        after = build_envelope(b, bound + 1).dims()
        assert q.dims_next == {d: n for d, n in after.items() if d <= bound}
        assert q.stable == (q.dims() == q.dims_next)
    assert not build_envelope(mixed_brace(), 2).stable
    for b in (trivial_brace(2), harvest_brace(1, 3)[0]):
        q = build_envelope(b, 3)
        assert q.graded and q.stable and q.dims_next is None


def test_graded_matches_homogeneous_relation_generators():
    """graded is read off the declared structure constants, whatever
    the bound; it agrees with the rule that every relation generator up
    to the heaviest declared tuple is homogeneous."""
    braces = [
        trivial_brace(2),
        assoc_brace(),
        mixed_brace(),
        BraceStructure(2, ["a", "b"], {(0, (0,)): LinComb.single(1)}, weights=[1, 2]),
        heavy_value_brace(),
        # the only inhomogeneous constant has weight 3, past bounds 1 and 2
        BraceStructure(1, ["a"], {(0, (0, 0)): LinComb.single(0)}),
    ]
    seen = set()
    for b in braces:
        wdeg = b.letters()
        heaviest = max([2] + [b.tuple_weight(root, args) for root, args in b.products])
        gens = relation_generators(b, heaviest)
        homogeneous = all(
            len({sum(wdeg[x] for x in t.decorations()) for t in g.terms}) <= 1
            for g in gens
        )
        for bound in (1, 2, 3):
            assert build_envelope(b, bound).graded == homogeneous
        seen.add(homogeneous)
    assert seen == {True, False}


def test_constant_past_the_next_degree_is_seen():
    """{x|y} = u, {y|x} = -u, {u|x} = u: the inhomogeneous constant has
    tuple weight 3, one past bound 2.  The report says so: not graded,
    and the truncation at 2 differs from the one at 3."""
    report, defects = build_envelope(weighted_inhomogeneous_brace(), 2).report()
    assert (report["graded"], report["stable"], report["dims"]) == (False, False, [1, 2, 5])
    assert defects == [{"case": "unstable truncation", "dims_next": {0: 1, 1: 2, 2: 4}}]


def test_value_heavier_than_the_truncation_is_a_constants_defect():
    # {a|a} = b with b of weight 3: at bound 2 the relation a<a - a>a - b
    # lies past the truncation and cannot hold there; at bound 4 it is
    # inside, holds, and the extra primitive a<a - a>a is the defect
    constants = {"case": "structure constants", "root": 0, "args": [0]}
    report, defects = build_envelope(heavy_value_brace(), 2).report()
    assert report["primitive_basis"] == ["a", "-a<a + a>a"]
    assert defects == [{"case": "primitives", "count": 2, "letters": 1}, constants]
    report, defects = build_envelope(heavy_value_brace(), 4).report()
    assert report["dims"] == [1, 1, 2, 3, 6]
    assert [d["case"] for d in defects] == ["primitives", "unstable truncation"]


def test_harvest_and_free_envelope():
    b, prims = harvest_brace(1, 3)
    assert b.dim == 4 and b.weights == [1, 2, 3, 3]
    assert validate_brace(b, 4) == []
    q = build_envelope(b, 3)
    assert q.dims() == {0: 1, 1: 1, 2: 1 + 1, 3: 5}
    assert q.stable
    elems, dims, defects = envelope_primitives(q)
    assert len(elems) == b.dim and defects == []


def test_harvested_constants_match_brace_of_primitives():
    b, prims = harvest_brace(1, 3)
    # {p1|p1} is the degree-2 primitive
    value = b.brace(0, (0,))
    assert str(value.map_keys(lambda i: b.basis[i])) == "p2"
    assert psi_corolla([prims[0], prims[0]]) == prims[1]
    # every tuple within the weight bound holds the corolla image of its
    # primitives
    tuples = [
        t for n in (2, 3) for t in product(range(b.dim), repeat=n) if b.tuple_weight(t[0], t[1:]) <= 3
    ]
    assert len(tuples) == len(b.products) == 4
    for t in tuples:
        value = DendElement.sum((prims[i], c) for i, c in b.brace(t[0], t[1:]).terms.items())
        assert psi_corolla([prims[j] for j in t]) == value, t


def test_brace_structure_json_roundtrip(tmp_path):
    b, _ = harvest_brace(1, 3)
    data = b.to_json()
    again = BraceStructure.from_json(data)
    assert again.dim == b.dim and again.products == b.products
    assert again.weights == b.weights
    assert again.weight_bound == b.weight_bound == 3
    path = tmp_path / "brace.json"
    path.write_text(json.dumps(data))
    loaded = BraceStructure.load(path)
    assert loaded.products == b.products and loaded.weight_bound == 3


def test_from_json_ignores_max_arity():
    doc = {"dim": 1, "basis": ["a"], "max_arity": "x", "products": []}
    b = BraceStructure.from_json(doc)
    assert b.dim == 1 and "max_arity" not in b.to_json()


def test_bad_arguments_raise_brace_error():
    b = trivial_brace(1)
    with pytest.raises(BraceError):
        relation_generators(b, 1)
    with pytest.raises(BraceError):
        build_envelope(b, 0)
    with pytest.raises(BraceError):
        build_envelope(harvest_brace(1, 2)[0], 3)
    for dim in (True, 1.0):
        with pytest.raises(BraceError, match="dim must be an integer"):
            BraceStructure(dim, ["a"], {})


def test_harvest_value_outside_primitive_span_raises(monkeypatch):
    # a corolla landing off the primitives is a bug, reported as such
    monkeypatch.setattr(envelope, "psi_corolla", lambda args: dprec(A, A))
    with pytest.raises(HarvestError):
        harvest_brace(1, 2)


def test_brace_structure_accessors():
    b = assoc_brace()
    assert b.brace(0, ()) == LinComb.single(0)
    assert b.brace(0, (0,)) == LinComb.single(0)
    assert b.brace(0, (0, 0)).is_zero()
    assert b.brace(0, (0,) * 6).is_zero()


def test_weight_bound_guard():
    b, _ = harvest_brace(1, 3)
    with pytest.raises(BraceError):
        b.brace(3, (3,))  # two degree-3 letters exceed the bound


def test_theta_roundtrip_small():
    rep = theta_roundtrip(1, 3)
    assert rep["dims_envelope"] == [1, 1, 2, 5]
    assert rep["dims_equal"] and rep["surjective"] and rep["intertwined"]
    assert rep["stable"]


def test_theta_roundtrip_two_generators():
    rep = theta_roundtrip(2, 2)
    assert rep["dims_envelope"] == [1, 2, 8]
    assert rep["dims_equal"] and rep["surjective"] and rep["intertwined"]
