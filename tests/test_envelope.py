import json
from itertools import product

import pytest

from treealg.linalg import LinComb
from treealg.dendriform import (
    DendElement,
    dprec,
    dstar,
    dsucc,
    psi_corolla,
    upcomb,
)
from treealg.bialgebra import TensorSquareElement
from treealg import words
from treealg import envelope
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
        elems, dims, check = envelope_primitives(q)
        assert len(elems) == dim
        assert check["letters_primitive"] and not check["product_defects"]


def test_envelope_of_associative_brace():
    b = assoc_brace()
    q = build_envelope(b, 4, slack=1)
    assert q.dims() == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}
    assert q.stable and not q.graded
    elems, dims, check = envelope_primitives(q)
    assert len(elems) == 1 and not check["product_defects"]


def mixed_brace():
    """{a|b} = a - b: inhomogeneous, and unstable at bound 2 without slack.
    It is invalid on purpose: it breaks the brace relation at arity 3."""
    return BraceStructure(2, ["a", "b"], {(0, (1,)): LinComb([(0, 1), (1, -1)])})


def test_dims_next_is_the_dims_of_the_next_slack_run():
    cases = [(assoc_brace(), 3, 0), (assoc_brace(), 3, 1), (assoc_brace(), 4, 1), (mixed_brace(), 2, 0)]
    for b, bound, slack in cases:
        q = build_envelope(b, bound, slack)
        assert not q.graded
        assert q.dims_next == build_envelope(b, bound, slack + 1).dims()
        assert q.stable == (q.dims() == q.dims_next)
    assert not build_envelope(mixed_brace(), 2, 0).stable
    for b in (trivial_brace(2), harvest_brace(1, 3)[0]):
        q = build_envelope(b, 3, 1)
        assert q.graded and q.stable and q.dims_next is None


def test_graded_matches_homogeneous_relation_generators():
    """graded is read off the structure constants; it agrees with the
    rule it replaced, that every relation generator up to weight
    max(bound + slack, 2) is homogeneous."""
    braces = [
        trivial_brace(2),
        assoc_brace(),
        mixed_brace(),
        BraceStructure(2, ["a", "b"], {(0, (0,)): LinComb.single(1)}, weights=[1, 2]),
        BraceStructure(2, ["a", "b"], {(0, (0,)): LinComb.single(1)}, weights=[1, 3]),
        # the only inhomogeneous constant has weight 3
        BraceStructure(1, ["a"], {(0, (0, 0)): LinComb.single(0)}),
    ]
    seen = set()
    for b in braces:
        wdeg = b.letters()
        for bound, slack in ((1, 0), (1, 1), (2, 0), (2, 1)):
            gens = relation_generators(b, max(bound + slack, 2))
            homogeneous = all(
                len({sum(wdeg[x] for x in t.decorations()) for t in g.terms}) <= 1
                for g in gens
            )
            assert build_envelope(b, bound, slack).graded == homogeneous
            seen.add(homogeneous)
    assert seen == {True, False}


def test_harvest_and_free_envelope():
    b, prims = harvest_brace(1, 3)
    assert b.dim == 4 and b.weights == [1, 2, 3, 3]
    assert validate_brace(b, 4) == []
    q = build_envelope(b, 3, slack=0)
    assert q.dims() == {0: 1, 1: 1, 2: 1 + 1, 3: 5}
    assert q.stable
    elems, dims, check = envelope_primitives(q)
    assert len(elems) == b.dim
    assert check["letters_primitive"] and not check["product_defects"]


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
    path = tmp_path / "brace.json"
    path.write_text(json.dumps(data))
    assert BraceStructure.load(path).products == b.products


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
        build_envelope(b, 2, slack=-1)
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
