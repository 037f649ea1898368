"""Differential tests of the weight-bounded tuple enumeration.

weighted_tuples replaced loops that walked every index tuple with
itertools.product and dropped the ones over the weight bound.  The
old_* functions below are verbatim copies of the functions as they were
before (BraceStructure's removed max_arity argument aside); the tests
require the same output, order included.
"""

import math
from itertools import product

from hypothesis import given, strategies as st

from treealg.bialgebra import coproduct, primitives
from treealg.dendriform import DendElement, eval_pbt, psi_corolla, upcomb
from treealg.envelope import (
    BraceStructure,
    TruncatedQuotient,
    _named,
    _structure_roundtrip,
    build_envelope,
    envelope_primitives,
    harvest_brace,
    relation_generators,
    theta_roundtrip,
    validate_brace,
    weighted_tuples,
)
from treealg.linalg import LinComb
from treealg.operads import interval_partitions


def old_validate_brace(b: BraceStructure, arity_bound: int):
    """Check the corolla relations on all basis tuples with
    n+m+1 <= arity_bound; returns the list of defects (empty = valid).

    Tuples whose total weight exceeds a declared weight_bound are
    outside the structure's authority and are skipped.
    """
    defects = []
    idx = range(b.dim)
    for n in range(1, arity_bound):
        for m in range(1, arity_bound - n):
            for z in idx:
                for xs in product(idx, repeat=n):
                    for ys in product(idx, repeat=m):
                        if b.weight_bound is not None:
                            w = b.weights[z] + sum(b.weights[j] for j in xs + ys)
                            if w > b.weight_bound:
                                continue
                        lhs = b.brace_multi(b.brace(z, xs), [LinComb.single(y) for y in ys])
                        rhs = LinComb()
                        for blocks in interval_partitions(list(ys), 2 * n + 1):
                            args = []
                            for i in range(n):
                                args.extend(LinComb.single(y) for y in blocks[2 * i])
                                args.append(b.brace(xs[i], blocks[2 * i + 1]))
                            args.extend(LinComb.single(y) for y in blocks[2 * n])
                            rhs = rhs + b.brace_multi(LinComb.single(z), args)
                        if lhs != rhs:
                            defects.append(
                                {
                                    "n": n,
                                    "m": m,
                                    "root": z,
                                    "xs": list(xs),
                                    "ys": list(ys),
                                    "lhs": _named(b, lhs),
                                    "rhs": _named(b, rhs),
                                }
                            )
    return defects




def old_relation_generators(b: BraceStructure, degree_bound: int):
    """Ideal generators: corolla image minus structure-constant value,
    for every basis tuple of total weight <= degree_bound.

    Includes arity 2 (identifying x<y - y>x with {x|y}); without it a
    trivial brace envelope would be the whole free algebra in degree 2.
    """
    assert degree_bound >= 2
    gens = []
    letters = [DendElement.generator(name) for name in b.basis]
    idx = range(b.dim)
    for arity in range(2, degree_bound + 1):
        found = False
        for tup in product(idx, repeat=arity):
            w = b.weights[tup[0]] + sum(b.weights[j] for j in tup[1:])
            if w > degree_bound:
                continue
            if b.weight_bound is not None and w > b.weight_bound:
                continue
            found = True
            value = b.brace(tup[0], tup[1:])
            low = DendElement()
            for i, c in value.terms.items():
                low = low + letters[i].scale(c)
            gens.append(psi_corolla([letters[j] for j in tup]) - low)
        if not found:
            break
    return gens




def old_structure_roundtrip(q: TruncatedQuotient, prim_elems) -> dict:
    """Recompute brace products on the letter classes and compare with
    the input structure constants (within the truncation bound)."""
    b = q.brace
    letters = [DendElement.generator(name) for name in b.basis]
    # primitives must span exactly the letter lines
    from treealg.linalg import span_contains

    prim_combos = [p.body for p in prim_elems]
    letters_in = all(
        span_contains(prim_combos, q.reduce(x).body) for x in letters
    )
    size_match = len(prim_elems) == b.dim
    product_defects = []
    for (root, args), value in sorted(b.products.items()):
        w = b.tuple_weight(root, args)
        if w > q.bound:
            continue
        lhs = q.reduce(psi_corolla([letters[root]] + [letters[j] for j in args]))
        rhs = DendElement()
        for i, c in value.terms.items():
            rhs = rhs + letters[i].scale(c)
        if lhs != q.reduce(rhs):
            product_defects.append({"root": root, "args": list(args)})
    # zero products within reach must reduce to zero as well
    idx = range(b.dim)
    for arity in range(2, q.bound + 1):
        for tup in product(idx, repeat=arity):
            w = b.weights[tup[0]] + sum(b.weights[j] for j in tup[1:])
            if w > q.bound:
                continue
            if b.weight_bound is not None and w > b.weight_bound:
                continue
            if (tup[0], tup[1:]) in b.products:
                continue
            lhs = q.reduce(psi_corolla([letters[j] for j in tup]))
            if not lhs.is_zero():
                product_defects.append({"root": tup[0], "args": list(tup[1:])})
    return {
        "primitive_count_matches_dim": size_match,
        "letters_primitive": letters_in,
        "product_defects": product_defects,
    }


def old_harvest_brace(n_gens: int, max_degree: int):
    """Brace structure on the primitives of the free algebra on n_gens
    generators, up to the degree bound; weights are primitive degrees.

    Returns (BraceStructure, primitive elements in basis order)."""
    alphabet = [chr(ord("a") + i) for i in range(n_gens)]
    prims = []
    weights = []
    for d in range(1, max_degree + 1):
        for p in primitives(d, alphabet):
            prims.append(p)
            weights.append(d)
    names = ["p%d" % (i + 1) for i in range(len(prims))]
    # pivot tree of each primitive (the echelon pivot): coordinates of a
    # homogeneous primitive vector read off at the pivots
    from treealg.dendriform import pbt_expr

    pivots = []
    for p in prims:
        terms = sorted(p.body.terms.items(), key=lambda kv: pbt_expr(kv[0]))
        pivots.append(terms[0][0])
        assert terms[0][1] == 1

    def express(e: DendElement) -> LinComb:
        coords = LinComb((i, e.body.coeff(pivots[i])) for i in range(len(prims)))
        rest = e
        for i, c in coords.terms.items():
            rest = rest - prims[i].scale(c)
        assert rest.is_zero(), "value escaped the primitive span"
        return coords

    products = {}
    idx = range(len(prims))
    for root in idx:
        for arity in range(2, max_degree + 1):
            for args in product(idx, repeat=arity - 1):
                w = weights[root] + sum(weights[j] for j in args)
                if w > max_degree:
                    continue
                value = psi_corolla([prims[root]] + [prims[j] for j in args])
                coords = express(value)
                if coords:
                    products[(root, args)] = coords
    b = BraceStructure(
        len(prims),
        names,
        products,
        weights=weights,
        weight_bound=max_degree,
    )
    return b, prims



def old_theta_roundtrip(n_gens: int, bound: int, slack: int = 0) -> dict:
    """Harvest the primitives of the free algebra, build the envelope of
    the harvested brace, and compare the two along the canonical map.

    Reports per-degree dimension equality, per-degree surjectivity of
    the evaluation map, and coproduct intertwining on the up-comb
    monomials of primitives.
    """
    from treealg.linalg import Span
    from treealg.trees import catalan, pbt_basis

    alphabet = [chr(ord("a") + i) for i in range(n_gens)]
    b, prims = old_harvest_brace(n_gens, bound)
    q = build_envelope(b, bound, slack)
    assign = {name: prims[i] for i, name in enumerate(b.basis)}

    def theta(e: DendElement) -> DendElement:
        out = DendElement(e.unit)
        for t, c in e.body.terms.items():
            out = out + eval_pbt(t, assign).scale(c)
        return out

    def theta_leg(key) -> DendElement:
        if key.is_leaf():
            return DendElement.one()
        return theta(DendElement.from_tree(key))

    dims = q.dims()
    free_dims = {0: 1}
    for d in range(1, bound + 1):
        free_dims[d] = catalan(d) * n_gens**d
    dim_equal = {d: dims[d] == free_dims[d] for d in range(bound + 1)}

    surjective = {0: True}
    classes = q.quotient_trees()
    for d in range(1, bound + 1):
        basis = sorted(pbt_basis(d, alphabet), key=str)
        span = Span(basis)
        for t in classes.get(d, []):
            img = theta(DendElement.from_tree(t))
            span.insert(img.body)
        surjective[d] = span.rank == len(basis)

    intertwined = True
    for length in range(1, bound + 1):
        for tup in product(range(b.dim), repeat=length):
            if sum(b.weights[i] for i in tup) > bound:
                continue
            u = upcomb([DendElement.generator(b.basis[i]) for i in tup])
            lhs = coproduct(theta(q.reduce(u)))
            rhs = q.coproduct(u).map_legs(theta_leg, theta_leg)
            if lhs != rhs:
                intertwined = False
    return {
        "dims_envelope": [dims[d] for d in sorted(dims)],
        "dims_free": [free_dims[d] for d in sorted(free_dims)],
        "dims_equal": all(dim_equal.values()),
        "surjective": all(surjective.values()),
        "intertwined": intertwined,
        "stable": q.stable,
        "defects": [
            d
            for d, ok in sorted(dim_equal.items())
            if not ok
        ]
        + [("surjectivity", d) for d, ok in sorted(surjective.items()) if not ok],
    }


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


STRUCTURES = {
    "harvest(1,4)": lambda: harvest_brace(1, 4)[0],
    "harvest(2,3)": lambda: harvest_brace(2, 3)[0],
    "weighted": weighted_brace,
    "weighted-defective": lambda: weighted_brace(defective=True),
}


def test_relation_generators_match_brute_force():
    for name, make in STRUCTURES.items():
        b = make()
        for bound in range(2, 6):
            new = relation_generators(b, bound)
            assert new == old_relation_generators(b, bound), (name, bound)


def test_harvested_products_match_brute_force():
    for n_gens, max_degree in ((1, 4), (2, 3)):
        new, new_prims = harvest_brace(n_gens, max_degree)
        old, old_prims = old_harvest_brace(n_gens, max_degree)
        assert list(new.products.items()) == list(old.products.items())
        assert new.weights == old.weights and new_prims == old_prims


def test_validate_brace_defects_match_brute_force():
    for name, make in STRUCTURES.items():
        b = make()
        # arity weight_bound + 1 already reaches every tuple within the bound
        for arity_bound in range(2, b.weight_bound + 2):
            new = validate_brace(b, arity_bound)
            assert new == old_validate_brace(b, arity_bound), (name, arity_bound)
    assert validate_brace(weighted_brace(defective=True), 3)  # the defect is seen


def test_structure_roundtrip_matches_brute_force():
    for name in ("weighted", "harvest(2,3)", "harvest(1,4)"):
        b = STRUCTURES[name]()
        q = build_envelope(b, b.weight_bound, slack=0)
        elems, _, _ = envelope_primitives(q)
        assert _structure_roundtrip(q, elems) == old_structure_roundtrip(q, elems), name
    # the harvest(1,4) envelope read against zero constants: its nonzero
    # products, up to weight 4, come out as product defects
    q.brace = BraceStructure(b.dim, b.basis, {}, weights=b.weights, weight_bound=4)
    new = _structure_roundtrip(q, elems)
    assert new["product_defects"] and new == old_structure_roundtrip(q, elems)


def test_theta_roundtrip_matches_brute_force():
    for n_gens, bound in ((1, 4), (2, 3)):
        assert theta_roundtrip(n_gens, bound) == old_theta_roundtrip(n_gens, bound)
