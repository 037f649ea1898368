"""Enveloping dendriform algebra of a finite-dimensional brace algebra.

The input is a brace structure given by structure constants.  The
envelope is the free dendriform algebra on the brace basis modulo the
ideal identifying each corolla operation with its structure-constant
value, adjoined unit; everything is computed degree-truncated.

A basis letter may carry a weight (its filtration degree); structure
constants harvested from the primitives of a free algebra use the
primitive degree as weight, which is what makes the truncated envelope
of the free brace match the free dendriform dimensions.
"""

import json
import math
from functools import lru_cache
from itertools import product

from treealg.linalg import LinComb, Span, kernel_basis, rat, span_contains
from treealg.trees import LABEL_RE, catalan, generator_names, pbt_basis
from treealg.dendriform import (
    DendElement,
    DendSpan,
    eval_pbt,
    pbt_expr,
    psi_corolla,
    s_closure,
    substitute,
    upcomb,
)
from treealg.operads import brace_relation
from treealg.bialgebra import (
    TensorSquareElement,
    coproduct,
    primitives,
)


class BraceError(ValueError):
    pass


class HarvestError(RuntimeError):
    """A harvested brace value is not a combination of the primitives."""


def _check_index(i, dim, what):
    if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < dim:
        raise BraceError("%s index %r is outside range(%d)" % (what, i, dim))


class BraceStructure:
    """Finite-dimensional brace algebra by structure constants.

    basis is a list of dim distinct generator names; weights is None
    (every weight 1) or a list of dim integers >= 1.  products maps
    (root index, argument index tuple) to a LinComb over basis indices;
    tuples absent within the declared bounds are zero.
    weight_bound, when set, marks the structure as a truncation: tuples
    of total weight beyond it are unknown and raise on access.
    """

    def __init__(self, dim, basis, products, weights=None, weight_bound=None):
        if isinstance(dim, bool) or not isinstance(dim, int):
            raise BraceError("dim must be an integer, got %r" % (dim,))
        if not isinstance(basis, list):
            raise BraceError("the basis must be a list, got %r" % (basis,))
        if dim != len(basis):
            raise BraceError("dim is %r but the basis has %d entries" % (dim, len(basis)))
        for name in basis:
            # a name outside the label grammar, or "1" (the unit), would
            # print as a product, as the unit or as nothing
            if not isinstance(name, str) or not LABEL_RE.fullmatch(name) or name == "1":
                raise BraceError("a basis name must match %s and not be 1, got %r" % (LABEL_RE.pattern, name))
        if len(set(basis)) != dim:
            raise BraceError("the basis has a duplicate entry")
        self.dim = dim
        self.basis = list(basis)
        self.products = {}
        for (root, args), value in products.items():
            args = tuple(args)
            if not args:
                raise BraceError("a product of root %r has empty args" % (root,))
            _check_index(root, dim, "root")
            for j in args:
                _check_index(j, dim, "arg")
            value = value if isinstance(value, LinComb) else LinComb(value)
            for i in value.terms:
                _check_index(i, dim, "value")
            if value:
                self.products[(root, args)] = value
        if weights is not None and not isinstance(weights, list):
            raise BraceError("weights must be a list, got %r" % (weights,))
        self.weights = [1] * dim if weights is None else list(weights)
        if len(self.weights) != dim or not all(
            isinstance(w, int) and not isinstance(w, bool) and w >= 1 for w in self.weights
        ):
            raise BraceError("weights must be a list of %d integers >= 1, got %r" % (dim, self.weights))
        self.weight_bound = weight_bound

    def tuple_weight(self, root, args) -> int:
        return self.weights[root] + sum(self.weights[j] for j in args)

    def brace(self, root, args) -> LinComb:
        """{b_root | b_args...} as a combination of basis indices.

        Tuples absent from the table are zero at any arity; only a
        truncated structure (weight_bound set) refuses to answer beyond
        its bound."""
        args = tuple(args)
        if not args:
            return LinComb.single(root)
        if self.weight_bound is not None and self.tuple_weight(root, args) > self.weight_bound:
            raise BraceError(
                "structure constants unknown beyond total weight %d" % self.weight_bound
            )
        return self.products.get((root, args), LinComb())

    def brace_multi(self, root: LinComb, args) -> LinComb:
        """Multilinear extension to combinations of basis indices."""
        spread = [list(a.terms.items()) for a in args]
        return LinComb.sum(
            (self.brace(r, [i for i, _ in combo]), cr * math.prod(c for _, c in combo))
            for r, cr in root.terms.items()
            for combo in product(*spread)
        )

    def letters(self):
        return {name: self.weights[i] for i, name in enumerate(self.basis)}

    def to_json(self) -> dict:
        prods = []
        for (root, args), value in sorted(self.products.items()):
            prods.append(
                {
                    "root": root,
                    "args": list(args),
                    "value": [
                        {"coeff": str(c), "index": i} for i, c in value.items()
                    ],
                }
            )
        out = {
            "dim": self.dim,
            "basis": self.basis,
            "products": prods,
        }
        if any(w != 1 for w in self.weights):
            out["weights"] = self.weights
        return out

    @classmethod
    def from_json(cls, data) -> "BraceStructure":
        """Parse and validate; any malformed input, a missing key, a
        coefficient that is not an exact rational or a product declared
        twice included, raises BraceError.
        Keys other than dim, basis, products and weights are ignored."""
        try:
            products = {}
            for entry in data.get("products", []):
                key = (entry["root"], tuple(entry["args"]))
                if key in products:
                    raise BraceError("root %r with args %r is declared twice" % (key[0], list(key[1])))
                products[key] = LinComb(
                    (item["index"], _exact_coeff(item["coeff"])) for item in entry["value"]
                )
            return cls(data["dim"], data["basis"], products, weights=data.get("weights"))
        except BraceError:
            raise
        except KeyError as exc:
            raise BraceError("malformed brace JSON: missing key %s" % exc) from None
        except (TypeError, AttributeError, ValueError, ArithmeticError) as exc:
            raise BraceError("malformed brace JSON: %s" % exc) from None

    @classmethod
    def load(cls, path) -> "BraceStructure":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, too deep
                raise BraceError("%s is not a JSON file: %s" % (path, exc)) from None
        return cls.from_json(data)


def _exact_coeff(c):
    """A JSON coefficient as an exact rational: an integer, or a string
    such as "-2/3".  A float would be read as its binary value and a
    boolean as 0 or 1, so both raise."""
    if isinstance(c, bool) or not isinstance(c, (int, str)):
        raise BraceError('a coefficient must be an integer or a "p/q" string, got %r' % (c,))
    return rat(c)


def trivial_brace(dim, basis=None) -> BraceStructure:
    if basis is None:
        basis = generator_names(dim)
    return BraceStructure(dim, basis, {})


def weighted_tuples(weights, length, bound):
    """Index tuples t of the given length over range(len(weights)) with
    sum(weights[i] for i in t) <= bound.

    They come in the lexicographic order of
    itertools.product(range(len(weights)), repeat=length), of which
    they are exactly the tuples within the bound.  The walk is
    depth-first and extends a prefix only while its lightest completion
    still fits, so every prefix visited leads to a tuple yielded.
    bound may be math.inf; a negative bound yields nothing.
    """
    if length == 0:
        if bound >= 0:
            yield ()
        return
    if not weights:
        return
    lightest = min(weights)

    def extend(prefix, left, room):
        # index i fits if w_i plus the lightest completion is within room
        fits = room - (left - 1) * lightest
        for i, w in enumerate(weights):
            if w <= fits:
                if left == 1:
                    yield prefix + (i,)
                else:
                    yield from extend(prefix + (i,), left - 1, room - w)

    yield from extend((), length, bound)


def validate_brace(b: BraceStructure, arity_bound: int):
    """Check operads.brace_relation for brace_multi on all basis tuples
    (z, x1..xn, y1..ym) with n+m+1 <= arity_bound; returns the list of
    defects (empty = valid).

    Tuples whose total weight exceeds a declared weight_bound are
    outside the structure's authority and are not visited.
    """
    defects = []
    single = LinComb.single
    limit = math.inf if b.weight_bound is None else b.weight_bound
    for n in range(1, arity_bound):
        for m in range(1, arity_bound - n):
            for z in range(b.dim):
                room = limit - b.weights[z]
                for xs in weighted_tuples(b.weights, n, room):
                    rest = room - sum(b.weights[j] for j in xs)
                    for ys in weighted_tuples(b.weights, m, rest):
                        lhs, rhs = brace_relation(
                            b.brace_multi, single(z), list(map(single, xs)), list(map(single, ys))
                        )
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


def _named(b: BraceStructure, combo: LinComb) -> str:
    return str(combo.map_keys(lambda i: b.basis[i]))


def _relations(b: BraceStructure, bound: int):
    """(tuple, relation) for every basis tuple (root, args...) of arity
    >= 2 and total weight <= bound (and <= the structure's
    weight_bound): the corolla image of its letters minus its
    structure-constant value.  Tuples come from weighted_tuples in
    product order, arity by arity."""
    limit = bound if b.weight_bound is None else min(bound, b.weight_bound)
    letters = [DendElement.generator(name) for name in b.basis]
    for arity in range(2, bound + 1):
        for tup in weighted_tuples(b.weights, arity, limit):
            value = b.brace(tup[0], tup[1:]).terms.items()
            low = DendElement.sum((letters[i], c) for i, c in value)
            yield tup, psi_corolla([letters[j] for j in tup]) - low


def relation_generators(b: BraceStructure, degree_bound: int):
    """The relations of _relations within degree_bound, in its order.

    They include arity 2 (identifying x<y - y>x with {x|y}); without it
    a trivial brace envelope would be the whole free algebra in degree 2.
    """
    if degree_bound < 2:
        raise BraceError("relation generators need a degree bound >= 2, got %r" % (degree_bound,))
    return [rel for _, rel in _relations(b, degree_bound)]


def _filtration_dims(span: DendSpan, bound) -> dict:
    """Quotient dimension per weighted degree up to bound; degree 0 is
    the unit line."""
    cols = {}
    for t in span.span.columns:
        w = span.wdeg(t)
        cols[w] = cols.get(w, 0) + 1
    ranks = span.degree_dims()
    out = {0: 1}
    for d in range(1, bound + 1):
        out[d] = cols.get(d, 0) - ranks.get(d, 0)
    return out


class TruncatedQuotient:
    """Degree-truncated envelope: quotient of the free dendriform
    algebra on the brace basis by the saturated relation ideal.

    graded, dims_next and stable are set as build_envelope documents."""

    def __init__(self, brace, bound, span: DendSpan, graded, dims_next=None):
        self.brace = brace
        self.bound = bound
        self.span = span
        self.graded = graded
        self.dims_next = dims_next
        self.stable = graded or self.dims() == dims_next
        self.notes = [
            "relation generators include the arity-2 identifications x<y - y>x = {x|y}"
        ]

    def reduce(self, e: DendElement) -> DendElement:
        """Canonical representative modulo the truncated ideal."""
        if self.span.top_wdeg(e) > self.span.cutoff:
            raise BraceError("degree overflow: element exceeds the truncation")
        return self.span.reduce(e)

    def dims(self):
        """Filtration dimensions: degree 0 is the unit line."""
        return _filtration_dims(self.span, self.bound)

    def quotient_trees(self):
        """Non-pivot basis trees (class representatives) per degree."""
        pivots = set(self.span.span.pivot_keys())
        out = {}
        for t in self.span.span.columns:
            d = self.span.wdeg(t)
            if 0 < d <= self.bound and t not in pivots:
                out.setdefault(d, []).append(t)
        return out

    def class_of(self, t) -> DendElement:
        return self.reduce(DendElement.from_tree(t))

    def coproduct(self, e: DendElement) -> TensorSquareElement:
        """Coproduct computed upstairs, both tensor legs reduced."""
        if self.span.top_wdeg(e) > self.bound:
            raise BraceError("degree overflow: coproduct is reported up to the bound")
        return coproduct(self.reduce(e)).map_legs(self.class_of)

    def verify_coideal(self):
        """Reduce the coproduct of every ideal basis row in the quotient
        tensor square; non-vanishing rows are returned as defects."""
        defects = []
        class_of = lru_cache(maxsize=None)(self.class_of)  # the rows' coproducts share most legs
        for row in self.span.basis_elements():
            d = coproduct(row).map_legs(class_of)
            if not d.is_zero():
                defects.append(str(row))
        return defects

    def report(self) -> dict:
        dims = self.dims()
        prim_elems, prim_dims, _ = envelope_primitives(self)
        return {
            "dims": [dims[d] for d in sorted(dims)],
            "stable": self.stable,
            "graded": self.graded,
            "primitive_basis": [str(p) for p in prim_elems],
            "primitive_dims": {str(k): v for k, v in sorted(prim_dims.items())},
            "notes": self.notes,
        }


def build_envelope(b: BraceStructure, bound: int, slack: int = 1) -> TruncatedQuotient:
    """Saturate the relation ideal inside degrees <= bound+slack and
    truncate to the report bound.

    graded is true when every declared structure constant of tuple
    weight <= max(bound+slack, 2) is a combination of letters of that
    weight.  The relation generators are then homogeneous, the ideal is
    graded and truncation is exact: the ideal is saturated up to bound
    only, stable is True and dims_next is None.  Otherwise the ideal is
    also saturated inside degrees <= bound+slack+1; dims_next holds that
    run's dims(), and stable says whether it agrees with dims().  An
    unstable truncation marks the report untrusted.

    b is not checked against the brace relations; callers that need it
    run validate_brace first, as the envelope CLI verb does.
    """
    if bound < 1 or slack < 0:
        raise BraceError(
            "an envelope needs bound >= 1 and slack >= 0, got %r and %r" % (bound, slack)
        )
    letters = b.letters()
    reach = max(bound + slack, 2)
    graded = all(
        b.weights[i] == b.tuple_weight(root, args)
        for (root, args), value in b.products.items()
        if b.tuple_weight(root, args) <= reach
        for i in value.terms
    )
    if graded:
        gens = relation_generators(b, max(bound, 2))
        span = s_closure(gens, bound, alphabet=list(letters), weights=letters)
        return TruncatedQuotient(b, bound, span, True)
    # saturate() skips the generators above its cutoff, so one list
    # serves both runs
    gens = relation_generators(b, bound + slack + 1)
    span = s_closure(gens, bound + slack, alphabet=list(letters), weights=letters)
    span_next = s_closure(gens, bound + slack + 1, alphabet=list(letters), weights=letters)
    return TruncatedQuotient(b, bound, span, False, _filtration_dims(span_next, bound))


def envelope_primitives(q: TruncatedQuotient):
    """Kernel of the reduced quotient coproduct on the class basis.

    Returns (primitive elements, dims by top degree, structure check),
    where the structure check replays every declared brace product on
    the primitive classes and compares with the structure constants.
    """
    classes = [t for _, trees in sorted(q.quotient_trees().items()) for t in trees]
    images = [
        q.coproduct(DendElement.from_tree(t))
        - TensorSquareElement.from_product(q.class_of(t), DendElement.one())
        - TensorSquareElement.from_product(DendElement.one(), q.class_of(t))
        for t in classes
    ]
    elems = [DendElement(v) for v in kernel_basis(classes, images)]
    dims = {}
    for e in elems:
        dims[q.span.top_wdeg(e)] = dims.get(q.span.top_wdeg(e), 0) + 1
    check = _structure_roundtrip(q, elems)
    return elems, dims, check


def _structure_roundtrip(q: TruncatedQuotient, prim_elems) -> dict:
    """Recompute brace products on the letter classes and compare with
    the input structure constants, zero ones included, on every tuple
    within the truncation bound, in weighted_tuples order by arity."""
    b = q.brace
    # primitives must span exactly the lines of the letters within the
    # bound; a heavier letter lies outside the truncation
    within = [DendElement.generator(x) for x, w in zip(b.basis, b.weights) if w <= q.bound]
    letters_in = all(span_contains(prim_elems, q.reduce(x)) for x in within)
    size_match = len(prim_elems) == len(within)
    product_defects = [
        {"root": tup[0], "args": list(tup[1:])}
        for tup, rel in _relations(b, q.bound)
        if not q.reduce(rel).is_zero()
    ]
    return {
        "primitive_count_matches_dim": size_match,
        "letters_primitive": letters_in,
        "product_defects": product_defects,
    }


def harvest_brace(n_gens: int, max_degree: int):
    """Brace structure on the primitives of the free algebra on n_gens
    generators, up to the degree bound; weights are primitive degrees.

    For each root, and each arity, the argument tuples within the weight
    left by the root come from weighted_tuples in product order.
    Returns (BraceStructure, primitive elements in basis order)."""
    alphabet = generator_names(n_gens)
    prims = []
    weights = []
    for d in range(1, max_degree + 1):
        for p in primitives(d, alphabet):
            prims.append(p)
            weights.append(d)
    names = ["p%d" % (i + 1) for i in range(len(prims))]
    # pivot tree of each primitive (the echelon pivot): coordinates of a
    # homogeneous primitive vector read off at the pivots
    pivots = []
    for p in prims:
        terms = sorted(p.terms.items(), key=lambda kv: pbt_expr(kv[0]))
        pivots.append(terms[0][0])
        if terms[0][1] != 1:
            raise HarvestError("primitive %s is not monic at its pivot" % p)

    def express(e: DendElement) -> LinComb:
        coords = LinComb((i, e.coeff(pivots[i])) for i in range(len(prims)))
        rest = DendElement.sum([(e, 1)] + [(prims[i], -c) for i, c in coords.terms.items()])
        if not rest.is_zero():
            raise HarvestError("value %s escaped the primitive span" % e)
        return coords

    products = {}
    for root in range(len(prims)):
        for arity in range(2, max_degree + 1):
            for args in weighted_tuples(weights, arity - 1, max_degree - weights[root]):
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


def envelope_word_class(q: TruncatedQuotient, letters_seq) -> DendElement:
    """Class of the word b_1...b_n under the tensor identification: the
    coalgebra isomorphism sends a word to the up-comb of its letters in
    reversed order (deconcatenation then matches the coproduct)."""
    gens = [DendElement.generator(a) for a in reversed(list(letters_seq))]
    return q.reduce(upcomb(gens))


def theta_roundtrip(n_gens: int, bound: int) -> dict:
    """Harvest the primitives of the free algebra, build the envelope of
    the harvested brace, and compare the two along the canonical map.
    The harvested brace is graded, so its envelope is exact at slack 0.

    Reports per-degree dimension equality, per-degree surjectivity of
    the evaluation map, and coproduct intertwining on the up-comb
    monomials of primitives.
    """
    alphabet = generator_names(n_gens)
    b, prims = harvest_brace(n_gens, bound)
    q = build_envelope(b, bound, slack=0)
    assign = {name: prims[i] for i, name in enumerate(b.basis)}

    def theta(e: DendElement) -> DendElement:
        return substitute(e, assign)

    dims = q.dims()
    free_dims = {0: 1}
    for d in range(1, bound + 1):
        free_dims[d] = catalan(d) * n_gens**d
    dim_equal = {d: dims[d] == free_dims[d] for d in range(bound + 1)}

    surjective = {0: True}
    classes = q.quotient_trees()
    for d in range(1, bound + 1):
        span = Span(sorted(pbt_basis(d, alphabet), key=str))
        for t in classes.get(d, []):
            span.insert(theta(DendElement.from_tree(t)))
        surjective[d] = span.rank == len(span.columns)

    intertwined = True
    for length in range(1, bound + 1):
        for tup in weighted_tuples(b.weights, length, bound):
            u = upcomb([DendElement.generator(b.basis[i]) for i in tup])
            lhs = coproduct(theta(q.reduce(u)))
            rhs = q.coproduct(u).map_legs(lambda t: eval_pbt(t, assign))
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
