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

import math
from functools import lru_cache
from itertools import product

from treealg.linalg import LinComb, Span, kernel_basis, rat
from treealg.trees import LABEL_RE, catalan, generator_names, pbt_basis
from treealg.dendriform import (
    DendElement,
    DendSpan,
    eval_pbt,
    pbt_expr,
    psi_corolla,
    substitute,
    upcomb,
)
from treealg.operads import brace_relation
from treealg.bialgebra import (
    TensorSquareElement,
    coproduct,
    primitives,
    reduced_coproduct,
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
    weight_bound, an integer >= 1 when set, marks the structure as a
    truncation: tuples of total weight beyond it are unknown and raise.
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
        if weight_bound is not None and (type(weight_bound) is not int or weight_bound < 1):
            raise BraceError("weight_bound must be an integer >= 1, got %r" % (weight_bound,))
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
        if self.weight_bound is not None:
            out["weight_bound"] = self.weight_bound
        return out

    @classmethod
    def from_json(cls, data) -> "BraceStructure":
        """Parse and validate; any malformed input, a missing key, a
        coefficient that is not an exact rational or a product declared
        twice included, raises BraceError.  Keys other than dim, basis,
        products, weights and weight_bound are ignored."""
        try:
            products = {}
            for entry in data.get("products", []):
                key = (entry["root"], tuple(entry["args"]))
                if key in products:
                    raise BraceError("root %r with args %r is declared twice" % (key[0], list(key[1])))
                products[key] = LinComb(
                    (item["index"], _exact_coeff(item["coeff"])) for item in entry["value"]
                )
            return cls(data["dim"], data["basis"], products, data.get("weights"), data.get("weight_bound"))
        except BraceError:
            raise
        except KeyError as exc:
            raise BraceError("malformed brace JSON: missing key %s" % exc) from None
        except (TypeError, AttributeError, ValueError, ArithmeticError) as exc:
            raise BraceError("malformed brace JSON: %s" % exc) from None

    @classmethod
    def load(cls, path) -> "BraceStructure":
        import json  # here, not at the top: importing the suites needs no json

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
    yield from _extend(weights, min(weights), (), length, bound)


def _extend(weights, lightest, prefix, left, room):
    # index i fits if w_i plus the lightest completion is within room
    fits = room - (left - 1) * lightest
    for i, w in enumerate(weights):
        if w <= fits:
            if left == 1:
                yield prefix + (i,)
            else:
                yield from _extend(weights, lightest, prefix + (i,), left - 1, room - w)


def validate_brace(b: BraceStructure, arity_bound: int):
    """Check that the weights filter the braces, and operads.brace_relation
    for brace_multi on all basis tuples (z, x1..xn, y1..ym) with
    n+m+1 <= arity_bound; returns the list of defects (empty = valid).

    A product whose value holds a letter heavier than its tuple is a
    "value heavier than its tuple" defect.  Tuples whose total weight
    exceeds a declared weight_bound are outside the structure's
    authority and are not visited.
    """
    defects = [
        {
            "case": "value heavier than its tuple",
            "root": root,
            "args": list(args),
            "weight": b.tuple_weight(root, args),
            "value": _named(b, value),
        }
        for (root, args), value in sorted(b.products.items())
        if max(b.weights[i] for i in value.terms) > b.tuple_weight(root, args)
    ]
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


class TruncatedQuotient:
    """Degree-truncated envelope: quotient of the free dendriform
    algebra on the brace basis by the saturated relation ideal.

    classes is the class table: every column of the span that is not a
    pivot, LEAF among them, with its weighted degree, in column order.
    Such a column is 0 at every pivot, so it is its own class, and the
    class trees of degree <= bound are a basis of the quotient.
    graded, dims_next and stable are set as build_envelope documents."""

    def __init__(self, brace, bound, span: DendSpan, graded, dims_next=None):
        self.brace = brace
        self.bound = bound
        self.span = span
        pivots = set(span.span.pivot_keys())
        self.classes = {t: span.wdegs[t] for t in span.span.columns if t not in pivots}
        self.graded = graded
        self.dims_next = dims_next
        self.stable = graded or self.dims() == dims_next
        self.notes = [
            "relation generators include the arity-2 identifications x<y - y>x = {x|y}"
        ]

    def reduce(self, e: DendElement) -> DendElement:
        """Canonical representative modulo the truncated ideal.

        A multiple of one class tree is returned as it is: a class tree
        is 0 at every pivot and within the cutoff."""
        if len(e.terms) == 1 and next(iter(e.terms)) in self.classes:
            return e
        if self.span.top_wdeg(e) > self.span.cutoff:
            raise BraceError("degree overflow: element exceeds the truncation")
        return DendElement(self.span.span.reduce(e))

    def dims(self):
        """Filtration dimensions: degree 0 is the unit line."""
        out = dict.fromkeys(range(self.bound + 1), 0)
        for d in self.classes.values():
            if d <= self.bound:
                out[d] += 1
        return out

    def quotient_trees(self):
        """Class trees per degree 1..bound, in column order."""
        out = {}
        for t, d in self.classes.items():
            if 0 < d <= self.bound:
                out.setdefault(d, []).append(t)
        return out

    def class_of(self, t) -> DendElement:
        """reduce of the tree t, read off the class table when t is a
        class tree."""
        if t in self.classes:
            return DendElement.from_tree(t)
        return self.reduce(DendElement.from_tree(t))

    def coproduct(self, e: DendElement) -> TensorSquareElement:
        """Coproduct of a class (an element in normal form, as reduce
        returns it), computed upstairs, both tensor legs reduced."""
        if self.span.top_wdeg(e) > self.bound:
            raise BraceError("degree overflow: coproduct is reported up to the bound")
        return coproduct(e).map_legs(self.class_of)

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

    def report(self):
        """(report, defects): the defects of envelope_primitives, then
        an {"case": "unstable truncation", "dims_next"} entry if any."""
        dims = self.dims()
        prim_elems, prim_dims, defects = envelope_primitives(self)
        if not self.stable:
            defects.append({"case": "unstable truncation", "dims_next": self.dims_next})
        return {
            "dims": [dims[d] for d in sorted(dims)],
            "stable": self.stable,
            "graded": self.graded,
            "primitive_basis": [str(p) for p in prim_elems],
            "primitive_dims": {str(k): v for k, v in sorted(prim_dims.items())},
            "notes": self.notes,
        }, defects


def build_envelope(b: BraceStructure, bound: int) -> TruncatedQuotient:
    """Saturate the relation ideal inside degrees <= bound.

    graded is true when every declared structure constant is a
    combination of letters of its tuple's weight.  The relation
    generators are then homogeneous, the ideal is graded and truncation
    is exact: stable is True and dims_next is None.  Otherwise the ideal
    is also saturated inside degrees <= bound+1; dims_next holds that
    run's dims(), and stable says whether it agrees with dims().  An
    unstable truncation is a defect of report().

    b is not checked against the brace relations; callers that need it
    run validate_brace first, as the envelope CLI verb does.  A
    truncation (weight_bound set) is refused beyond its weight_bound.
    """
    if bound < 1:
        raise BraceError("an envelope needs bound >= 1, got %r" % (bound,))
    if b.weight_bound is not None and bound > b.weight_bound:
        raise BraceError("structure constants unknown beyond total weight %d" % b.weight_bound)
    letters = b.letters()
    graded = all(
        b.weights[i] == b.tuple_weight(root, args)
        for (root, args), value in b.products.items()
        for i in value.terms
    )
    # saturate() skips the generators above its cutoff, so one list
    # serves both runs
    gens = relation_generators(b, max(bound, 2) if graded else bound + 1)
    span = DendSpan(letters, bound).saturate(gens)
    if graded:
        return TruncatedQuotient(b, bound, span, True)
    next_run = TruncatedQuotient(b, bound, DendSpan(letters, bound + 1).saturate(gens), False)
    return TruncatedQuotient(b, bound, span, False, next_run.dims())


def _express(e: DendElement, basis, leads):
    """(coords, rest): e's coordinates read off at the leads of a reduced
    echelon basis (each element 1 at its own lead, 0 at the others'), and
    e minus their combination, zero exactly when e lies in their span."""
    coords = LinComb((i, e.coeff(leads[i])) for i in range(len(basis)))
    rest = DendElement.sum([(e, 1)] + [(basis[i], -c) for i, c in coords.terms.items()])
    return coords, rest


def envelope_primitives(q: TruncatedQuotient):
    """Kernel of the reduced quotient coproduct on the class basis, in
    reduced echelon form over the class trees, and the check of
    Prim U(B) = B up to the bound.

    Returns (primitive elements, dims by top degree, defects): one
    {"case": "primitives", "count", "letters"} entry unless the
    primitives span exactly the lines of the letters of weight <= the
    bound, then one {"case": "structure constants", "root", "args"}
    entry per relation tuple within the bound (zero constants included,
    in _relations order) that does not reduce to 0, or whose value is
    heavier than the truncation.
    """
    classes = [t for _, trees in sorted(q.quotient_trees().items()) for t in trees]
    # a class tree is a non-pivot column, so it is its own class
    images = [reduced_coproduct(DendElement.from_tree(t)).map_legs(q.class_of) for t in classes]
    elems = [DendElement(v) for v in kernel_basis(classes, images)]
    dims = {}
    for e in elems:
        d = q.span.top_wdeg(e)
        dims[d] = dims.get(d, 0) + 1
    b = q.brace
    # each element leads with its first class tree; a letter reduces
    # along rows pivoted at its own degree, which the column order keeps
    # in degrees <= its weight: onto the class trees
    order = {t: i for i, t in enumerate(classes)}
    leads = [min(e.terms, key=order.__getitem__) for e in elems]
    letters = [DendElement.generator(x) for x, w in zip(b.basis, b.weights) if w <= q.bound]
    defects = []
    if len(elems) != len(letters) or any(_express(q.reduce(x), elems, leads)[1] for x in letters):
        defects.append({"case": "primitives", "count": len(elems), "letters": len(letters)})
    # a relation above the truncation has a value heavier than its
    # tuple, which lies within the bound: it cannot reduce to 0 there
    defects += [
        {"case": "structure constants", "root": tup[0], "args": list(tup[1:])}
        for tup, rel in _relations(b, q.bound)
        if q.span.top_wdeg(rel) > q.span.cutoff or not q.reduce(rel).is_zero()
    ]
    return elems, dims, defects


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
    # pivot tree of each primitive (the echelon pivot)
    pivots = [min(p.terms, key=pbt_expr) for p in prims]
    products = {}
    for root in range(len(prims)):
        for arity in range(2, max_degree + 1):
            for args in weighted_tuples(weights, arity - 1, max_degree - weights[root]):
                value = psi_corolla([prims[root]] + [prims[j] for j in args])
                coords, rest = _express(value, prims, pivots)
                if not rest.is_zero():
                    raise HarvestError("value %s escaped the primitive span" % value)
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
    The harvested brace is graded, so its truncated envelope is exact.

    Reports per-degree dimension equality, per-degree surjectivity of
    the evaluation map, and coproduct intertwining on the up-comb
    monomials of primitives; defects lists each failing degree, then
    ("surjectivity", degree) and ("intertwining", tuple) entries.
    """
    alphabet = generator_names(n_gens)
    b, prims = harvest_brace(n_gens, bound)
    q = build_envelope(b, bound)
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

    unintertwined = []
    for length in range(1, bound + 1):
        for tup in weighted_tuples(b.weights, length, bound):
            c = q.reduce(upcomb([DendElement.generator(b.basis[i]) for i in tup]))
            if coproduct(theta(c)) != q.coproduct(c).map_legs(lambda t: eval_pbt(t, assign)):
                unintertwined.append(tup)
    return {
        "dims_envelope": [dims[d] for d in sorted(dims)],
        "dims_free": [free_dims[d] for d in sorted(free_dims)],
        "dims_equal": all(dim_equal.values()),
        "surjective": all(surjective.values()),
        "intertwined": not unintertwined,
        "stable": q.stable,
        "defects": [
            d
            for d, ok in sorted(dim_equal.items())
            if not ok
        ]
        + [("surjectivity", d) for d, ok in sorted(surjective.items()) if not ok]
        + [("intertwining", tup) for tup in unintertwined],
    }
