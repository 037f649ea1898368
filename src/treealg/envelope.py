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
from itertools import product

from treealg.linalg import LinComb, Span, kernel_basis, rat, rat_str, span_contains
from treealg.trees import catalan, pbt_basis
from treealg.dendriform import (
    DendElement,
    DendSpan,
    eval_pbt,
    psi_corolla,
    s_closure,
    upcomb,
)
from treealg.operads import interval_partitions
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

    products maps (root index, argument index tuple) to a LinComb over
    basis indices; tuples absent within the declared bounds are zero.
    weight_bound, when set, marks the structure as a truncation: tuples
    of total weight beyond it are unknown and raise on access.
    """

    def __init__(self, dim, basis, products, weights=None, weight_bound=None):
        if dim != len(basis):
            raise BraceError("dim is %r but the basis has %d entries" % (dim, len(basis)))
        if not all(isinstance(name, str) for name in basis):
            raise BraceError("basis entries must be strings, got %r" % (basis,))
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
        self.weights = list(weights) if weights else [1] * dim
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
        out = LinComb()
        spread = [list(a.terms.items()) for a in args]
        for r, cr in root.terms.items():
            for combo in product(*spread):
                coeff = cr
                for _, c in combo:
                    coeff = coeff * c
                out = out + self.brace(r, [i for i, _ in combo]).scale(coeff)
        return out

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
                        {"coeff": rat_str(c), "index": i} for i, c in value.items()
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
        """Parse and validate; any malformed input, a missing key or a
        coefficient that is not a rational included, raises BraceError.
        Keys other than dim, basis, products and weights are ignored."""
        try:
            products = {}
            for entry in data.get("products", []):
                value = LinComb(
                    (item["index"], rat(item["coeff"])) for item in entry["value"]
                )
                products[(entry["root"], tuple(entry["args"]))] = value
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


def trivial_brace(dim, basis=None) -> BraceStructure:
    if basis is None:
        basis = [chr(ord("a") + i) for i in range(dim)]
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
    """Check the corolla relations on all basis tuples with
    n+m+1 <= arity_bound; returns the list of defects (empty = valid).

    Tuples whose total weight exceeds a declared weight_bound are
    outside the structure's authority and are not visited.
    """
    defects = []
    limit = math.inf if b.weight_bound is None else b.weight_bound
    for n in range(1, arity_bound):
        for m in range(1, arity_bound - n):
            for z in range(b.dim):
                room = limit - b.weights[z]
                for xs in weighted_tuples(b.weights, n, room):
                    rest = room - sum(b.weights[j] for j in xs)
                    for ys in weighted_tuples(b.weights, m, rest):
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


def _named(b: BraceStructure, combo: LinComb) -> str:
    return str(combo.map_keys(lambda i: b.basis[i]))


def relation_generators(b: BraceStructure, degree_bound: int):
    """Ideal generators: corolla image minus structure-constant value,
    for every basis tuple (root, args...) of total weight <= degree_bound
    (and <= the structure's weight_bound), visited by weighted_tuples in
    product order, arity by arity, up to the first arity with none.

    Includes arity 2 (identifying x<y - y>x with {x|y}); without it a
    trivial brace envelope would be the whole free algebra in degree 2.
    """
    if degree_bound < 2:
        raise BraceError("relation generators need a degree bound >= 2, got %r" % (degree_bound,))
    limit = degree_bound if b.weight_bound is None else min(degree_bound, b.weight_bound)
    gens = []
    letters = [DendElement.generator(name) for name in b.basis]
    for arity in range(2, degree_bound + 1):
        found = False
        for tup in weighted_tuples(b.weights, arity, limit):
            found = True
            value = b.brace(tup[0], tup[1:])
            low = DendElement()
            for i, c in value.terms.items():
                low = low + letters[i].scale(c)
            gens.append(psi_corolla([letters[j] for j in tup]) - low)
        if not found:
            break
    return gens


class TruncatedQuotient:
    """Degree-truncated envelope: quotient of the free dendriform
    algebra on the brace basis by the saturated relation ideal."""

    def __init__(self, brace, bound, slack, span: DendSpan, graded, stable, stable_dims):
        self.brace = brace
        self.bound = bound
        self.slack = slack
        self.span = span
        self.graded = graded
        self.stable = stable
        self._stable_dims = stable_dims
        self.notes = [
            "relation generators include the arity-2 identifications x<y - y>x = {x|y}"
        ]

    def weighted_degree(self, e: DendElement) -> int:
        return max(
            [0] + [self.span.wdeg(t) for t in e.body.terms]
        )

    def reduce(self, e: DendElement) -> DendElement:
        """Canonical representative modulo the truncated ideal."""
        if self.weighted_degree(e) > self.span.cutoff:
            raise BraceError("degree overflow: element exceeds the truncation")
        return self.span.reduce(e)

    def dims(self):
        """Filtration dimensions: degree 0 is the unit line."""
        cols = {}
        for t in self.span.span.columns:
            w = self.span.wdeg(t)
            cols[w] = cols.get(w, 0) + 1
        ranks = self.span.degree_dims()
        out = {0: 1}
        for d in range(1, self.bound + 1):
            out[d] = cols.get(d, 0) - ranks.get(d, 0)
        return out

    def quotient_trees(self):
        """Non-pivot basis trees (class representatives) per degree."""
        pivots = set(self.span.span.pivot_keys())
        out = {}
        for t in self.span.span.columns:
            d = self.span.wdeg(t)
            if d <= self.bound and t not in pivots:
                out.setdefault(d, []).append(t)
        return out

    def class_of(self, t) -> DendElement:
        return self.reduce(DendElement.from_tree(t))

    def _reduce_leg(self, key) -> DendElement:
        if key.is_leaf():
            return DendElement.one()
        return self.reduce(DendElement.from_tree(key))

    def coproduct(self, e: DendElement) -> TensorSquareElement:
        """Coproduct computed upstairs, both tensor legs reduced."""
        if self.weighted_degree(e) > self.bound:
            raise BraceError("degree overflow: coproduct is reported up to the bound")
        return coproduct(self.reduce(e)).map_legs(self._reduce_leg, self._reduce_leg)

    def verify_coideal(self):
        """Reduce the coproduct of every ideal basis row in the quotient
        tensor square; non-vanishing rows are returned as defects."""
        defects = []
        for row in self.span.basis_elements():
            d = coproduct(row).map_legs(self._reduce_leg, self._reduce_leg)
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

    Homogeneous generators (trivial structure constants) make the ideal
    graded, so truncation is exact: the slack run is skipped and the
    stability flag is set.  Otherwise dimensions are compared against a
    slack+1 run; instability marks the report untrusted.
    """
    if bound < 1 or slack < 0:
        raise BraceError(
            "an envelope needs bound >= 1 and slack >= 0, got %r and %r" % (bound, slack)
        )
    letters = b.letters()
    alphabet = list(letters)
    weights = letters

    def wdegs(e):
        return {sum(letters[x] for x in t.decorations()) for t in e.body.terms}

    gens = relation_generators(b, max(bound + slack, 2))
    graded = all(len(wdegs(g)) <= 1 for g in gens)
    if graded:
        span = s_closure(
            relation_generators(b, max(bound, 2)), bound, alphabet=alphabet, weights=weights
        )
        return TruncatedQuotient(b, bound, slack, span, True, True, None)
    span = s_closure(gens, bound + slack, alphabet=alphabet, weights=weights)
    span_next = s_closure(
        relation_generators(b, bound + slack + 1),
        bound + slack + 1,
        alphabet=alphabet,
        weights=weights,
    )
    quota = TruncatedQuotient(b, bound, slack, span, False, True, None)
    next_quota = TruncatedQuotient(b, bound, slack + 1, span_next, False, True, None)
    stable = quota.dims() == next_quota.dims()
    quota.stable = stable
    quota._stable_dims = next_quota.dims()
    return quota


def envelope_primitives(q: TruncatedQuotient):
    """Kernel of the reduced quotient coproduct on the class basis.

    Returns (primitive elements, dims by top degree, structure check),
    where the structure check replays every declared brace product on
    the primitive classes and compares with the structure constants.
    """
    classes = [t for _, trees in sorted(q.quotient_trees().items()) for t in trees]
    images = []
    for t in classes:
        delta = q.coproduct(DendElement.from_tree(t))
        delta = delta - TensorSquareElement.from_product(
            q.class_of(t), DendElement.one()
        )
        delta = delta - TensorSquareElement.from_product(
            DendElement.one(), q.class_of(t)
        )
        images.append(delta.combo)
    elems = [DendElement(0, v) for v in kernel_basis(classes, images)]
    dims = {}
    for e in elems:
        dims[q.weighted_degree(e)] = dims.get(q.weighted_degree(e), 0) + 1
    check = _structure_roundtrip(q, elems)
    return elems, dims, check


def _structure_roundtrip(q: TruncatedQuotient, prim_elems) -> dict:
    """Recompute brace products on the letter classes and compare with
    the input structure constants (within the truncation bound)."""
    b = q.brace
    letters = [DendElement.generator(name) for name in b.basis]
    # primitives must span exactly the letter lines
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
    limit = q.bound if b.weight_bound is None else min(q.bound, b.weight_bound)
    for arity in range(2, q.bound + 1):
        for tup in weighted_tuples(b.weights, arity, limit):
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


def harvest_brace(n_gens: int, max_degree: int):
    """Brace structure on the primitives of the free algebra on n_gens
    generators, up to the degree bound; weights are primitive degrees.

    For each root, and each arity, the argument tuples within the weight
    left by the root come from weighted_tuples in product order.
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
        if terms[0][1] != 1:
            raise HarvestError("primitive %s is not monic at its pivot" % p)

    def express(e: DendElement) -> LinComb:
        coords = LinComb((i, e.body.coeff(pivots[i])) for i in range(len(prims)))
        rest = e
        for i, c in coords.terms.items():
            rest = rest - prims[i].scale(c)
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


def theta_roundtrip(n_gens: int, bound: int, slack: int = 0) -> dict:
    """Harvest the primitives of the free algebra, build the envelope of
    the harvested brace, and compare the two along the canonical map.

    Reports per-degree dimension equality, per-degree surjectivity of
    the evaluation map, and coproduct intertwining on the up-comb
    monomials of primitives.
    """
    alphabet = [chr(ord("a") + i) for i in range(n_gens)]
    b, prims = harvest_brace(n_gens, bound)
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
        span = Span(sorted(pbt_basis(d, alphabet), key=str))
        for t in classes.get(d, []):
            span.insert(theta(DendElement.from_tree(t)).body)
        surjective[d] = span.rank == len(span.columns)

    intertwined = True
    for length in range(1, bound + 1):
        for tup in weighted_tuples(b.weights, length, bound):
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
