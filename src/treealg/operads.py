"""Operad composition on planar and non-planar rooted trees, the
symmetrization of non-planar trees into sums of planar ones, the
corolla relation defect, and per-arity ideal closures inside the
multilinear part of the free dendriform algebra."""

from itertools import combinations, combinations_with_replacement, permutations, product

from treealg.linalg import LinComb, Span
from treealg.trees import PlanarTree, RootedTree, angles, pbt_shapes
from treealg.dendriform import DendElement, dprec, dsucc, eval_pbt, positive_body


def corolla(n: int) -> PlanarTree:
    """The n-leaf corolla: root '1' with leaf children '2'..'n+1'."""
    assert n >= 0
    return PlanarTree("1", [PlanarTree(str(i)) for i in range(2, n + 2)])


def corolla_tree(root, leaves) -> PlanarTree:
    return PlanarTree(root, [PlanarTree(a) for a in leaves])


def _as_combo(x) -> LinComb:
    if isinstance(x, (PlanarTree, RootedTree)):
        return LinComb.single(x)
    if isinstance(x, OperadElement):
        return x.combo
    return x


def _compose_ape_trees(outer: PlanarTree, at, inner: PlanarTree):
    """All graftings of the entering edges of `at` onto angles of inner,
    one tree per weakly increasing assignment."""
    node = outer.find(at)
    if node is None:
        raise KeyError("no vertex %r in %s" % (at, outer))
    clash = (outer.label_set() - {at}) & inner.label_set()
    if clash:
        raise ValueError("label collision %s between %s and %s" % (sorted(clash), outer, inner))
    entering = node.children
    k = len(entering)
    angle_list = angles(inner)

    def rebuild(s, insertions):
        parts = list(insertions.get((s.label, 0), ()))
        for i, c in enumerate(s.children):
            parts.append(rebuild(c, insertions))
            parts.extend(insertions.get((s.label, i + 1), ()))
        return PlanarTree(s.label, parts)

    def substitute(t, replacement):
        if t.label == at:
            return replacement
        return PlanarTree(t.label, [substitute(c, replacement) for c in t.children])

    out = []
    for combo in combinations_with_replacement(range(len(angle_list)), k):
        insertions = {}
        for child, ai in zip(entering, combo):
            insertions.setdefault(tuple(angle_list[ai]), []).append(child)
        grafted = rebuild(inner, insertions)
        out.append(substitute(outer, grafted))
    return out


def compose_ape(outer, at, inner) -> LinComb:
    """Planar-tree operad composition, extended bilinearly.

    Every weakly increasing map from the entering edges of `at` to the
    angles of the inner tree contributes one grafting; edges sharing an
    angle keep their left-to-right order.
    """
    out = LinComb()
    for t, a in _as_combo(outer).terms.items():
        for s, b in _as_combo(inner).terms.items():
            out = out + LinComb((u, 1) for u in _compose_ape_trees(t, at, s)).scale(a * b)
    return out


def _compose_prelie_trees(outer: RootedTree, at, inner: RootedTree):
    node = outer.find(at)
    if node is None:
        raise KeyError("no vertex %r in %s" % (at, outer))
    clash = (outer.label_set() - {at}) & inner.label_set()
    if clash:
        raise ValueError("label collision %s between %s and %s" % (sorted(clash), outer, inner))
    entering = node.children
    vertices = inner.labels()

    def rebuild(s, attach):
        parts = [rebuild(c, attach) for c in s.children]
        parts.extend(attach.get(s.label, ()))
        return RootedTree(s.label, parts)

    def substitute(t, replacement):
        if t.label == at:
            return replacement
        return RootedTree(t.label, [substitute(c, replacement) for c in t.children])

    out = []
    for choice in product(vertices, repeat=len(entering)):
        attach = {}
        for child, v in zip(entering, choice):
            attach.setdefault(v, []).append(child)
        out.append(substitute(outer, rebuild(inner, attach)))
    return out


def compose_prelie(outer, at, inner) -> LinComb:
    """Non-planar composition: entering edges graft onto arbitrary
    vertices of the inner tree, one term per assignment."""
    out = LinComb()
    for t, a in _as_combo(outer).terms.items():
        for s, b in _as_combo(inner).terms.items():
            out = out + LinComb(
                (u, 1) for u in _compose_prelie_trees(t, at, s)
            ).scale(a * b)
    return out


def _phi_tree(t: RootedTree):
    options = [_phi_tree(c) for c in t.children]
    out = []
    for order in permutations(range(len(t.children))):
        for choice in product(*(options[i] for i in order)):
            out.append(PlanarTree(t.label, choice))
    return out


def phi(x) -> LinComb:
    """Symmetrization: a non-planar tree maps to the sum of all planar
    trees isomorphic to it (all child orderings, distinct by labels)."""
    out = LinComb()
    for t, a in _as_combo(x).terms.items():
        out = out + LinComb((u, 1) for u in _phi_tree(t)).scale(a)
    return out


class OperadElement:
    """Arity-indexed element: a combination of trees labeled 1..arity."""

    __slots__ = ("species", "arity", "combo")

    def __init__(self, species, arity, combo):
        assert species in ("planar", "nonplanar")
        self.species = species
        self.arity = arity
        self.combo = combo if isinstance(combo, LinComb) else LinComb.single(combo)
        want = {str(i) for i in range(1, arity + 1)}
        for t in self.combo.terms:
            assert set(t.labels()) == want and len(t.labels()) == arity, (
                "labels of %s are not 1..%d" % (t, arity)
            )

    def circ(self, i, other) -> "OperadElement":
        """Partial composition at slot i with 1..n renumbering."""
        assert 1 <= i <= self.arity and other.species == self.species
        k = other.arity
        outer_map = {str(j): str(j + k - 1) for j in range(i + 1, self.arity + 1)}
        outer_map[str(i)] = "@"
        inner_map = {str(j): str(j + i - 1) for j in range(1, k + 1)}
        outer = self.combo.map_keys(lambda t: t.relabel(outer_map))
        inner = other.combo.map_keys(lambda t: t.relabel(inner_map))
        compose = compose_ape if self.species == "planar" else compose_prelie
        return OperadElement(self.species, self.arity + k - 1, compose(outer, "@", inner))

    def __eq__(self, other):
        return (
            isinstance(other, OperadElement)
            and self.species == other.species
            and self.arity == other.arity
            and self.combo == other.combo
        )

    def __str__(self):
        return str(self.combo)


def interval_partitions(items, k):
    """Splittings of an ordered list into k consecutive, possibly empty
    blocks."""
    m = len(items)
    for cuts in combinations_with_replacement(range(m + 1), k - 1):
        bounds = (0,) + cuts + (m,)
        yield [items[bounds[i] : bounds[i + 1]] for i in range(k)]


def brace_relation_defect(n: int, m: int) -> LinComb:
    """Left minus right side of the corolla relation, composed in the
    planar operad.  The relation rewrites a root composition of two
    corollas as the sum over partitions of the ordered arguments
    y_1..y_m into 2n+1 consecutive, possibly empty intervals."""
    assert n >= 1 and m >= 1
    xs = ["x%d" % i for i in range(1, n + 1)]
    ys = ["y%d" % i for i in range(1, m + 1)]
    inner = corolla_tree("z", xs)
    outer = corolla_tree("w", ys)
    lhs = compose_ape(outer, "w", inner)

    rhs = LinComb()
    for blocks in interval_partitions(ys, 2 * n + 1):
        children = []
        composite = []
        for i in range(n):
            children.extend(blocks[2 * i])
            slot = "p%d" % i
            children.append(slot)
            composite.append((slot, xs[i], blocks[2 * i + 1]))
        children.extend(blocks[2 * n])
        term = LinComb.single(corolla_tree("z", children))
        for slot, x, block in composite:
            term = compose_ape(term, slot, corolla_tree(x, block))
        rhs = rhs + term
    return lhs - rhs


def multilinear_basis(arity: int):
    """Basis of the degree-n multilinear slice of the free dendriform
    algebra: trees decorated by a permutation of 1..n, sorted by str."""
    basis = []
    for shape in pbt_shapes(arity):
        for perm in permutations(str(i) for i in range(1, arity + 1)):
            mapping = {str(i + 1): perm[i] for i in range(arity)}
            basis.append(shape.relabel(mapping))
    basis.sort(key=str)
    return basis


def relabel_element(e: DendElement, mapping) -> DendElement:
    return DendElement(e.unit, e.body.map_keys(lambda t: t.relabel(mapping)))


def _graft(outer: DendElement, slot, inner: DendElement) -> DendElement:
    """Evaluate outer with `slot` bound to inner and all other letters
    kept as generators."""
    assign = {}
    for name in outer.decorations():
        assign[name] = inner if name == slot else DendElement.generator(name)
    out = DendElement()
    for t, c in outer.body.terms.items():
        out = out + eval_pbt(t, assign).scale(c)
    return out


class ClosureResult:
    """Per-arity spans produced by ideal_closure."""

    def __init__(self, max_arity):
        self.spans = {n: Span(multilinear_basis(n)) for n in range(2, max_arity + 1)}

    def rank(self, n) -> int:
        return self.spans[n].rank if n in self.spans else 0

    def dims(self):
        return {n: self.rank(n) for n in sorted(self.spans)}

    def contains(self, n, e: DendElement) -> bool:
        return self.spans[n].contains(positive_body(e))

    def basis_elements(self, n):
        return [DendElement(0, b) for b in self.spans[n].basis()]


def ideal_closure(generators, max_arity: int) -> ClosureResult:
    """Two-sided operad ideal generated by per-arity seeds, per arity.

    generators: {arity: [multilinear DendElement, ...]}.  Seeds are
    closed under relabeling up front.  Each newly independent remainder
    row f of arity k < max_arity is then composed with the two
    generators < and > of Dend, once on each side:

    * x<F, F<x, x>F and F>x, with F the row relabeled onto the other k
      letters, for each letter x of 1..k+1;
    * f o_@ mu for mu in {x<y, y<x, x>y, y>x}, with the row's last
      letter renamed @, for each pair of letters {x, y}.

    This reaches the ideal generated under composition with every
    multilinear monomial: by operad associativity, a composition with
    a monomial of arity m is an iterated composition with binary
    products, and every intermediate arity lies between k and k+m-1.
    Ranging over every letter subset keeps the spans stable under the
    full symmetric group without relabeling each product.  The queue
    reaches the fixpoint because products of a span are spanned by
    products of any spanning family.
    """
    result = ClosureResult(max_arity)
    work = []

    def insert(n, e):
        if e.is_zero():
            return
        row = result.spans[n].insert(positive_body(e))
        if row is not None:
            work.append((n, DendElement(0, row)))

    for n, gens in generators.items():
        if n > max_arity:
            continue
        letters = [str(i) for i in range(1, n + 1)]
        for g in gens:
            for perm in permutations(letters):
                mapping = dict(zip(letters, perm))
                insert(n, relabel_element(g, mapping))

    processed = 0
    while processed < len(work):
        k, f = work[processed]
        processed += 1
        if k == max_arity:
            continue
        n = k + 1
        all_letters = [str(i) for i in range(1, n + 1)]
        own = [str(j) for j in range(1, k + 1)]
        for a in all_letters:
            x = DendElement.generator(a)
            inner = relabel_element(f, dict(zip(own, [b for b in all_letters if b != a])))
            for prod in (dprec(x, inner), dprec(inner, x), dsucc(x, inner), dsucc(inner, x)):
                insert(n, prod)
        for a, b in combinations(all_letters, 2):
            rest = [c for c in all_letters if c not in (a, b)] + ["@"]
            outer = relabel_element(f, dict(zip(own, rest)))
            x, y = DendElement.generator(a), DendElement.generator(b)
            for mu in (dprec(x, y), dprec(y, x), dsucc(x, y), dsucc(y, x)):
                insert(n, _graft(outer, "@", mu))
    return result


def quotient_dims(closure: ClosureResult):
    """dim Dend(n) minus the closed span's rank, per arity."""
    return {
        n: len(span.columns) - span.rank for n, span in sorted(closure.spans.items())
    }
