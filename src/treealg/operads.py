"""Operad composition on planar and non-planar rooted trees, the
symmetrization of non-planar trees into sums of planar ones, the brace
relation for any brace operation, and per-arity ideal closures inside
the multilinear part of the free dendriform algebra.

Compositions name the grafted vertex by its label: the partial
composition T o_i S of trees on labels 1..p is compose_ape(T, str(i), S)
with S on labels disjoint from T's, such as p+1..p+q."""

import math
from itertools import combinations, combinations_with_replacement, permutations, product

from treealg.linalg import LinComb, Span
from treealg.trees import LEAF, PBT, PlanarTree, RootedTree, angles, pbt_shapes
from treealg.dendriform import DendElement, dprec, dsucc, eval_pbt, positive_body

_nodes = PBT._nodes  # indexed directly: a hit is one dict lookup


def corolla_tree(root, leaves) -> PlanarTree:
    """The corolla with the given root label and leaf labels, in order."""
    return PlanarTree(root, [PlanarTree(a) for a in leaves])


def _as_combo(x) -> LinComb:
    if isinstance(x, (PlanarTree, RootedTree)):
        return LinComb.single(x)
    return x


def _multilinear(trees_of, *args) -> LinComb:
    """Extend trees_of, a map from basis trees to lists of trees, to
    combinations in each argument."""
    return LinComb.sum(
        (LinComb((u, 1) for u in trees_of(*(t for t, _ in combo))), math.prod(c for _, c in combo))
        for combo in product(*(_as_combo(x).terms.items() for x in args))
    )


def _compose_trees(cls, graftings, outer, at, inner):
    """Substitute each grafted copy of inner for the vertex `at` of
    outer, as trees of class cls.  graftings(entering, inner) yields
    inner with the entering edges of `at` attached, once per grafting."""
    node = outer.find(at)
    if node is None:
        raise KeyError("no vertex %r in %s" % (at, outer))
    clash = (outer.label_set() - {at}) & inner.label_set()
    if clash:
        raise ValueError("label collision %s between %s and %s" % (sorted(clash), outer, inner))
    return [_replace_at(cls, outer, at, grafted) for grafted in graftings(node.children, inner)]


def _replace_at(cls, t, at, replacement):
    if t.label == at:
        return replacement
    return cls(t.label, [_replace_at(cls, c, at, replacement) for c in t.children])


def _angle_graftings(entering, inner):
    """One planar grafting per weakly increasing map from the entering
    edges to the angles of inner."""
    angle_list = angles(inner)
    for combo in combinations_with_replacement(range(len(angle_list)), len(entering)):
        insertions = {}
        for child, ai in zip(entering, combo):
            insertions.setdefault(tuple(angle_list[ai]), []).append(child)
        yield _insert_at_angles(inner, insertions)


def _insert_at_angles(s, insertions):
    parts = list(insertions.get((s.label, 0), ()))
    for i, c in enumerate(s.children):
        parts.append(_insert_at_angles(c, insertions))
        parts.extend(insertions.get((s.label, i + 1), ()))
    return PlanarTree(s.label, parts)


def _vertex_graftings(entering, inner):
    """One non-planar grafting per map from the entering edges to the
    vertices of inner."""
    for choice in product(inner.labels(), repeat=len(entering)):
        attach = {}
        for child, v in zip(entering, choice):
            attach.setdefault(v, []).append(child)
        yield _attach_at_vertices(inner, attach)


def _attach_at_vertices(s, attach):
    parts = [_attach_at_vertices(c, attach) for c in s.children]
    parts.extend(attach.get(s.label, ()))
    return RootedTree(s.label, parts)


def compose_ape(outer, at, inner) -> LinComb:
    """Planar-tree operad composition, extended bilinearly.

    Every weakly increasing map from the entering edges of `at` to the
    angles of the inner tree contributes one grafting; edges sharing an
    angle keep their left-to-right order.
    """
    return _multilinear(
        lambda t, s: _compose_trees(PlanarTree, _angle_graftings, t, at, s), outer, inner
    )


def compose_prelie(outer, at, inner) -> LinComb:
    """Non-planar composition: entering edges graft onto arbitrary
    vertices of the inner tree, one term per assignment."""
    return _multilinear(
        lambda t, s: _compose_trees(RootedTree, _vertex_graftings, t, at, s), outer, inner
    )


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
    return _multilinear(_phi_tree, x)


def interval_partitions(items, k):
    """Splittings of an ordered list into k consecutive, possibly empty
    blocks."""
    m = len(items)
    for cuts in combinations_with_replacement(range(m + 1), k - 1):
        bounds = (0,) + cuts + (m,)
        yield [items[bounds[i] : bounds[i + 1]] for i in range(k)]


def brace_relation(brace, z, xs, ys):
    """Both sides of the brace relation on z, x1..xn and Y = y1..ym,

        {{z|x1..xn}|Y} = sum {z|Y0,{x1|Y1},Y2,...,{xn|Y2n-1},Y2n},

    summed over the splittings of Y into 2n+1 consecutive, possibly
    empty blocks.  brace(root, args) is any brace operation with
    brace(x, []) = x, returning combinations of one class.  Returns
    (lhs, rhs)."""
    xs, ys = list(xs), list(ys)
    lhs = brace(brace(z, xs), ys)
    terms = []
    for blocks in interval_partitions(ys, 2 * len(xs) + 1):
        args = list(blocks[0])
        for i, x in enumerate(xs):
            args.append(brace(x, blocks[2 * i + 1]))
            args.extend(blocks[2 * i + 2])
        terms.append((brace(z, args), 1))
    return lhs, type(lhs).sum(terms)


def _planar_brace(root, args) -> LinComb:
    """{T|S1..Sk} in the planar tree operad: the Si grafted onto the
    angles of T in every weakly increasing way, extended multilinearly."""
    return _multilinear(
        lambda t, *ss: _compose_trees(PlanarTree, _angle_graftings, PlanarTree("@", ss), "@", t),
        root,
        *args,
    )


def brace_relation_defect(n: int, m: int) -> LinComb:
    """Left minus right side of brace_relation for the planar brace on
    the one-vertex trees z, x1..xn, y1..ym."""
    if n < 1 or m < 1:
        raise ValueError("relation needs n, m >= 1, got %r, %r" % (n, m))
    xs = [PlanarTree("x%d" % i) for i in range(1, n + 1)]
    ys = [PlanarTree("y%d" % i) for i in range(1, m + 1)]
    lhs, rhs = brace_relation(_planar_brace, PlanarTree("z"), xs, ys)
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
    return e.map_keys(lambda t: t.relabel(mapping))


def _graft(outer: DendElement, slot, inner: DendElement) -> DendElement:
    """Evaluate outer with `slot` bound to inner and all other letters
    kept as generators.  outer is multilinear: each of its trees carries
    the same letters, so they are read off one tree, and the slot at
    most once.

    Only the subtree at the slot is evaluated, with eval_pbt.  On trees
    l, u and r the vee-recursion gives l > (a < u) = (l a u) and
    (u > a) < r = (u a r), so each node above the slot maps every tree
    u of the value below it to one tree, (l a u) when the slot is on its
    right and (u a r) when it is on its left; distinct trees u give
    distinct trees.  A tree without the slot is returned unchanged."""
    assign = {
        name: inner if name == slot else DendElement.generator(name)
        for name in next(iter(outer.terms), LEAF).decorations()
    }
    parts = []
    for t, c in outer.terms.items():
        value = _graft_tree(t, slot, assign)
        parts.append(({t: 1} if value is None else value, c))
    return DendElement.sum(parts)


def _graft_tree(t, slot, assign):
    """eval_pbt(t, assign) as a dict of terms, or None when t does not
    carry slot, found in one walk down t."""
    if t is LEAF:
        return None
    if t.label == slot:
        return eval_pbt(t, assign).terms
    below = _graft_tree(t.left, slot, assign)
    if below is not None:
        return {_nodes[u, t.label, t.right]: c for u, c in below.items()}
    below = _graft_tree(t.right, slot, assign)
    if below is not None:
        return {_nodes[t.left, t.label, u]: c for u, c in below.items()}
    return None


def ideal_closure(generators, max_arity: int) -> dict:
    """Two-sided operad ideal generated by per-arity seeds: {arity: Span}
    over multilinear_basis(arity), for each arity 2..max_arity.

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
    spans = {n: Span(multilinear_basis(n)) for n in range(2, max_arity + 1)}
    work = []

    def insert(n, e):
        if e.is_zero():
            return
        row = spans[n].insert(positive_body(e))
        if row is not None:
            work.append((n, DendElement(row)))

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
    return spans
