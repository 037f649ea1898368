"""Named verification suites: each one checks a single statement of the
theory exhaustively up to a bound and reports every counterexample."""

import gc
from functools import lru_cache, partial
from itertools import permutations, product
from math import factorial

from treealg.linalg import Span
from treealg.trees import LEAF, catalan, generator_names, parse_rooted, pbt_basis, planar_trees, rooted_trees
from treealg.dendriform import (
    DendElement,
    downcomb,
    dprec,
    dstar,
    dsucc,
    pli,
    psi_corolla,
    psi_eval,
    psi_evaluator,
    upcomb,
)
from treealg.operads import (
    brace_relation,
    brace_relation_defect,
    compose_ape,
    compose_prelie,
    corolla_tree,
    ideal_closure,
    phi,
    _graft,
)
from treealg import bialgebra, dendriform
from treealg.bialgebra import (
    compat_defect,
    coproduct,
    primitives,
    reduced_coproduct,
    TensorSquareElement,
)
from treealg import words
from treealg import envelope as env


def _gens(n):
    return [DendElement.generator(a) for a in generator_names(n)]


def _labeled_psi(n):
    """psi on the planar trees labelled 1..n, at the generators 1..n."""
    return psi_evaluator([DendElement.generator(str(i)) for i in range(1, n + 1)])


def _corolla_images(n, psi):
    """Images of the labeled corollas under psi, a _labeled_psi(n)."""
    labels = [str(i) for i in range(1, n + 1)]
    return [
        psi(corolla_tree(root, perm))
        for root in labels
        for perm in permutations([x for x in labels if x != root])
    ]


def _prelie_images(n, psi):
    """Images of the symmetrized labeled rooted trees under psi, a
    _labeled_psi(n)."""
    return [psi(phi(t)) for t in rooted_trees([str(i) for i in range(1, n + 1)])]


@lru_cache(maxsize=None)
def zinbiel_ideal(max_arity):
    """Two-sided closure of the arity-2 corolla images, per arity."""
    return ideal_closure({2: _corolla_images(2, _labeled_psi(2))}, max_arity)


def _sides_agree(left, op, z, x, op2, right):
    """Whether the sum of u op z over the trees u of left equals the sum
    of x op2 v over the trees v of right, trees counted with multiplicity.

    Each side is concatenated into one list; a product may return a
    tuple, a list or a generator.  Lists equal as sequences agree, and
    lists of different lengths do not.  Otherwise both are sorted by id
    and compared.  This decides the multiset question exactly, repeats
    included, because basis trees are hash-consed: equal trees are the
    same object (copies and pickles too), so two lists hold the same
    trees with the same multiplicities exactly when their id orders are
    the same sequence.
    """
    a = []
    for u in left:
        a += op(u, z)
    b = []
    for v in right:
        b += op2(x, v)
    return a == b or (len(a) == len(b) and sorted(a, key=id) == sorted(b, key=id))


def suite_axioms(bound=5):
    """Dendriform axioms, unit laws, and associativity of the sum
    product on basis trees over two generators.

    Every triple (x, y, z) with degree sum at most bound is checked in
    Loday's form, each side summed over the cached tuples x.y or y.z:

        eq1          (x<y)<z = x<(y*z)
        eq2          (x>y)<z = x>(y<z)
        eq3          (x*y)>z = x>(y>z)
        star-assoc   (x*y)*z = x*(y*z)

    Each side is the concatenation of the cached tuples u.z over the
    trees u of x.y, or x.v over the trees v of y.z, and _sides_agree
    decides whether the two sides are the same multiset of trees; every
    cached product has coefficient 1 on each of its trees.

    Every pair with degree sum below bound is checked by product_sum
    to satisfy star-split, x*y = x<y + x>y.  The products are bilinear,
    so star-split on (y, z) and (x, y) turns the star form into the
    expanded one, x<(y*z) = x<(y<z) + x<(y>z) and
    (x*y)>z = (x<y)>z + (x>y)>z: the two check the same thing.

    The unit laws 1>x = x, x<1 = x, 1<x = 0 and x>1 = 0 are checked on
    every basis tree t of degree at most bound, on the tuples of the unit
    rules of < and >: the tree is good when 1>t and t<1 are the tuple
    (t,) and 1<t and t>1 are empty.  product_sum, the bilinear extension
    of the rules that the triple loop also rests on, adds the coefficient
    1*1*1 to each tree of a rule's tuple and never cancels, so an element
    product with the unit equals the tree exactly when the tuple is the
    multiset {t}, and is zero exactly when the tuple is empty: the
    verdict is the one the element products give.  tuple() reads a rule
    that returns a list or a generator as product_sum does.

    Star-assoc is not summed where the other three decide it.  Write
    L1, R1, ..., L3, R3 for the two sides of eq1-eq3 as multisets of
    trees, and L*, R* for those of star-assoc.  Suppose every star tuple
    that star-assoc reads is the < tuple followed by the > tuple: x*y,
    y*z, and u*z and x*v for each tree u of x*y and v of y*z.  Then

        L* = sum of u*z over u in x*y
           = sum of u<z over u in x<y  +  sum of u<z over u in x>y
             + sum of u>z over u in x*y          = L1 + L2 + L3
        R* = sum of x*v over v in y*z
           = sum of x<v over v in y*z  +  sum of x>v over v in y<z
             + sum of x>v over v in y>z          = R1 + R2 + R3

    so eq1-eq3 on a triple give star-assoc on it exactly.  This premise
    is checked once per run: the split on every pair of basis trees with
    degree sum at most bound, and the membership of every tree of each
    tabled x*y in the basis of degree deg x + deg y.  The membership
    check reads the tuples themselves, so a product that leaves the
    basis, or lands in a degree the split check does not reach, cannot
    escape the premise.  Where eq1-eq3 fail on a triple, or the premise
    fails, star-assoc is summed as before, so the defects are the same
    for any products.

    The split check calls star through its __wrapped__, when it has
    one, and so stores none of its products in star's cache: most of
    them are of degree sum equal to bound, and no other check reads
    those.  This is exact: the wrapped rule is the function whose
    values the cache stores, so each call returns the tuple that a
    cache miss would store and return.  A star without __wrapped__ is
    called as it is.
    """
    prec, succ, star = (dendriform._PRODUCTS[op][0] for op in "<>*")
    defects = []
    trees = {d: pbt_basis(d, ["a", "b"]) for d in range(1, bound + 1)}
    basis = {d: [(t, DendElement.from_tree(t)) for t in trees[d]] for d in range(1, bound - 1)}
    degree_pairs = [(d1, d2) for d1, d2 in product(range(1, bound - 1), repeat=2) if d1 + d2 < bound]
    # x<y, x>y and x*y of every pair with degree sum below bound: the
    # products x.y and y.z of every triple
    table = {}
    for d1, d2 in degree_pairs:
        for t1, x in basis[d1]:
            for t2, y in basis[d2]:
                table[t1, t2] = (prec(t1, t2), succ(t1, t2), star(t1, t2))
                if dstar(x, y) != dprec(x, y) + dsucc(x, y):
                    defects.append({"axiom": "star-split", "pair": [str(t1), str(t2)]})
    # the premise of the docstring: membership first, then the split,
    # with the basis sets freed before the split fills the caches
    members = {d: set(trees[d]) for d in range(2, bound)}
    split = all(
        u in members[t1.degree + t2.degree] for (t1, t2), (_, _, xy_star) in table.items() for u in xy_star
    )
    del members
    star_once = getattr(star, "__wrapped__", star)
    split = split and all(
        star_once(s, t) == prec(s, t) + succ(s, t)
        for d1 in range(1, bound)
        for d2 in range(1, bound - d1 + 1)
        for s in trees[d1]
        for t in trees[d2]
    )
    checked = 0
    for d1, d2 in degree_pairs:
        for d3 in range(1, bound - d1 - d2 + 1):
            for t1 in trees[d1]:
                for t2 in trees[d2]:
                    xy_prec, xy_succ, xy_star = table[t1, t2]
                    for t3 in trees[d3]:
                        checked += 1
                        yz_prec, yz_succ, yz_star = table[t2, t3]
                        eq1 = _sides_agree(xy_prec, prec, t3, t1, prec, yz_star)
                        eq2 = _sides_agree(xy_succ, prec, t3, t1, succ, yz_prec)
                        eq3 = _sides_agree(xy_star, succ, t3, t1, succ, yz_succ)
                        if eq1 and eq2 and eq3 and split:
                            continue
                        for name, agree in (("eq1", eq1), ("eq2", eq2), ("eq3", eq3)):
                            if not agree:
                                defects.append({"axiom": name, "triple": [str(t1), str(t2), str(t3)]})
                        if not _sides_agree(xy_star, star, t3, t1, star, yz_star):
                            defects.append({"axiom": "star-assoc", "triple": [str(t1), str(t2), str(t3)]})
    unit_prec, unit_succ = (dendriform._PRODUCTS[op][1] for op in "<>")
    units_checked = 0
    for d in range(1, bound + 1):
        for t in trees[d]:
            units_checked += 1
            good = (
                tuple(unit_succ(LEAF, t)) == (t,)
                and tuple(unit_prec(t, LEAF)) == (t,)
                and not tuple(unit_prec(LEAF, t))
                and not tuple(unit_succ(t, LEAF))
            )
            if not good:
                defects.append({"axiom": "unit", "element": str(t)})
    return {"triples": checked, "unit_checks": units_checked}, defects


def suite_brace_relations(bound=4):
    """The brace relation holds for the planar brace in the tree operad."""
    defects = []
    cases = 0
    for n in range(1, bound):
        for m in range(1, bound + 1 - n):
            cases += 1
            d = brace_relation_defect(n, m)
            if not d.is_zero():
                defects.append({"n": n, "m": m, "defect": str(d)})
    return {"cases": cases}, defects


def _dend_relation_defect(n, m, convention):
    """Left minus right side of brace_relation on distinct generators of
    the free dendriform algebra, with the corolla image psi_corolla as
    the brace under sign convention 1, and its negative under 0."""
    sign = 1 if convention else -1
    gen = DendElement.generator
    xs = [gen("x%d" % i) for i in range(1, n + 1)]
    ys = [gen("y%d" % i) for i in range(1, m + 1)]
    lhs, rhs = brace_relation(
        lambda r, args: psi_corolla([r] + args).scale(sign) if args else r, gen("z"), xs, ys
    )
    return lhs - rhs


def suite_psi_morphism(bound=4):
    """The corolla images satisfy the brace relations in the free
    dendriform algebra, the evaluation commutes with composition, and
    the sign convention is pinned down by both requirements: psi_corolla
    (convention 1) meets both, its negative (convention 0) neither.

    Composition is checked as psi(T o_i S) = psi(T) with psi(S) in the
    slot i: the left side evaluates the composed trees, and the right
    side substitutes psi(S) for the letter i of psi(T) with _graft,
    since substituting a letter is an algebra map of the free algebra.
    One evaluator per letter set 1..p+q shares its subtree values."""
    defects = []
    x, y = DendElement.generator("x"), DendElement.generator("y")
    target = dprec(x, y) - dsucc(y, x)
    sign_report = {}
    for convention in (1, 0):
        matches = psi_corolla([x, y]).scale(1 if convention else -1) == target
        kills = all(
            _dend_relation_defect(n, m, convention).is_zero()
            for n in range(1, bound)
            for m in range(1, bound + 1 - n)
        )
        sign_report[convention] = {"matches_arity2": matches, "kills_relations": kills}
    if not (sign_report[1]["matches_arity2"] and sign_report[1]["kills_relations"]):
        defects.append({"sign": "+1 convention failed"})
    if sign_report[0]["matches_arity2"] or sign_report[0]["kills_relations"]:
        defects.append({"sign": "alternate convention unexpectedly passed"})

    comp_checks = 0
    for p in range(1, bound):
        for q in range(1, bound + 2 - p):
            psi = _labeled_psi(p + q)
            for T in planar_trees([str(i) for i in range(1, p + 1)]):
                outer = psi(T)
                for S in planar_trees([str(i) for i in range(p + 1, p + q + 1)]):
                    inner = psi(S)
                    for i in range(1, p + 1):
                        comp_checks += 1
                        lhs = psi(compose_ape(T, str(i), S))
                        rhs = _graft(outer, str(i), inner)
                        if lhs != rhs:
                            defects.append({"outer": str(T), "inner": str(S), "slot": i})
    return {"sign_oracle": {str(k): v for k, v in sign_report.items()}, "compositions": comp_checks}, defects


def suite_phi_morphism(bound=4):
    """Symmetrization intertwines the two tree compositions, and the
    arity-2 composite is x<y - y>x."""
    defects = []
    x, y = DendElement.generator("1"), DendElement.generator("2")
    composite = psi_eval(phi(parse_rooted("1(2)")), [x, y])
    if composite != dprec(x, y) - dsucc(y, x):
        defects.append({"case": "arity-2 composite"})
    checks = 0
    for p in range(1, bound):
        for q in range(1, bound + 1 - p):
            outer_list = rooted_trees([str(i) for i in range(1, p + 1)])
            inner_list = rooted_trees([str(i + p) for i in range(1, q + 1)])
            for T in outer_list:
                for S in inner_list:
                    for v in T.labels():
                        checks += 1
                        lhs = phi(compose_prelie(T, v, S))
                        rhs = compose_ape(phi(T), v, phi(S))
                        if lhs != rhs:
                            defects.append({"outer": str(T), "inner": str(S), "at": v})
    return {"compositions": checks}, defects


def suite_zin_quotient(bound=4):
    """The corolla-image and symmetrized-tree-image ideals coincide, the
    quotient has dimension n! per arity, and the word evaluation
    realizes the quotient.

    With I_B, I_P and I_2 the ideals generated by the corolla images,
    the pre-Lie images and the arity-2 corolla images: a two-vertex
    rooted tree has one planar embedding, so the arity-2 generators of
    I_B and I_P are the same set and I_2 lies in both.  If every
    generator of either ideal lies in I_2, then I_B = I_P = I_2 up to
    the bound, where the truncated closure is exact because
    composition only raises arity.  Differing arity-2 sets or a
    generator outside I_2 is reported as "ideals differ".
    """
    defects = []
    spans = zinbiel_ideal(bound)
    dims = {n: len(span.columns) - span.rank for n, span in sorted(spans.items())}
    report = {"quotient_dims": dims}
    for n in range(2, bound + 1):
        if dims[n] != factorial(n):
            defects.append({"arity": n, "quotient_dim": dims[n], "expected": factorial(n)})
        psi = _labeled_psi(n)
        brace, prelie = _corolla_images(n, psi), _prelie_images(n, psi)
        if (n == 2 and set(brace) != set(prelie)) or not all(
            spans[n].contains(g) for g in brace + prelie
        ):
            defects.append({"arity": n, "case": "ideals differ"})
        # word evaluation: kills the closure, surjective on words
        span = Span(
            sorted(words.Word(p) for p in permutations([str(i) for i in range(1, n + 1)]))
        )
        for row in spans[n].basis():
            if words.zin_eval(row):
                element = str(DendElement(row))
                defects.append({"arity": n, "case": "closure escapes kernel", "element": element})
        for t in spans[n].columns:
            # no insert lowers the rank: at full rank the verdict is in
            if span.rank == len(span.columns):
                break
            span.insert(words.zin_eval(DendElement.from_tree(t)))
        if span.rank != len(span.columns):
            defects.append({"arity": n, "case": "word evaluation not surjective"})
    return report, defects


def suite_shuffle_lemmas(bound=4):
    """Reversed combs agree mod the ideal, and the comb sandwich equals
    its reversed-shuffle expansion mod the ideal.  The ideal checked is
    the closure of the arity-2 corolla images, which lies in the
    corolla-image ideal, so a pass here is a pass there."""
    defects = []
    spans = zinbiel_ideal(bound)
    checks = 0
    for n in range(2, bound + 1):
        xs = [DendElement.generator(str(i)) for i in range(1, n + 1)]
        lhs = upcomb(list(reversed(xs))) - downcomb(xs)
        checks += 1
        if not spans[n].contains(lhs):
            defects.append({"case": "reversed combs", "arity": n})
    for p in range(1, bound):
        for q in range(1, bound - p):
            n = p + q + 1
            xs = [DendElement.generator(str(i)) for i in range(1, p + q + 1)]
            z = DendElement.generator(str(n))
            left = dprec(
                dsucc(downcomb(list(reversed(xs[:p]))), z),
                upcomb(list(reversed(xs[p:]))),
            )
            terms = []
            for sigma in pli(p, q):
                # x_j lands at position sigma(j): the summand word has
                # the first block descending and the second ascending
                seq = [None] * (p + q)
                for j, pos in enumerate(sigma):
                    seq[pos - 1] = xs[j]
                terms.append((downcomb(seq + [z]), 1))
            checks += 1
            if not spans[n].contains(left - DendElement.sum(terms)):
                defects.append({"case": "pli expansion", "p": p, "q": q})
    return {"membership_checks": checks}, defects


def _triple_coproduct_equal(t) -> bool:
    """(delta (x) id) delta(t) == (id (x) delta) delta(t): the two
    sides are added and subtracted into one dict keyed by triples of
    trees, which is all zero exactly when they agree."""
    delta = bialgebra._delta_tree
    diff = {}
    get = diff.get
    for (l, r), c in delta(t).terms.items():
        for k, e in delta(l).terms.items():
            k += (r,)
            diff[k] = get(k, 0) + c * e
        for k, e in delta(r).terms.items():
            k = (l,) + k
            diff[k] = get(k, 0) - c * e
    return not any(diff.values())


def suite_bialgebra(bound=4):
    """Coassociativity and counit of the coproduct, and the two product
    compatibility identities, on one- and two-generator basis trees."""
    defects = []
    coassoc_checked = 0
    for d in range(1, bound + 2):
        for t in pbt_basis(d, ["a", "b"]):
            coassoc_checked += 1
            if not _triple_coproduct_equal(t):
                defects.append({"case": "coassociativity", "tree": str(t)})
            # counit: unit-leg coefficients recover the element
            terms = bialgebra._delta_tree(t).terms.items()
            left_unit = {r: c for (l, r), c in terms if l is LEAF}
            right_unit = {l: c for (l, r), c in terms if r is LEAF}
            if left_unit != {t: 1} or right_unit != {t: 1}:
                defects.append({"case": "counit", "tree": str(t)})
    compat_checked = 0
    basis_by_degree = {d: pbt_basis(d, ["a", "b"]) for d in range(1, bound)}
    for d1 in basis_by_degree:
        for d2 in basis_by_degree:
            if d1 + d2 > bound:
                continue
            for t1 in basis_by_degree[d1]:
                for t2 in basis_by_degree[d2]:
                    x, y = DendElement.from_tree(t1), DendElement.from_tree(t2)
                    compat_checked += 1
                    for side in ("<", ">"):
                        if not compat_defect(x, y, side).is_zero():
                            defects.append({"case": "compat", "side": side, "pair": [str(t1), str(t2)]})
    return {"coassociativity_checks": coassoc_checked, "compat_pairs": compat_checked}, defects


def suite_coprod_mont(bound=5):
    """Coproduct of the up-comb of primitives deconcatenates: the tensor
    legs run through (suffix comb) x (prefix comb)."""
    defects = []
    for n in range(1, bound + 1):
        xs = _gens(n)
        lhs = coproduct(upcomb(xs))
        rhs = TensorSquareElement.sum(
            (TensorSquareElement.from_product(upcomb(xs[i:]), upcomb(xs[:i])), 1)
            for i in range(n + 1)
        )
        if lhs != rhs:
            defects.append({"n": n})
    return {"max_n": bound}, defects


def suite_primitives_closed(bound=4):
    """Primitive dimensions are the Catalan numbers, and braces of
    primitives stay primitive."""
    defects = []
    by_degree = {n: primitives(n, 1) for n in range(1, bound + 2)}
    dims = {n: len(ps) for n, ps in by_degree.items()}
    expected = {n: catalan(n - 1) for n in range(1, bound + 2)}
    if dims != expected:
        defects.append({"case": "dims", "got": dims, "expected": expected})
    prims = [p for d in range(1, bound) for p in by_degree[d]]
    degrees = [d for d in range(1, bound) for _ in by_degree[d]]
    brace_checks = 0
    for arity in range(2, bound + 1):
        for combo in env.weighted_tuples(degrees, arity, bound):
            brace_checks += 1
            out = psi_corolla([prims[i] for i in combo])
            if not reduced_coproduct(out).is_zero():
                defects.append({"case": "brace not primitive", "combo": list(combo)})
    return {"dims": dims, "brace_checks": brace_checks}, defects


def suite_envelope_trivial(bound=4):
    """Envelope of zero braces: tensor-coalgebra dimensions, shuffle
    products, deconcatenation coproduct, primitives exactly the letters."""
    defects = []
    report = {}
    for dim in (1, 2):
        b = env.trivial_brace(dim)
        q = env.build_envelope(b, bound)
        dims = q.dims()
        report["dims_dim%d" % dim] = [dims[d] for d in sorted(dims)]
        for d in range(bound + 1):
            if dims[d] != dim**d:
                defects.append({"dim": dim, "degree": d, "got": dims[d]})
        defects += [{"dim": dim} | d for d in q.report()[1]]
        letters = b.basis
        # the loops below meet each word many times
        word_class = lru_cache(maxsize=None)(partial(env.envelope_word_class, q))
        # words of total length <= bound: product is shuffle, coproduct is
        # deconcatenation, under the reversed-comb identification
        all_words = {n: _words_of_length(letters, n) for n in range(1, bound)}
        for lw in all_words:
            for lu in all_words:
                if lw + lu > bound:
                    continue
                for w in all_words[lw]:
                    for u in all_words[lu]:
                        lhs = q.reduce(
                            dstar(
                                word_class(w.letters),
                                word_class(u.letters),
                            )
                        )
                        rhs = DendElement.sum(
                            (word_class(v.letters), c)
                            for v, c in words.shuffle(w, u).terms.items()
                        )
                        if lhs != rhs:
                            defects.append(
                                {"dim": dim, "case": "product", "pair": [str(w), str(u)]}
                            )
        for length in range(1, bound + 1):
            for w in _words_of_length(letters, length):
                lhs = q.coproduct(word_class(w.letters))
                rhs = TensorSquareElement.sum(
                    (
                        TensorSquareElement.from_product(
                            word_class(pre.letters),
                            word_class(suf.letters),
                        ),
                        c,
                    )
                    for (pre, suf), c in words.deconcat(w).terms.items()
                )
                if lhs != rhs:
                    defects.append({"dim": dim, "case": "coproduct", "word": str(w)})
        coideal = q.verify_coideal()
        if coideal:
            defects.append({"dim": dim, "case": "coideal", "rows": len(coideal)})
    return report, defects


def _words_of_length(letters, length):
    return [words.Word(t) for t in product(letters, repeat=length)]


def suite_envelope_free(bound=4):
    """Envelope of the harvested free brace matches the free dendriform
    dimensions and returns the structure constants on its primitives."""
    defects = []
    b, _ = env.harvest_brace(1, bound)
    bad = env.validate_brace(b, bound + 1)
    if bad:
        defects.append({"case": "harvested structure invalid", "count": len(bad)})
    q = env.build_envelope(b, bound)
    dims = q.dims()
    expected = {0: 1}
    for d in range(1, bound + 1):
        expected[d] = catalan(d)
    report = {"dims": [dims[d] for d in sorted(dims)], "stable": q.stable}
    if dims != expected:
        defects.append({"case": "dims", "got": dims, "expected": expected})
    defects += q.report()[1]
    return report, defects


def suite_cmm(bound=4):
    """Primitives-then-envelope returns the free dendriform bialgebra."""
    rep = env.theta_roundtrip(1, bound)
    defects = []
    if not (rep["dims_equal"] and rep["surjective"] and rep["intertwined"] and rep["stable"]):
        defects.append({k: rep[k] for k in ("dims_equal", "surjective", "intertwined", "stable")})
    return rep, defects


class SuiteError(ValueError):
    """An unknown suite, a bound that is not an int (bool included), or
    a bound below the suite's smallest one."""


# name: (suite, default bound, smallest bound at which the suite's
# statement is checked at all; below it a run would check nothing)
SUITES = {
    "axioms": (suite_axioms, 5, 3),
    "brace-relations": (suite_brace_relations, 4, 2),
    "psi-morphism": (suite_psi_morphism, 4, 2),
    "phi-morphism": (suite_phi_morphism, 4, 2),
    "zin-quotient": (suite_zin_quotient, 4, 2),
    "shuffle-lemmas": (suite_shuffle_lemmas, 4, 2),
    "bialgebra": (suite_bialgebra, 4, 2),
    "coprod-mont": (suite_coprod_mont, 5, 1),
    "primitives-closed": (suite_primitives_closed, 4, 2),
    "envelope-trivial": (suite_envelope_trivial, 4, 1),
    "envelope-free": (suite_envelope_free, 4, 1),
    "cmm": (suite_cmm, 4, 1),
}


def run_suite(name, bound=None) -> dict:
    """Run one suite at bound (its default when None) and return its
    result and defects.

    The cyclic garbage collector is paused while the suite runs and
    left as it was found afterwards.  The suites make no reference
    cycles, so reference counting frees everything they drop and the
    collector's passes would only rescan the growing product caches.
    """
    if name not in SUITES:
        raise SuiteError("unknown suite %r (known: %s)" % (name, ", ".join(sorted(SUITES))))
    func, default, smallest = SUITES[name]
    bound = default if bound is None else bound
    if not isinstance(bound, int) or isinstance(bound, bool):
        raise SuiteError("suite %s takes an int bound, got %r" % (name, bound))
    if bound < smallest:
        raise SuiteError(
            "suite %s checks nothing below bound %d, got %d" % (name, smallest, bound)
        )
    collecting = gc.isenabled()
    gc.disable()
    try:
        result, defects = func(bound)
    finally:
        if collecting:
            gc.enable()
    return {"suite": name, "bound": bound, "result": result, "defects": defects}
