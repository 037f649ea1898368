"""Named verification suites: each one checks a single statement of the
theory exhaustively up to a bound and reports every counterexample."""

from functools import lru_cache
from itertools import permutations, product

from treealg.linalg import LinComb, Span
from treealg.trees import catalan, pbt_basis, planar_trees, rooted_trees
from treealg.dendriform import (
    DEND_ONE,
    DendElement,
    downcomb,
    dprec,
    dstar,
    dsucc,
    pli,
    psi_corolla,
    psi_eval,
    upcomb,
)
from treealg import operads
from treealg.operads import (
    brace_relation_defect,
    compose_ape,
    compose_prelie,
    corolla_tree,
    ideal_closure,
    interval_partitions,
    phi,
    quotient_dims,
)
from treealg import bialgebra
from treealg.bialgebra import (
    compat_defect,
    coproduct,
    primitive_dims,
    primitives,
    reduced_coproduct,
    TensorSquareElement,
)
from treealg import words
from treealg import envelope as env


def _gens(n):
    return [DendElement.generator(chr(ord("a") + i)) for i in range(n)]


def _labeled_corollas(arity):
    labels = [str(i) for i in range(1, arity + 1)]
    out = []
    for root in labels:
        rest = [x for x in labels if x != root]
        for perm in permutations(rest):
            out.append(corolla_tree(root, perm))
    return out


def _psi_of_labeled(t, arity):
    return psi_eval(t, [DendElement.generator(str(i)) for i in range(1, arity + 1)])


@lru_cache(maxsize=None)
def brace_image_closure(max_arity):
    """Two-sided closure of the corolla images, per arity."""
    gens = {
        n: [_psi_of_labeled(t, n) for t in _labeled_corollas(n)]
        for n in range(2, max_arity + 1)
    }
    return ideal_closure(gens, max_arity)


@lru_cache(maxsize=None)
def prelie_image_closure(max_arity):
    """Two-sided closure of the symmetrized non-planar tree images."""
    gens = {}
    for n in range(2, max_arity + 1):
        args = [DendElement.generator(str(i)) for i in range(1, n + 1)]
        gens[n] = [
            psi_eval(phi(t), args)
            for t in rooted_trees([str(i) for i in range(1, n + 1)])
        ]
    return ideal_closure(gens, max_arity)


def suite_axioms(bound=5):
    """Dendriform axioms, unit laws, and associativity of the sum
    product on basis trees over two generators."""
    defects = []
    alphabet = ["a", "b"]
    basis_by_degree = {d: pbt_basis(d, alphabet) for d in range(1, bound - 1)}
    checked = 0
    for d1, d2, d3 in product(basis_by_degree, repeat=3):
        if d1 + d2 + d3 > bound:
            continue
        for t1 in basis_by_degree[d1]:
            x = DendElement.from_tree(t1)
            for t2 in basis_by_degree[d2]:
                y = DendElement.from_tree(t2)
                for t3 in basis_by_degree[d3]:
                    z = DendElement.from_tree(t3)
                    checked += 1
                    ax1 = dprec(dprec(x, y), z) - dprec(x, dprec(y, z)) - dprec(x, dsucc(y, z))
                    ax2 = dprec(dsucc(x, y), z) - dsucc(x, dprec(y, z))
                    ax3 = dsucc(x, dsucc(y, z)) - dsucc(dsucc(x, y), z) - dsucc(dprec(x, y), z)
                    assoc = dstar(dstar(x, y), z) - dstar(x, dstar(y, z))
                    for name, val in (("eq1", ax1), ("eq2", ax2), ("eq3", ax3), ("star-assoc", assoc)):
                        if not val.is_zero():
                            defects.append({"axiom": name, "triple": [str(t1), str(t2), str(t3)]})
    units_checked = 0
    for d in range(1, bound + 1):
        for t in pbt_basis(d, alphabet):
            x = DendElement.from_tree(t)
            units_checked += 1
            good = (
                dsucc(DEND_ONE, x) == x
                and dprec(x, DEND_ONE) == x
                and dprec(DEND_ONE, x).is_zero()
                and dsucc(x, DEND_ONE).is_zero()
            )
            if not good:
                defects.append({"axiom": "unit", "element": str(t)})
    return {"triples": checked, "unit_checks": units_checked}, defects


def suite_brace_relations(bound=4):
    """The corolla relation holds in the planar tree operad."""
    defects = []
    cases = 0
    for n in range(1, bound):
        for m in range(1, bound + 1 - n):
            cases += 1
            d = brace_relation_defect(n, m)
            if not d.is_zero():
                defects.append({"n": n, "m": m, "defect": str(d)})
    return {"cases": cases}, defects


def _dend_relation_defect(n, m, sign_offset):
    """Both sides of the corolla relation evaluated inside the free
    dendriform algebra on distinct generators."""
    gens = {}
    xs = ["x%d" % i for i in range(1, n + 1)]
    ys = ["y%d" % i for i in range(1, m + 1)]
    for name in ["z"] + xs + ys:
        gens[name] = DendElement.generator(name)
    inner = psi_corolla([gens["z"]] + [gens[x] for x in xs], sign_offset)
    lhs = psi_corolla([inner] + [gens[y] for y in ys], sign_offset)
    rhs = DendElement()
    for blocks in interval_partitions(ys, 2 * n + 1):
        args = []
        for i in range(n):
            args.extend(gens[y] for y in blocks[2 * i])
            xe = gens[xs[i]]
            if blocks[2 * i + 1]:
                xe = psi_corolla([xe] + [gens[y] for y in blocks[2 * i + 1]], sign_offset)
            args.append(xe)
        args.extend(gens[y] for y in blocks[2 * n])
        rhs = rhs + psi_corolla([gens["z"]] + args, sign_offset)
    return lhs - rhs


def suite_psi_morphism(bound=4):
    """The corolla images satisfy the brace relations in the free
    dendriform algebra, the evaluation commutes with composition, and
    the sign convention is pinned down by both requirements."""
    defects = []
    x, y = DendElement.generator("x"), DendElement.generator("y")
    target = dprec(x, y) - dsucc(y, x)
    sign_report = {}
    for offset in (1, 0):
        matches = psi_corolla([x, y], offset) == target
        kills = all(
            _dend_relation_defect(n, m, offset).is_zero()
            for n in range(1, bound)
            for m in range(1, bound + 1 - n)
        )
        sign_report[offset] = {"matches_arity2": matches, "kills_relations": kills}
    if not (sign_report[1]["matches_arity2"] and sign_report[1]["kills_relations"]):
        defects.append({"sign": "+1 convention failed"})
    if sign_report[0]["matches_arity2"] or sign_report[0]["kills_relations"]:
        defects.append({"sign": "alternate convention unexpectedly passed"})

    comp_checks = 0
    for p in range(1, bound):
        for q in range(1, bound + 1):
            n = p + q - 1
            if n > bound:
                continue
            outer_trees = planar_trees([str(i) for i in range(1, p + 1)])
            inner_trees = planar_trees([str(i) for i in range(1, q + 1)])
            arglist = [DendElement.generator(str(i)) for i in range(1, n + 1)]
            for T in outer_trees:
                eT = operads.OperadElement("planar", p, LinComb.single(T))
                for S in inner_trees:
                    eS = operads.OperadElement("planar", q, LinComb.single(S))
                    for i in range(1, p + 1):
                        comp_checks += 1
                        lhs = psi_eval(eT.circ(i, eS).combo, arglist)
                        sub_args = []
                        for j in range(1, p + 1):
                            if j < i:
                                sub_args.append(arglist[j - 1])
                            elif j == i:
                                sub_args.append(
                                    psi_eval(S, arglist[i - 1 : i + q - 1])
                                )
                            else:
                                sub_args.append(arglist[j + q - 2])
                        rhs = psi_eval(T, sub_args)
                        if lhs != rhs:
                            defects.append(
                                {"outer": str(T), "inner": str(S), "slot": i}
                            )
    return {"sign_oracle": {str(k): v for k, v in sign_report.items()}, "compositions": comp_checks}, defects


def suite_phi_morphism(bound=4):
    """Symmetrization intertwines the two tree compositions, and the
    arity-2 composite is x<y - y>x."""
    defects = []
    x, y = DendElement.generator("1"), DendElement.generator("2")
    cherry = rooted_trees(["1", "2"])[
        0
    ]  # the only 2-vertex shape with root 1 is 1(2); list also has 2(1)
    for t in rooted_trees(["1", "2"]):
        if t.label == "1":
            cherry = t
    composite = psi_eval(phi(cherry), [x, y])
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
    realizes the quotient."""
    defects = []
    cl_brace = brace_image_closure(bound)
    cl_prelie = prelie_image_closure(bound)
    dims_b = quotient_dims(cl_brace)
    report = {"quotient_dims": dims_b}
    for n in range(2, bound + 1):
        fact = 1
        for i in range(2, n + 1):
            fact *= i
        if dims_b[n] != fact:
            defects.append({"arity": n, "quotient_dim": dims_b[n], "expected": fact})
        basis_n = cl_brace.basis_elements(n)
        if basis_n != cl_prelie.basis_elements(n):
            defects.append({"arity": n, "case": "ideals differ"})
        # word evaluation: kills the closure, surjective on words
        span = Span(
            sorted(words.Word(p) for p in permutations([str(i) for i in range(1, n + 1)]))
        )
        for e in basis_n:
            img = words.zin_eval(e)
            if not img.is_zero():
                defects.append({"arity": n, "case": "closure escapes kernel", "element": str(e)})
        for t in cl_brace.spans[n].columns:
            span.insert(words.zin_eval(DendElement.from_tree(t)))
        if span.rank != len(span.columns):
            defects.append({"arity": n, "case": "word evaluation not surjective"})
    return report, defects


def suite_shuffle_lemmas(bound=4):
    """Reversed combs agree mod the ideal, and the comb sandwich equals
    its reversed-shuffle expansion mod the ideal."""
    defects = []
    cl = brace_image_closure(bound)
    checks = 0
    for n in range(2, bound + 1):
        xs = [DendElement.generator(str(i)) for i in range(1, n + 1)]
        lhs = upcomb(list(reversed(xs))) - downcomb(xs)
        checks += 1
        if not cl.contains(n, lhs):
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
            total = DendElement()
            for sigma in pli(p, q):
                # x_j lands at position sigma(j): the summand word has
                # the first block descending and the second ascending
                seq = [None] * (p + q)
                for j, pos in enumerate(sigma):
                    seq[pos - 1] = xs[j]
                total = total + downcomb(seq + [z])
            checks += 1
            if not cl.contains(n, left - total):
                defects.append({"case": "pli expansion", "p": p, "q": q})
    return {"membership_checks": checks}, defects


def _triple_coproduct_equal(t) -> bool:
    left = {}
    right = {}
    for (l, r), c in bialgebra._delta_tree(t).terms.items():
        for (l2, r2), c2 in bialgebra._delta_tree(l).terms.items():
            k = (l2, r2, r)
            left[k] = left.get(k, 0) + c * c2
        for (l2, r2), c2 in bialgebra._delta_tree(r).terms.items():
            k = (l, l2, r2)
            right[k] = right.get(k, 0) + c * c2
    left = {k: v for k, v in left.items() if v}
    right = {k: v for k, v in right.items() if v}
    return left == right


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
            left_unit = LinComb(
                (r, c)
                for (l, r), c in bialgebra._delta_tree(t).terms.items()
                if l.is_leaf()
            )
            right_unit = LinComb(
                (l, c)
                for (l, r), c in bialgebra._delta_tree(t).terms.items()
                if r.is_leaf()
            )
            if left_unit != LinComb.single(t) or right_unit != LinComb.single(t):
                defects.append({"case": "counit", "tree": str(t)})
    compat_checked = 0
    basis_by_degree = {d: pbt_basis(d, ["a", "b"]) for d in range(1, bound)}
    for d1 in basis_by_degree:
        for d2 in basis_by_degree:
            if d1 + d2 > bound:
                continue
            for t1 in basis_by_degree[d1]:
                for t2 in basis_by_degree[d2]:
                    x = DendElement.from_tree(t1)
                    y = DendElement.from_tree(t2)
                    compat_checked += 1
                    for side in ("<", ">"):
                        if not compat_defect(x, y, side).is_zero():
                            defects.append(
                                {"case": "compat", "side": side, "pair": [str(t1), str(t2)]}
                            )
    return {"coassociativity_checks": coassoc_checked, "compat_pairs": compat_checked}, defects


def suite_coprod_mont(bound=5):
    """Coproduct of the up-comb of primitives deconcatenates: the tensor
    legs run through (suffix comb) x (prefix comb)."""
    defects = []
    for n in range(1, bound + 1):
        xs = _gens(n)
        lhs = coproduct(upcomb(xs))
        rhs = TensorSquareElement(LinComb())
        for i in range(n + 1):
            rhs = rhs + TensorSquareElement.from_product(
                upcomb(xs[i:]), upcomb(xs[:i])
            )
        if lhs != rhs:
            defects.append({"n": n})
    return {"max_n": bound}, defects


def suite_primitives_closed(bound=4):
    """Primitive dimensions are the Catalan numbers, and braces of
    primitives stay primitive."""
    defects = []
    dims = primitive_dims(1, 5)
    expected = {n: catalan(n - 1) for n in range(1, 6)}
    if dims != expected:
        defects.append({"case": "dims", "got": dims, "expected": expected})
    prims = []
    degrees = []
    for d in range(1, bound):
        for p in primitives(d, 1):
            prims.append(p)
            degrees.append(d)
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
        elems, pdims, check = env.envelope_primitives(q)
        if len(elems) != dim or not check["letters_primitive"]:
            defects.append({"dim": dim, "case": "primitives"})
        if check["product_defects"]:
            defects.append({"dim": dim, "case": "structure constants"})
        letters = b.basis
        # words of total length <= 4: product is shuffle, coproduct is
        # deconcatenation, under the reversed-comb identification
        all_words = {1: [words.Word((a,)) for a in letters]}
        for length in range(2, bound):
            all_words[length] = [
                words.Word(w.letters + (a,)) for w in all_words[length - 1] for a in letters
            ]
        for lw in all_words:
            for lu in all_words:
                if lw + lu > bound:
                    continue
                for w in all_words[lw]:
                    for u in all_words[lu]:
                        lhs = q.reduce(
                            dstar(
                                env.envelope_word_class(q, w.letters),
                                env.envelope_word_class(q, u.letters),
                            )
                        )
                        rhs = DendElement()
                        for v, c in words.shuffle(w, u).terms.items():
                            rhs = rhs + env.envelope_word_class(q, v.letters).scale(c)
                        if lhs != q.reduce(rhs):
                            defects.append(
                                {"dim": dim, "case": "product", "pair": [str(w), str(u)]}
                            )
        for length in range(1, bound + 1):
            for w in _words_of_length(letters, length):
                lhs = q.coproduct(env.envelope_word_class(q, w.letters))
                rhs = TensorSquareElement(LinComb())
                for (pre, suf), c in words.deconcat(w).terms.items():
                    rhs = rhs + TensorSquareElement.from_product(
                        env.envelope_word_class(q, pre.letters),
                        env.envelope_word_class(q, suf.letters),
                    ).scale(c)
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
    q = env.build_envelope(b, bound, slack=0)
    dims = q.dims()
    expected = {0: 1}
    for d in range(1, bound + 1):
        expected[d] = catalan(d)
    report = {"dims": [dims[d] for d in sorted(dims)], "stable": q.stable}
    if dims != expected:
        defects.append({"case": "dims", "got": dims, "expected": expected})
    if not q.stable:
        defects.append({"case": "unstable truncation"})
    elems, pdims, check = env.envelope_primitives(q)
    if len(elems) != b.dim or not check["letters_primitive"]:
        defects.append({"case": "primitives", "count": len(elems)})
    if check["product_defects"]:
        defects.append({"case": "structure roundtrip", "defects": check["product_defects"]})
    return report, defects


def suite_cmm(bound=4):
    """Primitives-then-envelope returns the free dendriform bialgebra."""
    rep = env.theta_roundtrip(1, bound, slack=0)
    defects = []
    if not (rep["dims_equal"] and rep["surjective"] and rep["intertwined"] and rep["stable"]):
        defects.append({k: rep[k] for k in ("dims_equal", "surjective", "intertwined", "stable")})
    return rep, defects


class SuiteError(ValueError):
    """An unknown suite, or a bound below the suite's smallest one."""


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
    if name not in SUITES:
        raise SuiteError("unknown suite %r (known: %s)" % (name, ", ".join(sorted(SUITES))))
    func, default, smallest = SUITES[name]
    bound = default if bound is None else bound
    if bound < smallest:
        raise SuiteError(
            "suite %s checks nothing below bound %d, got %d" % (name, smallest, bound)
        )
    result, defects = func(bound)
    return {"suite": name, "bound": bound, "result": result, "defects": defects}
