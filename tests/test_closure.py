"""Differential tests of the ideal closures against the code they replaced.

ideal_closure used to compose every new row with every multilinear
monomial of every arity, on both sides (or on the left only, in a
"left" mode); DendSpan.saturate used to multiply every ideal element by
every basis tree on all four sides.  Both now multiply by the
generators only where the dendriform axioms make the rest redundant.
old_ideal_closure and old_saturate are copies of the functions as they
were before, with only their calls into the spans adapted to the keyed
Span (rows in and out as combinations); the tests require the same
canonical RREF.
"""

from itertools import combinations, permutations

from treealg.dendriform import DendElement, DendSpan, dprec, dsucc, psi_eval, s_closure
from treealg.envelope import (
    BraceStructure,
    harvest_brace,
    relation_generators,
    trivial_brace,
)
from treealg.linalg import EchelonSpan, LinComb
from treealg.operads import ClosureResult, _graft, ideal_closure, phi, relabel_element
from treealg.suites import _corolla_images, _psi_of_labeled
from treealg.trees import planar_trees, rooted_trees


def old_ideal_closure(generators, max_arity: int, mode: str = "two-sided") -> ClosureResult:
    """Close per-arity generator spans under operad composition and
    relabeling.

    generators: {arity: [multilinear DendElement, ...]}.  Seeds are
    closed under relabeling up front.  Left mode adjoins e o f for every
    basis operation e of the multilinear free algebra and every span row
    f; two-sided mode also adjoins f o e.  Compositions range over every
    letter subset for the inner factor (not just contiguous blocks), so
    the saturated spans stay stable under the full symmetric-group
    action without relabeling each product.  Queue-driven: each newly
    independent remainder row is composed once, which reaches the
    fixpoint because products of a span are spanned by products of any
    spanning family.
    """
    assert mode in ("left", "two-sided")
    result = ClosureResult(max_arity)
    work = []

    def insert(n, e):
        if e.is_zero():
            return
        row = result.spans[n].insert(e)
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

    def monomials_on(letters):
        """All multilinear basis trees decorated by the given letters."""
        m = len(letters)
        mapping = dict(zip([str(j) for j in range(1, m + 1)], sorted(letters)))
        for t in result.spans[m].columns:
            yield t.relabel(mapping)

    processed = 0
    while processed < len(work):
        k, f = work[processed]
        processed += 1
        for m in range(2, max_arity - k + 2):
            n = m + k - 1
            all_letters = [str(i) for i in range(1, n + 1)]
            # e o f: the row becomes the inner factor on any letter set
            for inner_set in combinations(all_letters, k):
                inner = relabel_element(
                    f, dict(zip([str(j) for j in range(1, k + 1)], inner_set))
                )
                outer_letters = [a for a in all_letters if a not in inner_set] + ["@"]
                for t in monomials_on(outer_letters):
                    insert(n, _graft(DendElement.from_tree(t), "@", inner))
            if mode == "two-sided":
                # f o e: the row is the outer factor, basis trees inside
                for inner_set in combinations(all_letters, m):
                    rest = [a for a in all_letters if a not in inner_set] + ["@"]
                    outer = relabel_element(
                        f, dict(zip([str(j) for j in range(1, k + 1)], rest))
                    )
                    for t in monomials_on(inner_set):
                        insert(n, _graft(outer, "@", DendElement.from_tree(t)))
    return result


def old_saturate(self, seeds):
    """Smallest truncated span containing the seeds and closed under
    products with basis trees on both sides (the one-step closure
    I + V<I + I<V + V>I + I>V, iterated to the fixpoint).

    Products whose top degree exceeds the cutoff are dropped whole;
    an inhomogeneous ideal may therefore be under-approximated near
    the cutoff, which callers defend against with slack + stability.
    """
    by_degree = {}
    for t in self.span.columns:
        by_degree.setdefault(self.wdeg(t), []).append(DendElement.from_tree(t))
    work = []
    for e in seeds:
        assert not e.unit, "seeds must have zero unit part"
        if e.is_zero() or self.top_wdeg(e) > self.cutoff:
            continue
        row = self.insert(e)
        if row is not None:
            # echelon remainders span the same ideal as the raw
            # seeds and are sparser
            work.append(row)
    processed = 0
    while processed < len(work):
        e = work[processed]
        processed += 1
        top = self.top_wdeg(e)
        for w in range(1, self.cutoff - top + 1):
            for tpiece in by_degree.get(w, ()):
                for prod in (
                    dprec(tpiece, e),
                    dprec(e, tpiece),
                    dsucc(tpiece, e),
                    dsucc(e, tpiece),
                ):
                    if prod.is_zero():
                        continue
                    row = self.insert(prod)
                    if row is not None:
                        work.append(row)
    return self


def corolla_seeds(arities):
    return {n: _corolla_images(n) for n in arities}


def full_image_seeds(max_arity):
    """The psi image of every labeled planar tree, per arity."""
    return {
        n: [_psi_of_labeled(t, n) for t in planar_trees([str(i) for i in range(1, n + 1)])]
        for n in range(2, max_arity + 1)
    }


def assert_same_closure(new, old, max_arity, name=""):
    for n in range(2, max_arity + 1):
        assert new.basis_elements(n) == old.basis_elements(n), (name, n)


def test_ideal_closure_matches_monomial_closure():
    g = [DendElement.generator(str(i)) for i in range(1, 4)]
    seeds = {
        "arity 2 only": corolla_seeds([2]),
        "arities 2 and 3": corolla_seeds([2, 3]),
        "full image": full_image_seeds(4),
        # one element, not symmetric in its letters, seeded at arity 3 only
        "single arity-3 row": {3: [dprec(dsucc(g[1], g[0]), g[2]) - dsucc(g[2], dprec(g[0], g[1]))]},
    }
    for name, gens in seeds.items():
        assert_same_closure(ideal_closure(gens, 4), old_ideal_closure(gens, 4), 4, name)


def test_prelie_closure_matches_monomial_closure():
    gens = {}
    for n in range(2, 5):
        args = [DendElement.generator(str(i)) for i in range(1, n + 1)]
        gens[n] = [psi_eval(phi(t), args) for t in rooted_trees([str(i) for i in range(1, n + 1)])]
    assert_same_closure(ideal_closure(gens, 4), old_ideal_closure(gens, 4), 4)


def test_brace_closure_matches_with_fewer_inserts(monkeypatch):
    inserts = []
    insert = EchelonSpan.insert

    def counted(self, vec):
        inserts.append(1)
        return insert(self, vec)

    monkeypatch.setattr(EchelonSpan, "insert", counted)
    counts, results = {}, {}
    for name, closure in (("new", ideal_closure), ("old", old_ideal_closure)):
        inserts.clear()
        results[name] = closure(corolla_seeds(range(2, 5)), 4)
        counts[name] = len(inserts), results[name].rank(4)
    assert_same_closure(results["new"], results["old"], 4)
    assert counts == {"new": (1624, 312), "old": (2224, 312)}


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


ENVELOPES = {
    "trivial on 2 letters": (lambda: trivial_brace(2), 4),
    "trivial on 3 letters": (lambda: trivial_brace(3), 3),
    "harvest(1,4)": (lambda: harvest_brace(1, 4)[0], 4),
    "harvest(2,3)": (lambda: harvest_brace(2, 3)[0], 3),
    "weighted, inhomogeneous": (weighted_inhomogeneous_brace, 3),
}


def assert_same_saturation(seeds, cutoff, alphabet, weights=None, name=""):
    new = s_closure(seeds, cutoff, alphabet=alphabet, weights=weights)
    old = old_saturate(DendSpan(alphabet, cutoff, weights), seeds)
    assert new.span.basis() == old.span.basis(), name
    return new


def test_saturate_matches_closure_by_every_basis_tree():
    for name, (make, cutoff) in ENVELOPES.items():
        b = make()
        letters = b.letters()
        seeds = relation_generators(b, cutoff)
        span = assert_same_saturation(seeds, cutoff, list(letters), letters, name)
        assert span.rank > 0, name


def test_saturate_matches_on_hand_seeds():
    a, b, c = (DendElement.generator(x) for x in "abc")
    # c alone: needs (a<b)>c, which no letter product of c gives
    span = assert_same_saturation([c], 3, ["a", "b", "c"])
    assert span.contains(dsucc(dprec(a, b), c))
    # inhomogeneous seeds, cut near the cutoff
    assert_same_saturation([a + dprec(a, b)], 4, ["a", "b"])
    assert_same_saturation([dprec(a, a) - dsucc(b, a), dsucc(a, dprec(b, a)) - b], 4, ["a", "b"])
    # weighted letters
    assert_same_saturation([dprec(a, b) - dsucc(b, a)], 5, ["a", "b"], {"a": 1, "b": 2})
