"""The free dendriform algebra on a generator alphabet, with unit.

Elements are rational combinations of decorated planar binary trees;
LEAF, the empty tree, is the unit.  Products of two non-empty trees
follow the vee-recursion on the unique decomposition t = left v right
of a basis tree:

    t < s = left v (right * s),      t > s = (t * s.left) w s.right.

A pair with the unit follows the unit rules 1<s = 0, t<1 = t,
1>s = s, t>1 = 0 and 1*s = s, t*1 = t.  1<1 and 1>1 are not defined
and raise.

``product_sum`` is the only loop over pairs of terms: it extends the
tree products bilinearly and sums any number of products into one
dict.  ``dprec``, ``dsucc`` and ``dstar`` are its one-part calls.

The products of two non-empty trees, ``_tree_prec``, ``_tree_succ``
and ``_tree_star``, are cached and return tuples of distinct trees:
in the free dendriform algebra (Loday-Ronco) t<s and t>s are sums of
distinct trees with coefficient 1, and no tree is in both.  By
induction on deg t + deg s: the terms of t<s are PBT(l, a, u) for the
terms u of r*s (or u = s when r is empty), and PBT(l, a, .) is
injective, so distinct u give distinct trees; t>s is the mirror, with
PBT(., b, r') injective.  The left subtree of a term of t<s is l, of
degree below deg t; the left subtree of a term of t>s is a term of
t*s.left (or t itself), of degree at least deg t.  So t<s and t>s
share no tree, and t*s, the ``_tree_prec`` tuple followed by the
``_tree_succ`` tuple, again has distinct trees.  The unit rules
return tuples too.

``parse_expr`` reads product expressions, brace calls {x|y,...} being
corolla images (``psi_corolla``), on the parser of trees.py, so its
errors are ParseErrors; ``pbt_expr`` prints a basis tree in it.
"""

from functools import lru_cache
from itertools import permutations

from treealg.linalg import LinComb, Span, _from_terms
from treealg.trees import LEAF, PBT, ParseError, PlanarTree, _parse_all, weighted_pbt_basis


class UnitProductError(ValueError):
    """Raised for 1<1 and 1>1, and for an unparenthesized x>y<z in
    which one of the two groupings would form one of them."""


_nodes = PBT._nodes  # indexed directly: a hit is one dict lookup


@lru_cache(maxsize=None)
def _tree_prec(t: PBT, s: PBT) -> tuple:
    left, label, right = t.left, t.label, t.right
    if right is LEAF:
        return (_nodes[left, label, s],)
    return tuple([_nodes[left, label, u] for u in _tree_star(right, s)])


@lru_cache(maxsize=None)
def _tree_succ(t: PBT, s: PBT) -> tuple:
    left, label, right = s.left, s.label, s.right
    if left is LEAF:
        return (_nodes[t, label, right],)
    return tuple([_nodes[u, label, right] for u in _tree_star(t, left)])


@lru_cache(maxsize=None)
def _tree_star(t: PBT, s: PBT) -> tuple:
    return _tree_prec(t, s) + _tree_succ(t, s)


class DendElement(LinComb):
    """Element of the unital free dendriform algebra: a LinComb of
    basis trees, LEAF standing for the unit."""

    __slots__ = ()

    @classmethod
    def generator(cls, name) -> "DendElement":
        return cls.single(PBT(LEAF, name, LEAF))

    @classmethod
    def one(cls) -> "DendElement":
        return cls.single(LEAF)

    @classmethod
    def from_tree(cls, t: PBT, coeff=1) -> "DendElement":
        """coeff times the basis tree t; from_tree(LEAF) is coeff times 1."""
        return cls.single(t, coeff)

    @property
    def unit(self):
        """Coefficient of the unit."""
        return self.coeff(LEAF)

    def items(self):
        """Terms by degree, then by product expression: the unit first."""
        return sorted(self.terms.items(), key=lambda kv: (kv[0].degree, pbt_expr(kv[0])))

    def _term(self, t, c) -> str:
        if t.is_leaf():
            return str(c)
        return pbt_expr(t) if c == 1 else "%s*%s" % (c, pbt_expr(t))


DEND_ONE = DendElement.one()


def _unit_prec(t, s):
    """1<s = 0, t<1 = t; 1<1 raises."""
    if t is LEAF and s is LEAF:
        raise UnitProductError("1<1 is undefined")
    return (t,) if s is LEAF else ()


def _unit_succ(t, s):
    """t>1 = 0, 1>s = s; 1>1 raises."""
    if t is LEAF and s is LEAF:
        raise UnitProductError("1>1 is undefined")
    return (s,) if t is LEAF else ()


def _unit_star(t, s):
    """1*s = s, t*1 = t."""
    return (s if t is LEAF else t,)


# op -> (product of two non-empty trees, unit rule)
_PRODUCTS = {"<": (_tree_prec, _unit_prec), ">": (_tree_succ, _unit_succ), "*": (_tree_star, _unit_star)}


def product_sum(parts) -> DendElement:
    """Sum of c*(x op y) over the parts (x, op, y, c), in one pass into
    one dict.  op is "<", ">" or "*" (any other raises KeyError); c is
    an int or a Fraction, and a part with c = 0 adds nothing.  Each
    product is the bilinear extension of the tree product; a pair with
    the unit goes to the unit rules, so the tree caches never see LEAF.
    A tree product is a tuple of distinct trees, each with coefficient
    1, so the pair of terms (t, a), (s, b) adds k = a*b*c to each of
    its trees; k is nonzero, as a, b and c are, and a key whose sum
    cancels is deleted."""
    d = {}
    get = d.get
    for x, op, y, c in parts:
        tree_op, unit_rule = _PRODUCTS[op]
        if not c:
            continue
        ys = y.terms.items()
        for t, a in x.terms.items():
            ac = a * c
            for s, b in ys:
                k = ac * b
                for u in unit_rule(t, s) if t is LEAF or s is LEAF else tree_op(t, s):
                    w = get(u, 0) + k
                    if w:
                        d[u] = w
                    else:
                        del d[u]
    return _from_terms(DendElement, d)


def dprec(x: DendElement, y: DendElement) -> DendElement:
    """x < y.  1<t = 0, t<1 = t; 1<1 raises."""
    return product_sum(((x, "<", y, 1),))


def dsucc(x: DendElement, y: DendElement) -> DendElement:
    """x > y.  t>1 = 0, 1>t = t; 1>1 raises."""
    return product_sum(((x, ">", y, 1),))


def dstar(x: DendElement, y: DendElement) -> DendElement:
    """x * y = x<y + x>y, with 1*1 = 1."""
    return product_sum(((x, "*", y, 1),))


def upcomb(xs) -> DendElement:
    """Right comb under <: x1 < (x2 < (... < xn)); empty input gives 1."""
    xs = list(xs)
    if not xs:
        return DEND_ONE
    out = xs[-1]
    for x in reversed(xs[:-1]):
        out = dprec(x, out)
    return out


def downcomb(xs) -> DendElement:
    """Left comb under >: ((x1 > x2) > ...) > xn; empty input gives 1."""
    xs = list(xs)
    if not xs:
        return DEND_ONE
    out = xs[0]
    for x in xs[1:]:
        out = dsucc(out, x)
    return out


def psi_corolla(args) -> DendElement:
    """Image of the n-leaf corolla evaluated on n+1 elements.

    sum over i of (-1)^(i+1) up(x2..xi) > x1 < down(x(i+1)..), the two
    comb factors being 1 at the ends.  The relation-defect oracle of
    the psi-morphism suite validates this sign: the negative fails both
    the arity-2 target x1<x2 - x2>x1 and the brace relations.
    """
    n1 = len(args)
    if n1 < 2:
        raise ValueError("a corolla image needs at least 2 arguments, got %d" % n1)
    return product_sum(
        (dsucc(upcomb(args[1:i]), args[0]), "<", downcomb(args[i:]), (-1) ** (i + 1))
        for i in range(1, n1 + 1)
    )


def psi_eval(op, args) -> DendElement:
    """Evaluate a planar-tree operation in the free dendriform algebra.

    op is a PlanarTree or a LinComb of them, with vertex labels 1..n;
    args[i] substitutes for label str(i+1).  A tree acts through its
    unique decomposition into corollas grafted at leaves: the root
    corolla applies to (root argument, values of the child subtrees).
    """
    combo = LinComb.single(op) if isinstance(op, PlanarTree) else op
    assign = {str(i + 1): x for i, x in enumerate(args)}
    return DendElement.sum((_psi_tree(t, assign), c) for t, c in combo.terms.items())


def _psi_tree(t: PlanarTree, assign) -> DendElement:
    root = assign[t.label]
    if not t.children:
        return root
    vals = [_psi_tree(c, assign) for c in t.children]
    return psi_corolla([root] + vals)


def eval_pbt(t, assign) -> DendElement:
    """Evaluate a decorated tree as the product expression it denotes:
    a node is left > decoration < right, a leaf is the unit."""
    if t.is_leaf():
        return DEND_ONE
    mid = assign[t.label]
    if not t.right.is_leaf():
        mid = dprec(mid, eval_pbt(t.right, assign))
    if not t.left.is_leaf():
        mid = dsucc(eval_pbt(t.left, assign), mid)
    return mid


def substitute(e: DendElement, assign) -> DendElement:
    """Evaluate every tree of e with each letter replaced by its value
    in assign; the unit part is kept."""
    return DendElement.sum((eval_pbt(t, assign), c) for t, c in e.terms.items())


def pli(p: int, q: int):
    """Permutations of 1..p+q decreasing on the first p positions and
    increasing on the last q; the shuffles with the first part reversed."""
    if p < 1 or q < 1:
        raise ValueError("pli needs p, q >= 1, got %r, %r" % (p, q))
    out = []
    for sigma in permutations(range(1, p + q + 1)):
        if all(sigma[i] > sigma[i + 1] for i in range(p - 1)) and all(
            sigma[i] < sigma[i + 1] for i in range(p, p + q - 1)
        ):
            out.append(sigma)
    return out


def positive_body(e: DendElement) -> DendElement:
    """e, checked to lie in the positive part; ideal elements have no
    unit part."""
    if e.unit:
        raise ValueError("ideal elements live in the positive part, got %s" % e)
    return e


class DendSpan:
    """Truncated subspace of the positive part of the free algebra.

    letters maps each letter to its weight, an integer >= 1.  Columns
    are all basis trees of weighted degree <= cutoff over the letters,
    ordered by (degree descending, canonical string): a row in
    echelon form is then supported in degrees <= the degree of its pivot
    column, so per-degree ranks of a saturated ideal read off directly.
    LEAF, the unit, is the last column; positive_body keeps it out of
    every row, so it is never a pivot and reduce() keeps the unit part.

    Weighted degrees come from ``wdegs``, a table tree -> weighted
    degree built with the columns (LEAF: 0).  weighted_pbt_basis yields
    every subtree before the trees built from it, so each entry is
    wdegs[left] + weight of the label + wdegs[right].  wdeg() sums the
    decorations' weights only for a tree off the table: above the
    cutoff, or on a letter outside the letters (KeyError if it has no
    weight).
    """

    def __init__(self, letters, cutoff):
        self.cutoff = cutoff
        self.weights = dict(letters)
        for a, w in self.weights.items():
            if not isinstance(w, int) or isinstance(w, bool) or w < 1:
                raise ValueError("letter %r has weight %r, not an integer >= 1" % (a, w))
        trees = weighted_pbt_basis(list(self.weights), self.weights, cutoff)
        wdegs = self.wdegs = {LEAF: 0}
        for t in trees:
            wdegs[t] = wdegs[t.left] + self.weights[t.label] + wdegs[t.right]
        self.span = Span(sorted(trees, key=lambda t: (-wdegs[t], str(t))) + [LEAF])

    def wdeg(self, t: PBT) -> int:
        d = self.wdegs.get(t)
        if d is None:
            d = sum(self.weights[a] for a in t.decorations())
        return d

    def top_wdeg(self, e: DendElement) -> int:
        return max([0] + [self.wdeg(t) for t in e.terms])

    def insert(self, e: DendElement):
        """Returns the remainder of e on rank growth, else None."""
        rest = self.span.insert(positive_body(e))
        return None if rest is None else DendElement(rest)

    def contains(self, e: DendElement) -> bool:
        return self.span.contains(positive_body(e))

    @property
    def rank(self):
        return self.span.rank

    def basis_elements(self):
        return [DendElement(b) for b in self.span.basis()]

    def saturate(self, seeds):
        """Smallest truncated span containing the seeds and closed under
        the dendriform products with the algebra on both sides,
        iterated to the fixpoint.

        Each ideal element i is multiplied by t>i and i<t for every
        basis tree t, but by t<i and i>t only for the letters t = a.
        The other products follow.  A basis tree is t = (l>a)<r, with l
        or r possibly empty, and the dendriform axioms give

            (l>a)<i = l>(a<i),
            ((l>a)<r)<i = l>(a<(r<i)) + l>(a<(r>i)),

        so every t<i lies in the closure by induction on deg t; the
        mirror identities give every i>t.  Every intermediate product is
        a factor of the final one, so its top degree is no larger and
        the truncation drops no product the full closure would keep.
        Letters alone on all four sides do not suffice: (a<b)>c is not
        in the letter closure of c (on two letters at bound 4 that
        closure of the trivial envelope's relations has 20 dimensions
        in degree 4 instead of 16).

        Products whose top degree exceeds the cutoff are dropped whole;
        an inhomogeneous ideal may therefore be under-approximated near
        the cutoff, which callers defend against with slack + stability.
        """
        by_degree = {}
        for t in self.span.columns:
            by_degree.setdefault(self.wdegs[t], []).append((DendElement.from_tree(t), t.degree == 1))
        work = []
        for e in seeds:
            if e.unit:
                raise ValueError("seeds must have zero unit part")
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
                for tpiece, letter in by_degree.get(w, ()):
                    prods = (dprec(e, tpiece), dsucc(tpiece, e))
                    if letter:
                        prods += (dprec(tpiece, e), dsucc(e, tpiece))
                    for prod in prods:
                        if prod.is_zero():
                            continue
                        row = self.insert(prod)
                        if row is not None:
                            work.append(row)
        return self


def pbt_expr(t) -> str:
    """Minimal product expression of a basis tree, e.g. 'a<a', '(a<a)>b'.

    Round-trips through parse_expr; the only unparenthesized mixed form
    is x>v<y, which is association-free: (x>v)<y = x>(v<y), and
    parse_expr refuses the chain when a unit part in v and in x or y
    makes one grouping undefined.
    """
    s, _ = _pbt_expr(t)
    return s


def _pbt_expr(t):
    if t.is_leaf():
        return "1", True
    left = None if t.left.is_leaf() else _pbt_expr(t.left)
    right = None if t.right.is_leaf() else _pbt_expr(t.right)

    def wrap(part):
        s, atomic = part
        return s if atomic else "(%s)" % s

    if left is None and right is None:
        return t.label, True
    if left is None:
        return "%s<%s" % (t.label, wrap(right)), False
    if right is None:
        return "%s>%s" % (wrap(left), t.label), False
    return "%s>%s<%s" % (wrap(left), t.label, wrap(right)), False


_APPLY = {"<": dprec, ">": dsucc, "*": dstar}


def _expr(p):
    """expr := atom (op atom)*; one product per chain, except x>y<z."""
    items, ops = [_atom(p)], []
    while p.peek() in _APPLY:
        op, pos = p.next()
        ops.append(op)
        if len(set(ops)) > 1 and ops != [">", "<"]:
            raise ParseError("mixed products need parentheses (only x>y<z may omit them)", pos)
        items.append(_atom(p))
    if ops == [">", "<"]:
        x, y, z = items
        # (x>y)<z = x>(y<z) unless one grouping forms 1>1 or 1<1
        if y.unit and (x.unit or z.unit):
            raise UnitProductError("x>y<z with a unit part in y and in x or z needs parentheses")
        return dsucc(x, dprec(y, z))
    out = items[0]
    for op, x in zip(ops, items[1:]):
        out = _APPLY[op](out, x)
    return out


def _atom(p):
    """atom := "1" | label | "(" expr ")" | "{" expr "|" expr ("," expr)* "}"."""
    tok = p.peek()
    if tok == "(":
        p.next()
        e = _expr(p)
        p.expect(")")
        return e
    if tok == "{":
        p.next()
        args = [_expr(p)]
        p.expect("|")
        args.append(_expr(p))
        while p.peek() == ",":
            p.next()
            args.append(_expr(p))
        p.expect("}")
        return psi_corolla(args)
    label = p.label()
    return DEND_ONE if label == "1" else DendElement.generator(label)


def parse_expr(text) -> DendElement:
    """Parse the algebra expression grammar: generators, '1', products
    <, >, *, brace calls {x|y,...} and parentheses.  It shares the
    tokenizer and parser of trees.py, so a bad expression raises
    ParseError with the position of the offending token."""
    return _parse_all(text, _expr)
