"""The free dendriform algebra on a generator alphabet, with unit.

Elements are c*1 + (rational combination of decorated planar binary
trees).  Products follow the vee-recursion on the unique decomposition
t = left v right of a basis tree:

    t < s = left v (right * s),      t > s = (t * s.left) w s.right,

with 1*x = x*1 = x, and unit rules 1<x = x>1 = 0, x<1 = 1>x = x.
1<1 and 1>1 are not defined and raise.
"""

from functools import lru_cache
from itertools import permutations

from treealg.linalg import LinComb, Span, rat
from treealg.trees import LEAF, PBT, PlanarTree, weighted_pbt_basis


class UnitProductError(ValueError):
    """Raised for 1<1 and 1>1."""


@lru_cache(maxsize=None)
def _tree_prec(t: PBT, s: PBT) -> LinComb:
    if t.right.is_leaf():
        rs = {s: 1}
    else:
        rs = _tree_star(t.right, s).terms
    return LinComb((PBT(t.left, t.label, u), c) for u, c in rs.items())


@lru_cache(maxsize=None)
def _tree_succ(t: PBT, s: PBT) -> LinComb:
    if s.left.is_leaf():
        tl = {t: 1}
    else:
        tl = _tree_star(t, s.left).terms
    return LinComb((PBT(u, s.label, s.right), c) for u, c in tl.items())


@lru_cache(maxsize=None)
def _tree_star(t: PBT, s: PBT) -> LinComb:
    return _tree_prec(t, s) + _tree_succ(t, s)


def _acc(d, c, lin):
    """d += c*lin, in place on a plain dict."""
    for k, v in lin.terms.items():
        w = d.get(k)
        if w is None:
            d[k] = c * v
        else:
            w = w + c * v
            if w:
                d[k] = w
            else:
                del d[k]


class DendElement:
    """Element of the unital free dendriform algebra."""

    __slots__ = ("unit", "body")

    def __init__(self, unit=0, body=None):
        self.unit = rat(unit)
        self.body = body if body is not None else LinComb()

    @classmethod
    def generator(cls, name) -> "DendElement":
        return cls(0, LinComb.single(PBT(LEAF, name, LEAF)))

    @classmethod
    def one(cls) -> "DendElement":
        return cls(1)

    @classmethod
    def from_tree(cls, t: PBT, coeff=1) -> "DendElement":
        return cls(0, LinComb.single(t, coeff))

    def is_zero(self) -> bool:
        return not self.unit and self.body.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, DendElement)
            and self.unit == other.unit
            and self.body == other.body
        )

    def __hash__(self):
        return hash((self.unit, self.body))

    def __add__(self, other):
        return DendElement(self.unit + other.unit, self.body + other.body)

    def __sub__(self, other):
        return DendElement(self.unit - other.unit, self.body - other.body)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = rat(c)
        return DendElement(c * self.unit, self.body.scale(c))

    def __rmul__(self, c):
        return self.scale(c)

    def degrees(self):
        """Degrees with nonzero component (unit counts as degree 0)."""
        out = set()
        if self.unit:
            out.add(0)
        for t in self.body.terms:
            out.add(t.degree)
        return sorted(out)

    def top_degree(self) -> int:
        degs = self.degrees()
        return degs[-1] if degs else 0

    def decorations(self):
        out = set()
        for t in self.body.terms:
            out.update(t.decorations())
        return out

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        if self.unit:
            parts.append(str(self.unit))
        for t, c in sorted(
            self.body.terms.items(), key=lambda kv: (kv[0].degree, pbt_expr(kv[0]))
        ):
            if c < 0:
                sign = "-" if not parts else " - "
                c = -c
            else:
                sign = "" if not parts else " + "
            body = pbt_expr(t) if c == 1 else "%s*%s" % (c, pbt_expr(t))
            parts.append(sign + body)
        return "".join(parts)

    def __repr__(self):
        return "<DendElement %s>" % self


DEND_ZERO = DendElement()
DEND_ONE = DendElement(1)


def dprec(x: DendElement, y: DendElement) -> DendElement:
    """x < y.  1<t = 0, t<1 = t; 1<1 raises."""
    if x.unit and y.unit:
        raise UnitProductError("1<1 is undefined")
    d = {}
    if y.unit:
        _acc(d, y.unit, x.body)
    for t, a in x.body.terms.items():
        for s, b in y.body.terms.items():
            _acc(d, a * b, _tree_prec(t, s))
    out = DendElement()
    out.body = LinComb(d)
    return out


def dsucc(x: DendElement, y: DendElement) -> DendElement:
    """x > y.  t>1 = 0, 1>t = t; 1>1 raises."""
    if x.unit and y.unit:
        raise UnitProductError("1>1 is undefined")
    d = {}
    if x.unit:
        _acc(d, x.unit, y.body)
    for t, a in x.body.terms.items():
        for s, b in y.body.terms.items():
            _acc(d, a * b, _tree_succ(t, s))
    out = DendElement()
    out.body = LinComb(d)
    return out


def dstar(x: DendElement, y: DendElement) -> DendElement:
    """x * y = x<y + x>y, with 1*1 = 1."""
    d = {}
    if x.unit:
        _acc(d, x.unit, y.body)
    if y.unit:
        _acc(d, y.unit, x.body)
    for t, a in x.body.terms.items():
        for s, b in y.body.terms.items():
            _acc(d, a * b, _tree_star(t, s))
    out = DendElement(x.unit * y.unit)
    out.body = LinComb(d)
    return out


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


def psi_corolla(args, sign_offset=1) -> DendElement:
    """Image of the n-leaf corolla evaluated on n+1 elements.

    sum over i of (-1)^(i+sign_offset) up(x2..xi) > x1 < down(x(i+1)..),
    the two comb factors being 1 at the ends.  sign_offset=1 is the
    convention validated by the relation-defect oracle; sign_offset=0 is
    kept only so the oracle can reject it.
    """
    n1 = len(args)
    assert n1 >= 2
    out = DendElement()
    for i in range(1, n1 + 1):
        up = upcomb(args[1:i])
        down = downcomb(args[i:])
        term = dprec(dsucc(up, args[0]), down)
        if (i + sign_offset) % 2:
            out = out - term
        else:
            out = out + term
    return out


def psi_eval(op, args) -> DendElement:
    """Evaluate a planar-tree operation in the free dendriform algebra.

    op is a PlanarTree or a LinComb of them, with vertex labels 1..n;
    args[i] substitutes for label str(i+1).  A tree acts through its
    unique decomposition into corollas grafted at leaves: the root
    corolla applies to (root argument, values of the child subtrees).
    """
    combo = LinComb.single(op) if isinstance(op, PlanarTree) else op
    assign = {str(i + 1): x for i, x in enumerate(args)}
    out = DendElement()
    for t, c in combo.terms.items():
        out = out + _psi_tree(t, assign).scale(c)
    return out


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


def pli(p: int, q: int):
    """Permutations of 1..p+q decreasing on the first p positions and
    increasing on the last q; the shuffles with the first part reversed."""
    assert p >= 1 and q >= 1
    out = []
    for sigma in permutations(range(1, p + q + 1)):
        if all(sigma[i] > sigma[i + 1] for i in range(p - 1)) and all(
            sigma[i] < sigma[i + 1] for i in range(p, p + q - 1)
        ):
            out.append(sigma)
    return out


def positive_body(e: DendElement) -> LinComb:
    """The body of an element of the positive part; ideal elements have
    no unit part."""
    if e.unit:
        raise ValueError("ideal elements live in the positive part, got %s" % e)
    return e.body


class DendSpan:
    """Truncated subspace of the positive part of the free algebra.

    Columns are all basis trees of weighted degree <= cutoff over the
    alphabet, ordered by (degree descending, canonical string): a row in
    echelon form is then supported in degrees <= the degree of its pivot
    column, so per-degree ranks of a saturated ideal read off directly.
    """

    def __init__(self, alphabet, cutoff, weights=None):
        self.alphabet = list(alphabet)
        self.cutoff = cutoff
        self.weights = dict(weights) if weights else {a: 1 for a in self.alphabet}
        for a in self.alphabet:
            w = self.weights.get(a)
            if not isinstance(w, int) or w < 1:
                raise ValueError("letter %r has weight %r, not an integer >= 1" % (a, w))
        trees = weighted_pbt_basis(self.alphabet, self.weights, cutoff)
        self.span = Span(sorted(trees, key=lambda t: (-self.wdeg(t), str(t))))

    def wdeg(self, t: PBT) -> int:
        return sum(self.weights[a] for a in t.decorations())

    def top_wdeg(self, e: DendElement) -> int:
        return max([0] + [self.wdeg(t) for t in e.body.terms])

    def insert(self, e: DendElement):
        """Returns the remainder of e on rank growth, else None."""
        rest = self.span.insert(positive_body(e))
        return None if rest is None else DendElement(0, rest)

    def contains(self, e: DendElement) -> bool:
        return self.span.contains(positive_body(e))

    def reduce(self, e: DendElement) -> DendElement:
        """Canonical representative of e modulo the span (unit part kept)."""
        return DendElement(e.unit, self.span.reduce(e.body))

    @property
    def rank(self):
        return self.span.rank

    def degree_dims(self):
        """Rank per weighted degree (pivot degree of each echelon row)."""
        out = {d: 0 for d in range(1, self.cutoff + 1)}
        for t in self.span.pivot_keys():
            out[self.wdeg(t)] += 1
        return out

    def basis_elements(self):
        return [DendElement(0, b) for b in self.span.basis()]

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
            by_degree.setdefault(self.wdeg(t), []).append((DendElement.from_tree(t), t.degree == 1))
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


def s_closure(seeds, degree_bound, alphabet=None, weights=None) -> DendSpan:
    """Dendriform ideal generated by the seeds, truncated to the bound."""
    seeds = list(seeds)
    if alphabet is None:
        letters = set()
        for e in seeds:
            letters.update(e.decorations())
        alphabet = sorted(letters)
    span = DendSpan(alphabet, degree_bound, weights)
    span.saturate(seeds)
    return span


def pbt_expr(t) -> str:
    """Minimal product expression of a basis tree, e.g. 'a<a', '(a<a)>b'.

    Round-trips through parse_expr; the only unparenthesized mixed form
    is x>v<y, which is association-free.
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


class ExprError(ValueError):
    pass


_EXPR_TOKENS = ("<", ">", "*", "(", ")", "{", "}", "|", ",")


def _expr_tokenize(text):
    import re

    out = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _EXPR_TOKENS:
            out.append((ch, pos))
            pos += 1
            continue
        m = re.match(r"[A-Za-z0-9_]+", text[pos:])
        if not m:
            raise ExprError("unexpected character %r at position %d" % (ch, pos))
        out.append((m.group(0), pos))
        pos += len(m.group(0))
    return out


class _ExprParser:
    """expr := atom (op atom)*; one product per chain, except x>y<z."""

    def __init__(self, text):
        self.tokens = _expr_tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self):
        if self.i >= len(self.tokens):
            raise ExprError("unexpected end of expression")
        tok = self.tokens[self.i]
        self.i += 1
        return tok[0]

    def expect(self, what):
        tok = self.next()
        if tok != what:
            raise ExprError("expected %r, found %r" % (what, tok))

    def atom(self):
        tok = self.next()
        if tok == "(":
            e = self.expr()
            self.expect(")")
            return e
        if tok == "{":
            args = [self.expr()]
            self.expect("|")
            args.append(self.expr())
            while self.peek() == ",":
                self.next()
                args.append(self.expr())
            self.expect("}")
            return psi_corolla(args)
        if tok in _EXPR_TOKENS:
            raise ExprError("unexpected %r" % tok)
        if tok == "1":
            return DEND_ONE
        return DendElement.generator(tok)

    def expr(self):
        items = [self.atom()]
        ops = []
        while self.peek() in ("<", ">", "*"):
            ops.append(self.next())
            items.append(self.atom())
        if not ops:
            return items[0]
        apply = {"<": dprec, ">": dsucc, "*": dstar}
        if len(set(ops)) == 1:
            out = items[0]
            for op, x in zip(ops, items[1:]):
                out = apply[op](out, x)
            return out
        if ops == [">", "<"]:
            return dsucc(items[0], dprec(items[1], items[2]))
        raise ExprError(
            "mixed products need parentheses (only x>y<z may omit them)"
        )


def parse_expr(text) -> DendElement:
    """Parse the algebra expression grammar: generators, '1', products
    <, >, *, brace calls {x|y,...} and parentheses."""
    p = _ExprParser(text)
    try:
        e = p.expr()
    except RecursionError:
        # too deep for the interpreter's recursion limit: bad input
        raise ExprError("expression nested too deeply") from None
    if p.i != len(p.tokens):
        raise ExprError("trailing input %r" % p.tokens[p.i][0])
    return e
