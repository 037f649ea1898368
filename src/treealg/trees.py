"""Planar rooted trees, non-planar rooted trees and decorated planar
binary trees, with canonical forms, the text grammar, angles and
exhaustive enumeration.

Grammar (whitespace insignificant)::

    planar / non-planar:  tree := label | label "(" tree ("," tree)* ")"
    label := [A-Za-z0-9_]+
    decorated binary:     pbt := "*" | "(" pbt label pbt ")"

The tokenizer and parser also serve the expression grammar of
dendriform.parse_expr, through _parse_all.

The two labeled-tree species share one class body and differ only in
child order: planar trees keep it, non-planar trees store children
sorted by their printed form (lexicographic byte order), so printing is
canonical.

Decorated binary trees are hash-consed: each tree exists as one node,
shared by every tree that contains it, so tree equality and hashing are
object identity.  One table, ``PBT._nodes``, builds every node: it is a
dict keyed (left, label, right) that builds and stores the node on a
miss, so a hit is one dict lookup; the hot constructors index it
directly.  The table is never emptied, like the module's lru_caches.
Labels must be strings.  A node's printed form is built on first use,
not with the node, since most trees are only multiplied, never printed.
"""

import re
from functools import lru_cache
from itertools import permutations
from math import comb


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


class DuplicateLabelError(ValueError):
    pass


LABEL_RE = re.compile(r"[A-Za-z0-9_]+")


def generator_names(n):
    """The first n generator names: a..z, then a1..z1, a2..z2 and so on,
    all distinct and in the label grammar."""
    return [chr(ord("a") + i % 26) + (str(i // 26) if i >= 26 else "") for i in range(n)]


class _LabeledTree:
    """Rooted tree with labeled vertices; a subclass fixes the child
    order in _order.  Trees of different subclasses are never equal,
    even when they print the same."""

    __slots__ = ("label", "children", "_str", "_hash")

    def __init__(self, label, children=()):
        self.label = label
        self.children = self._order(children)
        if self.children:
            s = label + "(" + ",".join(c._str for c in self.children) + ")"
        else:
            s = label
        self._str = s
        self._hash = hash(s)

    def __str__(self):
        return self._str

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self._str)

    def __eq__(self, other):
        return type(other) is type(self) and self._str == other._str

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self._str < other._str

    def labels(self):
        """Vertex labels in preorder."""
        out = [self.label]
        for c in self.children:
            out.extend(c.labels())
        return out

    def label_set(self):
        return frozenset(self.labels())

    def find(self, label):
        """Subtree rooted at the given vertex, or None."""
        if self.label == label:
            return self
        for c in self.children:
            hit = c.find(label)
            if hit is not None:
                return hit
        return None

    def relabel(self, mapping):
        return type(self)(
            mapping.get(self.label, self.label),
            [c.relabel(mapping) for c in self.children],
        )


class PlanarTree(_LabeledTree):
    """Rooted tree with significant left-to-right child order."""

    __slots__ = ()
    _order = staticmethod(tuple)


class RootedTree(_LabeledTree):
    """Rooted tree with unordered children, stored in canonical order."""

    __slots__ = ()

    @staticmethod
    def _order(children):
        return tuple(sorted(children, key=lambda c: c._str))


def to_rooted(t: PlanarTree) -> RootedTree:
    return RootedTree(t.label, [to_rooted(c) for c in t.children])


class _NodeTable(dict):
    """The PBT nodes keyed (left, label, right); a missing key builds its
    node, which has no printed form yet."""

    __slots__ = ()

    def __missing__(self, key):
        left, label, right = key
        if not isinstance(label, str):
            raise TypeError("a PBT label must be a str, got %r" % (label,))
        node = object.__new__(PBT)
        node.left = left
        node.label = label
        node.right = right
        node._str = None
        node.degree = left.degree + 1 + right.degree
        self[key] = node
        return node


def _print(node):
    """The printed form "(left label right)" of node, stored in _str
    together with that of each unprinted subtree, bottom-up from an
    explicit stack, so a deep comb prints without one call per level."""
    stack = [node]
    while stack:
        t = stack[-1]
        left, right = t.left, t.right
        if left._str is None:
            stack.append(left)
        elif right._str is None:
            stack.append(right)
        else:
            t._str = "(%s %s %s)" % (left._str, t.label, right._str)
            stack.pop()
    return node._str


class PBT:
    """Planar binary tree with generator-decorated internal nodes.

    Nodes are hash-consed: PBT(left, label, right) returns the one node
    of the table ``PBT._nodes`` built from the same children and label,
    so two trees are equal exactly when they are the same object, and
    equality and hashing are the identity defaults of object.  The
    table builds every node and is never emptied; ``PBT._nodes[left,
    label, right]`` is the same node without the call.  Labels are
    strings, so that trees which print alike are the same tree; any
    other label raises TypeError.  The printed form, read by str, repr
    and <, is built on first use and kept in _str (None until then).

    LEAF is the unique empty tree (degree 0); it stands for the unit
    when a node slot is vacant and never occurs as a basis element.
    copy.copy and copy.deepcopy return the node itself, and an unpickled
    tree is rebuilt through the table from its postorder labels, so it
    is the interned node; LEAF pickles and copies as the module's LEAF.
    """

    __slots__ = ("left", "label", "right", "_str", "degree")
    _nodes = _NodeTable()

    def __new__(cls, left, label, right):
        return cls._nodes[left, label, right]

    def __reduce__(self):
        # the tree pickles as its postorder labels, None marking a leaf,
        # read off an explicit stack, so a deep comb pickles without
        # one call per level
        code = []
        stack = [self]
        while stack:
            t = stack.pop()
            if t is LEAF:
                code.append(None)
            else:
                code.append(t.label)
                stack.append(t.left)
                stack.append(t.right)
        code.reverse()
        return _pbt_from_postorder, (tuple(code),)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __str__(self):
        return self._str or _print(self)

    def __repr__(self):
        return "PBT(%r)" % str(self)

    def __lt__(self, other):
        return (self._str or _print(self)) < (other._str or _print(other))

    def is_leaf(self):
        return False

    def decorations(self):
        """Internal node labels in infix (left-to-right) order."""
        out = []
        stack = [(self, False)]
        while stack:
            node, seen = stack.pop()
            if node.is_leaf():
                continue
            if seen:
                out.append(node.label)
                stack.append((node.right, False))
            else:
                stack.append((node, True))
                stack.append((node.left, False))
        return out

    def relabel(self, mapping):
        if self.is_leaf():
            return self
        return PBT(
            self.left.relabel(mapping),
            mapping.get(self.label, self.label),
            self.right.relabel(mapping),
        )


def _pbt_from_postorder(code):
    """The tree whose postorder labels, None marking a leaf, are code,
    built through the node table from an explicit stack."""
    stack = []
    for label in code:
        if label is None:
            stack.append(LEAF)
        else:
            right = stack.pop()
            stack[-1] = PBT._nodes[stack[-1], label, right]
    return stack[0]


class _Leaf:
    __slots__ = ()
    _str = "*"
    degree = 0
    label = None

    def __str__(self):
        return "*"

    def __repr__(self):
        return "LEAF"

    def __reduce__(self):
        return "LEAF"

    def __lt__(self, other):
        return "*" < (other._str or _print(other))

    def is_leaf(self):
        return True

    def decorations(self):
        return []

    def relabel(self, mapping):
        return self


LEAF = _Leaf()


def angles(t: PlanarTree):
    """All angles of t in global left-to-right planar order, as
    (vertex label, slot) pairs: slot k at a vertex sits between its
    incoming edges k and k+1 (slot 0 left of all, slot d right of all).

    Depth-first emission: a vertex's slot-k angle appears between the
    traversals of its k-th and (k+1)-th child subtrees, which matches
    the geometric order without coordinates.
    """
    out = []
    _walk_angles(t, out)
    return out


def _walk_angles(v, out):
    out.append((v.label, 0))
    for i, c in enumerate(v.children):
        _walk_angles(c, out)
        out.append((v.label, i + 1))


_TOKEN_RE = re.compile(r"\s*(%s|[(),*<>{}|])" % LABEL_RE.pattern)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError("unexpected character %r" % text[pos], pos)
            break
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self):
        if self.i >= len(self.tokens):
            raise ParseError("unexpected end of input", len(self.text))
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, what):
        tok, pos = self.next()
        if tok != what:
            raise ParseError("expected %r, found %r" % (what, tok), pos)

    def label(self):
        tok, pos = self.next()
        if not LABEL_RE.fullmatch(tok):
            raise ParseError("expected a label, found %r" % tok, pos)
        return tok

    def done(self):
        if self.i != len(self.tokens):
            tok, pos = self.tokens[self.i]
            raise ParseError("trailing input %r" % tok, pos)


def _parse_node(p, cls):
    label = p.label()
    children = []
    if p.peek() == "(":
        p.next()
        children.append(_parse_node(p, cls))
        while p.peek() == ",":
            p.next()
            children.append(_parse_node(p, cls))
        p.expect(")")
    return cls(label, children)


def _check_distinct(t):
    seen = set()
    for lab in t.labels():
        if lab in seen:
            raise DuplicateLabelError("duplicate vertex label %r in %s" % (lab, t))
        seen.add(lab)


def _parse_all(text, parse):
    """Run parse, a function of the parser, over all of text; every
    text grammar of the package goes through here.  Nesting too deep for
    the interpreter's recursion limit is a parse error, not a crash."""
    p = _Parser(text)
    try:
        t = parse(p)
    except RecursionError:
        raise ParseError("nested too deeply", p.tokens[p.i - 1][1]) from None
    p.done()
    return t


def parse_planar(text) -> PlanarTree:
    t = _parse_all(text, lambda p: _parse_node(p, PlanarTree))
    _check_distinct(t)
    return t


def parse_rooted(text) -> RootedTree:
    t = _parse_all(text, lambda p: _parse_node(p, RootedTree))
    _check_distinct(t)
    return t


def _parse_pbt(p):
    tok = p.peek()
    if tok == "*":
        p.next()
        return LEAF
    p.expect("(")
    left = _parse_pbt(p)
    label = p.label()
    right = _parse_pbt(p)
    p.expect(")")
    return PBT(left, label, right)


def parse_pbt(text) -> PBT:
    return _parse_all(text, _parse_pbt)


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


@lru_cache(maxsize=None)
def _forest_structures(n):
    """Ordered forests with n vertices as nested tuples; a planar shape
    with n vertices is a root over a forest with n - 1."""
    if n == 0:
        return ((),)
    out = []
    for first in range(1, n + 1):
        for head in _forest_structures(first - 1):
            for rest in _forest_structures(n - first):
                out.append((head,) + rest)
    return tuple(out)


def _structure_to_tree(struct, labels, pos):
    label = labels[pos[0]]
    pos[0] += 1
    return PlanarTree(label, [_structure_to_tree(c, labels, pos) for c in struct])


def planar_shapes(n):
    """All planar rooted shapes on n vertices, preorder-labeled 1..n."""
    if n < 1:
        raise ValueError("a planar shape needs n >= 1, got %r" % (n,))
    labels = [str(i) for i in range(1, n + 1)]
    return [_structure_to_tree(s, labels, [0]) for s in _forest_structures(n - 1)]


def planar_trees(labels):
    """All planar rooted trees on the given distinct labels."""
    labels = list(labels)
    if len(set(labels)) != len(labels):
        raise DuplicateLabelError("duplicate label in %r" % (labels,))
    out = []
    for s in _forest_structures(len(labels) - 1):
        for perm in permutations(labels):
            out.append(_structure_to_tree(s, perm, [0]))
    return out


@lru_cache(maxsize=None)
def _rooted_trees_cached(labels):
    seen = {}
    for t in planar_trees(labels):
        r = to_rooted(t)
        seen[r._str] = r
    return tuple(seen[k] for k in sorted(seen))


def rooted_trees(labels):
    """All non-planar rooted trees on the given labels (n^(n-1) many)."""
    return list(_rooted_trees_cached(tuple(sorted(labels))))


def _pbt_range(lo, hi):
    """PBT shapes whose infix node labels are exactly lo..hi."""
    if lo > hi:
        return [LEAF]
    out = []
    for mid in range(lo, hi + 1):
        for left in _pbt_range(lo, mid - 1):
            for right in _pbt_range(mid + 1, hi):
                out.append(PBT(left, str(mid), right))
    return out


def pbt_shapes(n):
    """All binary shapes with n internal nodes, infix-labeled 1..n."""
    if n < 0:
        raise ValueError("pbt size must be >= 0, got %r" % (n,))
    return _pbt_range(1, n)


def pbt_basis(degree, alphabet):
    """All decorated PBTs of the given degree over the alphabet, by
    shape in pbt_shapes order, then by decoration word (the labels in
    infix order) in itertools.product order.

    Each tree is built once, from the already-built decorations of its
    two subtrees: the words of a shape are left word, root letter,
    right word, so product order is the nested order of the three."""
    if degree < 1:
        raise ValueError("degree must be at least 1, got %r" % (degree,))
    alphabet = list(alphabet)
    decorated = {LEAF: [LEAF]}  # shape -> its decorated trees, in order
    return [t for shape in pbt_shapes(degree) for t in _decorate(shape, alphabet, decorated)]


def _decorate(shape, alphabet, decorated):
    out = decorated.get(shape)
    if out is None:
        lefts = _decorate(shape.left, alphabet, decorated)
        rights = _decorate(shape.right, alphabet, decorated)
        nodes = PBT._nodes
        out = [nodes[left, a, right] for left in lefts for a in alphabet for right in rights]
        decorated[shape] = out
    return out


def weighted_pbt_basis(alphabet, weights, max_weight):
    """Decorated PBTs of weighted degree 1..max_weight, where each
    decoration contributes its weight.  Built degree by degree, so large
    alphabets with heavy letters never blow up."""
    exact = {0: [LEAF]}
    for d in range(1, max_weight + 1):
        out = []
        for a in alphabet:
            w = weights[a]
            if w > d:
                continue
            for dl in range(0, d - w + 1):
                for left in exact[dl]:
                    for right in exact[d - w - dl]:
                        out.append(PBT(left, a, right))
        exact[d] = out
    result = []
    for d in range(1, max_weight + 1):
        result.extend(exact[d])
    return result

