"""Words over a generator alphabet: deconcatenation coproduct, shuffle
and half-shuffle products, and the evaluation collapsing the free
dendriform algebra onto words (x<y and y>x both become x.y).

The products and the evaluation run on letter tuples with integer
multiplicities, through one cached shuffle of two tuples; a Word is
built only for each term of a result."""

from functools import lru_cache

from treealg.linalg import LinComb, _from_terms, add_into
from treealg.dendriform import DendElement


class Word:
    """Immutable word; the empty word is the unit."""

    __slots__ = ("letters", "_str", "_hash")

    def __init__(self, letters=()):
        self.letters = tuple(letters)
        if any(len(a) > 1 for a in self.letters):
            self._str = ".".join(self.letters) if self.letters else ""
        else:
            self._str = "".join(self.letters)
        self._hash = hash(self.letters)

    def __str__(self):
        return self._str

    def __repr__(self):
        return "Word(%r)" % (self.letters,)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.letters < other.letters

    def __len__(self):
        return len(self.letters)

    def __add__(self, other):
        return Word(self.letters + other.letters)


EMPTY = Word()


def deconcat(w: Word) -> LinComb:
    """Sum of (prefix, suffix) splittings; counit is the empty-word part."""
    return LinComb(
        ((Word(w.letters[:i]), Word(w.letters[i:])), 1) for i in range(len(w) + 1)
    )


@lru_cache(maxsize=None)
def _shuffle_tuples(a: tuple, b: tuple) -> dict:
    """The shuffles of the letter tuples a and b, as {tuple: multiplicity}.
    The dict is cached and shared: callers read it and never change it."""
    if not a or not b:
        return {a + b: 1}
    out = {}
    get = out.get
    for first, rest in ((a[0], _shuffle_tuples(a[1:], b)), (b[0], _shuffle_tuples(a, b[1:]))):
        for v, m in rest.items():
            v = (first,) + v
            out[v] = get(v, 0) + m
    return out


def _words(terms) -> LinComb:
    """The LinComb of Words with the letter tuples of terms as keys; terms
    stores no zero."""
    return _from_terms(LinComb, {Word(v): c for v, c in terms.items()})


@lru_cache(maxsize=None)
def shuffle(w: Word, u: Word) -> LinComb:
    """Commutative shuffle product; the empty word is the identity."""
    return _words(_shuffle_tuples(w.letters, u.letters))


def halfshuffle(w: Word, u: Word) -> LinComb:
    """Zinbiel product w.u: the first letter of w stays first."""
    if not w.letters:
        raise ValueError("half-shuffle needs a nonempty left factor")
    first = w.letters[:1]
    return _words({first + v: m for v, m in _shuffle_tuples(w.letters[1:], u.letters).items()})


@lru_cache(maxsize=None)
def _zin_tree(t) -> dict:
    """The image of the tree t as {letter tuple: multiplicity}, cached and
    shared.  A node is left > label < right, and x<y -> x.y, x>y -> y.x,
    so it maps to (label . R) . L, with R and L the images of right and
    left: label followed by every shuffle of a word of R with one of L.
    The multiplicities are positive, so nothing cancels."""
    if t.is_leaf():
        return {(): 1}
    right, left = _zin_tree(t.right), _zin_tree(t.left)
    first = (t.label,)
    out = {}
    get = out.get
    for u, a in right.items():
        for v, b in left.items():
            for s, m in _shuffle_tuples(u, v).items():
                s = first + s
                out[s] = get(s, 0) + a * b * m
    return out


def zin_eval(e: DendElement) -> LinComb:
    """Algebra morphism onto words: generators become one-letter words,
    x<y maps to x.y, x>y to y.x, the unit to the empty word.

    Each tree's image is read off the cache of _zin_tree as a dict of
    letter tuples; the trees of e are summed into one dict, and each
    Word of the result is built once."""
    d = {}
    for t, c in e.terms.items():
        add_into(d, c, _zin_tree(t))
    return _words(d)
