"""Words over a generator alphabet: deconcatenation coproduct, shuffle
and half-shuffle products, and the evaluation collapsing the free
dendriform algebra onto words (x<y and y>x both become x.y)."""

from functools import lru_cache

from treealg.linalg import LinComb
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
def _shuffle(a: tuple, b: tuple) -> LinComb:
    if not a:
        return LinComb.single(Word(b))
    if not b:
        return LinComb.single(Word(a))
    left = _shuffle(a[1:], b).map_keys(lambda w: Word((a[0],) + w.letters))
    right = _shuffle(a, b[1:]).map_keys(lambda w: Word((b[0],) + w.letters))
    return left + right


def shuffle(w: Word, u: Word) -> LinComb:
    """Commutative shuffle product; the empty word is the identity."""
    return _shuffle(w.letters, u.letters)


def halfshuffle(w: Word, u: Word) -> LinComb:
    """Zinbiel product w.u: the first letter of w stays first."""
    if not w.letters:
        raise ValueError("half-shuffle needs a nonempty left factor")
    return _shuffle(w.letters[1:], u.letters).map_keys(
        lambda v: Word((w.letters[0],) + v.letters)
    )


def _half_combs(x: LinComb, y: LinComb) -> LinComb:
    return LinComb.sum(
        (halfshuffle(w, u), a * b) for w, a in x.terms.items() for u, b in y.terms.items()
    )


@lru_cache(maxsize=None)
def _zin_tree(t) -> LinComb:
    if t.is_leaf():
        return LinComb.single(EMPTY)
    # node = left > label < right; under x<y -> x.y and x>y -> y.x
    mid = LinComb.single(Word((t.label,)))
    if not t.right.is_leaf():
        mid = _half_combs(mid, _zin_tree(t.right))
    if not t.left.is_leaf():
        mid = _half_combs(mid, _zin_tree(t.left))
    return mid


def zin_eval(e: DendElement) -> LinComb:
    """Algebra morphism onto words: generators become one-letter words,
    x<y maps to x.y, x>y to y.x, the unit to the empty word."""
    return LinComb.sum((_zin_tree(t), c) for t, c in e.terms.items())
