"""Elimination kernel on sparse integer rows.

A row is a ``dict`` column -> nonzero coefficient; columns are ints
and their order is the elimination order.  A set of echelon rows is a
``dict`` keyed by pivot, the row's smallest column.  An integer row
represents a rational vector up to positive scale and is stored
content-free with a positive pivot.  Every elimination in the package
is fraction-free on such rows: ``treealg.linalg`` clears denominators
and calls ``reduce_row`` or ``rref``, which both run ``eliminate``.
``BACKEND`` and the names ``normalize_row``, ``reduce_row`` and
``rref`` stay for the benchmark's tracer (ROADMAP item 1).
"""

from heapq import heapify, heappop, heappush
from math import gcd

BACKEND = "python"


def eliminate(v, rows):
    """Eliminate the integer row v at the pivots of ``rows``; return the
    rest, up to positive scale, as a new dict.

    Pivot columns are visited in increasing order from a heap.  At the
    pivot p of row r, with c = v[p], q = r[p] > 0 and g = gcd(c, q), v
    becomes ``(q/g)*v - (c/g)*r``.
    """
    v = dict(v)
    heap = [k for k in v if k in rows]
    heapify(heap)
    while heap:
        p = heappop(heap)
        c = v.get(p)
        if not c:
            continue
        r = rows[p]
        g = gcd(c, r[p])
        mv, mr = r[p] // g, c // g
        if mv != 1:
            v = {k: mv * a for k, a in v.items()}
        for k, b in r.items():
            a = v.get(k)
            if a is None:
                v[k] = -mr * b
                if k in rows:
                    heappush(heap, k)
                continue
            a -= mr * b
            if a:
                v[k] = a
            else:
                del v[k]
    return v


def normalize_row(v):
    """Divide by the content and make the pivot entry positive."""
    if not v:
        return {}
    g = gcd(*v.values())
    if v[min(v)] < 0:
        g = -g
    return {k: x // g for k, x in v.items()}


def reduce_row(v, rows):
    """The normalized rest of the integer row v after elimination
    against the echelon rows ``rows``."""
    return normalize_row(eliminate(v, rows))


def rref(mat):
    """Reduced row echelon form of integer rows, up to positive row scale.

    Returns the rows as a dict keyed by pivot in increasing order, each
    content-free with positive pivot and zero at every other pivot.
    """
    rows = {}
    for v in mat:
        w = reduce_row(v, rows)
        if w:
            rows[min(w)] = w
    # back-substitution, last pivot first: each row is reduced against
    # the already reduced rows of larger pivot
    done = {}
    for p in sorted(rows, reverse=True):
        done[p] = normalize_row(eliminate(rows[p], done))
    return {p: done[p] for p in sorted(done)}
