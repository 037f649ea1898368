"""Elimination kernel on sparse rows.

A row is a ``dict`` column -> nonzero coefficient; columns are ints
and their order is the elimination order.  A set of echelon rows is a
``dict`` keyed by pivot, the row's smallest column.  Integer rows
represent a rational vector up to positive scale and are stored
content-free with a positive pivot.  ``treealg.linalg`` clears
denominators and runs every elimination through ``eliminate``.
``BACKEND`` and the names ``normalize_row``, ``reduce_row`` and
``rref`` stay for the benchmark's tracer (ROADMAP item 1).
"""

from heapq import heapify, heappop, heappush
from math import gcd

BACKEND = "python"


def fraction_free(c, q):
    """Multipliers (mv, mr) of the integer step v = mv*v - mr*r that
    clears v[p] = c against r[p] = q > 0; mv is positive."""
    g = gcd(c, q)
    return q // g, c // g


def eliminate(v, rows, step):
    """Eliminate v at the pivots of ``rows``; return the rest as a new dict.

    Pivot columns are visited in increasing order from a heap.  At the
    pivot p of row r, ``step(v[p], r[p])`` gives (mv, mr) and v becomes
    ``mv*v - mr*r``.
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
        mv, mr = step(c, r[p])
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
    return normalize_row(eliminate(v, rows, fraction_free))


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
        done[p] = normalize_row(eliminate(rows[p], done, fraction_free))
    return {p: done[p] for p in sorted(done)}
