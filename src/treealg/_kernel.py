"""Integer elimination kernel.

Rows are Python lists of arbitrary-precision ints; a row represents a
rational vector up to positive scale.  ``treealg.linalg`` clears
denominators and runs every elimination through these three functions.
"""

from bisect import bisect
from math import gcd

BACKEND = "python"


def normalize_row(v):
    """Divide by the content and make the first nonzero entry positive."""
    g = 0
    for x in v:
        if x:
            g = gcd(g, x)
            if g == 1:
                break
    if g == 0:
        return list(v)
    for x in v:
        if x:
            if x < 0:
                g = -g
            break
    return [x // g for x in v]


def reduce_row(v, rows, pivots):
    """Eliminate v at the given pivot columns; return the normalized rest.

    ``rows`` must be in echelon form with strictly increasing ``pivots``
    and positive pivot entries.
    """
    v = list(v)
    for r, p in zip(rows, pivots):
        c = v[p]
        if c:
            q = r[p]
            g = gcd(c, q)
            mv = q // g
            mr = c // g
            v = [mv * a - mr * b for a, b in zip(v, r)]
    return normalize_row(v)


def rref(mat, ncols):
    """Reduced row echelon form of integer rows, up to positive row scale.

    Returns (rows, pivots) with rows sorted by pivot, each content-free
    with positive pivot, and zero above and below every pivot.
    """
    rows = []
    pivots = []
    for v in mat:
        w = reduce_row(v, rows, pivots)
        p = -1
        for i in range(ncols):
            if w[i]:
                p = i
                break
        if p >= 0:
            k = bisect(pivots, p)
            rows.insert(k, w)
            pivots.insert(k, p)
    for i in range(len(rows) - 1, -1, -1):
        r = rows[i]
        p = pivots[i]
        q = r[p]
        for j in range(i):
            u = rows[j]
            c = u[p]
            if c:
                g = gcd(c, q)
                mu = q // g
                mr = c // g
                rows[j] = normalize_row([mu * a - mr * b for a, b in zip(u, r)])
    return rows, pivots
