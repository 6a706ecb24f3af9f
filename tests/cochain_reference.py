"""The coboundary of an inhomogeneous cochain written one key at a time, as
toruscheck.cohomology.Cochain.d computed it before it read cached face
tables.  Kept as a test-only oracle for tests/test_cohomology.py.

It rebuilds every merged key with the group law and applies g0 through
GModule.act, so only the bookkeeping differs from the library.
"""

from toruscheck.cohomology import Cochain, tuples


def coboundary(x):
    """(dx)(g0..gn) = g0.x(g1..gn) + sum (-1)^i x(..gi gi+1..)
    + (-1)^(n+1) x(g0..gn-1)."""
    gm = x.gmod
    Q = gm.group
    n = x.degree
    out = {}
    for t in tuples(Q, n + 1):
        acc = list(gm.act(t[0], x.table[t[1:]]))
        sign = -1
        for i in range(n):
            merged = t[:i] + (Q.mul(t[i], t[i + 1]),) + t[i + 2:]
            v = x.table[merged]
            acc = [a + sign * b for a, b in zip(acc, v)]
            sign = -sign
        v = x.table[t[:-1]]
        acc = [a + sign * b for a, b in zip(acc, v)]
        out[t] = tuple(acc)
    return Cochain(gm, n + 1, out)
