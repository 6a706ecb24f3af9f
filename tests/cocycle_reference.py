"""Q/Z 2-cocycles as toruscheck.groups computed them before Cocycle2 kept
its values as one int table at its level: the cocycle check ran through a
dict of coefficient hooks on QZ values, and CentralExtension built its
Cayley table in QZ arithmetic.  Kept as a test-only oracle for
tests/test_groups.py.
"""

from toruscheck.qz import QZ


def qz_hooks():
    """Coefficient hooks for QZ with trivial action."""
    zero = QZ(0)
    return {
        "zero": zero,
        "add": lambda x, y: x + y,
        "sub": lambda x, y: x - y,
        "act": lambda g, x: x,
        "eq": lambda x, y: x == y,
    }


def validate(G, values):
    """Raise ValueError unless values {(a, b): QZ} is a normalized
    2-cocycle of G:  g1.c(g2,g3) - c(g1 g2, g3) + c(g1, g2 g3) - c(g1, g2)
    = 0 on all triples."""
    m = qz_hooks()
    zero = m["zero"]
    for a in range(G.order):
        if not m["eq"](values[(a, 0)], zero):
            raise ValueError("not normalized in 2nd slot")
        if not m["eq"](values[(0, a)], zero):
            raise ValueError("not normalized in 1st slot")
    for a in range(G.order):
        for b in range(G.order):
            for c in range(G.order):
                lhs = m["add"](
                    m["sub"](m["act"](a, values[(b, c)]),
                             values[(G.mul(a, b), c)]),
                    m["sub"](values[(a, G.mul(b, c))], values[(a, b)]))
                if not m["eq"](lhs, zero):
                    raise ValueError("2-cocycle identity fails")


def extension_table(base, m, values):
    """The Cayley table of mu_m x|_alpha base on the indices k*|A| + a:
    (z1, a1) * (z2, a2) = (z1 + z2 + alpha(a1, a2), a1 a2)."""
    for v in values.values():
        if not (m * v).is_zero():
            raise ValueError("cocycle values must lie in mu_m")
    n = base.order
    size = m * n
    table = [[0] * size for _ in range(size)]
    for k1 in range(m):
        for a1 in range(n):
            for k2 in range(m):
                for a2 in range(n):
                    z = QZ(k1 + k2, m) + values[(a1, a2)]
                    k = z.num * m // z.den
                    table[k1 * n + a1][k2 * n + a2] = k * n + base.mul(a1, a2)
    return table
