"""Key-at-a-time oracles for the flat cochains of toruscheck.cohomology,
kept as test-only code for tests/test_cohomology.py and the tests that
build cochains from one value per key.

* ``table`` and ``from_table`` convert between a Cochain and a dict from
  each key of Q^n to its value, reading through the keyed accessor;
* ``coboundary`` is the coboundary written one key at a time, as
  ``Cochain.d`` computed it before it applied compiled sparse rows;
* ``d_matrix`` builds the coboundary matrix column by column from unit
  cochains, as ``cohomology.d_matrix`` did before it wrote those rows
  densely;
* ``cup``, ``dd_zero`` and ``cup_leibniz`` are the cup product and the two
  sampled checks as they ran before cochains were flat vectors: per-key
  values, and a per-sample d(d(x)).

They rebuild every merged key with the group law and apply group elements
through GModule.act, so only the bookkeeping differs from the library.
"""

import itertools

from toruscheck.checks import Verdict
from toruscheck.cohomology import Cochain, GModule, tuples
from toruscheck.lattice import IntMatrix


def table(x):
    """x as a dict from each key of Q^n, in `tuples` order, to its value."""
    return {t: x(*t) for t in tuples(x.gmod.group, x.degree)}


def from_table(gm, degree, tab):
    """The cochain whose value at each key t of Q^n is tab[t]."""
    return Cochain(gm, degree,
                   [c for t in tuples(gm.group, degree) for c in tab[t]])


def coboundary(x):
    """(dx)(g0..gn) = g0.x(g1..gn) + sum (-1)^i x(..gi gi+1..)
    + (-1)^(n+1) x(g0..gn-1)."""
    gm = x.gmod
    Q = gm.group
    n = x.degree
    out = {}
    for t in tuples(Q, n + 1):
        acc = list(gm.mats[t[0]].apply(x(*t[1:])))
        sign = -1
        for i in range(n):
            merged = t[:i] + (Q.mul(t[i], t[i + 1]),) + t[i + 2:]
            v = x(*merged)
            acc = [a + sign * b for a, b in zip(acc, v)]
            sign = -sign
        v = x(*t[:-1])
        acc = [a + sign * b for a, b in zip(acc, v)]
        out[t] = tuple(acc)
    return from_table(gm, n + 1, out)


def d_matrix(gmod, n):
    """The matrix of C^n -> C^(n+1): column (t, k) is the coboundary of the
    unit cochain with 1 in coordinate k at key t."""
    g = gmod.ngens
    keys = tuples(gmod.group, n)
    cols = []
    for t in keys:
        for k in range(g):
            tab = {s: (0,) * g for s in keys}
            tab[t] = tuple(1 if i == k else 0 for i in range(g))
            cols.append(coboundary(from_table(gmod, n, tab)).vec)
    return IntMatrix.from_columns(cols, g * gmod.group.order ** (n + 1))


def cup(x, y, pairing, out_gmod):
    """(x u y)(g_1..g_{p+q}) = pairing(x(g_1..g_p),
    (g_1...g_p) . y(g_{p+1}..g_{p+q}))."""
    Q = x.gmod.group
    p, q = x.degree, y.degree
    out = {}
    for t in tuples(Q, p + q):
        left = t[:p]
        g = 0
        for s in left:
            g = Q.mul(g, s)
        out[t] = pairing(x(*left), y.gmod.mats[g].apply(y(*t[p:])))
    return from_table(out_gmod, p + q, out)


def random_cochain(gm, degree, rng, bound):
    tab = {t: tuple(rng.randint(-bound, bound) for _ in range(gm.ngens))
           for t in itertools.product(range(gm.group.order), repeat=degree)}
    return from_table(gm, degree, tab)


def dd_zero(gm, degree, rng, samples, bound):
    """checks.dd_zero with d applied twice to each sample."""
    for i in range(samples):
        x = random_cochain(gm, degree, rng, bound)
        if any(any(v) for v in table(coboundary(coboundary(x))).values()):
            return Verdict(False, {"sample": i}, {"samples": i + 1})
    return Verdict(True, None, {"samples": samples})


def _int_pairing(a, b):
    return tuple(a[0] * x for x in b)


def cup_leibniz(gm, rng, samples):
    """checks.cup_leibniz through the key-at-a-time cup and coboundary."""
    ints = GModule.trivial_ints(gm.group)
    for i in range(samples):
        x = random_cochain(ints, 1, rng, 3)
        y = random_cochain(gm, 1, rng, 3)
        lhs = coboundary(cup(x, y, _int_pairing, gm))
        rhs = cup(coboundary(x), y, _int_pairing, gm).sub(
            cup(x, coboundary(y), _int_pairing, gm))
        if table(lhs) != table(rhs):
            return Verdict(False, {"sample": i}, {"samples": i + 1})
    return Verdict(True, None, {"samples": samples})
