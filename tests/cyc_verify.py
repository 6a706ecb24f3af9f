"""Reference implementations for differential tests, in ``Cyc`` arithmetic,
the two ``Cyc`` operations only tests use (``conj`` and ``scaled``) and
the stored form of a ``Cyc``:

* the earlier ``CharacterTable.verify`` (one ``Cyc`` inner product per pair
  of rows, each compared by ``Cyc`` equality), kept apart from returning
  False where it asserted;
* the earlier left side of ``twisted_orthogonality``, a ``sum`` of
  ``Cyc`` products over ``Irr(E, psi)``.

Nothing in the package imports this module.  test_characters.py checks the
integer ``CharacterTable.verify`` against it on perturbed tables, and the
integer left side of ``twisted_orthogonality`` against it on extensions.
"""

from fractions import Fraction
from math import gcd

from toruscheck.characters import irr_with_central_char
from toruscheck.qz import Cyc


def conj(x):
    """The complex conjugate of a Cyc: e(k/n) -> e(-k/n)."""
    return Cyc.from_pairs([(-k % x.n, c) for k, c in x.pairs.items()],
                          x.n, x.den)


def scaled(x, r):
    """The Cyc x times the rational r."""
    r = Fraction(r)
    return x * Cyc.from_pairs([(0, r.numerator)], 1, r.denominator)


def stored(x):
    """(n, den, pairs): what a Cyc stores, equal for equal formal sums,
    after checking that it is in lowest terms: nonzero coefficients at
    exponents 0 <= k < n, with no common factor of n and the exponents and
    none of den >= 1 and the coefficients."""
    n, den, pairs = x.n, x.den, x.pairs
    assert den >= 1 and all(c and 0 <= k < n for k, c in pairs.items())
    assert gcd(n, *pairs) == 1 and gcd(den, *pairs.values()) == 1
    return n, den, pairs


def inner(table, f1, f2):
    """|G|^-1 sum_g f1(g) conj(f2(g)) for per-class value lists."""
    total = Cyc.zero()
    for ci, cls in enumerate(table.classes):
        total = total + (f1[ci] * conj(f2[ci])) * len(cls)
    return scaled(total, Fraction(1, table.group.order))


def verify(table):
    """Whether the dims, row orthogonality and column orthogonality hold."""
    G = table.group
    if sum(d * d for d in table.dims) != G.order:
        return False
    for i in range(table.nchars):
        for j in range(i, table.nchars):
            got = inner(table, table.chars[i], table.chars[j])
            if got != Cyc.integer(1 if i == j else 0):
                return False
    col = sum((table.chars[i][0] * table.chars[i][0]
               for i in range(table.nchars)), Cyc.zero())
    return col == Cyc.integer(G.order)


def twisted_lhs(ext, psi1, e, e2, cache=None):
    """sum over tau in Irr(E, psi) of chi_tau(e) chi_tau(e2), one Cyc at a
    time."""
    table, sel = irr_with_central_char(ext, psi1, cache)
    return sum((table.value(i, e) * table.value(i, e2) for i in sel),
               Cyc.zero())
