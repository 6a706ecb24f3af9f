"""Reference implementations for differential tests, in ``Cyc`` arithmetic:

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

from toruscheck.characters import irr_with_central_char
from toruscheck.qz import Cyc


def inner(table, f1, f2):
    """|G|^-1 sum_g f1(g) conj(f2(g)) for per-class value lists."""
    total = Cyc.zero()
    for ci, cls in enumerate(table.classes):
        total = total + (f1[ci] * f2[ci].conj()) * len(cls)
    return total * Fraction(1, table.group.order)


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
