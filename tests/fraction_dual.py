"""The dual-torus actions and the hyper-pair checks written one QZ or
Fraction at a time, as toruscheck.weil and toruscheck.tori computed them
before they moved to integer vectors over one denominator.  Kept as a
test-only oracle for tests/test_dual_oracle.py.

Each function takes the torus and reads the same dual-action matrices
(`_galois_dualT`, `_comp_dualT`) as the library, so only the arithmetic
differs.  `dual_transposes` is the oracle for those matrices themselves:
the inverse of each action matrix solved column by column, as the library
built them before it read them off the inverse group elements.
"""

from fractions import Fraction

from toruscheck.lattice import IntMatrix, solve_integer
from toruscheck.qz import QZ


def column_inverse(M):
    """The inverse of a unimodular M, one solve_integer per column."""
    cols = []
    for j in range(M.rows):
        x = solve_integer(M, tuple(int(i == j) for i in range(M.rows)))
        assert x is not None, "matrix is not unimodular"
        cols.append(x)
    return IntMatrix.from_columns(cols, M.rows)


def dual_transposes(action):
    """The dual action m_g^-T of every group element g."""
    return tuple(column_inverse(m).transpose() for m in action.matrices)


def qz_sum(values):
    total = QZ(0)
    for v in values:
        total = total + v
    return total


def _act(m, s, rank):
    return tuple(qz_sum(row[j] * s[j] for j in range(rank)) for row in m.data)


def dual_eval(torus, s, vec):
    return qz_sum(x * q for q, x in zip(s, vec))


def dual_sigma(torus, i, s):
    return _act(torus._galois_dualT[i % torus.model.n], s, torus.rank)


def dual_comp(torus, a, s):
    return _act(torus._comp_dualT[a], s, torus.rank)


def dual_compose(torus, s, mat):
    return _act(mat.transpose(), s, torus.rank)


def dual_add(s, t):
    return tuple(a + b for a, b in zip(s, t))


def dual_sub(s, t):
    return tuple(a - b for a, b in zip(s, t))


def parameter_table(torus, psi):
    """The values of the parameter at sigma^0 .. sigma^(n-1); ValueError
    when psi fails the cocycle identity."""
    n = torus.model.n
    tab = {0: (QZ(0),) * torus.rank}
    for i in range(1, n):
        tab[i] = dual_add(tab[i - 1], dual_sigma(torus, i - 1, psi))
    total = dual_add(tab[n - 1], dual_sigma(torus, n - 1, psi))
    if not all(q.is_zero() for q in total):
        raise ValueError("cocycle identity")
    return tab


def is_invariant_dual(torus, s):
    for i in range(torus.model.n):
        if any(not (x - y).is_zero()
               for x, y in zip(dual_sigma(torus, i, s), s)):
            return False
    return True


def validate_hyper_pair_dual(torus, fT, table, s):
    """table: the parameter's values, as parameter_table returns them."""
    for i in range(torus.model.n):
        lhs = dual_sub(dual_sigma(torus, i, s), s)
        rhs = dual_compose(torus, table[i], fT)
        if any(not (a - b).is_zero() for a, b in zip(lhs, rhs)):
            raise ValueError("dual-side pair not on the dual complex")


def check_pair_T(torus, fT, u, v):
    v = tuple(Fraction(x) for x in v)
    for val in u.d().table.values():
        if any(val):
            raise ValueError("T-side pair not a hypercocycle")
    for i in range(torus.model.n):
        lhs = fT.apply(u.table[(i,)])
        m = torus.galois.matrices[i]
        sv = tuple(sum(Fraction(m.data[a][b]) * v[b] for b in range(torus.rank))
                   for a in range(torus.rank))
        rhs = tuple(x - y for x, y in zip(sv, v))
        if any(Fraction(x) != y for x, y in zip(lhs, rhs)):
            raise ValueError("T-side pair not a hypercocycle")
