"""Reference implementations for differential tests: the dense solve of
``lattice.solve_integer`` as it was before the solve plan, with c = U b and
x = V y as full matrix-vector products, and ``lattice.Subquotient`` as it
was built from a second factorization of its basis matrix.

Nothing in the package imports this module.  test_lattice.py checks
``lattice.solve_integer`` and ``lattice.Subquotient`` against them.
"""

from toruscheck.lattice import FGAbelian, IntMatrix, snf_cached, \
    solve_integer, unimodular_inverse


def solve_dense(snf, b):
    """The canonical solution of A x = b for the A with U A V = D = snf,
    every free coordinate zero, or None: c = U b must have d_i | c_i on
    every row, and c_i = 0 where d_i = 0."""
    U, D, V = snf
    b = tuple(int(x) for x in b)
    if len(b) != D.rows:
        raise ValueError("a right-hand side of length %d for %d rows"
                         % (len(b), D.rows))
    c = U.apply(b)
    n = min(D.rows, D.cols)
    y = [0] * D.cols
    for i in range(D.rows):
        d = D.data[i][i] if i < n else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            if i < D.cols:
                y[i] = c[i] // d
    return V.apply(y)


def hnf_image_basis(A):
    """Basis of the column span of A (image lattice): with U A V = D from
    its SNF, column j of U^-1 D, that is d_j times column j of U^-1."""
    U, D, V = snf_cached(A)
    Uinv = unimodular_inverse(U)
    basis = []
    for j in range(min(A.rows, A.cols)):
        d = D.data[j][j]
        if d == 0:
            break
        basis.append(tuple(d * x for x in Uinv.column(j)))
    return basis


class ReferenceSubquotient:
    """``lattice.Subquotient`` as it was built before it read its basis and
    coordinates off the SNF of its generator matrix: the basis from
    hnf_image_basis, then every coordinate by solve_integer on the basis
    matrix, which takes a second SNF and a solve plan of its own."""

    def __init__(self, ambient_dim, sub_gens, bdry_gens):
        self.ambient_dim = ambient_dim
        basis = hnf_image_basis(IntMatrix.from_columns(sub_gens, ambient_dim))
        self._Lmat = IntMatrix.from_columns(basis, ambient_dim)
        self.L = basis
        rels_in_L = []
        for v in bdry_gens:
            c = solve_integer(self._Lmat, v)
            if c is None:
                raise ValueError("boundary vector outside the cycle lattice")
            rels_in_L.append(c)
        R = IntMatrix.from_columns(rels_in_L, len(basis))
        self.group = FGAbelian(len(basis), R)

    def classify(self, vec):
        c = solve_integer(self._Lmat, vec)
        if c is None:
            return None
        return self.group.nf(c)

    def representative(self, coords):
        return self._Lmat.apply(self.group.lift(coords))
