"""Reference implementation for differential tests: the dense solve of
``lattice.solve_integer`` as it was before the solve plan, with c = U b and
x = V y as full matrix-vector products.

Nothing in the package imports this module.  test_lattice.py checks
``lattice.solve_integer`` against it.
"""


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
