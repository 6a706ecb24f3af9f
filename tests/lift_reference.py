"""Reference builder for differential tests: the matrix of
``weil.solve_lift``'s lift system on any window [-halfwidth, halfwidth),
written entry by entry from the formulas, and the fold that carries a
chain on a wider window onto [-n, n).

``solve_lift`` solves on [-n, n) only.  test_weil.py builds the same
systems at half-widths 2n and 4n here and checks that a wider window
never admits a lift that [-n, n) does not.

Nothing in the package imports this module.
"""

from toruscheck.cohomology import d_matrix
from toruscheck.lattice import IntMatrix, block_matrix
from toruscheck.weil import _cup_matrix


def lift_system(torus, fT, D, halfwidth):
    """The matrix of the lift system in the unknowns (lam, p, mu1), with
    mu1 on [-halfwidth, halfwidth): rows N lam = 0, D CUP lam - D0 p = D u,
    sum_w (sigma^-w - 1) mu1(w) - fT lam = 0 and
    D phi(mu1) - fT p = D v, where phi(mu1) is
    -sum_w sum_i sigma^i (c(i, w mod n) + floor(w / n)) mu1(w)."""
    r, n = torus.rank, torus.model.n
    mats = torus.galois.matrices
    ident = IntMatrix.identity(r)
    boundary, phi = [], []
    for w in range(-halfwidth, halfwidth):
        j, k = w % n, w // n
        boundary.append(mats[-j % n] - ident)
        col = IntMatrix.zero(r, r)
        for i in range(n):
            col = col - (torus.model.c(i, j) + k) * mats[i]
        phi.append(col)
    return block_matrix([
        [torus.norm_matrix(), 0, 0],
        [D * _cup_matrix(torus), -d_matrix(torus.gmodule(), 0), 0],
        [-fT, 0, block_matrix([boundary])],
        [0, -fT, D * block_matrix([phi])]])


def fold(x, r, n, halfwidth):
    """A solution x of the system on [-halfwidth, halfwidth), carried onto
    [-n, n): with A_j = sum_k mu1(j + kn) and B_j = sum_k k mu1(j + kn)
    for j in [0, n), the folded chain is A_j + B_j at j and -B_j at
    j - n.  lam and p stay as they are."""
    head, mu = list(x[:2 * r]), x[2 * r:]
    A = [[0] * r for _ in range(n)]
    B = [[0] * r for _ in range(n)]
    for i, w in enumerate(range(-halfwidth, halfwidth)):
        j, k = w % n, w // n
        for m, v in enumerate(mu[i * r:(i + 1) * r]):
            A[j][m] += v
            B[j][m] += k * v
    below = [[-b for b in B[j]] for j in range(n)]
    above = [[a + b for a, b in zip(A[j], B[j])] for j in range(n)]
    return tuple(head + [v for j in range(n) for v in below[j]]
                 + [v for j in range(n) for v in above[j]])
