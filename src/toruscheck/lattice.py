"""Exact linear algebra over Z: integer matrices, Smith normal form,
canonical solutions of linear systems, and finitely generated abelian
groups presented by relation matrices.

All entries are arbitrary-precision Python ints.  Matrices are immutable
(tuples of tuples) so values can be shared freely.
"""

from __future__ import annotations

import itertools
from operator import mul


class IntMatrix:
    """Immutable integer matrix.

    >>> IntMatrix.identity(2) * IntMatrix([[2, 0], [0, 3]])
    IntMatrix([[2, 0], [0, 3]])
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows_data):
        data = tuple(map(tuple, rows_data))
        self.data = data
        self.rows = len(data)
        self.cols = cols = len(data[0]) if data else 0
        for row in data:
            if len(row) != cols:
                raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def from_columns(cls, columns, rows=None):
        columns = [tuple(c) for c in columns]
        if rows is None:
            if not columns:
                raise ValueError("need rows for an empty column list")
            rows = len(columns[0])
        return cls([[c[i] for c in columns] for i in range(rows)])

    def column(self, j):
        return tuple(self.data[i][j] for i in range(self.rows))

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def transpose(self):
        return IntMatrix([[self.data[i][j] for i in range(self.rows)]
                          for j in range(self.cols)])

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return "IntMatrix(%s)" % [list(r) for r in self.data]

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrices of different shapes")
        return IntMatrix([[a + b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.data, other.data)])

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrices of different shapes")
        return IntMatrix([[a - b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.data, other.data)])

    def __neg__(self):
        return IntMatrix([[-a for a in r] for r in self.data])

    def __mul__(self, other):
        if isinstance(other, int):
            return IntMatrix([[other * a for a in r] for r in self.data])
        if self.cols != other.rows:
            raise ValueError("%d columns times %d rows"
                             % (self.cols, other.rows))
        cols = list(zip(*other.data))
        return IntMatrix([[sum(map(mul, row, col)) for col in cols]
                          for row in self.data])

    __rmul__ = __mul__

    def apply(self, vec):
        """Matrix times column vector, returned as a tuple."""
        vec = tuple(vec)
        if len(vec) != self.cols:
            raise ValueError("a vector of length %d for %d columns"
                             % (len(vec), self.cols))
        return tuple([sum(map(mul, row, vec)) for row in self.data])

    def det(self):
        """Determinant by fraction-free (Bareiss) elimination."""
        assert self.rows == self.cols
        n = self.rows
        if n == 0:
            return 1
        m = [list(r) for r in self.data]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def is_unimodular(self):
        return self.rows == self.cols and abs(self.det()) == 1


def smith_normal_form(M):
    """Return (U, D, V) with U*M*V == D, U and V unimodular, and D diagonal
    with d1 | d2 | ... and all d_i >= 0.

    >>> U, D, V = smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
    >>> [D.data[i][i] for i in range(2)]
    [2, 4]
    """
    rows, cols = M.rows, M.cols
    a = [list(r) for r in M.data]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in a:
            r[i] -= q * r[j]
        for r in v:
            r[i] -= q * r[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    n = min(rows, cols)
    t = 0
    while t < n:
        # find a pivot
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        # enforce divisibility of later entries by a[t][t]
        recheck = False
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t] != 0:
                    # add row i to row t, restart elimination at t
                    a[t] = [x + y for x, y in zip(a[t], a[i])]
                    u[t] = [x + y for x, y in zip(u[t], u[i])]
                    recheck = True
                    break
            if recheck:
                break
        if recheck:
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    U = IntMatrix(u)
    V = IntMatrix(v)
    D = IntMatrix(a)
    return U, D, V


#: Entry limit of every Memo.
MEMO_LIMIT = 4096


class Memo:
    """Bounded memo from a content key to a value built once per process.

    Keys are built from the content of the inputs (tuples of ints, never
    object identity), so equal inputs share one entry however often they
    are rebuilt.  The value is shared by every caller and must not be
    mutated.  A full memo is emptied before its next insert, so it never
    holds more than MEMO_LIMIT entries.

    >>> m = Memo()
    >>> m.get_or_compute((2, 3), pow, 2, 3), m.get_or_compute((2, 3), pow, 0, 0)
    (8, 8)
    """

    __slots__ = ("_entries",)

    def __init__(self):
        self._entries = {}

    def __len__(self):
        return len(self._entries)

    def get_or_compute(self, key, compute, *args):
        """The value under key, computed as compute(*args) on a miss."""
        try:
            return self._entries[key]
        except KeyError:
            pass
        value = compute(*args)
        if len(self._entries) >= MEMO_LIMIT:
            self._entries.clear()
        self._entries[key] = value
        return value


_snf_cache = Memo()


def snf_cached(M):
    return _snf_cache.get_or_compute(M.data, smith_normal_form, M)


def solve_integer(A, b):
    """Canonical integer solution x of A x = b, or None when unsolvable.

    The solution is deterministic: it has all free SNF coordinates equal
    to zero, so downstream constructions built on it are reproducible.
    """
    return solve_snf(snf_cached(A), b)


def solve_snf(snf, b):
    """solve_integer for the matrix A whose smith_normal_form is snf, for
    callers that keep the SNF of a system they solve many times."""
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


def kernel_basis(A):
    """Basis (list of tuples) of the integer kernel lattice of A."""
    U, D, V = snf_cached(A)
    n = min(A.rows, A.cols)
    rank = sum(1 for i in range(n) if D.data[i][i] != 0)
    return [V.column(j) for j in range(rank, A.cols)]


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


def unimodular_inverse(M):
    """Exact inverse V U of a unimodular matrix M, from its SNF U M V = I.

    Raises ValueError for a singular or non-square M.

    >>> unimodular_inverse(IntMatrix([[2, 1], [1, 1]]))
    IntMatrix([[1, -1], [-1, 2]])
    """
    U, D, V = snf_cached(M)
    if D != IntMatrix.identity(M.rows):
        raise ValueError("matrix is not unimodular")
    return V * U


class FGAbelian:
    """Finitely generated abelian group Z^g / (columns of R), with unique
    element normal forms derived from the Smith normal form of R.

    invariant factors d1 | d2 | ... (each >= 2) plus a free rank.

    >>> G = FGAbelian(2, IntMatrix([[2, 0], [0, 1]]))
    >>> (G.torsion, G.free_rank)
    ((2,), 0)
    """

    __slots__ = ("ngens", "rels", "U", "Uinv", "torsion", "free_rank",
                 "_coord_info")

    def __init__(self, ngens, rels):
        if rels.rows != ngens:
            raise ValueError("%d relation rows for %d generators"
                             % (rels.rows, ngens))
        self.ngens = ngens
        self.rels = rels
        U, D, V = snf_cached(rels)
        self.U = U
        self.Uinv = unimodular_inverse(U)
        n = min(rels.rows, rels.cols)
        torsion = []
        coord_info = []  # (index into U-coords, modulus or 0)
        for i in range(ngens):
            d = D.data[i][i] if i < n else 0
            if d == 1:
                continue
            coord_info.append((i, d))
            if d > 1:
                torsion.append(d)
        self.torsion = tuple(torsion)
        self.free_rank = sum(1 for _, d in coord_info if d == 0)
        self._coord_info = tuple(coord_info)

    def invariants(self):
        return self.torsion, self.free_rank

    @property
    def order(self):
        """Group order, or 0 when infinite."""
        if self.free_rank:
            return 0
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def is_trivial(self):
        return not self.torsion and self.free_rank == 0

    def nf(self, vec):
        """Normal form of an ambient vector: one residue per torsion factor
        followed by the free coordinates."""
        y = self.U.apply(vec)
        out = []
        for i, d in self._coord_info:
            out.append(y[i] % d if d else y[i])
        return tuple(out)

    def lift(self, coords):
        """An ambient vector with the given normal form."""
        coords = tuple(coords)
        if len(coords) != len(self._coord_info):
            raise ValueError("%d coordinates for %d invariants"
                             % (len(coords), len(self._coord_info)))
        y = [0] * self.ngens
        for (i, _), c in zip(self._coord_info, coords):
            y[i] = c
        return self.Uinv.apply(y)

    def elements(self):
        """Iterate all normal forms (finite groups only)."""
        if self.free_rank:
            raise ValueError("cannot list the elements of an infinite group")
        ranges = [range(d) for d in self.torsion]
        return itertools.product(*ranges)

    def __repr__(self):
        parts = ["Z"] * self.free_rank + ["Z/%d" % d for d in self.torsion]
        return "FGAbelian(%s)" % (" + ".join(parts) if parts else "0")


class Subquotient:
    """Subquotient L / (B + R) of a quotient module Z^g / R, where the
    sublattice L and the boundary lattice B are given by generating vectors.

    Provides classify (ambient vector -> normal form in the quotient) and
    representative (normal form -> ambient vector), the presentation engine
    behind all Tate and hypercohomology groups.
    """

    __slots__ = ("ambient_dim", "L", "group", "_Lmat")

    def __init__(self, ambient_dim, sub_gens, bdry_gens, rel_gens=()):
        self.ambient_dim = ambient_dim
        basis = hnf_image_basis(IntMatrix.from_columns(sub_gens, ambient_dim))
        self._Lmat = IntMatrix.from_columns(basis, ambient_dim)
        self.L = basis
        rels_in_L = []
        for v in list(bdry_gens) + list(rel_gens):
            c = solve_integer(self._Lmat, v)
            if c is None:
                raise ValueError("boundary vector outside the cycle lattice")
            rels_in_L.append(c)
        R = IntMatrix.from_columns(rels_in_L, len(basis))
        self.group = FGAbelian(len(basis), R)

    def classify(self, vec):
        """Normal form of a vector of the sublattice; None if outside it."""
        c = solve_integer(self._Lmat, vec)
        if c is None:
            return None
        return self.group.nf(c)

    def representative(self, coords):
        c = self.group.lift(coords)
        return self._Lmat.apply(c)

    def elements(self):
        return self.group.elements()

    @property
    def order(self):
        return self.group.order
