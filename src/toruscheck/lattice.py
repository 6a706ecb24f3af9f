"""Exact linear algebra over Z: integer matrices, Smith normal form,
canonical solutions of linear systems, and finitely generated abelian
groups presented by relation matrices.

All entries are arbitrary-precision Python ints.  Matrices are immutable
(tuples of tuples) so values can be shared freely.
"""

from __future__ import annotations

import functools
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
    def from_columns(cls, columns, rows):
        columns = [tuple(c) for c in columns]
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
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
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


class Memo(dict):
    """Bounded memo from a content key to a value built once per process,
    the one process-level cache of the package: a dict that is read as
    one and written only through put.

    Keys are built from the content of the inputs (ints, strs and tuples
    of them, never object identity), so equal inputs share one entry
    however often they are rebuilt.  The value is shared by every caller
    and must not be mutated; put replaces it.  A full memo is emptied
    before its next insert, so it holds at most MEMO_LIMIT entries.

    >>> m = Memo()
    >>> m.get_or_compute((2, 3), pow, 2, 3), m.get_or_compute((2, 3), pow, 0, 0)
    (8, 8)
    """

    __slots__ = ()

    def get_or_compute(self, key, compute, *args):
        """The value under key, computed as compute(*args) on a miss."""
        try:
            return self[key]
        except KeyError:
            return self.put(key, compute(*args))

    def put(self, key, value):
        """Store value under key, in place of any value there; return it."""
        if len(self) >= MEMO_LIMIT and key not in self:
            self.clear()
        self[key] = value
        return value


def memoized(key=None):
    """Decorator: keep fn(*args) in a Memo of its own under key(*args), or
    under args itself when key is None.  The result is a plain function,
    which carries that Memo as its attribute memo."""
    def decorate(fn):
        memo = Memo()

        def lookup(*args):
            k = args if key is None else key(*args)
            try:
                return memo[k]
            except KeyError:
                return memo.put(k, fn(*args))
        lookup.memo = memo
        return functools.update_wrapper(lookup, fn)
    return decorate


#: One record per matrix content: (its SNF or None, its solve plan or
#: None), holding what callers have asked of that matrix.
_snf_cache = Memo()


def snf_cached(M):
    """The SNF (U, D, V) of M, computed once per matrix and kept in its
    record."""
    snf, plan = _snf_cache.get(M.data, (None, None))
    if snf is None:
        snf = smith_normal_form(M)
        _snf_cache.put(M.data, (snf, plan))
    return snf


def solve_integer(A, b):
    """Canonical integer solution x of A x = b, or None when unsolvable.

    The solution is deterministic: it has all free SNF coordinates equal
    to zero, so downstream constructions built on it are reproducible.
    The solve plan of A is built once per matrix and kept in its record,
    from the SNF there if one was asked for, else from an SNF not kept.
    """
    snf, plan = _snf_cache.get(A.data, (None, None))
    if plan is None:
        plan = solve_plan(A, snf)
        _snf_cache.put(A.data, (snf, plan))
    return _solve(plan, b)


def solve_plan(A, snf=None):
    """The sparse form of the SNF (U, D, V) of A that _solve and
    Subquotient read: the number of rows and columns, the rows of U with
    d_i = 0 as (columns, entries), and for each row with d_i != 0 its
    (columns, entries) in U, d_i and column i of V as (rows, entries).
    Zero entries are dropped.  The SNF is computed unless snf gives it.

    >>> solve_plan(IntMatrix([[2], [0]]))
    (2, 1, (((1,), (1,)),), (((0,), (1,), 2, (0,), (1,)),))
    """
    U, D, V = snf or smith_normal_form(A)
    n = min(D.rows, D.cols)
    vcols = list(zip(*V.data))
    zero_rows, pivots = [], []
    for i, row in enumerate(U.data):
        d = D.data[i][i] if i < n else 0
        if d == 0:
            zero_rows.append(_nonzero(row))
        else:
            pivots.append((*_nonzero(row), d, *_nonzero(vcols[i])))
    return D.rows, D.cols, tuple(zero_rows), tuple(pivots)


def _nonzero(vec):
    """The indices and the values of the nonzero entries of vec."""
    return (tuple(itertools.compress(range(len(vec)), vec)),
            tuple(filter(None, vec)))


def _solve(plan, b):
    """solve_integer's canonical solution x = V y, y from _pivot_step."""
    y = _pivot_step(plan, b)
    if y is None:
        return None
    x = [0] * plan[1]
    for (_, _, _, rows, vvals), yi in zip(plan[3], y):
        if yi:
            for r, e in zip(rows, vvals):
                x[r] += e * yi
    return tuple(x)


def _pivot_step(plan, b):
    """With U A V = D the SNF of the plan's A and c = U b: the list of
    y_i = c_i / d_i over the rows with d_i != 0, or None when some c_i with
    d_i = 0 is nonzero or some d_i does not divide c_i.  These y_i are the
    coordinates of b in the basis A V e_i = d_i U^-1 e_i of the column
    lattice of A."""
    nrows, _, zero_rows, pivots = plan
    b = tuple(map(int, b))
    if len(b) != nrows:
        raise ValueError("a right-hand side of length %d for %d rows"
                         % (len(b), nrows))
    at = b.__getitem__
    for cols, vals in zero_rows:
        if sum(map(mul, vals, map(at, cols))):
            return None
    y = []
    for cols, vals, d, _, _ in pivots:
        c = sum(map(mul, vals, map(at, cols)))
        if c % d:
            return None
        y.append(c // d)
    return y


def block_matrix(grid):
    """The matrix assembled from a grid of IntMatrix blocks, where 0 stands
    for a zero block.  Each block row takes its height and each block column
    its width from the blocks in it.  A matrix with no rows reports 0
    columns, so it sets a width only where no block with rows does.

    Raises ValueError when the grid's rows differ in length, when the
    blocks of a block row or column disagree, or when a block row or column
    has no block to read its size from.

    >>> block_matrix([[IntMatrix([[1, 2]]), 0], [0, IntMatrix([[3], [4]])]])
    IntMatrix([[1, 2, 0], [0, 0, 3], [0, 0, 4]])
    """
    if len({len(row) for row in grid}) > 1:
        raise ValueError("block rows of different lengths")
    heights = [_block_size([b.rows for b in row if isinstance(b, IntMatrix)],
                           "row") for row in grid]
    widths = []
    for col in zip(*grid):
        blocks = [b for b in col if isinstance(b, IntMatrix)]
        widths.append(_block_size([b.cols for b in blocks if b.rows]
                                  or [b.cols for b in blocks], "column"))
    out = []
    for row, h in zip(grid, heights):
        pieces = [b.data if isinstance(b, IntMatrix) else ((0,) * w,) * h
                  for b, w in zip(row, widths)]
        out.extend(map(itertools.chain.from_iterable, zip(*pieces)))
    return IntMatrix(out)


def _block_size(sizes, kind):
    if len(set(sizes)) != 1:
        raise ValueError("blocks of sizes %s in one block %s" % (sizes, kind)
                         if sizes else "a block %s of zeros only" % kind)
    return sizes[0]


def block_diagonal(blocks):
    """The matrix with the given blocks down its diagonal.

    >>> block_diagonal([IntMatrix([[2]]), IntMatrix([[0, 1], [1, 0]])])
    IntMatrix([[2, 0, 0], [0, 0, 1], [0, 1, 0]])
    """
    return block_matrix([[b if i == j else 0 for j in range(len(blocks))]
                         for i, b in enumerate(blocks)])


def kernel_basis(A):
    """Basis (list of tuples) of the integer kernel lattice of A."""
    U, D, V = snf_cached(A)
    n = min(A.rows, A.cols)
    rank = sum(1 for i in range(n) if D.data[i][i] != 0)
    return [V.column(j) for j in range(rank, A.cols)]


def unimodular_inverse(M):
    """Exact inverse of a unimodular matrix M, by fraction-free
    Gauss-Jordan elimination on [M | I].  Step k clears column k in every
    other row with r -> (p r - r[k] p_row) / p_prev, an exact division
    that leaves a row with r[k] = 0 as it is when p = p_prev; each entry
    stays a minor of [M | I] (rows permuted), so none outgrows Hadamard's
    bound.  The elimination ends at [d I | d M^-1] with d = +-det M, and
    M^-1 is its right half times d when d = +-1.

    Raises ValueError for a singular, non-square or non-unimodular M.

    >>> unimodular_inverse(IntMatrix([[2, 1], [1, 1]]))
    IntMatrix([[1, -1], [-1, 2]])
    """
    n = M.rows
    if M.cols != n:
        raise ValueError("matrix is not unimodular")
    m = []
    for i, row in enumerate(M.data):
        m.append([*row] + [0] * n)
        m[i][n + i] = 1
    prev = 1
    for k in range(n):
        for piv in range(k, n):
            if m[piv][k]:
                break
        else:
            raise ValueError("matrix is not unimodular")
        m[k], m[piv] = m[piv], m[k]
        pivot_row = m[k]
        p = pivot_row[k]
        for i in range(n):
            row = m[i]
            c = row[k]
            if i != k and (c or p != prev):
                m[i] = [(p * x - c * y) // prev
                        for x, y in zip(row, pivot_row)]
        prev = p
    if abs(prev) != 1:
        raise ValueError("matrix is not unimodular")
    return IntMatrix([[prev * x for x in row[n:]] for row in m])


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

    @property
    def order(self):
        """Group order, or 0 when infinite."""
        if self.free_rank:
            return 0
        n = 1
        for d in self.torsion:
            n *= d
        return n

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
    """Subquotient L / B of Z^g, from generating vectors of L and of B
    inside it; for a quotient Z^g / R both include R (cohomology.homology).

    Provides classify (ambient vector -> normal form in the quotient) and
    representative (normal form -> ambient vector), the presentation engine
    behind all Tate and hypercohomology groups.  Both are read off the SNF
    U S V = D of the generator matrix S alone: the basis L is the columns
    S V e_j = d_j U^-1 e_j over the nonzero d_j, and v in L has there the
    coordinates (U v)_j / d_j (_pivot_step).  Subquotients live in memoized
    values, so the plan of S is held here, built from S's recorded SNF.
    """

    __slots__ = ("ambient_dim", "L", "group", "_plan", "_Lmat")

    def __init__(self, ambient_dim, sub_gens, bdry_gens):
        self.ambient_dim = ambient_dim
        S = IntMatrix.from_columns(sub_gens, ambient_dim)
        self._plan = plan = solve_plan(S, snf_cached(S))
        # column j of S V, from the nonzero entries of column j of V
        self.L = [tuple([sum(map(mul, vals, map(row.__getitem__, rows)))
                         for row in S.data])
                  for _, _, _, rows, vals in plan[3]]
        self._Lmat = IntMatrix.from_columns(self.L, ambient_dim)
        rels_in_L = []
        for v in bdry_gens:
            c = _pivot_step(plan, v)
            if c is None:
                raise ValueError("boundary vector outside the cycle lattice")
            rels_in_L.append(c)
        R = IntMatrix.from_columns(rels_in_L, len(self.L))
        self.group = FGAbelian(len(self.L), R)

    def classify(self, vec):
        """Normal form of a vector of the sublattice; None if outside it."""
        c = _pivot_step(self._plan, vec)
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
