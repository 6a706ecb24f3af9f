"""Group cohomology of finite groups with f.g. abelian coefficients, Tate
groups H^n for n in {-1, 0, 1, 2}, cup products, hypercohomology of a
two-term complex T -> U, and finite-support chains with their homology
differential and coinflation.

Cochains are flat int vectors over the keys of Q^n, and the coboundary is
one sparse integer operator per module content and degree; every computed
H^1/H^2 class carries a normalized representative (vanishing when any
argument is the identity) so central extensions built from representatives
are canonical.
"""

from __future__ import annotations

import itertools
from operator import add, mul, neg, sub

from .lattice import (
    IntMatrix,
    FGAbelian,
    Memo,
    Subquotient,
    block_diagonal,
    block_matrix,
    kernel_basis,
)


class GModule:
    """Coefficient module for a finite group Q: an ambient Z^g, an optional
    relation matrix (columns), and one action matrix per group element."""

    __slots__ = ("group", "ngens", "rels", "mats")

    def __init__(self, group, ngens, rels, mats, check=True):
        self.group = group
        self.ngens = ngens
        self.rels = rels if rels is not None else IntMatrix.zero(ngens, 0)
        self.mats = tuple(mats)
        if check:
            if len(mats) != group.order:
                raise ValueError("need one matrix per group element")
            if self.mats[0] != IntMatrix.identity(ngens):
                raise ValueError("identity must act trivially")
            fg = FGAbelian(ngens, self.rels)
            for m in self.mats:
                for j in range(self.rels.cols):
                    img = m.apply(self.rels.column(j))
                    if any(fg.nf(img)):
                        raise ValueError("action not defined mod relations")

    @classmethod
    def from_action(cls, action):
        return cls(action.group, action.rank, None, action.matrices, check=False)

    @classmethod
    def trivial_ints(cls, group):
        return cls(group, 1, None, [IntMatrix.identity(1)] * group.order, check=False)

    @classmethod
    def finite(cls, group, invariants, mats):
        """Finite module with given invariant factors (d_1, ..., d_g)."""
        rels = block_diagonal([IntMatrix([[d]]) for d in invariants])
        return cls(group, len(invariants), rels, mats)

    def act(self, g, vec):
        return self.mats[g].apply(vec)

    def fg(self):
        return FGAbelian(self.ngens, self.rels)

    def zero(self):
        return (0,) * self.ngens


def tuples(group, n):
    return list(itertools.product(range(group.order), repeat=n))


def _key_index(key, order):
    """The position of key = (t_0, ..., t_(n-1)) among the keys of Q^n in
    `tuples` order: sum(t_i |Q|^(n-1-i))."""
    i = 0
    for t in key:
        i = i * order + t
    return i


class Cochain:
    """Inhomogeneous n-cochain on Q with values in a GModule, stored as one
    flat int vector: the ngens coordinates of the value at each key of Q^n,
    keys in `tuples` order.  For n = 0 the single key is ().  The vector is
    the ambient coordinate vector every integer presentation (d_matrix,
    classify) reads."""

    __slots__ = ("gmod", "degree", "vec")

    def __init__(self, gmod, degree, vec):
        self.gmod = gmod
        self.degree = degree
        self.vec = tuple(vec)
        if len(self.vec) != gmod.ngens * gmod.group.order ** degree:
            raise ValueError("a cochain vector of the wrong length")

    @classmethod
    def zero(cls, gmod, degree):
        return cls(gmod, degree,
                   (0,) * (gmod.ngens * gmod.group.order ** degree))

    def __call__(self, *key):
        """The value at key = (t_0, ..., t_(n-1)): the ngens entries at
        offset ngens * sum(t_i |Q|^(n-1-i))."""
        N = self.gmod.group.order
        if len(key) != self.degree or not all(0 <= t < N for t in key):
            raise KeyError(key)
        g = self.gmod.ngens
        i = _key_index(key, N) * g
        return self.vec[i:i + g]

    def add(self, other):
        return Cochain(self.gmod, self.degree, map(add, self.vec,
                                                   self._like(other)))

    def sub(self, other):
        return Cochain(self.gmod, self.degree, map(sub, self.vec,
                                                   self._like(other)))

    def _like(self, other):
        """other's vector, which must have this cochain's degree and length."""
        if other.degree != self.degree or len(other.vec) != len(self.vec):
            raise ValueError("cochains of different degrees or modules")
        return other.vec

    def neg(self):
        return Cochain(self.gmod, self.degree, map(neg, self.vec))

    def d(self):
        """Coboundary: (dx)(g0..gn) = g0.x(g1..gn) + sum (-1)^i x(..gi gi+1..)
        + (-1)^(n+1) x(g0..gn-1), one compiled row per entry of dx."""
        get = self.vec.__getitem__
        return Cochain(self.gmod, self.degree + 1,
                       [sum(map(mul, cs, map(get, js)))
                        for js, cs in coboundary_rows(self.gmod, self.degree)])


_rows_cache = Memo()
_dd_cache = Memo()
_d_matrix_cache = Memo()
_tate_cache = Memo()


def _module_key(gmod):
    """Content key of a coefficient module: group table, relations and
    action matrices."""
    return (gmod.group.table, gmod.rels.data,
            tuple(m.data for m in gmod.mats))


def coboundary_rows(gmod, n):
    """The coboundary C^n -> C^(n+1) as sparse integer rows, built once per
    module content and degree: for each entry of dx in vector order, the
    pair (js, cs) of the entries of x it reads and their coefficients,
    zeros dropped, so that (dx)[r] = sum(c * x[j] for j, c in zip(js, cs))."""
    return _rows_cache.get_or_compute(_module_key(gmod) + (n,),
                                      _build_rows, gmod, n)


def _build_rows(gmod, n):
    g, N, law = gmod.ngens, gmod.group.order, gmod.group.table
    rows = []
    for t in itertools.product(range(N), repeat=n + 1):
        # the keys whose values enter (dx)(t) with sign -1, +1, -1, ...
        faces = [t[:i] + (law[t[i]][t[i + 1]],) + t[i + 2:]
                 for i in range(n)] + [t[:-1]]
        first = _key_index(t[1:], N) * g
        starts = [_key_index(f, N) * g for f in faces]
        for k, action_row in enumerate(gmod.mats[t[0]].data):
            acc = dict(zip(range(first, first + g), action_row))
            for i, start in enumerate(starts):
                j = start + k
                acc[j] = acc.get(j, 0) + (1 if i % 2 else -1)
            rows.append(_sparse_row(acc))
    return tuple(rows)


def _sparse_row(acc):
    """(js, cs) from a dict of index -> coefficient: the indices in
    increasing order and their coefficients, zeros dropped."""
    row = sorted((j, c) for j, c in acc.items() if c)
    return tuple(j for j, _ in row), tuple(c for _, c in row)


def dd_rows(gmod, n):
    """The nonzero rows of the composite d o d: C^n -> C^(n+2), as (js, cs)
    pairs like coboundary_rows, multiplied out exactly and built once per
    module content and degree.  A coboundary with d o d = 0 on all of C^n
    gives none."""
    return _dd_cache.get_or_compute(_module_key(gmod) + (n,),
                                    _build_dd_rows, gmod, n)


def _build_dd_rows(gmod, n):
    inner = coboundary_rows(gmod, n)
    rows = []
    for js, cs in coboundary_rows(gmod, n + 1):
        acc = {}
        for j, c in zip(js, cs):
            for i, b in zip(*inner[j]):
                acc[i] = acc.get(i, 0) + c * b
        row = _sparse_row(acc)
        if row[0]:
            rows.append(row)
    return tuple(rows)


def d_matrix(gmod, n):
    """Matrix of the coboundary C^n -> C^(n+1) on ambient coordinates: the
    rows of coboundary_rows, written densely."""
    return _d_matrix_cache.get_or_compute(_module_key(gmod) + (n,),
                                          _build_d_matrix, gmod, n)


def _build_d_matrix(gmod, n):
    width = gmod.ngens * gmod.group.order ** n
    dense = []
    for js, cs in coboundary_rows(gmod, n):
        row = [0] * width
        for j, c in zip(js, cs):
            row[j] = c
        dense.append(row)
    return IntMatrix(dense)


def _rels(gmod, n):
    """Relation columns of C^n = (ambient module)^(Q^n), block by block."""
    return block_diagonal([gmod.rels] * gmod.group.order ** n)


def cocycle_sublattice(A, rel_out):
    """Basis of {x : A x lies in the column span of the matrix rel_out}."""
    if not rel_out.cols:  # A itself, so its SNF shares A's memo key
        return kernel_basis(A)
    return [v[:A.cols] for v in kernel_basis(block_matrix([[A, -rel_out]]))]


def homology(A, rel_out, B, rel_here):
    """Homology at the middle of Z^m --B--> Z^(A.cols) --A--> Z^k, with the
    columns of rel_here and rel_out as relations in the middle and on the
    right: the x with A x in the span of rel_out, modulo the columns of B
    and rel_here, as a Subquotient.

    >>> H = homology(IntMatrix([[0]]), IntMatrix([[1]]), IntMatrix([[2]]),
    ...              IntMatrix.zero(1, 0))
    >>> H.group.torsion
    (2,)
    """
    here = rel_here.columns()
    return Subquotient(A.cols, cocycle_sublattice(A, rel_out) + here,
                       B.columns() + here)


class CohomologyGroup:
    """H^n(Q, M) for n in {1, 2} with classify and representative maps."""

    def __init__(self, gmod, degree):
        self.gmod = gmod
        self.degree = degree
        self.sq = homology(d_matrix(gmod, degree), _rels(gmod, degree + 1),
                           d_matrix(gmod, degree - 1), _rels(gmod, degree))
        self.group = self.sq.group

    @property
    def order(self):
        return self.group.order

    def classify(self, cochain):
        if cochain.degree != self.degree:
            raise ValueError("a cochain of degree %d for H^%d"
                             % (cochain.degree, self.degree))
        return self.sq.classify(cochain.vec)

    def representative(self, coords):
        x = Cochain(self.gmod, self.degree, self.sq.representative(coords))
        return normalize_cocycle(x)

    def elements(self):
        return self.group.elements()


def normalize_cocycle(x):
    """Shift a 1- or 2-cocycle by a coboundary so it vanishes whenever an
    argument is the identity.  Degree-1 cocycles are automatically
    normalized; degree 2 uses the constant cochain c = x(1,1)."""
    if x.degree != 2:
        return x
    gm = x.gmod
    c0 = x(0, 0)
    if not any(c0):
        return x
    shift = Cochain(gm, 1, c0 * gm.group.order)
    return x.sub(shift.d())


def group_norm(gmod):
    """The norm map: the sum of the action matrices."""
    return sum(gmod.mats[1:], gmod.mats[0])


def tate_minus1(gmod):
    """H^-1 = ker(norm) / augmentation submodule, as a Subquotient of the
    ambient module."""
    ident = IntMatrix.identity(gmod.ngens)
    return homology(group_norm(gmod), gmod.rels,
                    block_matrix([[m - ident for m in gmod.mats]]), gmod.rels)


def tate_zero(gmod):
    """H^0 = invariants / image of the norm."""
    return homology(d_matrix(gmod, 0), _rels(gmod, 1),
                    group_norm(gmod), gmod.rels)


def tate_group(gmod, n):
    """Tate cohomology in degree n of a finite group with f.g. coefficients.

    Degrees -1 and 0 return Subquotients of the ambient module; degrees 1
    and 2 return CohomologyGroup objects with cochain classify and
    normalized representatives.  Each group is built once per module
    content and degree and then shared (see lattice.Memo).
    """
    if n == -1:
        build, args = tate_minus1, (gmod,)
    elif n == 0:
        build, args = tate_zero, (gmod,)
    elif n in (1, 2):
        build, args = CohomologyGroup, (gmod, n)
    else:
        raise ValueError("degree outside {-1, 0, 1, 2}: %r" % (n,))
    return _tate_cache.get_or_compute(_module_key(gmod) + (n,), build, *args)


def cup(x, y, pairing, out_gmod):
    """Cup product of cochains: (x u y)(g_1..g_{p+q}) =
    pairing(x(g_1..g_p), (g_1...g_p) . y(g_{p+1}..g_{p+q})) in out_gmod.

    `pairing` takes (value of x, value of y) to a value of out_gmod and must
    be bi-additive and equivariant for the three actions.  The values
    g . y(...) are computed once per product g of the left keys.
    """
    Q = x.gmod.group
    p, q = x.degree, y.degree
    gx, gy = x.gmod.ngens, y.gmod.ngens
    ys = [y.vec[j * gy:(j + 1) * gy] for j in range(Q.order ** q)]
    acted = {}
    out = []
    for i, left in enumerate(tuples(Q, p)):
        g = 0
        for s in left:
            g = Q.mul(g, s)
        xv = x.vec[i * gx:(i + 1) * gx]
        gys = acted.get(g)
        if gys is None:
            rows = y.gmod.mats[g].data
            gys = acted[g] = [tuple([sum(map(mul, row, yv)) for row in rows])
                              for yv in ys]
        for gyv in gys:
            out.extend(pairing(xv, gyv))
    return Cochain(out_gmod, p + q, out)


class TwoTermComplex:
    """Complex T --f--> U of GModules for the same group, f equivariant."""

    __slots__ = ("T", "U", "f")

    def __init__(self, T, U, f):
        if T.group.table != U.group.table:
            raise ValueError("complex needs one group")
        if f.rows != U.ngens or f.cols != T.ngens:
            raise ValueError("f must be a %d x %d matrix"
                             % (U.ngens, T.ngens))
        for s in range(T.group.order):
            if f * T.mats[s] != U.mats[s] * f:
                raise ValueError("f must be equivariant")
        self.T = T
        self.U = U
        self.f = f


class HyperH1:
    """H^1(Q, T -> U): pairs (z, c) with z in Z^1(Q, T), c in U, and
    f(z(s)) = s.c - c, modulo the boundaries (dt, f(t)) for t in T."""

    def __init__(self, cx):
        self.cx = cx
        T, U, N = cx.T, cx.U, cx.T.group.order
        # unknowns (z, c) in C^1(T) + U: dz = 0 and f(z) = dc, up to relations
        A = block_matrix([[d_matrix(T, 1), 0],
                          [block_diagonal([cx.f] * N), -d_matrix(U, 0)]])
        # boundaries (d0 t, f t) for t in T
        B = block_matrix([[d_matrix(T, 0)], [cx.f]])
        self.sq = homology(
            A, block_diagonal([_rels(T, 2), _rels(U, 1)]),
            B, block_diagonal([_rels(T, 1), U.rels]))
        self.group = self.sq.group
        self._dims = (T.ngens * N, U.ngens)

    @property
    def order(self):
        return self.group.order

    def is_pair(self, z, c):
        """Check the defining relation f(z(s)) = s.c - c and dz = 0, both in
        the quotient modules."""
        cx = self.cx
        fgT = cx.T.fg()
        dz = z.d()
        if any(any(fgT.nf(dz(*t))) for t in tuples(cx.T.group, 2)):
            return False
        fgU = cx.U.fg()
        for s in range(cx.T.group.order):
            lhs = cx.f.apply(z(s))
            rhs = tuple(a - b for a, b in zip(cx.U.act(s, c), c))
            if any(fgU.nf(tuple(x - y for x, y in zip(lhs, rhs)))):
                return False
        return True

    def classify(self, z, c):
        if not self.is_pair(z, c):
            raise ValueError("not a hypercocycle for this complex")
        return self.sq.classify(z.vec + tuple(c))

    def representative(self, coords):
        vec = self.sq.representative(coords)
        dimT1, gU = self._dims
        z = Cochain(self.cx.T, 1, vec[:dimT1])
        c = tuple(vec[dimT1:])
        return z, c

    def elements(self):
        return self.group.elements()


def hyper_h1(T, U, f):
    """H^1 of the complex T --f--> U."""
    return HyperH1(TwoTermComplex(T, U, f))


# ---------------------------------------------------------------------------
# finite-support chains


class ZDomain:
    """The model Weil group W = Z mapping onto Q = Z/n; w acts on the
    coefficient lattice through sigma^w."""

    def __init__(self, n, sigma_matrix):
        self.n = n
        self.rank = sigma_matrix.rows
        mats = [IntMatrix.identity(self.rank)]
        for _ in range(n - 1):
            mats.append(sigma_matrix * mats[-1])
        if sigma_matrix * mats[-1] != mats[0]:
            raise ValueError("matrix order must divide n")
        self.mats = mats

    def mul(self, a, b):
        return a + b

    def inv(self, a):
        return -a

    def act(self, w, vec):
        return self.mats[w % self.n].apply(vec)


class FiniteDomain:
    """A finite group W with an action on the coefficient lattice."""

    def __init__(self, group, mats):
        self.group = group
        self.mats = mats

    def mul(self, a, b):
        return self.group.mul(a, b)

    def inv(self, a):
        return self.group.inv(a)

    def act(self, w, vec):
        return self.mats[w].apply(vec)


class FiniteSupportChain:
    """Degree-n chain: a finite-support map W^n -> Z^r."""

    __slots__ = ("domain", "degree", "rank", "support")

    def __init__(self, domain, degree, rank, support=None):
        self.domain = domain
        self.degree = degree
        self.rank = rank
        self.support = {}
        for k, v in (support or {}).items():
            v = tuple(v)
            if any(v):
                self.support[tuple(k)] = v

    def value(self, key):
        return self.support.get(tuple(key), (0,) * self.rank)

    def add_into(self, key, vec):
        key = tuple(key)
        cur = self.support.get(key, (0,) * self.rank)
        new = tuple(a + b for a, b in zip(cur, vec))
        if any(new):
            self.support[key] = new
        elif key in self.support:
            del self.support[key]

    def neg(self):
        return FiniteSupportChain(
            self.domain, self.degree, self.rank,
            {k: tuple(-a for a in v) for k, v in self.support.items()})

    def boundary(self):
        """The three-term alternating-sum homology differential."""
        W = self.domain
        n = self.degree
        if n < 1:
            raise ValueError("a degree-0 chain has no boundary")

        def terms():
            for key, val in self.support.items():
                # first term: x^-1 . y(x, w_1..w_{n-1}) at (w_1..w_{n-1})
                yield key[1:], W.act(W.inv(key[0]), val)
                # middle terms: (-1)^i at (w_1,..,w_{i-1}, w_i w_{i+1},..);
                # term i merges slots i and i+1
                signed = (tuple(map(neg, val)), val)
                for i in range(1, n):
                    yield (key[:i - 1] + (W.mul(key[i - 1], key[i]),)
                           + key[i + 1:]), signed[(i - 1) % 2]
                # last term: (-1)^n at (w_1..w_{n-1})
                yield key[:-1], signed[(n - 1) % 2]
        return _summed(W, n - 1, self.rank, terms())


def _summed(domain, degree, rank, terms):
    """The chain whose value at each key is the sum of the vectors that
    terms, a sequence of (key, vector), gives it: summed in a plain dict,
    with the zero sums dropped once at the end."""
    acc = {}
    for key, vec in terms:
        cur = acc.get(key)
        acc[key] = vec if cur is None else tuple(map(add, cur, vec))
    out = FiniteSupportChain(domain, degree, rank)
    out.support = {k: v for k, v in acc.items() if any(v)}
    return out


def coinflation(chain, projection, target_domain):
    """Push a chain along w -> projection(w) coordinatewise: the value of the
    image at a tuple is the sum over the fiber, which for finite-support
    chains is the pushforward of the support."""
    return _summed(target_domain, chain.degree, chain.rank,
                   ((tuple(map(projection, key)), val)
                    for key, val in chain.support.items()))
