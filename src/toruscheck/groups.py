"""Finite groups as multiplication tables, actions on lattices, 2-cocycles,
central extensions by roots of unity, coset sections, and the block
decomposition of automorphisms of induced modules.

Groups are small (orders up to ~200 in tests), so every law is checked
exhaustively at construction time.
"""

from __future__ import annotations

from math import gcd

from .lattice import IntMatrix, block_matrix, unimodular_inverse
from .qz import QZ, qz_ints


class FiniteGroup:
    """A finite group given by its multiplication table.

    table[i][j] is the index of g_i * g_j; index 0 is the identity.

    >>> FiniteGroup.cyclic(3).order
    3
    """

    __slots__ = ("order", "table", "inverse", "_classes", "_class_index",
                 "_name", "_powers", "_gens", "table_key")

    def __init__(self, table, name=None, check=True):
        table = tuple(tuple(row) for row in table)
        self.table = table
        self.order = len(table)
        self._name = name
        self._classes = None
        self._class_index = None
        self._powers = [None] * self.order
        self._gens = None
        self.table_key = None  # set by characters.TableCache.key
        if check:
            self._check_axioms()
        self.inverse = tuple(row.index(0) for row in table)

    def _check_axioms(self):
        """Raise ValueError unless the table is a group law with identity 0:
        a Latin square whose row and column 0 are the identity map, and
        associative, which is checked by Light's test: row(x a) equals
        x row(a) for every x and every a in a generating set.  The middle
        elements a with (x a) y = x (a y) for all x, y are closed under
        products, so they are all of the table once they hold the
        generators."""
        n = self.order
        t = self.table
        ident = tuple(range(n))
        if n == 0 or any(tuple(sorted(row)) != ident for row in t) or \
                any(tuple(sorted(col)) != ident for col in zip(*t)):
            raise ValueError("rows and columns must be permutations")
        if t[0] != ident or tuple(row[0] for row in t) != ident:
            raise ValueError("index 0 must be the identity")
        for a in self.generators():
            ta = t[a]
            for tx in t:
                if t[tx[a]] != tuple(map(tx.__getitem__, ta)):
                    raise ValueError("associativity fails")

    def generators(self):
        """A generating set, found once by closing under right
        multiplication: an element not yet reached as a product
        (...((g1 g2) g3)...) of the earlier generators becomes the next
        generator.  Needs only a table with identity 0 whose rows are
        permutations, so the associativity check can use it.

        >>> FiniteGroup.cyclic(6).generators()
        [1]
        >>> C2 = FiniteGroup.cyclic(2)
        >>> FiniteGroup.direct_product(C2, C2).generators()
        [1, 2]
        >>> FiniteGroup.cyclic(1).generators()
        []
        """
        if self._gens is None:
            t = self.table
            reached = [False] * self.order
            reached[0] = True
            closed = [0]  # closed under right multiplication by every gen
            gens = []
            for g in range(self.order):
                if reached[g]:
                    continue
                gens.append(g)
                new = []
                for x in closed:
                    y = t[x][g]
                    if not reached[y]:
                        reached[y] = True
                        new.append(y)
                while new:
                    closed.extend(new)
                    nxt = []
                    for x in new:
                        row = t[x]
                        for a in gens:
                            y = row[a]
                            if not reached[y]:
                                reached[y] = True
                                nxt.append(y)
                    new = nxt
            self._gens = gens
        return self._gens

    def mul(self, i, j):
        return self.table[i][j]

    def inv(self, i):
        return self.inverse[i]

    def conj(self, g, x):
        """g x g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def _cyclic_powers(self, g):
        """(g^0, g^1, ..., g^(order(g) - 1)), computed once per element."""
        row = self._powers[g]
        if row is None:
            row, x = [0], g
            while x != 0:
                row.append(x)
                x = self.table[x][g]
            row = self._powers[g] = tuple(row)
        return row

    def element_order(self, g):
        return len(self._cyclic_powers(g))

    def power(self, g, k):
        row = self._cyclic_powers(g)
        return row[k % len(row)]

    def conjugacy_classes(self):
        """List of sorted tuples of element indices; class of identity first.
        The element-to-class list (`class_index`) is built with it."""
        if self._classes is None:
            t = self.table
            pairs = list(zip(t, self.inverse))  # (row of h, h^-1)
            index = [None] * self.order
            classes = []
            for g in range(self.order):
                if index[g] is not None:
                    continue
                cls = sorted({t[th[g]][hi] for th, hi in pairs})
                for x in cls:
                    index[x] = len(classes)
                classes.append(tuple(cls))
            self._classes = classes
            self._class_index = tuple(index)
        return self._classes

    def class_index(self):
        """The index in `conjugacy_classes()` of each element's class.

        >>> FiniteGroup.symmetric(3).class_index()
        (0, 1, 2, 1, 1, 2)
        """
        if self._class_index is None:
            self.conjugacy_classes()
        return self._class_index

    def class_of(self, g):
        """The conjugacy class of g, read from the cached class list.

        >>> FiniteGroup.symmetric(3).class_of(1)
        (1, 3, 4)
        """
        k = self.class_index()[g]  # builds the class list on first use
        return self._classes[k]

    def centralizer(self, g):
        return [h for h in range(self.order) if self.mul(h, g) == self.mul(g, h)]

    def is_subgroup(self, elems):
        s = set(elems)
        if 0 not in s:
            return False
        return all(self.mul(a, b) in s and self.inv(a) in s for a in s for b in s)

    def right_cosets(self, subgroup):
        """Partition into right cosets H g, each a sorted tuple; H first."""
        sub = set(subgroup)
        seen = set()
        cosets = []
        for g in range(self.order):
            if g in seen:
                continue
            cs = tuple(sorted(self.mul(h, g) for h in sub))
            seen.update(cs)
            cosets.append(cs)
        return cosets

    @classmethod
    def cyclic(cls, n):
        return cls([[(i + j) % n for j in range(n)] for i in range(n)],
                   name="C%d" % n)

    @classmethod
    def from_permutations(cls, perms, name=None):
        """Group generated by permutations of a finite set (tuples)."""
        deg = len(perms[0])
        ident = tuple(range(deg))

        def compose(p, q):  # p after q
            return tuple(p[q[i]] for i in range(deg))

        elems = [ident]
        index = {ident: 0}
        frontier = [ident]
        while frontier:
            nxt = []
            for e in frontier:
                for p in perms:
                    f = compose(e, p)
                    if f not in index:
                        index[f] = len(elems)
                        elems.append(f)
                        nxt.append(f)
            frontier = nxt
        # force identity to index 0 (it already is)
        table = [[index[compose(a, b)] for b in elems] for a in elems]
        return cls(table, name=name)

    @classmethod
    def symmetric(cls, n):
        base = tuple(range(n))
        transp = list(base)
        transp[0], transp[1] = transp[1], transp[0]
        cycle = tuple(list(range(1, n)) + [0])
        return cls.from_permutations([tuple(transp), cycle], name="S%d" % n)

    @classmethod
    def dihedral(cls, n):
        """Dihedral group of order 2n."""
        rot = tuple((i + 1) % n for i in range(n))
        ref = tuple((-i) % n for i in range(n))
        return cls.from_permutations([rot, ref], name="D%d" % n)

    def subgroup_as_group(self, elems):
        """The subgroup on the given elements as its own FiniteGroup, plus
        the list mapping new indices to ambient elements."""
        elems = list(elems)
        if elems[0] != 0:
            raise ValueError("identity must come first")
        if not self.is_subgroup(elems):
            raise ValueError("elements do not form a subgroup")
        index = {g: i for i, g in enumerate(elems)}
        table = [[index[self.mul(a, b)] for b in elems] for a in elems]
        return FiniteGroup(table, check=False), elems

    @classmethod
    def direct_product(cls, G, H):
        n, m = G.order, H.order

        def idx(a, b):
            return a * m + b

        table = [[0] * (n * m) for _ in range(n * m)]
        for a1 in range(n):
            for b1 in range(m):
                for a2 in range(n):
                    for b2 in range(m):
                        table[idx(a1, b1)][idx(a2, b2)] = idx(
                            G.mul(a1, a2), H.mul(b1, b2))
        return cls(table, name="(%sx%s)" % (G._name, H._name))

    def __repr__(self):
        return "FiniteGroup(order=%d%s)" % (
            self.order, ", %s" % self._name if self._name else "")


class GroupAction:
    """Action of a FiniteGroup on a lattice Z^r by matrices, one per element.

    Matrices must satisfy every relation of the multiplication table:
    m[x s] = m[x] m[s] is checked for every x and every s in the group's
    generating set, which gives it for every s by induction on products.
    Raises ValueError otherwise.
    """

    __slots__ = ("group", "rank", "matrices")

    def __init__(self, group, matrices, check=True):
        if len(matrices) != group.order:
            raise ValueError("need one matrix per group element")
        self.group = group
        self.matrices = tuple(matrices)
        self.rank = matrices[0].rows
        if check:
            mats = self.matrices
            if mats[0] != IntMatrix.identity(self.rank):
                raise ValueError("identity must act trivially")
            for m in mats:
                if not m.rows == m.cols == self.rank:
                    raise ValueError("matrices must be square of the "
                                     "lattice's rank")
                if not m.is_unimodular():
                    raise ValueError("action must be by automorphisms")
            for s in group.generators():
                ms = mats[s]
                for x, mx in enumerate(mats):
                    if mx * ms != mats[group.mul(x, s)]:
                        raise ValueError(
                            "matrices must satisfy the group relations")

    @classmethod
    def cyclic(cls, n, matrix):
        G = FiniteGroup.cyclic(n)
        mats = [IntMatrix.identity(matrix.rows)]
        for _ in range(n - 1):
            mats.append(matrix * mats[-1])
        return cls(G, mats)

    @classmethod
    def trivial(cls, group, rank):
        ident = IntMatrix.identity(rank)
        return cls(group, [ident] * group.order, check=False)

    def act(self, g, vec):
        return self.matrices[g].apply(vec)

    def commutes_with(self, other):
        if self.rank != other.rank:
            raise ValueError("actions of ranks %d and %d"
                             % (self.rank, other.rank))
        return all((a * b) == (b * a)
                   for a in self.matrices for b in other.matrices)


class Cocycle2:
    """Normalized 2-cocycle of a finite group with values in Q/Z and trivial
    action, kept as one int table at its level `m`, the lcm of the orders
    of its values: alpha(a, b) = ints[a][b] / m.  Normalization
    alpha(a, 1) = alpha(1, a) = 0 and the cocycle identity

        c(g2,g3) - c(g1 g2, g3) + c(g1, g2 g3) - c(g1, g2) = 0

    are checked on those ints for all triples at construction (ValueError).

    >>> G = FiniteGroup.direct_product(FiniteGroup.cyclic(2),
    ...                                FiniteGroup.cyclic(3))
    >>> carry = {(a, b): QZ((a // 3 + b // 3) // 2, 2)
    ...          + QZ((a % 3 + b % 3) // 3, 3)
    ...          for a in range(6) for b in range(6)}
    >>> alpha = Cocycle2(G, carry)
    >>> alpha(3, 3), alpha(1, 2), alpha.m
    (QZ(1/2), QZ(1/3), 6)
    """

    __slots__ = ("group", "m", "ints")

    def __init__(self, group, values):
        n = group.order
        nums, self.m = qz_ints([values[(a, b)] for a in range(n)
                                for b in range(n)])
        self.group = group
        self.ints = tuple(tuple(nums[a * n:a * n + n]) for a in range(n))
        self.validate()

    @classmethod
    def _from_ints(cls, group, rows, m):
        """The cocycle with values rows[a][b] / m, trusted to be one and
        brought to its level."""
        rows = [[x % m for x in row] for row in rows]
        g = gcd(m, *(x for row in rows for x in row))
        self = cls.__new__(cls)
        self.group = group
        self.m = m // g
        self.ints = tuple(tuple(x // g for x in row) for row in rows)
        return self

    def __call__(self, a, b):
        return QZ(self.ints[a][b], self.m)

    def validate(self):
        c, m = self.ints, self.m
        for a in range(self.group.order):
            if c[a][0] or c[0][a]:
                raise ValueError("not normalized in %s slot"
                                 % ("2nd" if c[a][0] else "1st"))
        t = self.group.table
        for a, ta in enumerate(t):
            ca = c[a]
            for b, tb in enumerate(t):
                cb, cab, x = c[b], c[ta[b]], ca[b]
                if any((u - v + ca[w] - x) % m
                       for u, v, w in zip(cb, cab, tb)):
                    raise ValueError("2-cocycle identity fails")

    @classmethod
    def zero(cls, group):
        return cls._from_ints(group, [[0] * group.order] * group.order, 1)


def coset_section(B, A_elems, section):
    """Right cosets of the subgroup A (given inside B by the element list
    A_elems) with the representative `section[c]` chosen in each coset c.

    Returns (cosets, coset_of, r): the cosets as B.right_cosets lists them,
    the coset of each element of B, and r(b), the index in A_elems of the
    element with b = r(b) s(coset of b).  Raises ValueError when the section
    misses a coset or chooses outside one, or when b s^-1 is not in A."""
    A_index = {g: i for i, g in enumerate(A_elems)}
    cosets = B.right_cosets(A_elems)
    coset_of = {g: cs for cs in cosets for g in cs}
    if any(cs not in section for cs in cosets) \
            or any(rep not in cs for cs, rep in section.items()):
        raise ValueError("section must choose inside each coset")

    def r(b):
        x = B.mul(b, B.inv(section[coset_of[b]]))
        if x not in A_index:
            raise ValueError("section/decomposition mismatch")
        return A_index[x]

    return cosets, coset_of, r


class CentralExtension:
    """Central extension  mu_m x| A  of a finite group A by the cyclic group
    mu_m = (1/m)Z/Z inside QZ, twisted by a normalized mu_m-valued 2-cocycle:

        (z1, a1) * (z2, a2) = (z1 + z2 + alpha(a1, a2), a1 a2).

    Elements are encoded as indices k*|A| + a for k in range(m).
    """

    __slots__ = ("base", "m", "alpha", "group", "generator")

    def __init__(self, base, m, alpha):
        self.base = base
        self.m = m
        self.alpha = alpha
        if m % alpha.m:
            raise ValueError("cocycle values must lie in mu_m")
        s, n = m // alpha.m, base.order
        table = [[(k1 + k2 + s * c) % m * n + ab
                  for k2 in range(m) for ab, c in zip(ta, ca)]
                 for k1 in range(m) for ta, ca in zip(base.table, alpha.ints)]
        self.group = FiniteGroup(table, name="mu%d.%s" % (m, base._name))
        #: the index of (1/m, identity), the generator of mu_m
        self.generator = 1 % m * n

    def element(self, z, a):
        """Index of (z, a) for z in mu_m."""
        z = QZ(z)
        k, rem = divmod(z.num * self.m, z.den)
        if rem:
            raise ValueError("central part outside mu_m")
        return k % self.m * self.base.order + a

    def parts(self, e):
        k, a = divmod(e, self.base.order)
        return QZ(k, self.m), a


def _coset_blocks(cosets):
    """Each coset's first element, and the index of the coset (block) that
    holds each group element."""
    block_of = {g: bi for bi, cs in enumerate(cosets) for g in cs}
    return [cs[0] for cs in cosets], block_of


def induced_action(gamma, delta_elems, sub_action_matrices):
    """Induced module Ind_Delta^Gamma X as a lattice with Gamma-action.

    The module is the space of Delta-equivariant functions f : Gamma -> X,
    determined by values on right-coset representatives; gamma acts by
    (gamma . f)(s) = f(s gamma).  Returns (GroupAction, cosets) where cosets
    is the list of right cosets (index = block).
    """
    cosets = gamma.right_cosets(delta_elems)
    delta_index = {g: i for i, g in enumerate(delta_elems)}
    reps, block_of = _coset_blocks(cosets)
    k = len(cosets)

    def matrix_for(g):
        grid = [[0] * k for _ in range(k)]
        for bi, rep in enumerate(reps):
            t = gamma.mul(rep, g)
            bj = block_of[t]
            d = gamma.mul(t, gamma.inv(reps[bj]))  # t = d * rep_j, d in Delta
            # (g.f)(rep_i) = d . f(rep_j): block (i, j) = matrix of d
            grid[bi][bj] = sub_action_matrices[delta_index[d]]
        return block_matrix(grid)

    mats = [matrix_for(g) for g in range(gamma.order)]
    return GroupAction(gamma, mats), cosets


class BlockDecompositionError(ValueError):
    pass


def decompose_induced_automorphism(gamma, delta_elems, sub_action_matrices,
                                   action, cosets, x_rank, a_matrix):
    """Decompose an equivariant automorphism of an induced module.

    Input: the induced GroupAction built by induced_action, and a unimodular
    matrix `a_matrix` commuting with it.  Output (sigma0, a_prime): a
    normalizer element sigma0 with block permutation  Delta s -> Delta
    sigma0 s, and the matrix a_prime on the distinguished block such that

        a(f)(s) = a_prime(f(sigma0^-1 s))

    reconstructs a_matrix.  Raises BlockDecompositionError when the matrix
    mixes blocks or the block permutation is not Gamma-equivariant.
    """
    k = len(cosets)
    if not a_matrix.rows == a_matrix.cols == k * x_rank:
        raise ValueError("an automorphism of the induced module must be "
                         "%d x %d" % (k * x_rank, k * x_rank))

    def block(i, j):
        return [[a_matrix.data[i * x_rank + r][j * x_rank + c]
                 for c in range(x_rank)] for r in range(x_rank)]

    def block_is_zero(b):
        return all(x == 0 for row in b for x in row)

    # equivariance of the automorphism itself
    for g in range(gamma.order):
        if a_matrix * action.matrices[g] != action.matrices[g] * a_matrix:
            raise BlockDecompositionError("not equivariant")

    perm = {}
    for i in range(k):
        nonzero = [j for j in range(k) if not block_is_zero(block(i, j))]
        if len(nonzero) != 1:
            raise BlockDecompositionError("not block-structured")
        perm[i] = nonzero[0]
    if sorted(perm.values()) != list(range(k)):
        raise BlockDecompositionError("not block-structured")

    # the permutation written on cosets: target block j holds f(p^-1(coset_i))
    # find sigma0 with  Delta s  ->  Delta sigma0 s  matching perm
    reps, block_of = _coset_blocks(cosets)
    sigma0 = None
    for g in range(gamma.order):
        ok = True
        for i in range(k):
            # a(f) block i reads from block perm[i]; the reconstruction says
            # a(f)(rep_i) = a'(f(sigma0^-1 rep_i)), so block_of(sigma0^-1 rep_i)
            # must equal perm[i].
            if block_of[gamma.mul(gamma.inv(g), reps[i])] != perm[i]:
                ok = False
                break
        if ok:
            sigma0 = g
            break
    if sigma0 is None:
        raise BlockDecompositionError("not equivariant")

    # normalizer condition: Delta^sigma0 = Delta
    dset = set(delta_elems)
    if {gamma.conj(sigma0, d) for d in dset} != dset:
        raise BlockDecompositionError("permutation not induced by a normalizer element")

    # distinguished block: coset Delta (index of coset containing identity).
    # a(f)(rep_b0) = a'(f(sigma0^-1 rep_b0)) and sigma0^-1 rep_b0 = d rep_src,
    # so the stored block is a' * M_d; undo the Delta twist.
    b0 = block_of[0]
    src = perm[b0]
    raw = IntMatrix(block(b0, src))
    t = gamma.mul(gamma.inv(sigma0), reps[b0])
    d = gamma.mul(t, gamma.inv(reps[src]))
    delta_index = {g: i for i, g in enumerate(delta_elems)}
    a_prime = raw * unimodular_inverse(sub_action_matrices[delta_index[d]])

    return sigma0, a_prime


def reconstruct_induced_automorphism(gamma, delta_elems, sub_action_matrices,
                                     cosets, sigma0, a_prime):
    """Inverse of decompose_induced_automorphism:  a(f)(s) = a'(f(sigma0^-1 s))."""
    delta_index = {g: i for i, g in enumerate(delta_elems)}
    reps, block_of = _coset_blocks(cosets)
    k = len(cosets)
    grid = [[0] * k for _ in range(k)]
    for i in range(k):
        t = gamma.mul(gamma.inv(sigma0), reps[i])
        j = block_of[t]
        d = gamma.mul(t, gamma.inv(reps[j]))
        grid[i][j] = a_prime * sub_action_matrices[delta_index[d]]
    return block_matrix(grid)
