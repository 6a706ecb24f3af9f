"""Finite groups as multiplication tables, actions on lattices, 2-cocycles,
central extensions by roots of unity, corestriction, and the block
decomposition of automorphisms of induced modules.

Groups are small (orders up to ~200 in tests), so every law is checked
exhaustively at construction time.
"""

from __future__ import annotations

from .lattice import IntMatrix, unimodular_inverse
from .qz import QZ


class FiniteGroup:
    """A finite group given by its multiplication table.

    table[i][j] is the index of g_i * g_j; index 0 is the identity.

    >>> FiniteGroup.cyclic(3).order
    3
    """

    __slots__ = ("order", "table", "inverse", "_classes", "_name", "_powers")

    def __init__(self, table, name=None, check=True):
        table = tuple(tuple(row) for row in table)
        self.table = table
        self.order = len(table)
        self._name = name
        self._classes = None
        self._powers = [None] * self.order
        if check:
            self._check_axioms()
        inv = [None] * self.order
        for i in range(self.order):
            for j in range(self.order):
                if table[i][j] == 0:
                    inv[i] = j
        assert all(v is not None for v in inv)
        self.inverse = tuple(inv)

    def _check_axioms(self):
        n = self.order
        t = self.table
        for i in range(n):
            assert t[0][i] == i and t[i][0] == i, "index 0 must be the identity"
        for i in range(n):
            assert sorted(t[i]) == list(range(n)), "rows must be permutations"
            assert sorted(t[j][i] for j in range(n)) == list(range(n))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert t[t[i][j]][k] == t[i][t[j][k]], "associativity fails"

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
        """List of sorted tuples of element indices; class of identity first."""
        if self._classes is None:
            seen = [False] * self.order
            classes = []
            for g in range(self.order):
                if seen[g]:
                    continue
                cls = sorted({self.conj(h, g) for h in range(self.order)})
                for x in cls:
                    seen[x] = True
                classes.append(tuple(cls))
            self._classes = classes
        return self._classes

    def class_of(self, g):
        for idx, cls in enumerate(self.conjugacy_classes()):
            if g in cls:
                return idx
        raise ValueError(g)

    def centralizer(self, g):
        return [h for h in range(self.order) if self.mul(h, g) == self.mul(g, h)]

    def subgroup_closure(self, gens):
        # in a finite group, closure under multiplication is a subgroup
        elems = {0} | set(gens)
        changed = True
        while changed:
            changed = False
            for a in list(elems):
                for b in list(elems):
                    c = self.mul(a, b)
                    if c not in elems:
                        elems.add(c)
                        changed = True
        return sorted(elems)

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
        assert elems[0] == 0, "identity must come first"
        assert self.is_subgroup(elems)
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

    Matrices must satisfy every relation of the multiplication table.
    """

    __slots__ = ("group", "rank", "matrices")

    def __init__(self, group, matrices, check=True):
        assert len(matrices) == group.order
        self.group = group
        self.matrices = tuple(matrices)
        self.rank = matrices[0].rows
        if check:
            ident = IntMatrix.identity(self.rank)
            assert self.matrices[0] == ident, "identity must act trivially"
            for m in self.matrices:
                assert m.rows == m.cols == self.rank
                assert m.is_unimodular(), "action must be by automorphisms"
            for i in range(group.order):
                for j in range(group.order):
                    assert (self.matrices[i] * self.matrices[j]
                            == self.matrices[group.mul(i, j)]), \
                        "matrices must satisfy the group relations"

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
        assert self.rank == other.rank
        return all((a * b) == (b * a)
                   for a in self.matrices for b in other.matrices)


class Cocycle2:
    """Normalized 2-cocycle on a finite group with values in an abelian
    coefficient object.

    The coefficient module is described by (add, neg, zero, act, eq) hooks so
    the same class serves lattice-valued, QZ-valued and torsion-valued
    cocycles.  The cocycle identity

        g1.c(g2,g3) - c(g1 g2, g3) + c(g1, g2 g3) - c(g1, g2) = 0

    is verified on all triples at construction.
    """

    __slots__ = ("group", "values", "module")

    def __init__(self, group, values, module=None, check=True):
        self.group = group
        self.module = module or qz_module()
        vals = {}
        for (a, b), v in values.items():
            vals[(a, b)] = v
        self.values = vals
        if check:
            self.validate()

    def __call__(self, a, b):
        return self.values[(a, b)]

    def validate(self):
        m = self.module
        G = self.group
        zero = m["zero"]
        for a in range(G.order):
            assert m["eq"](self(a, 0), zero), "not normalized in 2nd slot"
            assert m["eq"](self(0, a), zero), "not normalized in 1st slot"
        for a in range(G.order):
            for b in range(G.order):
                for c in range(G.order):
                    lhs = m["add"](
                        m["sub"](m["act"](a, self(b, c)), self(G.mul(a, b), c)),
                        m["sub"](self(a, G.mul(b, c)), self(a, b)))
                    assert m["eq"](lhs, zero), "2-cocycle identity fails"

    @classmethod
    def zero(cls, group, module=None):
        module = module or qz_module()
        vals = {(a, b): module["zero"]
                for a in range(group.order) for b in range(group.order)}
        return cls(group, vals, module, check=False)

    def add(self, other):
        m = self.module
        vals = {k: m["add"](v, other.values[k]) for k, v in self.values.items()}
        return Cocycle2(self.group, vals, m, check=False)

    def neg(self):
        m = self.module
        vals = {k: m["sub"](m["zero"], v) for k, v in self.values.items()}
        return Cocycle2(self.group, vals, m, check=False)

    def shift_by_coboundary(self, cochain):
        """Add d(cochain) for a normalized 1-cochain {g: value}."""
        m = self.module
        G = self.group
        vals = {}
        for (a, b), v in self.values.items():
            d = m["sub"](m["add"](m["act"](a, cochain[b]), cochain[a]),
                         cochain[G.mul(a, b)])
            vals[(a, b)] = m["add"](v, d)
        return Cocycle2(self.group, vals, m, check=False)

    def restrict(self, subgroup_elems, subgroup):
        """Restriction along an injection of a subgroup given by its element
        list (index i of `subgroup` maps to subgroup_elems[i])."""
        vals = {}
        for i in range(subgroup.order):
            for j in range(subgroup.order):
                vals[(i, j)] = self(subgroup_elems[i], subgroup_elems[j])
        return Cocycle2(subgroup, vals, self.module, check=False)

    def inflate(self, big_group, projection):
        """Inflation along a surjection big_group -> group."""
        vals = {}
        for a in range(big_group.order):
            for b in range(big_group.order):
                vals[(a, b)] = self(projection[a], projection[b])
        return Cocycle2(big_group, vals, self.module, check=False)


def qz_module():
    """Coefficient hooks for QZ with trivial action."""
    zero = QZ(0)
    return {
        "zero": zero,
        "add": lambda x, y: x + y,
        "sub": lambda x, y: x - y,
        "act": lambda g, x: x,
        "eq": lambda x, y: x == y,
    }


def corestriction_cocycle(alpha, B, A_elems, section):
    """Transfer a QZ-valued 2-cocycle alpha on the subgroup A (given inside B
    by the element list A_elems) to a 2-cocycle on B.

    `section` maps each right coset (sorted tuple of B-elements) to a chosen
    representative inside it.  With r(b) defined by b = r(b) s(coset of b),
    the corestriction is

        beta(b1, b2) = sum_c alpha(r(s(c) b1), r(s(c b1) b2)).
    """
    A_set = list(A_elems)
    A_index = {g: i for i, g in enumerate(A_set)}
    cosets = B.right_cosets(A_set)
    coset_of = {}
    for cs in cosets:
        for g in cs:
            coset_of[g] = cs
    for cs, rep in section.items():
        assert rep in cs, "section must choose inside each coset"

    def r(b):
        s = section[coset_of[b]]
        x = B.mul(b, B.inv(s))
        assert x in A_index, "section/decomposition mismatch"
        return x

    vals = {}
    for b1 in range(B.order):
        for b2 in range(B.order):
            total = QZ(0)
            for cs in cosets:
                s_c = section[cs]
                sb1 = B.mul(s_c, b1)
                s_cb1 = section[coset_of[sb1]]
                total = total + alpha(A_index[r(sb1)],
                                      A_index[r(B.mul(s_cb1, b2))])
            vals[(b1, b2)] = total
    return Cocycle2(B, vals, alpha.module)


class CentralExtension:
    """Central extension  mu_m x| A  of a finite group A by the cyclic group
    mu_m = (1/m)Z/Z inside QZ, twisted by a normalized mu_m-valued 2-cocycle:

        (z1, a1) * (z2, a2) = (z1 + z2 + alpha(a1, a2), a1 a2).

    Elements are encoded as indices k*|A| + a for k in range(m).
    """

    __slots__ = ("base", "m", "alpha", "group")

    def __init__(self, base, m, alpha):
        self.base = base
        self.m = m
        self.alpha = alpha
        for v in alpha.values.values():
            assert (m * v).is_zero(), "cocycle values must lie in mu_m"
        n = base.order
        size = m * n
        table = [[0] * size for _ in range(size)]
        for k1 in range(m):
            for a1 in range(n):
                for k2 in range(m):
                    for a2 in range(n):
                        z = QZ(k1 + k2, m) + alpha(a1, a2)
                        k = z.num * m // z.den
                        table[k1 * n + a1][k2 * n + a2] = k * n + base.mul(a1, a2)
        self.group = FiniteGroup(table, name="mu%d.%s" % (m, base._name))

    def element(self, z, a):
        """Index of (z, a) for z in mu_m."""
        z = QZ(z)
        k, rem = divmod(z.num * self.m, z.den)
        assert rem == 0, "central part outside mu_m"
        return k % self.m * self.base.order + a

    def parts(self, e):
        k, a = divmod(e, self.base.order)
        return QZ(k, self.m), a

    def isomorphism_from_coboundary(self, cochain):
        """For alpha' = alpha + d(cochain), the map (z, a) -> (z + c_a, a) is
        an isomorphism  mu_m x|_{alpha'} A -> mu_m x|_alpha A.  Returns the
        index map."""
        out = {}
        for k in range(self.m):
            for a in range(self.base.order):
                z = QZ(k, self.m) + cochain[a]
                out[k * self.base.order + a] = self.element(z, a)
        return out


def stabilizer_of_class(A, act_on_class, cls):
    """Elements of A fixing a classified point under a supplied action
    act_on_class(a, cls) -> cls.  The result is checked to be a subgroup
    (it always is when act_on_class is a genuine action)."""
    stab = [a for a in range(A.order) if act_on_class(a, cls) == cls]
    assert A.is_subgroup(stab), "stabilizer failed subgroup closure"
    return stab


def _coset_blocks(cosets):
    """Each coset's first element, and the index of the coset (block) that
    holds each group element."""
    block_of = {g: bi for bi, cs in enumerate(cosets) for g in cs}
    return [cs[0] for cs in cosets], block_of


def induced_action(gamma, delta_elems, sub_action_matrices, x_rank):
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
    rank = k * x_rank

    def matrix_for(g):
        rows = [[0] * rank for _ in range(rank)]
        for bi, rep in enumerate(reps):
            t = gamma.mul(rep, g)
            bj = block_of[t]
            d = gamma.mul(t, gamma.inv(reps[bj]))  # t = d * rep_j, d in Delta
            dm = sub_action_matrices[delta_index[d]]
            # (g.f)(rep_i) = d . f(rep_j): block (i, j) = matrix of d
            for r in range(x_rank):
                for c in range(x_rank):
                    rows[bi * x_rank + r][bj * x_rank + c] = dm.data[r][c]
        return IntMatrix(rows)

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
    assert a_matrix.rows == a_matrix.cols == k * x_rank

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
                                     cosets, x_rank, sigma0, a_prime):
    """Inverse of decompose_induced_automorphism:  a(f)(s) = a'(f(sigma0^-1 s))."""
    delta_index = {g: i for i, g in enumerate(delta_elems)}
    reps, block_of = _coset_blocks(cosets)
    k = len(cosets)
    rows = [[0] * (k * x_rank) for _ in range(k * x_rank)]
    for i in range(k):
        t = gamma.mul(gamma.inv(sigma0), reps[i])
        j = block_of[t]
        d = gamma.mul(t, gamma.inv(reps[j]))
        m = a_prime * sub_action_matrices[delta_index[d]]
        for r in range(x_rank):
            for c in range(x_rank):
                rows[i * x_rank + r][j * x_rank + c] = m.data[r][c]
    return IntMatrix(rows)
