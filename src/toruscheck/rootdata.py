"""Twisted Kottwitz signs from based root data: the fundamental-weight sum,
its image in the center of the simply connected cover, and the cup-product
pairing with a supplied degree-2 class in the split-center unramified model
(cyclic Galois group acting through diagram automorphisms, trivially on the
roots of unity).

The normalization of the invariant map is fixed once: the fundamental
class of the cyclic model has invariant 1/n.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import lcm

from .lattice import IntMatrix, FGAbelian, Memo, Subquotient, solve_integer
from .qz import QZ
from .groups import FiniteGroup
from .cohomology import GModule, Cochain, tate_group


def cartan_matrix(label):
    """Cartan matrices for the wired types A_n, D_n, E6."""
    kind, n = label[:1], label[1:]
    n = int(n) if n.isdecimal() else 0
    if kind == "A" and n >= 1:
        return IntMatrix([[2 if i == j else -1 if abs(i - j) == 1 else 0
                           for j in range(n)] for i in range(n)])
    if kind == "D" and n >= 3:
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = 2
        for i in range(n - 3):
            m[i][i + 1] = m[i + 1][i] = -1
        m[n - 3][n - 2] = m[n - 2][n - 3] = -1
        m[n - 3][n - 1] = m[n - 1][n - 3] = -1
        return IntMatrix(m)
    if label == "E6":
        # Bourbaki numbering: chain 1-3-4-5-6, node 2 attached to 4
        edges = [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]
        m = [[2 if i == j else 0 for j in range(6)] for i in range(6)]
        for a, b in edges:
            m[a - 1][b - 1] = m[b - 1][a - 1] = -1
        return IntMatrix(m)
    raise ValueError("unsupported Cartan type %r" % label)


def diagram_flip(label):
    """The standard nontrivial diagram automorphism as an index permutation."""
    kind = label[0]
    n = int(label[1:])
    if kind == "A":
        return tuple(n - 1 - i for i in range(n))
    if kind == "D":
        return tuple(list(range(n - 2)) + [n - 1, n - 2])
    if label == "E6":
        return (5, 1, 4, 3, 2, 0)  # 1<->6, 3<->5 in Bourbaki labels
    raise ValueError(label)


def perm_matrix(perm):
    n = len(perm)
    return IntMatrix([[1 if perm[j] == i else 0 for j in range(n)]
                      for i in range(n)])


class BasedRootDatum:
    """Simply-connected based root datum in fundamental-weight coordinates:
    X^*(T_sc) = Z<omega_1..omega_r>, simple roots = columns of the Cartan
    matrix, center character group X^*(Z) = P/Q = coker(Cartan)."""

    def __init__(self, cartan, label=None):
        self.cartan = cartan
        self.rank = cartan.rows
        self.label = label
        self.center = FGAbelian(self.rank, cartan)

    @classmethod
    def from_label(cls, label):
        return cls(cartan_matrix(label), label)

    def center_invariants(self):
        return self.center.torsion

    def center_class(self, weight_vec):
        """Image of a weight in P/Q, as normal-form coordinates."""
        return self.center.nf(weight_vec)

    def product(self, other):
        n, m = self.rank, other.rank
        rows = []
        for i in range(n):
            rows.append(list(self.cartan.data[i]) + [0] * m)
        for i in range(m):
            rows.append([0] * n + list(other.cartan.data[i]))
        return BasedRootDatum(IntMatrix(rows),
                              "%sx%s" % (self.label, other.label))


_twist_cache = Memo()


def _per_twist(method):
    """Memoize a TwistData method on the twist datum's content, its Cartan
    matrix, n, galois_perm and a_perm, and the method's permutation
    arguments."""
    @functools.wraps(method)
    def memoized(self, *perms):
        perms = tuple(tuple(p) for p in perms)
        key = (self.datum.cartan.data, self.n, self.galois_perm, self.a_perm,
               method.__name__) + perms
        return _twist_cache.get_or_compute(key, method, self, *perms)
    return memoized


class TwistData:
    """Galois (cyclic of order n, through a diagram automorphism) and a
    second diagram automorphism a, acting on a based root datum; the class
    xi lives in H^2 of the cyclic group with values in the dual of P/Q.

    Raises ValueError unless n >= 1, both permutations permute the simple
    roots, preserve the Cartan matrix and commute, and the order of the
    Galois permutation divides n."""

    def __init__(self, datum, n, galois_perm, a_perm):
        self.datum = datum
        self.n = n
        self.galois_perm = g = tuple(galois_perm)
        self.a_perm = a = tuple(a_perm)
        r = datum.rank
        C = datum.cartan.data
        if n < 1:
            raise ValueError("n must be at least 1, not %r" % (n,))
        for name, p in (("galois_perm", g), ("a_perm", a)):
            if sorted(p) != list(range(r)):
                raise ValueError("%s must be a permutation of 0..%d"
                                 % (name, r - 1))
            if any(C[p[i]][p[j]] != C[i][j]
                   for i in range(r) for j in range(r)):
                raise ValueError("%s must preserve the Cartan matrix" % name)
        if any(g[a[i]] != a[g[i]] for i in range(r)):
            raise ValueError("galois_perm and a_perm must commute")
        p = list(range(r))
        for _ in range(n):
            p = [g[i] for i in p]
        if p != list(range(r)):
            raise ValueError("the order of galois_perm must divide n")

    @_per_twist
    def center_action_matrix(self, perm):
        """Matrix of the permutation action on the coordinates of P/Q."""
        fg = self.datum.center
        k = len(fg.torsion)
        P = perm_matrix(perm)
        cols = []
        for j in range(k):
            coords = tuple(1 if i == j else 0 for i in range(k))
            vec = fg.lift(coords)
            cols.append(fg.nf(P.apply(vec)))
        return IntMatrix.from_columns(cols, k) if k else IntMatrix.zero(0, 0)

    @_per_twist
    def dual_center_action_matrix(self, perm):
        """Action on M = Hom(P/Q, Q/Z) in the coordinates m_i/d_i:
        (sigma.m)(x) = m(sigma^-1 x)."""
        fg = self.datum.center
        ds = fg.torsion
        k = len(ds)
        if k == 0:
            return IntMatrix.zero(0, 0)
        inv_perm = tuple(perm.index(i) for i in range(len(perm)))
        B = self.center_action_matrix(inv_perm)
        rows = []
        for i in range(k):
            row = []
            for j in range(k):
                val = Fraction(ds[i] * B.data[j][i], ds[j])
                if val.denominator != 1:
                    raise ValueError("dual action must be integral")
                row.append(int(val) % ds[i])
            rows.append(row)
        return IntMatrix(rows)

    @_per_twist
    def xi_module(self):
        """GModule of M = Hom(P/Q, Q/Z) over the cyclic Galois group."""
        ds = self.datum.center.torsion
        g1 = self.dual_center_action_matrix(self.galois_perm)
        mats = [IntMatrix.identity(len(ds))]
        for _ in range(self.n - 1):
            mats.append(g1 * mats[-1])
        return GModule.finite(FiniteGroup.cyclic(self.n), ds, mats)

    def eval_xi_on(self, m_coords, center_coords):
        """<m, x> = sum m_i x_i / d_i in Q/Z."""
        ds = self.datum.center.torsion
        L = lcm(*ds)
        return QZ(sum(m * x * (L // d) for m, x, d in
                      zip(m_coords, center_coords, ds)), L)


def lambda_T(twist, orbit_choice=None):
    """The fundamental-weight sum over representatives of the a-orbits of
    Galois orbits: a Gamma-invariant weight whose a-coinvariant image is
    independent of the representative choice.

    Returns (weight vector, center coordinates, coinvariant class data).
    orbit_choice optionally selects a different representative per a-orbit
    (for the independence check): a map orbit-index -> offset.
    """
    datum = twist.datum
    r = datum.rank
    # Galois orbits of the weights
    seen = [False] * r
    gorbits = []
    for w in range(r):
        if seen[w]:
            continue
        orb = set()
        x = w
        while x not in orb:
            orb.add(x)
            seen[x] = True
            x = twist.galois_perm[x]
        gorbits.append(tuple(sorted(orb)))
    # a-orbits on the set of Galois orbits
    index_of = {orb: i for i, orb in enumerate(gorbits)}
    a_on_orbits = {}
    for orb in gorbits:
        img = tuple(sorted(twist.a_perm[w] for w in orb))
        a_on_orbits[index_of[orb]] = index_of[img]
    chosen = []
    seen_o = set()
    for i in range(len(gorbits)):
        if i in seen_o:
            continue
        cycle = [i]
        j = a_on_orbits[i]
        while j != i:
            cycle.append(j)
            j = a_on_orbits[j]
        seen_o.update(cycle)
        pick = 0
        if orbit_choice is not None:
            pick = orbit_choice.get(len(chosen), 0) % len(cycle)
        chosen.append(cycle[pick])
    lam = [0] * r
    for i in chosen:
        for w in gorbits[i]:
            lam[w] += 1
    lam = tuple(lam)
    center_coords = datum.center_class(lam)
    return lam, center_coords


def coinvariant_class(twist, center_coords):
    """Class of a center element in the a-coinvariants of X^*(Z)^Gamma...
    computed in X^*(Z) modulo (1 - a) (the Galois action is by the same
    diagram automorphisms and lambda is already Gamma-invariant)."""
    fg = twist.datum.center
    ds = fg.torsion
    k = len(ds)
    if k == 0:
        return Subquotient(0, [], []), ()
    A = twist.center_action_matrix(twist.a_perm)
    ident = IntMatrix.identity(k)
    rels = [[ds[i] if i == j else 0 for j in range(k)] for i in range(k)]
    sub = [tuple(1 if i == j else 0 for i in range(k)) for j in range(k)]
    bdry = list((A - ident).columns()) + [tuple(r) for r in
                                          IntMatrix(rels).columns()]
    sq = Subquotient(k, sub, bdry)
    return sq, sq.classify(center_coords)


def _exactly_fixed_representative(twist, gm, H2, coords):
    """A cocycle representative of the class that is fixed by a pointwise,
    or None.  Pointwise fixedness is what makes the pairing against a
    2-torsion coinvariant class provably of order 2.

    Solves (A - I)(rep + d(u))(s, t) = 0 mod the relation lattice, for a
    1-cochain u and per-entry modulus slacks."""
    from .cohomology import d_matrix, tuples, Cochain as CC

    rep = H2.representative(coords)
    amat = twist.dual_center_action_matrix(twist.a_perm)
    k = gm.ngens
    if k == 0:
        return rep
    n = twist.n
    D1 = d_matrix(gm, 1)
    pair_keys = tuples(gm.group, 2)
    npairs = len(pair_keys)
    ds = [gm.rels.data[i][i] for i in range(k)]
    rows = []
    target = []
    for pi in range(npairs):
        v = rep.table[pair_keys[pi]]
        av = amat.apply(v)
        for ri in range(k):
            row = []
            for uj in range(k * n):
                acc = 0
                for cj in range(k):
                    acc += (amat.data[ri][cj] - (1 if ri == cj else 0)) \
                        * D1.data[pi * k + cj][uj]
                row.append(acc)
            slack = [0] * (npairs * k)
            slack[pi * k + ri] = ds[ri]
            rows.append(row + slack)
            target.append(-(av[ri] - v[ri]))
    sol = solve_integer(IntMatrix(rows), target)
    if sol is None:
        return None
    u = CC.from_vector(gm, 1, sol[:k * n])
    return rep.add(u.d())


def twisted_sign(twist, xi):
    """The sign from pairing the a-coinvariant image of lambda_T with a
    degree-2 class xi, via the cyclic invariant normalized so the
    fundamental class has invariant 1/n.

    When the coinvariant image of lambda vanishes the sign is +1 for every
    xi.  Otherwise xi must admit an a-fixed cocycle representative (the
    model avatar of an a-fixed class); inputs without one are rejected."""
    gm = twist.xi_module()
    H2 = tate_group(gm, 2)
    if isinstance(xi, Cochain):
        coords = H2.classify(xi)
        if coords is None:
            raise ValueError("xi is not a 2-cocycle class")
    else:
        coords = tuple(xi)
    lam, center_coords = lambda_T(twist)
    sq, cls = coinvariant_class(twist, center_coords)
    if not any(cls):
        return 1
    rep_center = sq.representative(cls)
    fixed = _exactly_fixed_representative(twist, gm, H2, coords)
    if fixed is None:
        raise ValueError("xi admits no a-fixed representative; rejected")
    value = QZ(0)
    for i in range(twist.n):
        value = value + twist.eval_xi_on(fixed.table[(i, 1 % twist.n)],
                                         rep_center)
    if not (2 * value).is_zero():
        raise ValueError(
            "pairing value has order > 2; datum outside the wired regime")
    return 1 if value.is_zero() else -1


def sign_product(twist1, xi1, twist2, xi2):
    """e on the product datum, computed independently, together with the
    factor signs (multiplicativity check data)."""
    e1 = twisted_sign(twist1, xi1)
    e2 = twisted_sign(twist2, xi2)
    assert twist1.n == twist2.n, "product needs a common Galois group"
    datum = twist1.datum.product(twist2.datum)
    r1 = twist1.datum.rank
    gp = tuple(list(twist1.galois_perm)
               + [r1 + i for i in twist2.galois_perm])
    ap = tuple(list(twist1.a_perm) + [r1 + i for i in twist2.a_perm])
    tw = TwistData(datum, twist1.n, gp, ap)
    # xi on the product: concatenate coordinates of canonical representatives
    gm1 = twist1.xi_module()
    gm2 = twist2.xi_module()
    H21 = tate_group(gm1, 2)
    H22 = tate_group(gm2, 2)
    rep1 = H21.representative(tuple(xi1))
    rep2 = H22.representative(tuple(xi2))
    gm = tw.xi_module()
    # product center invariant factors are the two torsion tuples interleaved
    # by the SNF of the block Cartan; map coordinates through center lifts
    tab = {}
    for key in rep1.table:
        m1 = rep1.table[key]
        m2 = rep2.table[key]
        tab[key] = _product_center_coords(tw, twist1, twist2, m1, m2)
    xi = Cochain(gm, 2, tab)
    e12 = twisted_sign(tw, xi)
    return e1, e2, e12


def _product_center_coords(tw, twist1, twist2, m1, m2):
    """Coordinates in Hom(P/Q, Q/Z) of the product from factor coordinates."""
    ds = tw.datum.center.torsion
    # a dual element is determined by its values on the center generators;
    # produce the QZ values on the product generators and convert back
    fg = tw.datum.center
    vals = []
    for j, d in enumerate(ds):
        gen = fg.lift(tuple(1 if i == j else 0 for i in range(len(ds))))
        g1 = gen[:twist1.datum.rank]
        g2 = gen[twist1.datum.rank:]
        c1 = twist1.datum.center.nf(g1)
        c2 = twist2.datum.center.nf(g2)
        q = twist1.eval_xi_on(m1, c1) + twist2.eval_xi_on(m2, c2)
        num, rem = divmod(q.num * d, q.den)
        assert rem == 0, "product dual element out of range"
        vals.append(num % d)
    return tuple(vals)


def sign_induction(twist, xi, blocks):
    """e on the induced datum (blocks copies with the rotate-then-a twist)
    computed independently, together with e on the base datum."""
    e_base = twisted_sign(twist, xi)
    datum = twist.datum
    r = datum.rank
    k = blocks
    rows = []
    for b in range(k):
        for i in range(r):
            rows.append([0] * (b * r) + list(datum.cartan.data[i])
                        + [0] * ((k - 1 - b) * r))
    big = BasedRootDatum(IntMatrix(rows), "%s^%d" % (datum.label, k))
    gp = tuple(b * r + twist.galois_perm[i] for b in range(k) for i in range(r))
    # b sends block i to block i-1; block 0 wraps to block k-1 with the
    # a-twist
    bp = [0] * (k * r)
    for b in range(k):
        for i in range(r):
            src = b * r + i
            if b >= 1:
                bp[src] = (b - 1) * r + i
            else:
                bp[src] = (k - 1) * r + twist.a_perm[i]
    tw = TwistData(big, twist.n, gp, tuple(bp))
    # diagonal xi
    gm1 = twist.xi_module()
    H21 = tate_group(gm1, 2)
    rep = H21.representative(tuple(xi))
    gm = tw.xi_module()
    tab = {}
    for key, m1 in rep.table.items():
        tab[key] = _diagonal_center_coords(tw, twist, k, m1)
    e_ind = twisted_sign(tw, Cochain(gm, 2, tab))
    return e_base, e_ind


def _diagonal_center_coords(tw, twist, k, m1):
    ds = tw.datum.center.torsion
    fg = tw.datum.center
    r = twist.datum.rank
    vals = []
    for j, d in enumerate(ds):
        gen = fg.lift(tuple(1 if i == j else 0 for i in range(len(ds))))
        q = QZ(0)
        for b in range(k):
            cb = twist.datum.center.nf(gen[b * r:(b + 1) * r])
            q = q + twist.eval_xi_on(m1, cb)
        num, rem = divmod(q.num * d, q.den)
        assert rem == 0
        vals.append(num % d)
    return tuple(vals)


def levi_restriction(twist, levi_indices):
    """Compatibility of the fundamental-weight sums along a standard Levi
    subset of the simple roots (stable under Galois and a).

    Returns a report dict with the restricted image of lambda_{T,G}, the
    intrinsic lambda_{T,M}, exact equality, and equality of a-coinvariant
    classes in X^*(T_{M,sc})."""
    datum = twist.datum
    levi = sorted(levi_indices)
    lset = set(levi)
    assert all(twist.galois_perm[i] in lset for i in levi), \
        "Levi subset not Galois-stable"
    assert all(twist.a_perm[i] in lset for i in levi), \
        "Levi subset not a-stable"
    lam_G, _ = lambda_T(twist)
    # restriction X^*(T_sc) -> X^*(T_M,sc) keeps the Levi coordinates
    img = tuple(lam_G[i] for i in levi)
    sub_cartan = IntMatrix([[datum.cartan.data[i][j] for j in levi]
                            for i in levi])
    pos = {w: i for i, w in enumerate(levi)}
    sub_g = tuple(pos[twist.galois_perm[w]] for w in levi)
    sub_a = tuple(pos[twist.a_perm[w]] for w in levi)
    sub_tw = TwistData(BasedRootDatum(sub_cartan, "levi"), twist.n, sub_g, sub_a)
    lam_M, _ = lambda_T(sub_tw)
    # compare in the a-coinvariants of the Gamma-invariants of X^*(T_M,sc)
    diff = tuple(a - b for a, b in zip(img, lam_M))
    per_coords_equal = img == lam_M
    coinv_equal = per_coords_equal or _in_coinvariant_boundary(sub_tw, diff)
    return {
        "image": img,
        "intrinsic": lam_M,
        "exact_equal": per_coords_equal,
        "coinvariant_equal": coinv_equal,
    }


def _in_coinvariant_boundary(tw, diff):
    """diff in (1 - a) of the Gamma-invariant weights."""
    k = tw.datum.rank
    A = perm_matrix(tw.a_perm) - IntMatrix.identity(k)
    G = perm_matrix(tw.galois_perm) - IntMatrix.identity(k)
    # x must satisfy G x = 0 (invariant) and A x = diff: stack and solve with
    # the invariance as extra rows mapping to 0
    rows = list(A.data) + list(G.data)
    target = list(diff) + [0] * k
    return solve_integer(IntMatrix(rows), target) is not None
