"""Twisted Kottwitz signs from based root data: the fundamental-weight sum,
its image in the center of the simply connected cover, and the cup-product
pairing with a supplied degree-2 class in the split-center unramified model
(cyclic Galois group acting through diagram automorphisms, trivially on the
roots of unity).

The normalization of the invariant map is fixed once: the fundamental
class of the cyclic model has invariant 1/n.
"""

from __future__ import annotations

from math import lcm
from operator import attrgetter, mul, sub
from typing import NamedTuple

from .lattice import IntMatrix, FGAbelian, Subquotient, \
    block_diagonal, block_matrix, memoized, solve_integer
from .groups import FiniteGroup
from .cohomology import GModule, Cochain, CohomologyGroup, d_matrix, \
    tate_group


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

    @staticmethod
    @memoized()
    def from_label(label):
        """The datum of a wired Cartan type, built once per label."""
        return BasedRootDatum(cartan_matrix(label), label)

    def center_class(self, weight_vec):
        """Image of a weight in P/Q, as normal-form coordinates."""
        return self.center.nf(weight_vec)

    def product(self, other):
        return BasedRootDatum(block_diagonal([self.cartan, other.cartan]),
                              "%sx%s" % (self.label, other.label))


#: Memo keys of the TwistData methods: the datum's key, then the arguments
#: (tuples and ints, or twist data by their keys).
_datum_key = attrgetter("key")


def _twist_key(twist, *args):
    return twist.key, *args


def _twists_key(*twists):
    return tuple(map(_datum_key, twists))


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
        # the content as a str, whose hash Python computes once; the memo
        # keys of this datum's methods start with it
        self.key = repr((C, n, g, a))

    @memoized(_twist_key)
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
        return IntMatrix.from_columns(cols, k)

    @memoized(_twist_key)
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
                val, rem = divmod(ds[i] * B.data[j][i], ds[j])
                if rem:
                    raise ValueError("dual action must be integral")
                row.append(val % ds[i])
            rows.append(row)
        return IntMatrix(rows)

    @memoized(_datum_key)
    def xi_module(self):
        """GModule of M = Hom(P/Q, Q/Z) over the cyclic Galois group."""
        ds = self.datum.center.torsion
        g1 = self.dual_center_action_matrix(self.galois_perm)
        mats = [IntMatrix.identity(len(ds))]
        for _ in range(self.n - 1):
            mats.append(g1 * mats[-1])
        return GModule.finite(FiniteGroup.cyclic(self.n), ds, mats)

    @memoized(_twists_key)
    def product(self, other):
        """The product datum, self's simple roots first, over the common
        Galois group.  Raises ValueError unless both have the same n."""
        if self.n != other.n:
            raise ValueError("product needs a common Galois group")
        r = self.datum.rank
        return TwistData(self.datum.product(other.datum), self.n,
                         self.galois_perm + tuple(r + i for i in
                                                  other.galois_perm),
                         self.a_perm + tuple(r + i for i in other.a_perm))

    @memoized(_twist_key)
    def induced(self, blocks):
        """blocks copies of this datum, Galois acting on each, and a sending
        block b to block b - 1 and block 0 to the last block through a."""
        datum = self.datum
        r = datum.rank
        big = BasedRootDatum(block_diagonal([datum.cartan] * blocks),
                             "%s^%d" % (datum.label, blocks))
        gp = tuple(b * r + self.galois_perm[i]
                   for b in range(blocks) for i in range(r))
        ap = tuple((blocks - 1) * r + self.a_perm[i] for i in range(r)) \
            + tuple(range(r * (blocks - 1)))
        return TwistData(big, self.n, gp, ap)

    @memoized(_datum_key)
    def sign_presentation(self):
        """The parts of twisted_sign that do not depend on the class xi;
        see SignPresentation."""
        gm = self.xi_module()
        H2 = tate_group(gm, 2)
        _, center_coords = lambda_T(self)
        sq, cls = coinvariant_class(self, center_coords)
        if not any(cls):
            return SignPresentation(gm, H2, None, 1, None, None)
        ds = self.datum.center.torsion
        den = lcm(*ds)
        weights = tuple(x * (den // d) for x, d in
                        zip(sq.representative(cls), ds))
        amat = self.dual_center_action_matrix(self.a_perm)
        return SignPresentation(gm, H2, weights, den, amat,
                                _fixed_system(gm, amat))

    @memoized(_twist_key)
    def fixed_representative(self, coords):
        """_exactly_fixed_representative of the class with H^2 coordinates
        coords against this datum's SignPresentation, kept per datum and
        class.  None (no a-fixed representative) is kept too: twisted_sign
        rejects such a class on every call."""
        return _exactly_fixed_representative(self.sign_presentation(), coords)

    @memoized(_twists_key)
    def factor_dual_map(self, *factors):
        """Rows W_j and a denominator D such that the factor data's
        Hom(P/Q, Q/Z) coordinates m, concatenated, take the j-th generator
        of this datum's P/Q to (W_j . m) / D in Q/Z, when this datum's
        simple roots are the factors' in order.  Raises ValueError unless
        the factor ranks add up to this datum's rank."""
        if sum(f.datum.rank for f in factors) != self.datum.rank:
            raise ValueError("the factor ranks must add up to %d"
                             % self.datum.rank)
        fg = self.datum.center
        k = len(fg.torsion)
        den = lcm(*(d for f in factors for d in f.datum.center.torsion))
        rows = []
        for j in range(k):
            gen = fg.lift(tuple(1 if i == j else 0 for i in range(k)))
            row = []
            start = 0
            for f in factors:
                stop = start + f.datum.rank
                c = f.datum.center.nf(gen[start:stop])
                row.extend(x * (den // d) for x, d in
                           zip(c, f.datum.center.torsion))
                start = stop
            rows.append(tuple(row))
        return tuple(rows), den

class SignPresentation(NamedTuple):
    """What twisted_sign needs of a twist datum, whatever the class xi.

    gm and H2 are the xi module and its H^2.  weights are the coordinates
    of the a-coinvariant image of lambda_T, scaled so that a 2-cochain value
    m pairs with it to sum(m_i w_i) / den in Q/Z; they are None when that
    image vanishes, and then so are the rest.  amat is a on the xi module,
    and system the matrix of the a-fixed system of
    _exactly_fixed_representative."""
    gm: GModule
    H2: CohomologyGroup
    weights: tuple | None
    den: int
    amat: IntMatrix | None
    system: IntMatrix | None


def lambda_T(twist):
    """The fundamental-weight sum over representatives of the a-orbits of
    Galois orbits: a Gamma-invariant weight whose a-coinvariant image is
    independent of the representative choice.

    Returns (weight vector, center coordinates).  The representative of
    each a-orbit is its first Galois orbit in index order: galois_perm and
    a_perm commute, so that is the Galois orbit of the least weight of each
    orbit of the group they generate.
    """
    r = twist.datum.rank
    lam = [0] * r
    seen = [False] * r
    for w in range(r):
        if seen[w]:
            continue
        # w is the least weight of its orbit under galois_perm and a_perm
        seen[w] = True
        stack = [w]
        while stack:
            x = stack.pop()
            for y in (twist.galois_perm[x], twist.a_perm[x]):
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        x = w
        while not lam[x]:
            lam[x] = 1
            x = twist.galois_perm[x]
    lam = tuple(lam)
    return lam, twist.datum.center_class(lam)


def coinvariant_class(twist, center_coords):
    """Class of a center element in the a-coinvariants of X^*(Z)^Gamma...
    computed in X^*(Z) modulo (1 - a) (the Galois action is by the same
    diagram automorphisms and lambda is already Gamma-invariant)."""
    ds = twist.datum.center.torsion
    k = len(ds)
    if k == 0:
        return Subquotient(0, [], []), ()
    ident = IntMatrix.identity(k)
    bdry = block_matrix([[twist.center_action_matrix(twist.a_perm) - ident,
                          block_diagonal([IntMatrix([[d]]) for d in ds])]])
    sq = Subquotient(k, ident.columns(), bdry.columns())
    return sq, sq.classify(center_coords)


def _fixed_system(gm, amat):
    """The matrix of (A - I)(d(u))(s, t) = slack, one row per pair key
    (s, t) and module coordinate, in the unknowns u (a 1-cochain) and one
    slack per row, a multiple of that coordinate's modulus."""
    pairs = gm.group.order ** 2
    B = block_diagonal([amat - IntMatrix.identity(gm.ngens)] * pairs)
    return block_matrix(
        [[B * d_matrix(gm, 1), block_diagonal([gm.rels] * pairs)]])


def _exactly_fixed_representative(pres, coords):
    """A cocycle representative of the class that is fixed by a pointwise,
    or None.  Pointwise fixedness is what makes the pairing against a
    2-torsion coinvariant class provably of order 2.

    Solves (A - I)(rep + d(u))(s, t) = 0 mod the relation lattice, for a
    1-cochain u and per-entry modulus slacks, against the system of the
    datum's SignPresentation."""
    rep = pres.H2.representative(coords)
    g = pres.gm.ngens
    target = []
    for i in range(0, len(rep.vec), g):
        v = rep.vec[i:i + g]
        target.extend(map(sub, v, pres.amat.apply(v)))
    sol = solve_integer(pres.system, target)
    if sol is None:
        return None
    gm = pres.gm
    u = Cochain(gm, 1, sol[:g * gm.group.order])
    return rep.add(u.d())


def twisted_sign(twist, xi):
    """The sign from pairing the a-coinvariant image of lambda_T with a
    degree-2 class xi, via the cyclic invariant normalized so the
    fundamental class has invariant 1/n.

    When the coinvariant image of lambda vanishes the sign is +1 for every
    xi.  Otherwise xi must admit an a-fixed cocycle representative (the
    model avatar of an a-fixed class); inputs without one are rejected.
    The representative is kept per datum and class; the pairing and its
    order-2 guard run on every call."""
    pres = twist.sign_presentation()
    if isinstance(xi, Cochain):
        coords = pres.H2.classify(xi)
        if coords is None:
            raise ValueError("xi is not a 2-cocycle class")
    else:
        coords = tuple(xi)
    if pres.weights is None:
        return 1
    fixed = twist.fixed_representative(coords)
    if fixed is None:
        raise ValueError("xi admits no a-fixed representative; rejected")
    n = twist.n
    value = sum(sum(map(mul, fixed(i, 1 % n), pres.weights))
                for i in range(n))
    if 2 * value % pres.den:
        raise ValueError(
            "pairing value has order > 2; datum outside the wired regime")
    return 1 if value % pres.den == 0 else -1


def dual_coordinates(twist, factors, m_coords):
    """Coordinates in twist's Hom(P/Q, Q/Z) of the elements that restrict
    to each factor datum f as m_f, block by block: m_coords is a flat
    sequence of blocks, each the concatenated coordinates (m_f) of the
    factors, and the result is the flat sequence of the blocks' images.
    The weight rows (factor_dual_map) are looked up once per call.  Raises
    ValueError when the values on a generator of P/Q of order d are not of
    order d."""
    rows, den = twist.factor_dual_map(*factors)
    if not rows:
        return []
    width = len(rows[0])
    pairs = list(zip(rows, twist.datum.center.torsion))
    out = []
    for i in range(0, len(m_coords), width):
        block = m_coords[i:i + width]
        for row, d in pairs:
            num, rem = divmod(sum(map(mul, row, block)) * d, den)
            if rem:
                raise ValueError("dual element out of range")
            out.append(num % d)
    return out


def sign_product(twist1, xi1, twist2, xi2):
    """e on the product datum, computed independently, together with the
    factor signs (multiplicativity check data)."""
    e1 = twisted_sign(twist1, xi1)
    e2 = twisted_sign(twist2, xi2)
    tw = twist1.product(twist2)
    # xi on the product: the element of the product's Hom(P/Q, Q/Z) that
    # the canonical representatives of the factor classes induce, keywise
    rep1 = twist1.sign_presentation().H2.representative(tuple(xi1))
    rep2 = twist2.sign_presentation().H2.representative(tuple(xi2))
    g1, g2 = rep1.gmod.ngens, rep2.gmod.ngens
    coords = []
    for i in range(rep1.gmod.group.order ** 2):
        coords += rep1.vec[i * g1:(i + 1) * g1]
        coords += rep2.vec[i * g2:(i + 1) * g2]
    vec = dual_coordinates(tw, (twist1, twist2), coords)
    e12 = twisted_sign(tw, Cochain(tw.xi_module(), 2, vec))
    return e1, e2, e12


def sign_induction(twist, xi, blocks):
    """e on the induced datum (blocks copies with the rotate-then-a twist)
    computed independently, together with e on the base datum."""
    e_base = twisted_sign(twist, xi)
    tw = twist.induced(blocks)
    # diagonal xi
    rep = twist.sign_presentation().H2.representative(tuple(xi))
    g = rep.gmod.ngens
    coords = []
    for i in range(rep.gmod.group.order ** 2):
        coords += rep.vec[i * g:(i + 1) * g] * blocks
    vec = dual_coordinates(tw, (twist,) * blocks, coords)
    e_ind = twisted_sign(tw, Cochain(tw.xi_module(), 2, vec))
    return e_base, e_ind


def levi_restriction(twist, levi_indices):
    """Compatibility of the fundamental-weight sums along a standard Levi
    subset of the simple roots (stable under Galois and a).

    Returns a report dict with the restricted image of lambda_{T,G}, the
    intrinsic lambda_{T,M}, exact equality, and equality of a-coinvariant
    classes in X^*(T_{M,sc}).

    The classes are equal because the vectors are: lambda_T marks the
    Galois orbit of the least weight of each <galois_perm, a_perm>-orbit.
    A Levi subset stable under both is a union of such orbits, and its
    order-preserving re-indexing carries each orbit, its least weight and
    its Galois orbits to those of the restricted permutations.  So the
    restricted sum is the intrinsic one, and "coinvariant_equal" is the
    exact comparison."""
    datum = twist.datum
    levi = sorted(levi_indices)
    lset = set(levi)
    if not all(twist.galois_perm[i] in lset for i in levi):
        raise ValueError("Levi subset not Galois-stable")
    if not all(twist.a_perm[i] in lset for i in levi):
        raise ValueError("Levi subset not a-stable")
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
    equal = img == lam_M
    return {
        "image": img,
        "intrinsic": lam_M,
        "exact_equal": equal,
        "coinvariant_equal": equal,
    }
