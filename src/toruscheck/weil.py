"""Finite computational model of an unramified nonarchimedean situation:
the model Weil group W = Z mapping onto a cyclic Q = Z/n with fundamental
2-cocycle c(i, j) = floor((i+j)/n), a torus given by its cocharacter
lattice with commuting Galois and component-group actions, and the exact
pairings living on this data.

Point models: K-points of the torus are X itself (valuations), points over
the algebraic closure are X (x) Q, F-points are the Galois invariants X^Q.
Dual-torus points are homomorphisms X -> Q/Z of finite order.

Sign conventions (recorded once, used everywhere):
  * the chain map `chain_map_phi` carries the built-in negation that turns
    the elementary pairing into the plain Langlands pairing on the
    H^0(U)-edge (the two negations cancel);
  * the invariant of a commuting pair (z, delta) for an automorphism a is
    the class of (-z, delta) on the complex with map 1 - a.
"""

from __future__ import annotations

from math import lcm
from operator import mul

from .lattice import IntMatrix, block_matrix, kernel_basis, memoized, \
    solve_integer
from .qz import QZ, qz_ints, qz_tuple
from .cohomology import (
    GModule,
    Cochain,
    d_matrix,
    ZDomain,
    FiniteSupportChain,
    group_norm,
)


class LiftNotFound(ValueError):
    """The integer system behind a chain-level lift has no solution; the
    input is outside the model's image (or malformed)."""


class LocalModel:
    """Q = Z/n with marked generator sigma (the Frobenius image) and the
    fundamental 2-cocycle c(sigma^i, sigma^j) = floor((i + j)/n) valued in
    Z = the valuation model of K^x."""

    __slots__ = ("n",)

    def __init__(self, n):
        if n < 1:
            raise ValueError("n must be at least 1, not %r" % (n,))
        self.n = n

    def c(self, i, j):
        n = self.n
        return ((i % n) + (j % n)) // n


class TorusModel:
    """Cocharacter lattice X with a Q-action (through the marked generator)
    and a commuting action of a finite component group A.

    Raises ValueError unless the Galois action has the model's order and
    the component action has its rank and commutes with it."""

    __slots__ = ("model", "galois", "comp", "rank", "_galois_dualT", "_comp_dualT")

    def __init__(self, model, galois_action, comp_action=None):
        if galois_action.group.order != model.n:
            raise ValueError("the Galois action has order %d, the model %d"
                             % (galois_action.group.order, model.n))
        self.model = model
        self.galois = galois_action
        self.comp = comp_action
        self.rank = galois_action.rank
        if comp_action is not None:
            if comp_action.rank != galois_action.rank:
                raise ValueError("the component action has rank %d, the "
                                 "Galois action %d"
                                 % (comp_action.rank, galois_action.rank))
            if not galois_action.commutes_with(comp_action):
                raise ValueError("Galois and component actions must commute")
        # the dual actions m_g^-T; the actions are checked, so m_g^-1 is
        # m_(g^-1)
        self._galois_dualT = tuple(galois_action.matrices[g].transpose()
                                   for g in galois_action.group.inverse)
        self._comp_dualT = None if comp_action is None else tuple(
            comp_action.matrices[g].transpose()
            for g in comp_action.group.inverse)

    def gmodule(self):
        return GModule.from_action(self.galois)

    def sigma(self, i, vec):
        """Action of sigma^i on X."""
        return self.galois.act(i % self.model.n, vec)

    # dual-torus points: tuples of QZ, one per basis vector of X; inside
    # the methods a point is the int vector and denominator of qz_ints
    def dual_zero(self):
        return (QZ(0),) * self.rank

    def dual_eval(self, s, vec):
        """Evaluate s in Hom(X, Q/Z) at an integer vector.  At a rational
        vector this is the Q-linear extension of the canonical [0,1)-lift of
        s, reduced mod 1."""
        nums, den = qz_ints(s)
        return QZ(sum(map(mul, nums, vec)), den)

    def dual_comp(self, a, s):
        nums, den = qz_ints(s)
        return qz_tuple(self._comp_dualT[a].apply(nums), den)

    def invariant_lattice(self):
        """Basis of X^Q."""
        ident = IntMatrix.identity(self.rank)
        rows = [[m - ident] for m in self.galois.matrices[1:]]
        return kernel_basis(block_matrix(rows)) if rows else ident.columns()

    def norm_matrix(self):
        return group_norm(self.gmodule())


class Parameter:
    """Unramified Langlands parameter: a 1-cocycle of Q valued in the
    torsion points of the dual torus, determined by its value psi at the
    marked generator; the cocycle condition is N(psi) = 0 for the dual
    action.

    The value at sigma^i is kept twice: as a tuple of QZ in table[i], and
    as the int vector nums[i] over the common denominator den."""

    __slots__ = ("torus", "psi", "table", "nums", "den")

    def __init__(self, torus, psi):
        self.torus = torus
        self.psi = tuple(QZ(q) for q in psi)
        psi_nums, den = qz_ints(self.psi)
        n = torus.model.n
        nums = [(0,) * torus.rank]
        for m in torus._galois_dualT:
            nums.append(tuple((x + y) % den for x, y in
                              zip(nums[-1], m.apply(psi_nums))))
        if any(nums.pop()):
            raise ValueError("value at the generator must have zero norm "
                             "(cocycle identity)")
        self.nums = nums
        self.den = den
        self.table = {i: qz_tuple(nums[i], den) for i in range(n)}

    def value(self, i):
        """The value at sigma^i; on the model Weil group W = Z, the
        inflation."""
        return self.table[i % self.torus.model.n]

    def neg(self):
        return Parameter(self.torus, tuple(-q for q in self.psi))


def _tn_values(torus, lam):
    """The values sum_j c(i, j) * sigma^(i+j)(lam) for i in range(n), for
    any lattice vector lam."""
    model = torus.model
    out = []
    for i in range(model.n):
        acc = (0,) * torus.rank
        for j in range(model.n):
            cij = model.c(i, j)
            if cij:
                v = torus.sigma(i + j, lam)
                acc = tuple(a + cij * b for a, b in zip(acc, v))
        out.append(acc)
    return out


def tn_iso(torus, lam):
    """Tate-Nakayama map on a norm-zero lattice element:
    z(sigma^i) = sum_j c(i, j) * sigma^(i+j)(lam), a 1-cocycle of Q."""
    if any(torus.norm_matrix().apply(lam)):
        raise ValueError("input must have zero norm")
    return Cochain(torus.gmodule(), 1,
                   [x for v in _tn_values(torus, lam) for x in v])


def _cup_matrix(torus):
    """Matrix of lam -> tn_iso(lam) as a map X -> C^1(Q, X) (ambient)."""
    r = torus.rank
    cols = [[x for v in _tn_values(torus, e) for x in v]
            for e in IntMatrix.identity(r).data]
    return IntMatrix.from_columns(cols, r * torus.model.n)


def tn_inverse(torus, z):
    """Inverse of tn_iso on classes: the canonical norm-zero lam with
    tn_iso(lam) cohomologous to z.  Raises LiftNotFound when z is not a
    cocycle class hit by the map (never, by bijectivity, for valid input)."""
    r = torus.rank
    # unknowns (lam, x): CUP lam - D0 x = z, N lam = 0
    A = block_matrix([[_cup_matrix(torus), -d_matrix(torus.gmodule(), 0)],
                      [torus.norm_matrix(), 0]])
    sol = solve_integer(A, z.vec + (0,) * r)
    if sol is None:
        raise LiftNotFound("no norm-zero preimage under the TN map")
    return tuple(sol[:r])


def langlands_character(torus, phi, vec):
    """Single-Frobenius evaluation: the character of X^Q (the F-points
    model) attached to an unramified parameter, extended Q-linearly to
    rational invariant vectors via the canonical [0,1)-lift."""
    return torus.dual_eval(phi.value(1), vec)


def chain_map_phi(torus, mu1):
    """Model of the restriction-to-kernel chain map C_1(W, X) -> X = U(K):

        phi(mu1) = - sum_{i in [0,n)} sum_w sigma^i(mu1(w)) *
                     (c(i, w mod n) + (w - w mod n)/n).

    The leading minus is the negation of the Langlands isomorphism noted in
    the module docstring."""
    model = torus.model
    n = model.n
    acc = (0,) * torus.rank
    for (w,), val in mu1.support.items():
        j = w % n
        base = (w - j) // n
        for i in range(n):
            factor = model.c(i, j) + base
            if factor:
                v = torus.sigma(i, val)
                acc = tuple(a - factor * b for a, b in zip(acc, v))
    return acc


def _phi_matrix(torus, window, dom):
    """Matrix of chain_map_phi on chains over dom on the given window."""
    r = torus.rank
    cols = []
    for w in window:
        for k in range(r):
            e = [0] * r
            e[k] = 1
            mu = FiniteSupportChain(dom, 1, r, {(w,): tuple(e)})
            cols.append(chain_map_phi(torus, mu))
    return IntMatrix.from_columns(cols, r)


def _boundary_matrix(torus, window):
    """Matrix of the degree-1 homology differential on the window:
    mu -> sum_w (sigma^-w - 1) mu(w)."""
    ident = IntMatrix.identity(torus.rank)
    mats = torus.galois.matrices
    return block_matrix([[mats[-w % torus.model.n] - ident for w in window]])


def elementary_pairing(torus, dual_pair, chain_pair):
    """The chain-level pairing

        <(d, s), (lam, mu1)>  =  s(lam) - sum_w d(w)(mu1(w))

    between a dual-side hypercocycle (d an unramified dual cocycle given by
    a Parameter, s a dual point) and a chain-side hypercycle (lam a
    norm-zero lattice element, mu1 a finite-support 1-chain)."""
    d, s = dual_pair
    lam, mu1 = chain_pair
    nums, den = qz_ints(s)
    L = lcm(den, d.den)
    dk = L // d.den
    n = torus.model.n
    total = sum(map(mul, nums, lam)) * (L // den)
    for (w,), val in mu1.support.items():
        total -= sum(map(mul, d.nums[w % n], val)) * dk
    return QZ(total, L)


def validate_hyper_pair_dual(torus, fT, d, s):
    """Check (d, s) on the dual complex: s.sigma - s = d(sigma) o fT,
    compared in ints over the lcm L of the denominators of s and d.
    Raises ValueError when it fails."""
    nums, den = qz_ints(s)
    L = lcm(den, d.den)
    sk, dk = L // den, L // d.den
    cols = list(zip(*fT.data))
    for m, dnums in zip(torus._galois_dualT, d.nums):
        for x, y, col in zip(m.apply(nums), nums, cols):
            if ((x - y) * sk - sum(map(mul, dnums, col)) * dk) % L:
                raise ValueError("dual-side pair not on the dual complex")


def hyper_pairing(torus, fT, pair_T, dual_pair):
    """Pairing of a class in H^1(Q, T --fT--> T) against a class on the
    dual complex: the chain-level lift of the T-side class (solve_lift),
    evaluated against the dual pair (elementary_pairing).  It keeps
    nothing, so it runs every check on every call.

    pair_T = (u, v): u a 1-cocycle of Q in X (a Cochain), v a vector over X
    (integers or Fractions) with fT(u(s)) = s.v - v.
    dual_pair = (d, s): d a Parameter-like dual cocycle, s a dual point with
    s.sigma - s = d(sigma) o fT.
    Raises ValueError when either pair fails its defining relation,
    checking the T-side pair (its cocycle test, then its relation) first,
    then the dual pair, then solving.
    """
    check_pair_T_cocycle(pair_T[0])
    check_pair_T_relation(torus, fT, pair_T)
    validate_hyper_pair_dual(torus, fT, *dual_pair)
    return elementary_pairing(torus, dual_pair, solve_lift(torus, fT, pair_T))


def check_pair_T_cocycle(u):
    """The first half of the T-side check, which reads u alone: u is a
    1-cocycle.  Raises ValueError when it fails."""
    if any(u.d().vec):
        raise ValueError("T-side pair not a hypercocycle")


def check_pair_T_relation(torus, fT, pair_T):
    """The second half of the T-side check: fT(u(s)) = s.v - v for every s,
    compared in ints as D*fT(u(s)) = (s - 1)(D*v) with D clearing the
    denominators of v.  Raises ValueError when it fails."""
    u, v = pair_T
    D = lcm(*(x.denominator for x in v))
    Dv = [x.numerator * (D // x.denominator) for x in v]
    for i, m in enumerate(torus.galois.matrices):
        lhs = fT.apply(u(i))
        if any(D * x != y - w for x, y, w in zip(lhs, m.apply(Dv), Dv)):
            raise ValueError("T-side pair not a hypercocycle")


def solve_lift(torus, fT, pair_T):
    """The chain-level lift (lam, mu1) of a T-side pair, which depends on
    that pair alone, so one lift serves every dual pair.  It checks nothing:
    its callers run both halves of the T-side check first.

    The lift solves, over Z (after clearing the denominator D of v):
        N lam = 0,
        cup(lam) - d0(t) = u,
        boundary(mu1) = fT lam,
        D*phi(mu1) - fT(p) = D*v      (t = p/D),
    with mu1 supported on the window [-n, n).  The matrix of this system
    depends only on the Galois action, fT and D, and is built once per
    such key.  Raises LiftNotFound when it has no solution, and no wider
    window has one then: at w = j + kn, j in [0, n), mu1(w) has boundary
    block sigma^-j - 1 and phi column -sum_i sigma^i (c(i, j) + k), so a
    chain enters only through A_j = sum_k mu1(j + kn) and
    B_j = sum_k k mu1(j + kn), which the chain with A_j + B_j at j and
    -B_j at j - n on [-n, n) shares.
    """
    u, v = pair_T
    r = torus.rank
    n = torus.model.n
    D = lcm(*(x.denominator for x in v))
    Dv = [x.numerator * (D // x.denominator) for x in v]
    target = [0] * r + [D * x for x in u.vec] + [0] * r + Dv
    A, dom = _lift_system(torus, fT, D)
    sol = solve_integer(A, target)
    if sol is None:
        raise LiftNotFound(
            "no chain-level lift found for the hyper pairing input")
    lam = tuple(sol[:r])
    mu = FiniteSupportChain(dom, 1, r)
    for wi, w in enumerate(range(-n, n)):
        mu.add_into((w,), tuple(sol[2 * r + wi * r: 2 * r + (wi + 1) * r]))
    return lam, mu


def _lift_key(torus, fT, D):
    """What a lift system depends on: the Galois action, fT and D."""
    return tuple(m.data for m in torus.galois.matrices), fT.data, D


@memoized(_lift_key)
def _lift_system(torus, fT, D):
    """The matrix of hyper_pairing's lift system on the window [-n, n), in
    the unknowns (lam, p, mu1), with the chain domain mu1 lives on."""
    r = torus.rank
    n = torus.model.n
    window = list(range(-n, n))
    dom = ZDomain(n, torus.galois.matrices[1 % n])
    A = block_matrix([
        # N lam = 0
        [torus.norm_matrix(), 0, 0],
        # CUP lam - (1/D) D0 p = u  ->  D CUP lam - D0 p = D u
        [D * _cup_matrix(torus), -d_matrix(torus.gmodule(), 0), 0],
        # BD mu - fT lam = 0
        [-fT, 0, _boundary_matrix(torus, window)],
        # D PHI mu - fT p = D v
        [0, -fT, D * _phi_matrix(torus, window, dom)]])
    return A, dom
