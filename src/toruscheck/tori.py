"""The disconnected-torus verifier: build the full case bundle (stabilizers,
coboundary solutions t_a and s_a, the cocycles alpha and beta and their
characters), compute the comparison function h, verify the extension
isomorphism identity

    h(a) + h(b) - h(ab) = alpha-bar(a, b) - beta-bar(a, b),

enumerate the packet, and check the character identity three ways: the
representation sum, the closed form, and the endoscopic transfer-factor
sum.  Everything is exact: values live in Q/Z and cyclotomic integers.

For tori the transfer factor reduces to the relative-position pairing
alone; the remaining classical terms are trivial here and are pinned as
constants (TRIVIAL_FACTORS below).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

from .lattice import FGAbelian, IntMatrix, solve_integer
from .qz import QZ, Cyc, convolve, cyc_from_vector, exponent_form, qz_ints
from .cohomology import GModule, Cochain, d_matrix, TwoTermComplex, hyper_h1
from .weil import (
    TorusModel,
    Parameter,
    tn_inverse,
    langlands_character,
    hyper_pairing,
)
from .characters import irr_with_central_char, alpha_regular_class_count
from .groups import Cocycle2, CentralExtension

# for tori the adjoint quotient is trivial, so the classical factor terms
# collapse: the sign and epsilon terms are 1 and the root-data products are
# empty
TRIVIAL_FACTORS = {"e_sign": 1, "epsilon": 1, "delta_I": 1, "delta_II": 1,
                   "delta_IV": 1}


class CaseError(ValueError):
    """The case data are inconsistent: a stabilizer that is not a subgroup,
    or a delta that does not map to the given norm class."""


@dataclass
class ToriCase:
    """The full case bundle for a pure inner form of a disconnected torus."""

    torus: TorusModel
    z: Cochain
    phi: Parameter
    A_z: list            # component elements fixing [z], with chosen t_a
    A_phi_z: list        # elements of A_z also fixing [phi], with chosen s_a
    t: dict              # a -> integral vector in X
    s: dict              # a -> dual vector (tuple of QZ)
    lam_z: tuple         # canonical norm-zero inverse of z under the TN map
    h: dict = field(default_factory=dict)
    pairings: dict = field(default_factory=dict)  # see pairing()

    @property
    def A(self):
        return self.torus.comp.group

    def pairing(self, a):
        """pair_for_h(self, a), computed once per case."""
        if a not in self.pairings:
            self.pairings[a] = pair_for_h(self, a)
        return self.pairings[a]

    def act(self, a, vec):
        return self.torus.comp.act(a, vec)

    def pair_complex_matrix(self, aut):
        """Matrix of 1 - aut on X: the complex map for a commuting pair
        (z, delta) whose defining relation is  aut.z - z = d(delta)."""
        return (IntMatrix.identity(self.torus.rank)
                - self.torus.comp.matrices[aut])

    def f_complex(self, a):
        """Matrix of 1 - a^-1 on X: the complex carrying (z^-1, t_{a^-1}),
        indexed by the packet element a."""
        return self.pair_complex_matrix(self.A.inv(a))

    def alpha(self, a, b):
        """t_a + a.t_b - t_ab, a Galois-invariant lattice vector."""
        tab = self.t[self.A.mul(a, b)]
        v = tuple(x + y - w for x, y, w in
                  zip(self.t[a], self.act(a, self.t[b]), tab))
        return v

    def beta(self, a, b):
        sab = self.s[self.A.mul(a, b)]
        return tuple(x + y - w for x, y, w in
                     zip(self.s[a], self.torus.dual_comp(a, self.s[b]), sab))

    def alpha_bar(self, a, b):
        return langlands_character(self.torus, self.phi, self.alpha(a, b))

    def beta_bar(self, a, b):
        return self.torus.dual_eval(self.beta(a, b), self.lam_z)

    def kottwitz(self, s):
        return self.torus.dual_eval(s, self.lam_z)

    def zeta(self, c, a):
        """The conjugation defect: c.t_a + t_c - (cac^-1).t_c - t_{cac^-1},
        a Galois-invariant lattice vector."""
        cac = self.A.mul(self.A.mul(c, a), self.A.inv(c))
        v1 = self.act(c, self.t[a])
        v2 = self.t[c]
        v3 = self.act(cac, self.t[c])
        v4 = self.t[cac]
        return tuple(x1 + x2 - x3 - x4 for x1, x2, x3, x4 in
                     zip(v1, v2, v3, v4))


def solve_t(torus, z, a):
    """Canonical integral x with (sigma - 1) x = a.z(sigma) - z(sigma) for
    all sigma, or None when the class of z is not fixed by a."""
    gm = torus.gmodule()
    D0 = d_matrix(gm, 0)
    target = []
    n = torus.model.n
    for i in range(n):
        av = torus.comp.act(a, z.table[(i,)])
        target.extend(x - y for x, y in zip(av, z.table[(i,)]))
    return solve_integer(D0, target)


def solve_s(torus, phi, a, denominator):
    """Canonical dual vector s with (sigma - 1) s = a.phi0 - phi0 at the
    generator, solved at the given denominator level, or None."""
    r = torus.rank
    psi = torus.dual_sub(torus.dual_comp(a, phi.psi), phi.psi)
    M = denominator
    T = torus._galois_dualT[1 % torus.model.n]
    rows = []
    target = []
    for i in range(r):
        row = [T.data[i][j] - (1 if i == j else 0) for j in range(r)]
        slack = [M if k == i else 0 for k in range(r)]
        rows.append(row + slack)
        num, rem = divmod(psi[i].num * M, psi[i].den)
        if rem:
            return None
        target.append(num)
    sol = solve_integer(IntMatrix(rows), target)
    if sol is None:
        return None
    return tuple(QZ(k, M) for k in sol[:r])


def s_denominator(torus, phi):
    """Denominator level for s_a searches: the lcm of the Galois order, the
    component order, and the parameter denominators."""
    d = 1
    for q in phi.psi:
        d = lcm(d, q.order)
    return lcm(torus.model.n, torus.comp.group.order) * d


def build_case(torus, z, phi):
    """Solve all coboundary equations and assemble the ToriCase.

    Raises CaseError when z is not a cocycle, when an element passes the
    stabilizer solvability test for [z] but the dual-side system is
    inconsistent in a way that breaks the subgroup structure (model
    inconsistency), or when a solution fails its equation."""
    A = torus.comp.group
    if any(any(val) for val in z.d().table.values()):
        raise CaseError("z is not a cocycle")
    t = {}
    A_z = []
    for a in range(A.order):
        x = solve_t(torus, z, a)
        if x is not None:
            A_z.append(a)
            t[a] = tuple(x)
    if not A.is_subgroup(A_z):
        raise CaseError("class-fixing set is not a subgroup")
    M = s_denominator(torus, phi)
    s = {}
    A_phi_z = []
    for a in A_z:
        sv = solve_s(torus, phi, a, M)
        if sv is not None:
            A_phi_z.append(a)
            s[a] = sv
    if not A.is_subgroup(A_phi_z):
        raise CaseError("class not fixed: stabilizer data inconsistent")
    lam_z = tn_inverse(torus, z)
    case = ToriCase(torus=torus, z=z, phi=phi, A_z=A_z, A_phi_z=A_phi_z,
                    t=t, s=s, lam_z=lam_z)
    if any(case.t[0]) or not all(q.is_zero() for q in case.s[0]):
        raise CaseError("the identity must have t = 0 and s = 0")
    _check_case_invariants(case)
    return case


def _check_case_invariants(case):
    torus = case.torus
    n = torus.model.n
    for a in case.A_z:
        for i in range(n):
            lhs = tuple(x - y for x, y in zip(torus.sigma(i, case.t[a]), case.t[a]))
            az = torus.comp.act(a, case.z.table[(i,)])
            rhs = tuple(x - y for x, y in zip(az, case.z.table[(i,)]))
            if lhs != rhs:
                raise CaseError("t_a does not solve its coboundary equation")
    for a in case.A_phi_z:
        for i in range(n):
            lhs = torus.dual_sub(torus.dual_sigma(i, case.s[a]), case.s[a])
            rhs = torus.dual_sub(torus.dual_comp(a, case.phi.value(i)),
                                 case.phi.value(i))
            if not all((x - y).is_zero() for x, y in zip(lhs, rhs)):
                raise CaseError(
                    "s_a does not solve its dual coboundary equation")


def pair_for_h(case, a, t_override=None, s_override=None):
    """The pairing <(z^-1, t_{a^-1}), (phi0^-1, s_a)> on the complex with
    map 1 - a^-1."""
    torus = case.torus
    A = case.A
    ainv = A.inv(a)
    t = (t_override or case.t)[ainv]
    s = (s_override or case.s)[a]
    fT = case.f_complex(a)
    u = case.z.neg()
    return hyper_pairing(torus, fT, (u, t), (case.phi.neg(), s))


def compute_h(case, t_override=None, s_override=None):
    """h(a) = alpha-bar(a^-1, a) + <(z^-1, t_{a^-1}), (phi0^-1, s_a)>.

    Without overrides the pairings come from case.pairing, which keeps them
    for theta_value."""
    out = {}
    for a in case.A_phi_z:
        ainv = case.A.inv(a)
        t = t_override or case.t
        tab = t[case.A.mul(ainv, a)]
        alpha_inv_a = tuple(
            x + y - w for x, y, w in
            zip(t[ainv], case.act(ainv, t[a]), tab))
        ab = langlands_character(case.torus, case.phi, alpha_inv_a)
        if t_override or s_override:
            pairing = pair_for_h(case, a, t_override, s_override)
        else:
            pairing = case.pairing(a)
        out[a] = ab + pairing
    case.h = out
    return out


def verify_iso(case):
    """The extension-isomorphism identity for every pair, exactly in Q/Z.

    Returns {(a, b): (lhs, rhs, equal)}."""
    if not case.h:
        compute_h(case)
    report = {}
    for a in case.A_phi_z:
        for b in case.A_phi_z:
            ab = case.A.mul(a, b)
            lhs = case.h[a] + case.h[b] - case.h[ab]
            rhs = case.alpha_bar(a, b) - case.beta_bar(a, b)
            report[(a, b)] = (lhs, rhs, lhs == rhs)
    return report


# ---------------------------------------------------------------------------
# packets


@dataclass
class PacketElement:
    index: int            # index into the table of E^phi
    dim: int
    generic: bool


def _extension(case, which):
    """E^z (which='alpha') or E^phi (which='beta') as a CentralExtension of
    the stabilizer subgroup."""
    Abar, elems = case.A.subgroup_as_group(case.A_phi_z)
    bar = case.alpha_bar if which == "alpha" else case.beta_bar
    alpha = Cocycle2(Abar, {(i, j): bar(a, b) for i, a in enumerate(elems)
                            for j, b in enumerate(elems)})
    return CentralExtension(Abar, alpha.m, alpha), elems


def packet(case):
    """The L-packet: identity-central-character irreducibles of E^z, indexed
    through their partners under the h-isomorphism, which are characters of
    E^phi (the centralizer side the character identity sums over).

    Returns (elements, table, sel, ext, elems).  When the class of z is
    trivial, the member whose centralizer-side character is trivial carries
    the generic flag.  Raises CaseError when the packet fails its size,
    dimension, generic-member or h-bijection check."""
    cached = getattr(case, "_packet", None)
    if cached is not None:
        return cached
    if not case.h:
        compute_h(case)
    ext_phi, elems = _extension(case, "beta")
    table, sel = irr_with_central_char(ext_phi, QZ(1, ext_phi.m))
    # packet size and dimensions: as many members as regular classes, with
    # squared dimensions filling the component group
    if len(sel) != alpha_regular_class_count(ext_phi):
        raise CaseError("the packet size is not the regular class count")
    if sum(table.dims[i] ** 2 for i in sel) != len(elems):
        raise CaseError("the squared packet dimensions do not sum to the "
                        "stabilizer order")
    _check_h_bijection(case, ext_phi, table, sel, elems)
    z_trivial = _z_class_trivial(case)
    out = []
    for i in sel:
        generic = False
        if z_trivial:
            generic = all(
                table.value(i, ext_phi.element(QZ(0), ei)) == Cyc.integer(1)
                for ei in range(len(elems)))
        out.append(PacketElement(index=i, dim=table.dims[i], generic=generic))
    if z_trivial and sum(1 for e in out if e.generic) != 1:
        raise CaseError("exactly one generic member expected when z is "
                        "trivial")
    case._packet = (out, table, sel, ext_phi, elems)
    return case._packet


def _check_h_bijection(case, ext_phi, table, sel, elems):
    """Twisting a centralizer-side character by h must land exactly in the
    identity-central-character characters of the torus-side extension: the
    concrete content of the extension isomorphism on representations."""
    ext_z, elems_z = _extension(case, "alpha")
    table_z, sel_z = irr_with_central_char(ext_z, QZ(1, ext_z.m))
    if elems_z != elems or len(sel_z) != len(sel):
        raise CaseError("the two extensions disagree in size")
    rows_z = []
    for i in sel_z:
        rows_z.append([table_z.value(i, ext_z.element(QZ(0), ei))
                       for ei in range(len(elems))])
    matched = set()
    for i in sel:
        twisted = [Cyc.root(case.h[a]) * table.value(i, ext_phi.element(QZ(0), ei))
                   for ei, a in enumerate(elems)]
        hits = [k for k, row in enumerate(rows_z)
                if all(x == y for x, y in zip(twisted, row))]
        if len(hits) != 1:
            raise CaseError("h does not induce a character bijection")
        matched.add(hits[0])
    if len(matched) != len(sel):
        raise CaseError("h does not induce a character bijection")


def _z_class_trivial(case):
    from .cohomology import tate_group

    H1 = tate_group(case.torus.gmodule(), 1)
    return not any(H1.classify(case.z))


# ---------------------------------------------------------------------------
# character identities


@dataclass
class CharIdentityReport:
    element: tuple        # (t_vec, a)
    dual_element: tuple   # (s_dot, b)
    rep_value: Cyc
    closed_value: Cyc
    endoscopic_value: Cyc

    @property
    def all_equal(self):
        return (self.rep_value == self.closed_value
                and self.closed_value == self.endoscopic_value)


def _character_forms(case, table, sel, ext, elems):
    """The packet's character values chi_i((0, x)), for i in sel and x
    indexing elems, as exponent forms at one level L with one common
    denominator D: (L, D, {i: [pairs of chi_i((0, x)) scaled by D]}).
    Read once per case.  The central character is the inclusion, so
    chi_i((q, x)) = e(q) chi_i((0, x))."""
    cached = getattr(case, "_char_forms", None)
    if cached is not None:
        return cached
    values = {i: [table.value(i, ext.element(QZ(0), x))
                  for x in range(len(elems))] for i in sel}
    L = lcm(1, *(v.level() for row in values.values() for v in row))
    forms = {i: [exponent_form(v.terms, L) for v in row]
             for i, row in values.items()}
    D = lcm(1, *(den for row in forms.values() for _, den in row))
    case._char_forms = (L, D, {
        i: [[(k, c * (D // den)) for k, c in pairs] for pairs, den in row]
        for i, row in forms.items()})
    return case._char_forms


def theta_value(case, s_dot, b, t_vec, a):
    """Representation-sum and closed-form values of the twisted character.

    s_dot: Galois-invariant torsion dual point; b, a in the joint
    stabilizer; t_vec in X^Q (integral model of T(F))."""
    torus = case.torus
    A = case.A
    if a not in case.A_phi_z or b not in case.A_phi_z:
        raise ValueError("element outside the packet group")
    if not _is_invariant_dual(torus, s_dot):
        raise ValueError("s must be Galois-invariant")
    if not _is_invariant_vec(torus, t_vec):
        raise ValueError("t must be Galois-invariant")
    if not case.h:
        compute_h(case)
    pkt, table, sel, ext, elems = packet(case)
    L, D, forms = _character_forms(case, table, sel, ext, elems)
    pos = {x: i for i, x in enumerate(elems)}
    kz = case.kottwitz(s_dot)

    # (c a c^-1, phi(c.t + zeta(c, a))) for the conjugators c that keep a
    # in the stabilizer, shared by both sums
    conjugates = []
    for c in case.A_z:
        cac = A.mul(A.mul(c, a), A.inv(c))
        if cac not in pos:
            continue
        ct = torus.comp.act(c, t_vec)
        val = langlands_character(
            torus, case.phi,
            tuple(x + y for x, y in zip(ct, case.zeta(c, a))))
        conjugates.append((cac, val))

    # the representation sum
    #   sum_i chi_i((kz, b)) sum_c chi_i((val_c + h(cac), cac)) / |Abar|
    # in exponent vectors at level N, where e(q) shifts exponents by q N
    roots = [(pos[cac], val + case.h[cac]) for cac, val in conjugates]
    N = lcm(L, kz.den, *(q.den for _, q in roots))
    step = N // L
    roots = [(x, q.num * (N // q.den)) for x, q in roots]
    kzs = kz.num * (N // kz.den)
    acc = [0] * N
    for i in sel:
        row = forms[i]
        inner = [0] * N
        for x, shift in roots:
            for k, c in row[x]:
                inner[(k * step + shift) % N] += c
        acc = convolve(inner, [(k * step + kzs, c) for k, c in row[pos[b]]],
                       acc)
    rep = cyc_from_vector(acc, D * D * len(elems))

    binv = A.inv(b)
    shift = kz - case.pairing(b)
    closed = {}
    for cac, val in conjugates:
        if cac == binv:
            q = val + shift
            closed[q] = closed.get(q, 0) + 1
    return rep, Cyc(closed)


def hyper_group_for(case, aut):
    """H^1(Q, X --(1 - aut)--> X), cached per pair automorphism."""
    cache = getattr(case, "_hyper_cache", None)
    if cache is None:
        cache = case._hyper_cache = {}
    if aut not in cache:
        T = GModule.from_action(case.torus.galois)
        cx = TwoTermComplex(T, T, case.pair_complex_matrix(aut))
        cache[aut] = hyper_h1(cx)
    return cache[aut]


def invariant_of(case, aut, z, delta, gamma=None):
    """The relative-position invariant of a commuting pair (z, delta) for
    the automorphism aut (defining relation aut.z - z = d(delta)): the
    class of (-z, delta) on the complex with map 1 - aut, in the integral
    hypercohomology.

    When gamma is given, delta must map to it in the coinvariants
    coker(1 - aut); otherwise the projection of delta is used."""
    torus = case.torus
    f = case.pair_complex_matrix(aut)
    from .lattice import FGAbelian

    coker = FGAbelian(torus.rank, f)
    if gamma is not None:
        if coker.nf(delta) != tuple(gamma):
            raise CaseError("not a norm of delta")
    H = hyper_group_for(case, aut)
    cls = H.classify(z.neg(), tuple(delta))
    return cls, H


def endoscopic_value(case, s_dot, b, t_vec, a):
    """The transfer-factor side: sum over conjugators of the pairing of the
    relative-position invariant against the endoscopic datum class.

    For tori every classical factor except the relative-position pairing is
    trivial (TRIVIAL_FACTORS); the value is

        sum_{c in A^[z], c a c^-1 = b^-1} e(-<(z^-1, delta_c), (phi0^-1, s s_b)>)

    with delta_c the twisted-conjugated element written over the base point.
    """
    torus = case.torus
    A = case.A
    if a not in case.A_phi_z or b not in case.A_phi_z:
        raise ValueError("element outside the packet group")
    if any(v != 1 for v in TRIVIAL_FACTORS.values()):
        raise ValueError("the classical transfer-factor terms of a torus "
                         "must be trivial")
    binv = A.inv(b)
    # the conjugated elements sit in the b^-1 coset, so their pairs live on
    # the complex with map 1 - b^-1
    fT = case.pair_complex_matrix(binv)
    dual_second = torus.dual_add(s_dot, case.s[b])
    total = Cyc.zero()
    for c in case.A_z:
        cac = A.mul(A.mul(c, a), A.inv(c))
        if cac != binv:
            continue
        ct = torus.comp.act(c, t_vec)
        delta = tuple(x + y + w for x, y, w in
                      zip(ct, case.zeta(c, a), case.t[binv]))
        val = hyper_pairing(torus, fT, (case.z.neg(), delta),
                            (case.phi.neg(), dual_second))
        total = total + Cyc.root(-val)
    return total


def character_identity_report(case, s_dot, b, t_vec, a):
    rep, closed = theta_value(case, s_dot, b, t_vec, a)
    endo = endoscopic_value(case, s_dot, b, t_vec, a)
    return CharIdentityReport(element=(tuple(t_vec), a),
                              dual_element=(tuple(s_dot), b),
                              rep_value=rep, closed_value=closed,
                              endoscopic_value=endo)


def _is_invariant_dual(torus, s):
    nums, den = qz_ints(s)
    return not any((x - y) % den
                   for m in torus._galois_dualT
                   for x, y in zip(m.apply(nums), nums))


def _is_invariant_vec(torus, v):
    for i in range(torus.model.n):
        if torus.sigma(i, v) != tuple(v):
            return False
    return True


def invariant_duals(torus):
    """Generators-style list of Galois-invariant torsion dual points: the
    characters of the torsion of the coinvariants, pulled back to X."""
    r = torus.rank
    ident = IntMatrix.identity(r)
    cols = []
    for m in torus.galois.matrices[1:]:
        cols.extend((m - ident).columns())
    coinv = FGAbelian(r, IntMatrix.from_columns(cols, r))
    out = [torus.dual_zero()]
    if not coinv.torsion:
        return out
    # one dual per torsion generator: s(x) = (U x)_i / d_i
    U = coinv.U
    for ci, d in coinv._coord_info:
        if d == 0:
            continue
        s = tuple(QZ(U.data[ci][j], d) for j in range(r))
        if _is_invariant_dual(torus, s):
            out.append(s)
    return out
