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

from collections import Counter
from dataclasses import dataclass, field
from math import lcm
from operator import add, mul, sub

from .lattice import FGAbelian, IntMatrix, block_matrix, memoized, \
    solve_integer
from .qz import QZ, Cyc, qz_ints, residue
from .cohomology import Cochain
from .weil import (
    TorusModel,
    _torus_key,
    Parameter,
    tn_inverse,
    check_pair_T_cocycle,
    check_pair_T_relation,
    elementary_pairing,
    hyper_pairing,  # re-exported: relative_pairing is its kept form
    pairing_form,
    solve_lift,
    validate_hyper_pair_dual,
)
from .characters import (alpha_regular_class_count, column_product,
                         irr_with_central_char)
from .groups import Cocycle2, CentralExtension

# for tori the adjoint quotient is trivial, so the classical factor terms
# collapse: the sign and epsilon terms are 1 and the root-data products are
# empty
TRIVIAL_FACTORS = {"e_sign": 1, "epsilon": 1, "delta_I": 1, "delta_II": 1,
                   "delta_IV": 1}


class CaseError(ValueError):
    """The case data are inconsistent: a stabilizer that is not a subgroup,
    or a delta that does not map to the given norm class."""


@dataclass(slots=True)
class ToriCase:
    """The full case bundle for a pure inner form of a disconnected torus.

    h (see compute_h) and kept hold values computed from the others: kept
    maps (kind, ...) to a value kept under what it depends on.  A copy with
    other t, s, z or phi must start both empty."""

    torus: TorusModel
    z: Cochain
    phi: Parameter
    A_z: list            # component elements fixing [z], with chosen t_a
    A_phi_z: list        # elements of A_z also fixing [phi], with chosen s_a
    t: dict              # a -> integral vector in X
    s: dict              # a -> dual vector (tuple of QZ)
    lam_z: tuple         # canonical norm-zero inverse of z under the TN map
    z_inv: Cochain       # z^-1 and phi0^-1, the inverses every pairing reads
    phi_inv: Parameter
    h: dict = field(default_factory=dict)
    kept: dict = field(default_factory=dict)

    @property
    def A(self):
        return self.torus.comp.group

    def check_z_inv(self):
        """z^-1's cocycle test, the half of the T-side check every pair of
        the case shares, run once per case: ("cocycle",) marks a pass."""
        if ("cocycle",) not in self.kept:
            check_pair_T_cocycle(self.z_inv)
            self.kept["cocycle",] = True

    def dual_pair(self, aut, s):
        """(s, form, values): the dual pair (phi0^-1, s) on 1 - aut, its
        pairing_form and its pairing values by delta (relative_pairing),
        kept per (1 - aut, s) once validate_hyper_pair_dual passes it."""
        aut = self.matrix_rep(aut)
        key = ("dual", aut, s)
        record = self.kept.get(key)
        if record is None:
            validate_hyper_pair_dual(self.torus, self.pair_complex_matrix(aut),
                                     self.phi_inv, s)
            record = self.kept[key] = (
                s, pairing_form(self.torus, (self.phi_inv, s)), {})
        return record

    def check_pair_T(self, aut, delta):
        """Check the T-side pair (z^-1, delta) on 1 - aut once: ("lift",
        matrix_rep(aut), delta) holds None until its lift is solved."""
        key = ("lift", self.matrix_rep(aut), delta)
        if key not in self.kept:
            self.check_z_inv()
            check_pair_T_relation(self.torus, self.pair_complex_matrix(aut),
                                  (self.z_inv, delta))
            self.kept[key] = None

    def relative_pairing(self, aut, delta, s):
        """hyper_pairing(torus, 1 - aut, (z^-1, delta), (phi0^-1, s)), kept
        by delta with the dual pair (dual_pair), from the lift kept per
        (1 - aut, delta).  In hyper_pairing's order: check_pair_T, then a
        new dual pair is checked, then a new lift is solved."""
        kept = self.kept
        aut = self.matrix_rep(aut)
        record = kept.get(("dual", aut, s))
        if record is not None and delta in record[2]:
            return record[2][delta]
        self.check_pair_T(aut, delta)
        _, form, values = record or self.dual_pair(aut, s)
        lift = kept["lift", aut, delta]
        if lift is None:
            lift = kept["lift", aut, delta] = solve_lift(
                self.torus, self.pair_complex_matrix(aut), (self.z_inv, delta))
        q = values[delta] = elementary_pairing(form, lift)
        return q

    def act(self, a, vec):
        return self.torus.comp.act(a, vec)

    def matrix_rep(self, aut):
        """The first element with aut's matrix, which keys the kept 1 - aut,
        dual pairs and lifts by content; the map is kept at the first read,
        so no matrix is hashed per lookup."""
        reps = self.kept.get(("reps",))
        if reps is None:
            first = {}
            reps = self.kept["reps",] = tuple(
                first.setdefault(m.data, a)
                for a, m in enumerate(self.torus.comp.matrices))
        return reps[aut]

    def pair_complex_matrix(self, aut):
        """Matrix of 1 - aut on X: the complex map for a commuting pair
        (z, delta) whose defining relation is  aut.z - z = d(delta), kept
        per matrix_rep(aut) from the memo of _complex_matrix."""
        key = ("complex", self.matrix_rep(aut))
        f = self.kept.get(key)
        if f is None:
            f = self.kept[key] = _complex_matrix(self.torus, key[1])
        return f

    def forms(self):
        """(den, S, {a: (<L, t_a>, M_a^T L, S s_a, <S s_a, lam_z>,
        M_(a^-1) lam_z)} over A_phi_z), kept at the first read: L / den is
        phi0 at the generator, so [phi](a.v) = <M_a^T L, v> / den, S is
        the lcm of the orders of the s_a and <a.s, lam_z> is
        <s, M_(a^-1) lam_z>."""
        record = self.kept.get(("forms",))
        if record is None:
            torus, inv = self.torus, self.A.inv
            L = self.phi.nums[1 % torus.model.n]
            S = lcm(1, *(q.den for a in self.A_phi_z for q in self.s[a]))
            f = {}
            for a in self.A_phi_z:
                sa = [q.num * (S // q.den) for q in self.s[a]]
                f[a] = (sum(map(mul, L, self.t[a])),
                        torus._comp_dualT[inv(a)].apply(L),
                        sa, sum(map(mul, sa, self.lam_z)),
                        self.act(inv(a), self.lam_z))
            record = self.kept["forms",] = (self.phi.den, S, f)
        return record

    def alpha_bar(self, a, b):
        """[phi](t_a + a.t_b - t_ab), from the kept forms."""
        den, _, f = self.forms()
        return QZ(_alpha(f, self.t, a, b, self.A.mul(a, b)), den)

    def beta_bar(self, a, b):
        """(s_a + a.s_b - s_ab)(lam_z), from the kept forms."""
        _, S, f = self.forms()
        return QZ(_beta(f, a, b, self.A.mul(a, b)), S)

    def kottwitz(self, s):
        return self.torus.dual_eval(s, self.lam_z)

    def zeta(self, c, a):
        """The conjugation defect: c.t_a + t_c - (cac^-1).t_c - t_{cac^-1},
        a Galois-invariant lattice vector."""
        cac = self.A.mul(self.A.mul(c, a), self.A.inv(c))
        return tuple(x1 + x2 - x3 - x4 for x1, x2, x3, x4 in zip(
            self.act(c, self.t[a]), self.t[c], self.act(cac, self.t[c]),
            self.t[cac]))


def _alpha(f, t, a, b, ab):
    """alpha-bar(a, b) as its numerator over den, from the forms f."""
    return f[a][0] + sum(map(mul, f[a][1], t[b])) - f[ab][0]


def _beta(f, a, b, ab):
    """beta-bar(a, b) as its numerator over S, from the forms f."""
    return f[a][3] + sum(map(mul, f[b][2], f[a][4])) - f[ab][3]


@memoized(_torus_key)
def _complex_matrix(torus, aut):
    """1 - aut on X, built once per torus and aut."""
    return IntMatrix.identity(torus.rank) - torus.comp.matrices[aut]


def solve_t(torus, z, a):
    """Canonical integral x with (sigma - 1) x = a.z(sigma) - z(sigma) for
    all sigma, or None when the class of z is not fixed by a."""
    target = []
    n = torus.model.n
    for i in range(n):
        zi = z(i)
        target.extend(x - y for x, y in zip(torus.comp.act(a, zi), zi))
    return solve_integer(torus.coboundary_matrix(), target)


def solve_s(torus, phi, a, denominator):
    """Canonical dual vector s with (sigma - 1) s = a.phi0 - phi0 at the
    generator, solved at the given denominator level, or None."""
    r = torus.rank
    psi = tuple(map(sub, torus.dual_comp(a, phi.psi), phi.psi))
    M = denominator
    target = []
    for q in psi:
        num, rem = divmod(q.num * M, q.den)
        if rem:
            return None
        target.append(num)
    sol = solve_integer(_s_system(torus, M), target)
    if sol is None:
        return None
    return tuple(QZ(k, M) for k in sol[:r])


@memoized(_torus_key)
def _s_system(torus, M):
    """The matrix of solve_s's system at level M: (T - 1) x + M y = M psi
    in ints, with s = x / M and T the dual action of the generator."""
    ident = IntMatrix.identity(torus.rank)
    return block_matrix([[torus._galois_dualT[1 % torus.model.n] - ident,
                          M * ident]])


def s_denominator(torus, phi):
    """Denominator level for s_a searches: the lcm of the Galois order, the
    component order, and the parameter denominators."""
    d = 1
    for q in phi.psi:
        d = lcm(d, q.order)
    return lcm(torus.model.n, torus.comp.group.order) * d


def build_case(torus, z, phi):
    """Solve all coboundary equations and assemble the ToriCase, with its
    comparison function h computed.

    Raises CaseError when z is not a cocycle, when an element passes the
    stabilizer solvability test for [z] but the dual-side system is
    inconsistent in a way that breaks the subgroup structure (model
    inconsistency), or when a solution fails its equation.  Each relation
    is checked once, in the records the pairings read: z's cocycle test
    (kept on z, so casefile.load_case's test of it counts), check_pair_T(a,
    t_a) for a in A_z and dual_pair(a^-1, s_a) in A_phi_z."""
    A = torus.comp.group
    z_inv = z.neg()
    try:
        check_pair_T_cocycle(z)
    except ValueError:
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
    case = ToriCase(torus=torus, z=z, phi=phi, A_z=A_z, A_phi_z=A_phi_z,
                    t=t, s=s, lam_z=tn_inverse(torus, z), z_inv=z_inv,
                    phi_inv=phi.neg(), kept={("cocycle",): True})
    if any(case.t[0]) or not all(q.is_zero() for q in case.s[0]):
        raise CaseError("the identity must have t = 0 and s = 0")
    for a in A_z:
        try:
            case.check_pair_T(a, t[a])
        except ValueError:
            raise CaseError("t_a does not solve its coboundary equation")
    for a in A_phi_z:
        try:
            case.dual_pair(A.inv(a), s[a])
        except ValueError:
            raise CaseError("s_a does not solve its dual coboundary equation")
    compute_h(case)
    return case


def pair_for_h(case, a):
    """The pairing <(z^-1, t_{a^-1}), (phi0^-1, s_a)> on the complex with
    map 1 - a^-1, by case.relative_pairing, whose lifts endoscopic_value
    reads too."""
    ainv = case.A.inv(a)
    return case.relative_pairing(ainv, case.t[ainv], case.s[a])


def compute_h(case):
    """h(a) = alpha-bar(a^-1, a) + <(z^-1, t_{a^-1}), (phi0^-1, s_a)>, kept
    as case.h and returned, each added in ints.  The pairings come from
    pair_for_h, which keeps them on the case for theta_value.  z^-1's
    cocycle test runs first, so a copy with a bad z keeps nothing."""
    case.check_z_inv()
    den, _, f = case.forms()
    h = {}
    for a in case.A_phi_z:
        q = pair_for_h(case, a)
        m = lcm(den, q.den)
        h[a] = QZ(_alpha(f, case.t, case.A.inv(a), a, 0) * (m // den)
                  + q.num * (m // q.den), m)
    case.h = h
    return h


def verify_iso(case):
    """The extension-isomorphism identity for every pair, exactly in Q/Z.

    Returns {(a, b): (lhs, rhs, equal)}, each side added in ints."""
    den, S, f = case.forms()
    H = lcm(1, *(q.den for q in case.h.values()))
    hn = {a: q.num * (H // q.den) for a, q in case.h.items()}
    R = lcm(den, S)
    ka, kb, t = R // den, R // S, case.t
    report = {}
    for a in case.A_phi_z:
        for b in case.A_phi_z:
            ab = case.A.mul(a, b)
            lhs = QZ(hn[a] + hn[b] - hn[ab], H)
            rhs = QZ(_alpha(f, t, a, b, ab) * ka - _beta(f, a, b, ab) * kb, R)
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
    data = case.kept.get(("packet",))
    if data is not None:
        return data
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
    data = case.kept["packet",] = (out, table, sel, ext_phi, elems)
    return data


def _check_h_bijection(case, ext_phi, table, sel, elems):
    """Twisting a centralizer-side character by h must land exactly in the
    identity-central-character characters of the torus-side extension: the
    concrete content of the extension isomorphism on representations.
    A row's key is the residues of its values at the (0, a), a = elems[j]
    (element j), at one level and denominator, from the tables' exponent
    forms shifted by h(a); equal values have equal keys, so a key two
    torus-side rows share counts as two hits."""
    ext_z, elems_z = _extension(case, "alpha")
    table_z, sel_z = irr_with_central_char(ext_z, QZ(1, ext_z.m))
    if elems_z != elems or len(sel_z) != len(sel):
        raise CaseError("the two extensions disagree in size")
    h = [case.h[a] for a in elems]
    (L, D, forms), (Lz, Dz, forms_z) = (table.exponent_forms(),
                                        table_z.exponent_forms())
    N, den = lcm(L, Lz, *(q.den for q in h)), lcm(D, Dz)

    def key(table, L, D, row, shifts):
        return tuple(x for j, shift in enumerate(shifts) for x in residue(
            [((k * (N // L) + shift) % N, c * (den // D))
             for k, c in row[table.class_index[j]]], N))

    hits = {}
    for k in sel_z:
        hits.setdefault(key(table_z, Lz, Dz, forms_z[k], [0] * len(h)),
                        []).append(k)
    shifts = [q.num * (N // q.den) for q in h]
    matched = set()
    for i in sel:
        found = hits.get(key(table, L, D, forms[i], shifts), ())
        if len(found) != 1:
            raise CaseError("h does not induce a character bijection")
        matched.add(found[0])
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
        return (self.closed_value == self.endoscopic_value
                and self.rep_value == self.closed_value)


def theta_value(case, s_dot, b, t_vec, a):
    """Representation-sum and closed-form values of the twisted character.

    s_dot: Galois-invariant torsion dual point; b, a in the joint
    stabilizer; t_vec in X^Q (integral model of T(F)).

    The representation sum
        (1/|Abar|) sum_i chi_i((kz, b)) sum_c chi_i((val_c + h(cac), cac))
    is summed over the conjugators' classes x first, from the same values:
        e(kz) (1/|Abar|) sum_x S[x] P[b][x]
    with S[x] = sum over {c : cac = x} of e(val_c + h(x)) and P[b][x] the
    column product (characters.column_product); no orthogonality relation
    is used.  It depends on s only through the factor e(kz), so the sum
    without that factor is kept per (b, a, t), as exponents and
    numerators, and each s shifts the exponents by kz: a bijection of Q/Z,
    so the terms stay apart and equal those of the whole sum.  The
    Kottwitz value is kept per s, and the conjugates per (a, t); a value
    is kept only after its guard passes, so a bad s or t raises on every
    call and leaves the case as it was.  The closed form reads
    pair_for_h(case, b), so z^-1's cocycle test runs first.  P is kept on
    the table, by column_product."""
    torus = case.torus
    if a not in case.A_phi_z or b not in case.A_phi_z:
        raise ValueError("element outside the packet group")
    case.check_z_inv()
    kept = case.kept
    s_key = ("kottwitz", tuple(s_dot))
    kz = kept.get(s_key)
    if kz is None:
        if not _is_invariant_dual(torus, s_dot):
            raise ValueError("s must be Galois-invariant")
        kz = case.kottwitz(s_dot)
    sums = _conjugates(case, a, t_vec)
    kept[s_key] = kz
    rep_key = ("rep", b, ("conjugates", a, tuple(t_vec)))
    rep = kept.get(rep_key)
    if rep is None:
        rep = kept[rep_key] = _rep_sum(case, packet(case), b, sums)
    N, den, exps, nums = rep
    group = sums[1].get(case.A.inv(b))
    return (_shifted(zip(exps, nums), N, kz, den),
            _shifted(group[0] if group else (), sums[0],
                     kz - pair_for_h(case, b)))


def _shifted(pairs, N, q, den=1):
    """The Cyc e(q) sum (c / den) e(k/N) over (k, c) pairs, each k at most
    once with 0 <= k < N: the shift by q is a bijection of Q/Z, so the
    terms stay apart."""
    n = lcm(N, q.den)
    step, s = n // N, q.num * (n // q.den)
    return Cyc.from_pairs([((k * step + s) % n, c) for k, c in pairs], n, den)


def _rep_sum(case, data, b, sums):
    """(N, den, exponents, numerators): the representation sum without its
    factor e(kz), (1/|Abar|) sum_x S[x] P[b][x], as the terms
    (c / den) e(k/N) at the level N = lcm(L, M), zeros dropped, from the
    packet data and the (a, t) record sums = (M, by_class) of conjugates.
    Tuples of ints take less memory than a Cyc's dict, which a large
    sweep would keep by the thousand.

    chi_i((0, y)) is the table's exponent form (level L, denominator D) at
    the class of (0, y), which is element j in the k|Abar| + j encoding of
    y = elems[j].  The terms are added up by exponent at level lcm(L, M)."""
    M, by_class = sums
    _, table, sel, _, elems = data
    L, D, _ = table.exponent_forms()
    col = case.kept.get(("columns",))
    if col is None:
        col = case.kept["columns",] = {y: table.class_index[j]
                                       for j, y in enumerate(elems)}
    N = lcm(L, M)
    step, sstep = N // L, N // M
    acc = {}
    get = acc.get
    for x, (_, roots, _) in by_class.items():
        prod = column_product(table, sel, col[b], col[x])
        for e, m in roots:
            shift = e * sstep
            for k, c in prod:
                k = (k * step + shift) % N
                acc[k] = get(k, 0) + m * c
    exps = tuple(k for k, c in acc.items() if c)
    return N, D * D * len(elems), exps, tuple(acc[k] for k in exps)


def _conjugates(case, a, t_vec):
    """(M, {x: (vals, roots, deltas)}): the data both sums of the character
    identity read at (a, t_vec), grouped by the classes x = c a c^-1 of the
    c in A_z that keep a in A_phi_z.  For each such c, in the order of
    A_z, delta0 = c.t_vec + zeta(c, a); deltas lists delta0 + t_x, the
    element written over the base point, vals is the sum of the
    e(phi(delta0)) and roots is S[x], that sum times e(h(x)), each as
    (exponent, count) pairs at the lcm M of phi's denominator and the
    orders of the h(x).  It is kept on the case per (a, t_vec) once t_vec
    has passed its Galois-invariance guard, so a bad t_vec raises
    ValueError on every call and leaves the case as it was."""
    key = ("conjugates", a, tuple(t_vec))
    if key in case.kept:
        return case.kept[key]
    if not _is_invariant_vec(case.torus, t_vec):
        raise ValueError("t must be Galois-invariant")
    A, stab = case.A, set(case.A_phi_z)
    L = case.phi.nums[1 % case.torus.model.n]
    by_class = {}
    for c in case.A_z:
        x = A.mul(A.mul(c, a), A.inv(c))
        if x in stab:
            delta0 = tuple(map(add, case.act(c, t_vec), case.zeta(c, a)))
            vals, deltas = by_class.setdefault(x, ([], []))
            vals.append(sum(map(mul, L, delta0)))
            deltas.append(tuple(map(add, delta0, case.t[x])))
    h, den = case.h, case.phi.den
    M = lcm(den, *(h[x].den for x in by_class))
    for x, (vals, deltas) in by_class.items():
        vals = list(Counter(v * (M // den) % M for v in vals).items())
        hx = h[x].num * (M // h[x].den)
        by_class[x] = (vals, [((k + hx) % M, m) for k, m in vals], deltas)
    sums = case.kept[key] = (M, by_class)
    return sums


def endoscopic_value(case, s_dot, b, t_vec, a):
    """The transfer-factor side: sum over conjugators of the pairing of the
    relative-position invariant against the endoscopic datum class.

    For tori every classical factor except the relative-position pairing is
    trivial (TRIVIAL_FACTORS); the value is

        sum_{c in A^[z], c a c^-1 = b^-1} e(-<(z^-1, delta_c), (phi0^-1, s s_b)>)

    with delta_c the twisted-conjugated element written over the base point,
    read from the b^-1 group of _conjugates(case, a, t_vec), each pairing
    on the complex with map 1 - b^-1 by case.relative_pairing.  The dual
    record of (s, b) is found again through ("dual", s, b).  z^-1's cocycle
    test and the dual pair are checked before _conjugates guards t, so a
    bad z, s or t raises even where no conjugate lands on b^-1.
    """
    if a not in case.A_phi_z or b not in case.A_phi_z:
        raise ValueError("element outside the packet group")
    if any(v != 1 for v in TRIVIAL_FACTORS.values()):
        raise ValueError("the classical transfer-factor terms of a torus "
                         "must be trivial")
    case.check_z_inv()
    binv = case.A.inv(b)
    key = ("dual", tuple(s_dot), b)
    record = case.kept.get(key) or case.dual_pair(
        binv, tuple(map(add, s_dot, case.s[b])))
    group = _conjugates(case, a, t_vec)[1].get(binv)
    case.kept[key] = record
    s, _, values = record
    qs = [-(values[delta] if delta in values else
            case.relative_pairing(binv, delta, s))
          for delta in (group[2] if group else ())]
    n = lcm(1, *(q.den for q in qs))
    return Cyc.from_pairs(Counter(q.num * (n // q.den) for q in qs).items(), n)


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


@memoized(_torus_key)
def invariant_duals(torus):
    """Generators-style tuple of Galois-invariant torsion dual points: the
    characters of the torsion of the coinvariants, pulled back to X, built
    once per torus."""
    r = torus.rank
    ident = IntMatrix.identity(r)
    gens = [m - ident for m in torus.galois.matrices[1:]]
    coinv = FGAbelian(r, block_matrix([gens]) if gens
                      else IntMatrix.zero(r, 0))
    # one dual per torsion factor d: s(e_j) = (coordinate of e_j) / d
    coords = [coinv.nf(e) for e in ident.data]
    return (torus.dual_zero(),) + tuple(tuple(QZ(c[t], d) for c in coords)
                                        for t, d in enumerate(coinv.torsion))
