"""Named checks: one function per check id, shared by the CLI commands and
the acceptance gate.

Each check takes its inputs, plus the seeded `random.Random` when it
samples, and returns a `Verdict`: whether the identity holds, the witness
its report record carries, and counts for callers that print them.  A
sampling check stops at its first failing sample and names it in the
witness; a sweep runs to the end.  The CLI passes one rng through all the
checks of a command, so the order in which each check draws from it is part
of the report bytes.  Random integers come from `suite.draws`, which gives
the values, and leaves the rng in the state, of one `randint` per value, so
a check may draw a sample's values in one call.
"""

from __future__ import annotations

import itertools
from math import lcm, prod
from operator import mul
from typing import NamedTuple

from .lattice import IntMatrix, kernel_basis
from .qz import QZ, Cyc
from .groups import FiniteGroup, GroupAction, induced_action, \
    decompose_induced_automorphism, reconstruct_induced_automorphism
from .cohomology import GModule, Cochain, tate_group, cup, dd_rows, \
    ZDomain, FiniteDomain, FiniteSupportChain, coinflation
from .weil import LocalModel, TorusModel, Parameter, tn_iso, tn_inverse, \
    langlands_character, chain_map_phi, hyper_pairing
from .characters import twisted_orthogonality, is_psi_centralizing, \
    irr_with_central_char, block_twisted_trace, induced_cocycle_check, \
    InducedIntertwinerData, CycMatrix
from .rootdata import BasedRootDatum, TwistData, diagram_flip, twisted_sign, \
    sign_product, sign_induction, levi_restriction
from .tori import build_case, verify_iso, packet, \
    character_identity_report, invariant_duals
from .suite import random_case_data, invariant_vectors, draws
from .casefile import encode_qz, encode_cyc


class Verdict(NamedTuple):
    """A check's result: pass or fail, its report witness, its counts."""
    ok: bool
    witness: dict | None = None
    counts: dict | None = None


def _random_cochain(gm, degree, rng, bound):
    """Entries in [-bound, bound], drawn key by key in `tuples` order and
    coordinate by coordinate within a key."""
    size = gm.ngens * gm.group.order ** degree
    return Cochain(gm, degree, draws(rng, -bound, bound, size))


def dd_zero(gm, degree, rng, samples, bound):
    """d after d vanishes on random cochains with entries in [-bound, bound].

    Each sample's d(d(x)) is P x, for P the exact product of the two
    coboundary operators with its zero rows dropped (cohomology.dd_rows),
    so a sample fails exactly when d(d(x)) != 0; an empty P proves
    d o d = 0 on all of C^degree."""
    P = dd_rows(gm, degree)
    for i in range(samples):
        get = _random_cochain(gm, degree, rng, bound).vec.__getitem__
        if any(sum(map(mul, cs, map(get, js))) for js, cs in P):
            return Verdict(False, {"sample": i}, {"samples": i + 1})
    return Verdict(True, None, {"samples": samples})


def tate_orders(gm):
    return Verdict(True, {"H%d" % deg: tate_group(gm, deg).order
                          for deg in (-1, 0, 1, 2)})


def classify_representative(gm):
    H1 = tate_group(gm, 1)
    return Verdict(all(H1.classify(H1.representative(c)) == c
                       for c in H1.elements()))


def _int_pairing(a, b):
    return tuple(a[0] * x for x in b)


def cup_leibniz(gm, rng, samples):
    """d(x u y) = dx u y - x u dy for random integer-valued 1-cochains x
    against random 1-cochains y in gm."""
    ints = GModule.trivial_ints(gm.group)
    for i in range(samples):
        x = _random_cochain(ints, 1, rng, 3)
        y = _random_cochain(gm, 1, rng, 3)
        lhs = cup(x, y, _int_pairing, gm).d()
        rhs = cup(x.d(), y, _int_pairing, gm).add(
            cup(x, y.d(), _int_pairing, gm).neg())
        if lhs.vec != rhs.vec:
            return Verdict(False, {"sample": i}, {"samples": i + 1})
    return Verdict(True, None, {"samples": samples})


def coinflation_boundary(rng, samples):
    """Coinflation from C4 to C2 (sign action) commutes with the boundary
    on random finite-support 2-chains."""
    signs = [IntMatrix.identity(1), IntMatrix([[-1]])]
    dom4 = FiniteDomain(FiniteGroup.cyclic(4), signs * 2)
    dom2 = FiniteDomain(FiniteGroup.cyclic(2), signs)
    for i in range(samples):
        supp = {tuple(draws(rng, 0, 3, 2)): tuple(draws(rng, -3, 3, 1))
                for _ in range(5)}
        y = FiniteSupportChain(dom4, 2, 1, supp)
        lhs = coinflation(y, lambda w: w % 2, dom2).boundary()
        rhs = coinflation(y.boundary(), lambda w: w % 2, dom2)
        if lhs.support != rhs.support:
            return Verdict(False, {"sample": i}, {"samples": i + 1})
    return Verdict(True, None, {"samples": samples})


def level_square(torus, rng, samples, bound):
    """The two-level square: the TN map and the chain map at level n and 2n
    agree through inflation, on up to three norm-zero lattice elements and
    on random 1-chains supported in [-bound, bound]."""
    n, r = torus.model.n, torus.rank
    gen = torus.galois.matrices[1] if n > 1 else IntMatrix.identity(r)
    big = TorusModel(LocalModel(2 * n), GroupAction.cyclic(2 * n, gen))
    for lam in kernel_basis(torus.norm_matrix())[:3]:
        za = tn_iso(torus, lam)
        zb = tn_iso(big, lam)
        if any(zb(i) != za(i % n) for i in range(2 * n)):
            return Verdict(False, {"lambda": list(lam)},
                           {"samples": 0})
    dom_small = ZDomain(n, gen)
    dom_big = ZDomain(2 * n, gen)
    for i in range(samples):
        supp = {tuple(draws(rng, -bound, bound, 1)):
                tuple(draws(rng, -3, 3, r)) for _ in range(3)}
        mu_small = FiniteSupportChain(dom_small, 1, r, supp)
        mu_big = FiniteSupportChain(dom_big, 1, r, supp)
        if chain_map_phi(torus, mu_small) != chain_map_phi(big, mu_big):
            return Verdict(False, {"sample": i}, {"samples": i + 1})
    return Verdict(True, None, {"samples": samples})


def tn_bijective(torus):
    gm = torus.gmodule()
    Hm1 = tate_group(gm, -1)
    H1 = tate_group(gm, 1)
    images = {H1.classify(tn_iso(torus, Hm1.representative(c)))
              for c in Hm1.elements()}
    return Verdict(len(images) == Hm1.order == H1.order, {"order": Hm1.order})


def kottwitz_perfect(torus):
    """The pairing of Tate H^-1 with the characters of the torsion of the
    coinvariants is perfect: |H^-1| is the product of the orders of the
    generator duals of invariant_duals, no nonzero class pairs to zero with
    every generator (distinct rows), and no nonzero combination of the
    generators pairs to zero with every class."""
    Hm1 = tate_group(torus.gmodule(), -1)
    duals = invariant_duals(torus)
    reps = [Hm1.representative(c) for c in Hm1.elements()]
    # values[j][c]: the j-th generator dual at the c-th class, in Q/Z
    values = [[torus.dual_eval(s, lam) for lam in reps] for s in duals]
    orders = [lcm(1, *(q.den for q in s)) for s in duals]
    left = len(set(zip(*values))) == Hm1.order
    right = all(
        any(not sum((v * k for v, k in zip(col, combo)), QZ(0)).is_zero()
            for col in zip(*values))
        for combo in itertools.product(*map(range, orders)) if any(combo))
    return Verdict(prod(orders) == Hm1.order and left and right)


def langlands_edge(torus, phi):
    """The hyper pairing against (phi, 0) is the Langlands pairing."""
    fT = IntMatrix.zero(torus.rank, torus.rank)
    z0 = Cochain.zero(torus.gmodule(), 1)
    for v in invariant_vectors(torus):
        got = hyper_pairing(torus, fT, (z0, v), (phi, torus.dual_zero()))
        if got != langlands_character(torus, phi, v):
            return Verdict(False, {"vector": list(v)})
    return Verdict(True)


def kottwitz_edge(torus, z):
    """The hyper pairing of (z, 0) against (0, s) is the Kottwitz pairing."""
    fT = IntMatrix.zero(torus.rank, torus.rank)
    lam_z = tn_inverse(torus, z)
    dual_zero = Parameter(torus, torus.dual_zero())
    for s in invariant_duals(torus):
        got = hyper_pairing(torus, fT, (z, (0,) * torus.rank), (dual_zero, s))
        if got != torus.dual_eval(s, lam_z):
            return Verdict(False, {"dual": [encode_qz(q) for q in s]})
    return Verdict(True)


def sign_value(twist, xi):
    """The twisted sign of a case file's root datum and class."""
    try:
        return Verdict(True, {"sign": twisted_sign(twist, xi)})
    except ValueError as e:
        return Verdict(False, {"error": str(e)})


def sign_squares():
    """Every accepted twisted sign squares to one, over every class of the
    data A1, A2, A3, D4 and E6 with n = 2, with a trivial and with the
    diagram flip; classes the sign rejects are skipped.  The witness names
    the first failure."""
    signs = 0
    failure = None
    for label in ("A1", "A2", "A3", "D4", "E6"):
        d = BasedRootDatum.from_label(label)
        r = d.rank
        for ap in (tuple(range(r)), diagram_flip(label)):
            tw = TwistData(d, 2, tuple(range(r)), ap)
            for xi in tate_group(tw.xi_module(), 2).elements():
                try:
                    s = twisted_sign(tw, xi)
                except ValueError:
                    continue
                signs += 1
                if s * s != 1 and failure is None:
                    failure = {"label": label, "a_perm": list(ap),
                               "xi": list(xi), "sign": s}
    return Verdict(failure is None, failure, {"signs": signs})


def _a1_inner():
    return TwistData(BasedRootDatum.from_label("A1"), 2, (0,), (0,))


def a1_fixture():
    """The adjoint A1 inner form: its nontrivial class has sign -1, the
    rank formula's (-1)^(1 - 0)."""
    return Verdict(twisted_sign(_a1_inner(), (1,)) == -1 == (-1) ** (1 - 0))


def e6_flip_fixture():
    e6 = TwistData(BasedRootDatum.from_label("E6"), 3, tuple(range(6)),
                   diagram_flip("E6"))
    H2 = tate_group(e6.xi_module(), 2)
    return Verdict(all(twisted_sign(e6, c) == 1 for c in H2.elements()))


def product_induction(rng, samples):
    """Induction invariance and multiplicativity against the A1 inner form
    on random data of type A1, A2, A3 or D4 (with or without the diagram
    flip); data the sign rejects are redrawn.  Each datum is built once
    per call, at its first draw."""
    labels = ["A1", "A2", "A3", "D4"]
    a1 = _a1_inner()
    data = {}
    count = 0
    while count < samples:
        label = rng.choice(labels)
        flip = rng.random() < 0.5
        tw = data.get((label, flip))
        if tw is None:
            d = BasedRootDatum.from_label(label)
            ident = tuple(range(d.rank))
            tw = data[label, flip] = TwistData(
                d, 2, ident, diagram_flip(label) if flip else ident)
        xi = rng.choice(list(tate_group(tw.xi_module(), 2).elements()))
        try:
            e_base, e_ind = sign_induction(tw, xi, rng.choice((2, 3)))
            e1, e2, e12 = sign_product(tw, xi, a1, rng.choice([(0,), (1,)]))
        except ValueError:
            continue
        if e_base != e_ind or e12 != e1 * e2:
            return Verdict(False, {"samples": count, "label": label,
                                   "a_perm": list(tw.a_perm),
                                   "xi": list(xi)})
        count += 1
    return Verdict(True, {"samples": count})


def levi():
    """Levi compatibility on the A2 > A1 standard Levi."""
    a2 = TwistData(BasedRootDatum.from_label("A2"), 1, (0, 1), (0, 1))
    return Verdict(levi_restriction(a2, [0])["coinvariant_equal"])


def induced_automorphism_roundtrip(rng, samples):
    """Decomposing a reconstructed block automorphism of an induced module
    and reconstructing it again gives the same matrix, on random equivariant
    automorphisms: a random setup, normalizer element sigma0 and a' = +-1.
    Draws that are not equivariant are redrawn.  The witness names the
    first failing sample."""
    one, minus = IntMatrix.identity(1), IntMatrix([[-1]])
    C2, C4, C6 = (FiniteGroup.cyclic(n) for n in (2, 4, 6))
    # (Gamma, Delta, Delta's matrices on X, rank of X), index at most 4
    setups = [
        (C4, [0, 2], [one, minus], 1),
        (C4, [0, 2], [one] * 2, 1),
        (C6, [0, 2, 4], [one] * 3, 1),
        (C6, [0, 3], [one, minus], 1),
        (FiniteGroup.cyclic(8), [0, 2, 4, 6], [one, minus, one, minus], 1),
        (FiniteGroup.direct_product(C2, C2), [0, 1],
         [IntMatrix.identity(2), IntMatrix([[0, 1], [1, 0]])], 2),
    ]
    count = 0
    while count < samples:
        gamma, delta, sub, x_rank = setup = rng.choice(setups)
        act, cosets = induced_action(gamma, delta, sub)
        sigma0, = draws(rng, 0, gamma.order - 1, 1)
        dset = set(delta)
        if {gamma.conj(sigma0, d) for d in dset} != dset:
            continue
        ident = IntMatrix.identity(x_rank)
        a_pr = rng.choice([ident, -ident])
        a = reconstruct_induced_automorphism(gamma, delta, sub, cosets,
                                             sigma0, a_pr)
        if a * act.matrices[1] != act.matrices[1] * a:
            continue  # not equivariant for this sigma0
        witness = {"sample": count, "setup": setups.index(setup),
                   "sigma0": sigma0, "a_prime": a_pr.data[0][0]}
        try:
            s_out, a_out = decompose_induced_automorphism(
                gamma, delta, sub, act, cosets, x_rank, a)
        except ValueError as e:
            witness["error"] = str(e)
            return Verdict(False, witness, {"samples": count + 1})
        if reconstruct_induced_automorphism(gamma, delta, sub, cosets,
                                            s_out, a_out) != a:
            return Verdict(False, witness, {"samples": count + 1})
        count += 1
    return Verdict(True, None, {"samples": count})


def component_table(group, cache):
    table = cache.get_or_compute(group)
    return Verdict(table.verify(), {"dims": table.dims})


def orthogonality(ext, cache=None):
    """Twisted orthogonality for every psi-centralizing e and every e2 of
    the extension, psi the faithful character 1/m."""
    psi = QZ(1, ext.m)
    pairs = 0
    for e in range(ext.group.order):
        if not is_psi_centralizing(ext, psi, e):
            continue
        for e2 in range(ext.group.order):
            lhs, rhs, verdict = twisted_orthogonality(ext, psi, e, e2, cache)
            pairs += 1
            if verdict is False:
                return Verdict(False, {"pairs": pairs, "failure": [e, e2]})
    return Verdict(True, {"pairs": pairs})


def klein_four_pin(ext):
    """On the nontrivial extension of C2 x C2 by mu_2, exactly one
    irreducible has central character 1/2, it is two-dimensional, and
    twisted orthogonality at e = e2 = 1 sums to 4 = |Z_A(1)|."""
    psi = QZ(1, 2)
    lhs, _, verdict = twisted_orthogonality(ext, psi, 0, 0)
    table, sel = irr_with_central_char(ext, psi)
    return Verdict(bool(verdict) and lhs == Cyc.integer(4)
                   and [table.dims[i] for i in sel] == [2])


def scalar_datum(w):
    """J = C2 x C2 with A = C2 swapping the factors; pi the invariant
    character; intertwiner scalar w."""
    C2 = FiniteGroup.cyclic(2)
    J = FiniteGroup.direct_product(C2, C2)
    act = [list(range(4)), [0, 2, 1, 3]]
    chi = {0: QZ(0), 1: QZ(1, 2), 2: QZ(1, 2), 3: QZ(0)}
    pi = [CycMatrix([[Cyc.root(chi[j])]]) for j in range(4)]
    piT = [CycMatrix.identity(1), CycMatrix([[Cyc.root(w)]])]
    return InducedIntertwinerData(J, C2, act, [0, 0], pi, piT)


def corestriction(data, B, sub, end=0):
    """The induced cocycle equals the corestriction, entry by entry, with
    the section taking each coset's first (end=0) or last (end=-1) element."""
    section = {cs: cs[end] for cs in B.right_cosets(sub)}
    beta, cores, equal = induced_cocycle_check(data, B, sub, section)
    return Verdict(equal)


def block_twisted_traces(rng, samples, bound):
    """The block-twisted trace identity on random tuples of up to four
    square blocks of dimension up to three, entries in [-bound, bound]:
    per sample the block count, the dimension, then the entries of the
    blocks and of T, row by row, as one flat draw."""
    for i in range(samples):
        nblk, = draws(rng, 1, 4, 1)
        dim, = draws(rng, 1, 3, 1)
        flat = draws(rng, -bound, bound, (nblk + 1) * dim * dim)
        rows = [flat[j:j + dim] for j in range(0, len(flat), dim)]
        *phis, T = (IntMatrix(rows[j:j + dim])
                    for j in range(0, len(rows), dim))
        if not block_twisted_trace(phis, T)[2]:
            return Verdict(False, {"sample": i}, {"samples": i + 1})
    return Verdict(True, None, {"samples": samples})


def h_computed(case):
    return Verdict(True, {"h": {str(a): encode_qz(v)
                                for a, v in sorted(case.h.items())}})


def extension_isomorphism(case):
    """h(a) + h(b) - h(ab) = alpha-bar(a, b) - beta-bar(a, b) for every
    pair; the witness is the first failing pair."""
    iso = verify_iso(case)
    counts = {"pairs": len(iso)}
    for k, (lhs, rhs, equal) in iso.items():
        if not equal:
            return Verdict(False, {str(k): [encode_qz(lhs), encode_qz(rhs)]},
                           counts)
    return Verdict(True, {}, counts)


def packet_enumerated(case):
    pkt = packet(case)[0]
    return Verdict(True, {"dims": [p.dim for p in pkt],
                          "generic": [i for i, p in enumerate(pkt)
                                      if p.generic]})


def _identity_record(r):
    """The witness record of one character-identity report."""
    return {
        "element": [[str(x) for x in r.element[0]], r.element[1]],
        "dual": [[encode_qz(q) for q in r.dual_element[0]],
                 r.dual_element[1]],
        "rep": encode_cyc(r.rep_value),
        "closed": encode_cyc(r.closed_value),
        "endoscopic": encode_cyc(r.endoscopic_value),
    }


def character_identity(case):
    """Representation sum = closed form = endoscopic value for every
    stabilizer pair (a, b) over the test elements (the first two invariant
    duals and vectors), and all three vanish when b^-1 is not conjugate to
    a.  The witness keeps the first three nonzero values and the first
    failure."""
    A = case.A
    duals = invariant_duals(case.torus)[:2]
    tvecs = invariant_vectors(case.torus)[:2]
    triples = vanishing = 0
    samples = []
    failure = None
    for a in case.A_phi_z:
        conjugates = {A.mul(A.mul(c, a), A.inv(c)) for c in case.A_z}
        for b in case.A_phi_z:
            conjugable = A.inv(b) in conjugates
            for s in duals:
                for t in tvecs:
                    r = character_identity_report(case, s, b, t, a)
                    triples += 1
                    vanishing += not conjugable
                    if len(samples) < 3 and not r.rep_value.is_zero():
                        samples.append(_identity_record(r))
                    if failure is None and not (
                            r.all_equal
                            and (conjugable or r.rep_value.is_zero())):
                        failure = _identity_record(r)
    detail = {"checked": triples, "values": samples}
    if failure:
        detail["failure"] = failure
    return Verdict(failure is None, detail,
                   {"triples": triples, "vanishing": vanishing})


def random_cases(rng, count):
    """`count` seeded random cases."""
    for _ in range(count):
        torus, z, phi = random_case_data(rng)
        yield build_case(torus, z, phi)


def suite(rng, size):
    """The verdicts of suite.extension_isomorphism and
    suite.character_identity over `size` seeded random cases, drawn and
    checked one at a time, each case by both checks."""
    iso_ok = identity_ok = True
    triples = 0
    for case in random_cases(rng, size):
        iso_ok = extension_isomorphism(case).ok and iso_ok
        v = character_identity(case)
        identity_ok = v.ok and identity_ok
        triples += v.counts["triples"]
    return (Verdict(iso_ok, {"cases": size}),
            Verdict(identity_ok, {"triples": triples}))
