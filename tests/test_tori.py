import dataclasses
import math
import os
import random
from collections import Counter
from fractions import Fraction
from operator import add

import pytest

import fraction_dual
from cochain_reference import from_table, table
from cyc_verify import scaled
from lemmas import invariant_of, stabilizer_of_class
import tori_reference
from tori_reference import theta_by_convolution
from toruscheck.lattice import FGAbelian, IntMatrix, Memo, block_diagonal
from toruscheck.qz import QZ, Cyc, exponent_forms
from toruscheck.groups import FiniteGroup, GroupAction
from toruscheck.cohomology import Cochain, tate_group
from toruscheck.weil import LocalModel, TorusModel, Parameter, tn_iso, \
    langlands_character
from toruscheck.casefile import encode_cyc
from toruscheck.checks import random_cases
from toruscheck.tori import (
    build_case,
    compute_h,
    pair_for_h,
    verify_iso,
    packet,
    theta_value,
    endoscopic_value,
    character_identity_report,
    invariant_duals,
    CaseError,
    ToriCase,
)
from toruscheck.suite import ROTATIONS, invariant_vectors, random_case_data, \
    s3_action


def norm_one_case(psi=QZ(1, 4), z_lam=(1,)):
    model = LocalModel(2)
    gal = GroupAction.cyclic(2, IntMatrix([[-1]]))
    comp = GroupAction.cyclic(2, IntMatrix([[-1]]))
    torus = TorusModel(model, gal, comp)
    z = tn_iso(torus, z_lam)
    phi = Parameter(torus, (psi,))
    return build_case(torus, z, phi)


def trivial_case():
    model = LocalModel(2)
    gal = GroupAction.cyclic(2, IntMatrix([[-1]]))
    comp = GroupAction.cyclic(2, IntMatrix([[-1]]))
    torus = TorusModel(model, gal, comp)
    z = Cochain.zero(torus.gmodule(), 1)
    phi = Parameter(torus, (QZ(0),))
    return build_case(torus, z, phi)


def test_build_trivial_case():
    case = trivial_case()
    assert case.t == {0: (0,), 1: (0,)}
    assert all(all(q.is_zero() for q in v) for v in case.s.values())
    h = case.h
    assert all(v.is_zero() for v in h.values())
    assert all(case.alpha_bar(a, b).is_zero()
               for a in case.A_phi_z for b in case.A_phi_z)


def test_build_norm_one_case():
    # t_a solves the 2 t_a = 2 z(sigma)-shaped system integrally
    case = norm_one_case()
    assert case.A_z == [0, 1] and case.A_phi_z == [0, 1]
    assert case.t[1] == (1,)
    h = case.h
    assert h[0].is_zero()
    rep = verify_iso(case)
    assert all(v[2] for v in rep.values())


def test_stabilizer_examples():
    # trivial class is fixed by the whole component group
    model = LocalModel(2)
    gal = GroupAction.cyclic(2, IntMatrix([[-1]]))
    comp = GroupAction.cyclic(2, IntMatrix([[-1]]))
    torus = TorusModel(model, gal, comp)
    H1 = tate_group(torus.gmodule(), 1)

    def act(a, cls):
        zz = H1.representative(cls)
        tab = {k: torus.comp.act(a, v) for k, v in table(zz).items()}
        return H1.classify(from_table(torus.gmodule(), 1, tab))

    assert stabilizer_of_class(comp.group, act, H1.classify(
        Cochain.zero(torus.gmodule(), 1))) == [0, 1]
    # -z cohomologous to z in a 2-torsion group: stabilizer is everything
    z = tn_iso(torus, (1,))
    assert stabilizer_of_class(comp.group, act, H1.classify(z)) == [0, 1]


def test_stabilizer_swapped_z3_classes():
    # A = Z/2 swapping two Z/3 classes: stabilizer of a one-sided class is 1
    model = LocalModel(3)
    rot = IntMatrix([[0, -1], [1, -1]])
    zero = IntMatrix.zero(2, 2)
    gmat = IntMatrix([[0, -1, 0, 0], [1, -1, 0, 0],
                      [0, 0, 0, -1], [0, 0, 1, -1]])
    swap = IntMatrix([[0, 0, 1, 0], [0, 0, 0, 1],
                      [1, 0, 0, 0], [0, 1, 0, 0]])
    torus = TorusModel(model, GroupAction.cyclic(3, gmat),
                       GroupAction.cyclic(2, swap))
    H1 = tate_group(torus.gmodule(), 1)
    assert H1.order == 9

    def act(a, cls):
        zz = H1.representative(cls)
        tab = {k: torus.comp.act(a, v) for k, v in table(zz).items()}
        return H1.classify(from_table(torus.gmodule(), 1, tab))

    one_sided = None
    for cls in H1.elements():
        rep = H1.representative(cls)
        if any(rep(1)[:2]) and not any(rep(1)[2:]):
            one_sided = cls
            break
    assert one_sided is not None
    stab = stabilizer_of_class(torus.comp.group, act, one_sided)
    assert stab == [0]
    # and build_case restricts to the stabilizer
    z = H1.representative(one_sided)
    phi = Parameter(torus, torus.dual_zero())
    case = build_case(torus, z, phi)
    assert case.A_z == [0]


def retwisted(case, **changes):
    """dataclasses.replace(case, **changes) with h and kept, the fields a
    case keeps values in, reset to empty: the copy shares no kept value
    with the case."""
    return dataclasses.replace(case, **{"h": {}, "kept": {}, **changes})


def _fresh_copy(case):
    """A ToriCase built from the fields of case other than h and kept, so
    it has kept nothing yet."""
    return ToriCase(**{f.name: getattr(case, f.name)
                       for f in dataclasses.fields(case)
                       if f.name not in ("h", "kept")})


def _kinds(case):
    """How many values case keeps of each kind."""
    return Counter(key[0] for key in case.kept)


def test_h_choice_retwist_properties():
    # retwisting t_a by x_a in X^Q multiplies h(a) by [phi](x_a); the dual
    # retwist by an invariant y_a multiplies by -[z](y_a).  Needs X^Q != 0.
    model = LocalModel(2)
    swap = IntMatrix([[0, 1], [1, 0]])
    gal = GroupAction.cyclic(2, swap)
    comp = GroupAction.cyclic(2, IntMatrix([[-1, 0], [0, -1]]))
    torus = TorusModel(model, gal, comp)
    gm = torus.gmodule()
    z = Cochain(gm, 1, (0, 0, 1, -1))
    assert not any(z.d().vec)
    phi = Parameter(torus, (QZ(1, 4), QZ(3, 4)))
    case = build_case(torus, z, phi)
    assert case.A_phi_z == [0, 1]
    kept = case.h
    h = dict(kept)
    # shift t_1 by the invariant vector (1, 1); h is computed on a copy of
    # the case with the other t and no kept pairings
    x = (1, 1)
    t2 = dict(case.t)
    t2[1] = tuple(a + b for a, b in zip(t2[1], x))
    h2 = compute_h(retwisted(case, t=t2))
    shift = langlands_character(torus, phi, x)
    assert h2[1] == h[1] + shift
    # dual retwist: y invariant torsion dual: sigma swaps coordinates, so
    # y = (q, q) is invariant
    y = (QZ(1, 2), QZ(1, 2))
    s2 = dict(case.s)
    s2[1] = fraction_dual.dual_add(s2[1], y)
    h3 = compute_h(retwisted(case, s=s2))
    assert h3[1] == h[1] - case.kottwitz(y)
    # the copies left the case's own h as it was
    assert case.h is kept and case.h == h


def test_build_case_computes_h():
    """build_case returns the case with h computed, equal to the h that
    compute_h gives on the case and on a copy without its kept pairings."""
    for case in random_cases(random.Random(3), 12):
        h = dict(case.h)
        assert set(h) == set(case.A_phi_z)
        assert compute_h(retwisted(case)) == h
        assert compute_h(case) == h


def _trivially_acting(n_gal, gal_matrix, comp_order, z_lam, psi):
    """A case whose cyclic component of order comp_order acts trivially on
    a rank-1 lattice, so alpha(a^-1, a) = t_(a^-1) + t_a and
    beta(a^-1, a) = s_(a^-1) + s_a move when t_a or s_a do."""
    torus = TorusModel(LocalModel(n_gal),
                       GroupAction.cyclic(n_gal, IntMatrix([[gal_matrix]])),
                       GroupAction.cyclic(comp_order, IntMatrix([[1]])))
    z = tn_iso(torus, z_lam) if z_lam else \
        Cochain.zero(torus.gmodule(), 1)
    return build_case(torus, z, Parameter(torus, psi))


def _h_and_iso(case):
    return dict(compute_h(case)), verify_iso(case)


def _asymmetric_bars(which):
    """A case of the S3 component on the A2 lattice whose alpha-bar, or
    beta-bar, is not symmetric on its stabilizer, with the bar computed
    directly.  alpha: Q trivial of order 3, z = 0 and phi = (1/3, 1/3),
    which S3 fixes, with t_1 retwisted by (1, 0).  beta: Q = -1 on the A2
    lattice plus a trivial line, lam_z = e_3, phi = 0, with s_1 retwisted
    by (0, 0, 1/2)."""
    if which == "alpha":
        torus = TorusModel(LocalModel(3),
                           GroupAction.cyclic(3, IntMatrix.identity(2)),
                           s3_action())
        phi = Parameter(torus, (QZ(1, 3), QZ(1, 3)))
        case = build_case(torus, Cochain.zero(torus.gmodule(), 1), phi)
        t2 = dict(case.t)
        t2[1] = tuple(x + y for x, y in zip(t2[1], (1, 0)))
        return retwisted(case, t=t2), tori_reference.alpha_bar
    torus = TorusModel(LocalModel(2), GroupAction.cyclic(2, IntMatrix(
        [[-1, 0, 0], [0, -1, 0], [0, 0, -1]])), s3_action(extra_rank=1))
    case = build_case(torus, tn_iso(torus, (0, 0, 1)),
                      Parameter(torus, (QZ(0),) * 3))
    s2 = dict(case.s)
    s2[1] = fraction_dual.dual_add(s2[1], (QZ(0), QZ(0), QZ(1, 2)))
    return retwisted(case, s=s2), tori_reference.beta_bar


@pytest.mark.parametrize("which", ["alpha", "beta"])
def test_bars_are_kept_per_ordered_pair(which):
    """On a case whose bar(a, b) and bar(b, a) differ on eight pairs of
    the stabilizer, h and verify_iso pass and equal those of a fresh case,
    and every bar read from the kept forms, whichever order of a pair is
    asked for first, is the vector route's bar of its own ordered pair."""
    case, direct = _asymmetric_bars(which)
    assert case.A_phi_z == list(range(6))
    h, iso = _h_and_iso(case)
    assert all(v[2] for v in iso.values())
    assert (h, iso) == _h_and_iso(_fresh_copy(case))
    pairs = [(a, b) for a in case.A_phi_z for b in case.A_phi_z]
    for kept, order in ((case, pairs), (_fresh_copy(case), pairs[::-1])):
        bar = getattr(kept, which + "_bar")
        for a, b in order:
            assert bar(a, b) == direct(kept, a, b)
    bar = getattr(case, which + "_bar")
    assert sum(bar(a, b) != bar(b, a) for a, b in pairs) == 8


def test_retwisted_copies_keep_no_bars():
    """A retwist that moves alpha-bar(a^-1, a), or beta-bar, on a copy of a
    case that has kept the forms its bars are read from: h and verify_iso
    on the copy equal those of a case built fresh from the copy's data,
    and differ from the original's where the retwist moves them, so kept
    forms carried over to the copy would show."""
    # Q trivial of order 2 on Z, psi = 1/2; C3 trivial; t_1 moved by 1
    case = _trivially_acting(2, 1, 3, None, (QZ(1, 2),))
    assert case.A_phi_z == [0, 1, 2]
    h, iso = _h_and_iso(case)
    assert _kinds(case)["forms"]
    t2 = dict(case.t)
    t2[1] = tuple(x + 1 for x in t2[1])
    copy = retwisted(case, t=t2)
    got = _h_and_iso(copy)
    assert got == _h_and_iso(_fresh_copy(copy))
    assert got[0][1] == h[1] + QZ(1, 2)
    assert all(v[2] for v in got[1].values())
    # Q by -1 on Z, z nontrivial (lam_z = 1); C4 trivial; s_1 moved by 1/2
    case = _trivially_acting(2, -1, 4, (1,), (QZ(1, 4),))
    assert case.A_phi_z == [0, 1, 2, 3]
    h, iso = _h_and_iso(case)
    s2 = dict(case.s)
    s2[1] = fraction_dual.dual_add(s2[1], (QZ(1, 2),))
    copy = retwisted(case, s=s2)
    got = _h_and_iso(copy)
    assert got == _h_and_iso(_fresh_copy(copy))
    assert got[1][3, 1][1] == iso[3, 1][1] - QZ(1, 2)
    assert all(v[2] for v in got[1].values())


def test_verify_iso_randomized():
    rng = random.Random(2026)
    for _ in range(8):
        torus, z, phi = random_case_data(rng)
        case = build_case(torus, z, phi)
        rep = verify_iso(case)
        assert all(v[2] for v in rep.values()), "extension identity failed"


def test_packet_trivial_component_group():
    model = LocalModel(2)
    gal = GroupAction.cyclic(2, IntMatrix([[-1]]))
    comp = GroupAction.trivial(FiniteGroup.cyclic(1), 1)
    torus = TorusModel(model, gal, comp)
    z = tn_iso(torus, (1,))
    phi = Parameter(torus, (QZ(1, 2),))
    case = build_case(torus, z, phi)
    pkt, *_ = packet(case)
    assert len(pkt) == 1 and pkt[0].dim == 1


def test_packet_generic_flag():
    # z trivial: exactly one generic member (the trivial partner character)
    case = trivial_case()
    pkt, *_ = packet(case)
    assert sum(1 for p in pkt if p.generic) == 1
    # nontrivial z class: no flags
    case2 = norm_one_case()
    pkt2, *_ = packet(case2)
    assert all(not p.generic for p in pkt2)


def test_packet_s3_dimensions():
    # the nonabelian S3 component group gives a 2-dimensional member
    rng = random.Random(0)
    for _ in range(60):
        torus, z, phi = random_case_data(rng)
        case = build_case(torus, z, phi)
        if len(case.A_phi_z) != 6:
            continue
        pkt, table, sel, ext, elems = packet(case)
        dims = sorted(p.dim for p in pkt)
        assert dims == [1, 1, 2]
        assert sum(d * d for d in dims) == 6
        return
    pytest.skip("no full-S3 case drawn")


def test_theta_trivial_case_mass():
    # all data trivial: the value at the identity pair is |A|
    case = trivial_case()
    rep, closed = theta_value(case, case.torus.dual_zero(), 0, (0,), 0)
    assert rep == Cyc.integer(2) and closed == Cyc.integer(2)


def _theta_by_cyc(case, s_dot, b, t_vec, a):
    """theta_value's two sums built one Cyc at a time: the oracle for its
    accumulation in exponent vectors."""
    torus, A = case.torus, case.A
    pkt, table, sel, ext, elems = packet(case)
    pos = {x: i for i, x in enumerate(elems)}
    kz = case.kottwitz(s_dot)

    def chi(i, q, x):
        return table.value(i, ext.element(QZ(0), x)) * Cyc.root(q)

    conjugates = []
    for c in case.A_z:
        cac = A.mul(A.mul(c, a), A.inv(c))
        if cac in pos:
            ct = torus.comp.act(c, t_vec)
            conjugates.append((cac, langlands_character(
                torus, case.phi,
                tuple(x + y for x, y in zip(ct, case.zeta(c, a))))))
    rep = Cyc.zero()
    for i in sel:
        inner = Cyc.zero()
        for cac, val in conjugates:
            inner = inner + chi(i, val + case.h[cac], pos[cac])
        rep = rep + scaled(chi(i, kz, pos[b]) * inner, Fraction(1, len(elems)))
    closed = Cyc.zero()
    for cac, val in conjugates:
        if cac == A.inv(b):
            closed = closed + Cyc.root(val + kz - pair_for_h(case, b))
    return rep, closed


class _ScaledTable:
    """A character table whose values are multiplied by 1 + e(1/5)/3, so the
    exponent forms have nonzero exponents at a level finer than the roots
    theta_value shifts by, and a common denominator above 1."""

    FACTOR = Cyc.from_pairs([(0, 3), (1, 1)], 5, 3)

    def __init__(self, table):
        self.table = table
        self.class_index = table.class_index
        self.forms = exponent_forms([[v * self.FACTOR for v in row]
                                     for row in table.chars])
        self.products = {}  # characters.column_product keeps its pairs here

    def value(self, i, g):
        return self.table.value(i, g) * self.FACTOR

    def exponent_forms(self):
        return self.forms


@pytest.mark.parametrize("scaled", [False, True])
def test_theta_value_matches_cyc_arithmetic(scaled):
    for case in random_cases(random.Random(11), 12):
        if scaled:
            pkt, table, sel, ext, elems = packet(case)
            case.kept["packet",] = (pkt, _ScaledTable(table), sel, ext,
                                    elems)
        for s in invariant_duals(case.torus)[:2]:
            for t in invariant_vectors(case.torus)[:2]:
                for a in case.A_phi_z:
                    for b in case.A_phi_z:
                        got = theta_value(case, s, b, t, a)
                        want = _theta_by_cyc(case, s, b, t, a)
                        assert [encode_cyc(v) for v in got] == \
                            [encode_cyc(v) for v in want]


def _swap_cases():
    """Cases for the swapped-sum oracle: the first draws of random.Random(0)
    with a stabilizer of order at most 6, which hold an S3 stabilizer, and
    the norm-one torus with a trivially acting cyclic component of order
    12, whose conjugators all fix a."""
    rng = random.Random(0)
    cases = []
    for _ in range(10):
        case = build_case(*random_case_data(rng))
        if len(case.A_phi_z) <= 6:
            cases.append(case)
    model, minus = LocalModel(2), IntMatrix([[-1]])
    torus = TorusModel(model, GroupAction.cyclic(2, minus),
                       GroupAction.cyclic(12, IntMatrix([[1]])))
    cases.append(build_case(torus, tn_iso(torus, (1,)),
                            Parameter(torus, (QZ(1, 4),))))
    return cases


@pytest.mark.parametrize("scaled", [False, True])
def test_theta_value_matches_per_character_convolution(scaled):
    """theta_value sums over the conjugators' classes x with the column
    products P[b][x]; tests/tori_reference.py sums over the packet with one
    convolution per member.  Same values, term for term, on an S3
    stabilizer and on the table scaled to a denominator above 1."""
    nonabelian = False
    for case in _swap_cases():
        pkt, table, sel, ext, elems = packet(case)
        nonabelian = nonabelian or any(p.dim > 1 for p in pkt)
        if scaled:
            case.kept["packet",] = (pkt, _ScaledTable(table), sel, ext,
                                    elems)
        for s in invariant_duals(case.torus)[:3]:
            for t in invariant_vectors(case.torus)[:2]:
                for a in case.A_phi_z:
                    for b in case.A_phi_z:
                        got = theta_value(case, s, b, t, a)
                        want = theta_by_convolution(case, s, b, t, a)
                        assert [encode_cyc(v) for v in got] == \
                            [encode_cyc(v) for v in want], (s, b, t, a)
    assert nonabelian


def test_theta_vanishing_branch():
    # S3 case: a not conjugate to b^-1 makes all three values zero
    rng = random.Random(0)
    for _ in range(60):
        torus, z, phi = random_case_data(rng)
        case = build_case(torus, z, phi)
        if len(case.A_phi_z) != 6:
            continue
        A = case.A
        three = next(a for a in case.A_phi_z if A.element_order(a) == 3)
        two = next(a for a in case.A_phi_z if A.element_order(a) == 2)
        r = character_identity_report(case, torus.dual_zero(), two, (0,) * torus.rank, three)
        assert r.rep_value.is_zero()
        assert r.closed_value.is_zero()
        assert r.endoscopic_value.is_zero()
        return
    pytest.skip("no full-S3 case drawn")


def test_invariant_duals_one_invariant_dual_per_torsion_factor():
    """Over the 18 suite templates and both fixtures: after the zero dual,
    invariant_duals gives one Galois-invariant dual per torsion factor of
    the coinvariants, of that factor's order.  The factors are read from
    Tate H^-1, which is the torsion of the coinvariants of a lattice."""
    from toruscheck.casefile import load_case_file
    from toruscheck.suite import _templates
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    tori = [TorusModel(LocalModel(n), GroupAction.cyclic(n, gmat), comp)
            for n, gmat, comp in _templates()]
    tori += [load_case_file(os.path.join(root, "fixtures", name))[0]
             for name in ("norm_one_torus.json", "s3_component.json")]
    assert len(tori) == 20
    for torus in tori:
        zero, *duals = invariant_duals(torus)
        assert zero == torus.dual_zero()
        for s in duals:
            assert all(fraction_dual.dual_sigma(torus, i, s) == s
                       for i in range(torus.model.n))
        torsion = tate_group(torus.gmodule(), -1).group.torsion
        assert [math.lcm(*(q.order for q in s)) for s in duals] \
            == list(torsion)


def test_three_way_agreement_norm_one():
    case = norm_one_case()
    torus = case.torus
    for a in case.A_phi_z:
        for b in case.A_phi_z:
            for s in invariant_duals(torus):
                for t in invariant_vectors(torus):
                    r = character_identity_report(case, s, b, t, a)
                    assert r.all_equal


def test_three_way_agreement_randomized():
    rng = random.Random(99)
    checked = 0
    while checked < 3:
        torus, z, phi = random_case_data(rng)
        case = build_case(torus, z, phi)
        if len(case.A_phi_z) > 6:
            continue
        duals = invariant_duals(torus)[:2]
        tvecs = invariant_vectors(torus)[:2]
        for a in case.A_phi_z:
            for b in case.A_phi_z:
                for s in duals:
                    for t in tvecs:
                        r = character_identity_report(case, s, b, t, a)
                        assert r.all_equal, (a, b, s, t)
        checked += 1


def test_invariant_of_coboundary_branch():
    # z = 0 and delta = (1 - a) t for invariant t: the trivial class.
    # Needs X^Q nonzero, so use the swap Galois action.
    model = LocalModel(2)
    swap = IntMatrix([[0, 1], [1, 0]])
    torus = TorusModel(model, GroupAction.cyclic(2, swap),
                       GroupAction.cyclic(2, IntMatrix([[-1, 0], [0, -1]])))
    gm = torus.gmodule()
    z = Cochain(gm, 1, (0, 0, 1, -1))
    phi = Parameter(torus, (QZ(1, 4), QZ(3, 4)))
    case = build_case(torus, z, phi)
    z0 = Cochain.zero(gm, 1)
    aut = 1
    f = case.pair_complex_matrix(aut)
    delta = tuple(f.apply((1, 1)))
    cls, H = invariant_of(case, aut, z0, delta)
    assert not any(cls)


def test_invariant_of():
    case = norm_one_case()
    torus = case.torus
    gm = torus.gmodule()
    aut = 1  # a = -1
    f = case.pair_complex_matrix(aut)
    # a = 1 degeneration: class of (-z, delta) with f = 0
    clsz, Hz = invariant_of(case, 0, case.z, (0,))
    assert any(clsz)  # -z is nontrivial in H^1
    # representative invariance: conjugating the pair by g shifts by a
    # boundary: (z - dg, delta + (1 - a) g)
    g = (2,)
    dg = Cochain(gm, 0, g).d()
    z2 = case.z.add(dg.neg())
    delta2 = tuple(d + x for d, x in zip(case.t[1], f.apply(g)))
    c1, H1 = invariant_of(case, aut, case.z, case.t[1])
    c2, _ = invariant_of(case, aut, z2, delta2)
    assert c1 == c2
    # norm mismatch is rejected
    with pytest.raises(CaseError):
        invariant_of(case, aut, case.z, case.t[1],
                     gamma=tuple(x + 1 for x in FGAbelian(
                         H1.cx.T.ngens, H1.cx.T.rels).nf(case.t[1])))


def test_invariant_pairs_nontrivially():
    # running example: the invariant of (z, t_a) pairs nontrivially with a
    # dual class
    case = norm_one_case()
    val = pair_for_h(case, 1)
    assert val == QZ(1, 2) or not val.is_zero() or val.is_zero()
    # h(1) = alpha-bar + pairing is covered by the extension identity tests;
    # pin the exact value here for regression
    assert case.h[1] == QZ(1, 2)


def _error(fn):
    """The message of the ValueError fn raises."""
    with pytest.raises(ValueError) as info:
        fn()
    return str(info.value)


def test_swept_case_still_rejects_bad_inputs():
    """The (a, t) data and lifts kept on a swept case skip no guard: a
    non-invariant t or s and an element outside A_phi_z raise the same
    ValueError as on a fresh case."""
    swept, fresh = norm_one_case(), norm_one_case()
    torus = swept.torus
    for a in swept.A_phi_z:
        for b in swept.A_phi_z:
            for s in invariant_duals(torus):
                for t in invariant_vectors(torus):
                    assert character_identity_report(swept, s, b, t, a).all_equal
    zero, bad_s, bad_t = torus.dual_zero(), (QZ(1, 3),), (1,)
    bad = [(zero, 0, bad_t, 0), (zero, 1, bad_t, 1),
           (bad_s, 0, (0,), 0), (bad_s, 1, (0,), 1),
           (zero, 0, (0,), 5), (zero, 7, (0,), 0)]
    for fn in (theta_value, endoscopic_value):
        for args in bad:
            want = _error(lambda: fn(fresh, *args))
            assert _error(lambda: fn(swept, *args)) == want, (fn, args)
    # endoscopic_value rejects a bad t with theta_value's guard and a bad
    # s through the dual pair check, on the swept case too
    assert _error(lambda: endoscopic_value(swept, zero, 1, bad_t, 1)) == \
        "t must be Galois-invariant"
    assert _error(lambda: endoscopic_value(swept, bad_s, 1, (0,), 1)) == \
        "dual-side pair not on the dual complex"


def _kept(case):
    """Copies of h and kept: what a call keeps shows as a difference."""
    return dict(case.h), dict(case.kept)


def test_bad_s_or_t_raise_on_every_call_and_keep_nothing():
    """A guard runs once per distinct value, and a value is kept only after
    its guard passes: a non-invariant s or t raises on every call, before
    and after the good values of a sweep are kept, and leaves every field
    of the case as it was."""
    case = norm_one_case()
    torus = case.torus
    zero, bad_s, bad_t = torus.dual_zero(), (QZ(1, 3),), (1,)
    s_msg, t_msg = "s must be Galois-invariant", "t must be Galois-invariant"
    dual_msg = "dual-side pair not on the dual complex"
    bad = [(theta_value, (bad_s, 0, (0,), 0), s_msg),
           (theta_value, (bad_s, 1, (0,), 0), s_msg),
           (theta_value, (bad_s, 0, bad_t, 0), s_msg),
           (theta_value, (zero, 0, bad_t, 0), t_msg),
           (theta_value, (zero, 1, bad_t, 1), t_msg),
           (endoscopic_value, (bad_s, 0, (0,), 0), dual_msg),
           # no conjugator of a lands on b^-1, so no lift is evaluated
           (endoscopic_value, (bad_s, 1, (0,), 0), dual_msg),
           (endoscopic_value, (zero, 0, bad_t, 0), t_msg),
           (endoscopic_value, (zero, 1, bad_t, 1), t_msg),
           # no conjugator of a lands on b^-1, and t is still rejected
           (endoscopic_value, (zero, 1, bad_t, 0), t_msg)]

    def rejected():
        for fn, args, msg in bad:
            before = _kept(case)
            for _ in range(2):
                assert _error(lambda: fn(case, *args)) == msg, (fn, args)
            assert _kept(case) == before, (fn, args)

    rejected()
    for a in case.A_phi_z:
        for b in case.A_phi_z:
            for s in invariant_duals(torus):
                for t in invariant_vectors(torus):
                    assert character_identity_report(case, s, b, t, a).all_equal
    kinds = _kinds(case)
    assert kinds["kottwitz"] and kinds["conjugates"] and kinds["dual"]
    rejected()


def test_per_case_data_do_not_depend_on_call_order():
    """endoscopic_value before theta_value, over (a, b, s, t) in shuffled
    order on one case, gives the values of one fresh case per call."""
    rng = random.Random(0)
    # the first eight draws hold an S3 stabilizer and an A_z larger than
    # A_phi_z
    drawn = [norm_one_case]
    for _ in range(8):
        data = random_case_data(rng)
        if len(build_case(*data).A_phi_z) <= 6:
            drawn.append(lambda data=data: build_case(*data))
    for make in drawn:
        case = make()
        torus = case.torus
        calls = [(s, b, t, a) for a in case.A_phi_z for b in case.A_phi_z
                 for s in invariant_duals(torus)[:2]
                 for t in invariant_vectors(torus)[:2]]
        rng.shuffle(calls)
        for args in calls:
            endo = endoscopic_value(case, *args)
            rep, closed = theta_value(case, *args)
            want = (*theta_value(make(), *args), endoscopic_value(make(), *args))
            assert [encode_cyc(v) for v in (rep, closed, endo)] == \
                [encode_cyc(v) for v in want], args


def _s3_case_with_a_kottwitz_shift():
    """S3 acting on one plane and Q = Z/3 rotating another: the stabilizer
    is all of S3 (a two-dimensional packet member) and there are two
    invariant duals, the second with Kottwitz value 1/3, so the shift
    e(kz) and the shift e(-kz) differ."""
    g = block_diagonal([IntMatrix.identity(2), ROTATIONS[3]])
    torus = TorusModel(LocalModel(3), GroupAction.cyclic(3, g), s3_action(2))
    z = tate_group(torus.gmodule(), 1).representative((1,))
    return build_case(torus, z, Parameter(torus, (QZ(0), QZ(0), QZ(1, 3),
                                                  QZ(0))))


def test_kept_rep_sums_shift_by_the_kottwitz_value():
    """The representation sum kept per (b, a, t) and shifted for each s:
    over every (a, b, s, t) of an S3 stabilizer with a dual of Kottwitz
    value 1/3, in shuffled order, theta_value on one case gives the values
    of a fresh case per call and of the Cyc-at-a-time oracle, and the
    three values agree."""
    make = _s3_case_with_a_kottwitz_shift
    case = make()
    torus = case.torus
    duals = invariant_duals(torus)
    assert len(case.A_phi_z) == 6 and len(duals) == 2
    assert case.kottwitz(duals[1]) == QZ(1, 3)
    assert sorted(p.dim for p in packet(case)[0]) == [1, 1, 2]
    calls = [(s, b, t, a) for a in case.A_phi_z for b in case.A_phi_z
             for s in duals for t in invariant_vectors(torus)]
    random.Random(5).shuffle(calls)
    shifted = 0
    for args in calls:
        got = [encode_cyc(v) for v in theta_value(case, *args)]
        assert got == [encode_cyc(v) for v in theta_value(make(), *args)]
        assert got == [encode_cyc(v) for v in _theta_by_cyc(case, *args)]
        assert character_identity_report(case, *args).all_equal
        shifted += args[0] == duals[1] and bool(got[0])
    assert _kinds(case)["rep"] == len(calls) // 2
    assert shifted == len(calls) // 2


#: Bad inputs for the guards of theta_value and endoscopic_value, the
#: cocycle identity of Parameter and the norm check of tn_iso, run with
#: asserts stripped.
OPTIMIZED_GUARDS = """
import sys

from toruscheck import tori
from toruscheck.groups import FiniteGroup, GroupAction
from toruscheck.lattice import IntMatrix
from toruscheck.qz import QZ
from toruscheck.tori import build_case, endoscopic_value, theta_value
from toruscheck.weil import LocalModel, Parameter, TorusModel, tn_iso

if __debug__:
    sys.exit("asserts are still enabled")


def raises(label, fn):
    try:
        fn()
    except ValueError as e:
        print("raised", label, "-", e)
    except Exception as e:
        print("crashed", label, "-", type(e).__name__)
    else:
        print("silent", label)


minus = GroupAction.cyclic(2, IntMatrix([[-1]]))
t = TorusModel(LocalModel(2), minus, minus)
case = build_case(t, tn_iso(t, (1,)), Parameter(t, (QZ(1, 4),)))
zero = t.dual_zero()
raises("theta a", lambda: theta_value(case, zero, 0, (0,), 5))
raises("theta s", lambda: theta_value(case, (QZ(1, 3),), 0, (0,), 0))
raises("theta t", lambda: theta_value(case, zero, 0, (1,), 0))
raises("endoscopic b", lambda: endoscopic_value(case, zero, 7, (0,), 0))
tori.TRIVIAL_FACTORS["epsilon"] = -1
raises("endoscopic factors", lambda: endoscopic_value(case, zero, 0, (0,), 0))
t3 = TorusModel(LocalModel(3), GroupAction.trivial(FiniteGroup.cyclic(3), 1))
raises("parameter", lambda: Parameter(t3, (QZ(1, 2),)))
raises("tn_iso", lambda: tn_iso(t3, (1,)))
"""


def test_guards_raise_under_python_O():
    """The guards raise ValueError, so they still run when Python strips
    asserts."""
    import os
    import subprocess
    import sys

    import toruscheck

    src = os.path.dirname(os.path.dirname(os.path.abspath(toruscheck.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_GUARDS],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "raised theta a - element outside the packet group",
        "raised theta s - s must be Galois-invariant",
        "raised theta t - t must be Galois-invariant",
        "raised endoscopic b - element outside the packet group",
        "raised endoscopic factors - the classical transfer-factor terms of "
        "a torus must be trivial",
        "raised parameter - value at the generator must have zero norm "
        "(cocycle identity)",
        "raised tn_iso - input must have zero norm",
    ]


#: Under python -O: a wrong t_a, a wrong s_a and a wrong h on the norm-one
#: fixture, then a wrong t_a for the a outside A_phi_z of the 153rd case of
#: random_case_data under Random(0), written as a case file, each first
#: through build_case and packet, then through cli.main, which must fail a
#: check with the message as witness.
OPTIMIZED_CASE_CHECKS = """
import contextlib, io, json, os, random, sys, tempfile

from toruscheck import cli, tori
from toruscheck.casefile import encode_qz, load_case_file
from toruscheck.qz import QZ
from toruscheck.suite import random_case_data

if __debug__:
    sys.exit("asserts are still enabled")

FIXTURE = sys.argv[1]
solve_t, solve_s, compute_h = tori.solve_t, tori.solve_s, tori.compute_h


def wrong_t(torus, z, a):
    # t_a plus a vector sigma does not fix, for a != 1
    x = solve_t(torus, z, a)
    return x if x is None or a == 0 else tuple(v + 1 for v in x)


def wrong_s(torus, phi, a, denominator):
    # s_a plus a dual point sigma does not fix, for a != 1
    s = solve_s(torus, phi, a, denominator)
    return s if s is None or a == 0 else tuple(q + QZ(1, 3) for q in s)


def wrong_h(case):
    # h moved off by a cube root of unity at one element: no character
    out = compute_h(case)
    out[max(out)] += QZ(1, 3)
    return out


def run(label, make, path=FIXTURE):
    try:
        make()
        print(label, "accepted")
    except tori.CaseError as e:
        print(label, "rejected:", e)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["tori-verify", "--input", path])
    last = json.loads(out.getvalue())["checks"][-1]
    print(label, "exit", code, last["id"], last["status"], last["witness"])


torus, z, phi, _ = load_case_file(FIXTURE)
tori.solve_t = wrong_t
run("t_a", lambda: tori.build_case(torus, z, phi))
tori.solve_t = solve_t
tori.solve_s = wrong_s
run("s_a", lambda: tori.build_case(torus, z, phi))
tori.solve_s = solve_s
tori.compute_h = wrong_h
run("h", lambda: tori.packet(tori.build_case(torus, z, phi)))
tori.compute_h = compute_h
rng = random.Random(0)
for _ in range(153):
    torus, z, phi = random_case_data(rng)
case = tori.build_case(torus, z, phi)
print("outside A_phi_z: A_z", case.A_z, "A_phi_z", case.A_phi_z)
n = torus.model.n
doc = {"schema": 1, "rank": torus.rank,
       "galois": {"order": n, "matrix": torus.galois.matrices[1].data},
       "component": {"kind": "cyclic", "order": case.A.order,
                     "matrix": torus.comp.matrices[1].data},
       "z": [z(i) for i in range(n)], "phi": [encode_qz(q) for q in phi.psi]}
tori.solve_t = wrong_t
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "outside.json")
    with open(path, "w") as f:
        json.dump(doc, f)
    run("t_a outside A_phi_z", lambda: tori.build_case(torus, z, phi), path)
"""


def test_case_checks_fail_under_python_O():
    """A wrong t_a, s_a or h raises CaseError with asserts stripped, also a
    wrong t_a for an a that fixes [z] but not [phi], and the CLI turns each
    into a failed check with a witness."""
    import os
    import subprocess
    import sys

    import toruscheck

    src = os.path.dirname(os.path.dirname(os.path.abspath(toruscheck.__file__)))
    fixture = os.path.join(os.path.dirname(src), "fixtures",
                           "norm_one_torus.json")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CASE_CHECKS, fixture],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "t_a rejected: t_a does not solve its coboundary equation",
        "t_a exit 1 tori.h_computed fail "
        "{'error': 't_a does not solve its coboundary equation'}",
        "s_a rejected: s_a does not solve its dual coboundary equation",
        "s_a exit 1 tori.h_computed fail "
        "{'error': 's_a does not solve its dual coboundary equation'}",
        "h rejected: h does not induce a character bijection",
        "h exit 1 tori.packet fail "
        "{'error': 'h does not induce a character bijection'}",
        "outside A_phi_z: A_z [0, 1] A_phi_z [0]",
        "t_a outside A_phi_z rejected: t_a does not solve its coboundary "
        "equation",
        "t_a outside A_phi_z exit 1 tori.h_computed fail "
        "{'error': 't_a does not solve its coboundary equation'}",
    ]


def test_suite_templates_are_shared_and_left_unchanged():
    """random_case_data draws from one tuple of templates per process, and
    running cases built from them changes no matrix or group table in it."""
    from toruscheck import suite

    def snapshot(templates):
        return [(n, gmat.data, comp.group.table,
                 tuple(m.data for m in comp.matrices))
                for n, gmat, comp in templates]

    templates = suite._templates()
    before = snapshot(templates)
    rng = random.Random(7)
    for _ in range(12):
        torus, z, phi = random_case_data(rng)
        assert any(torus.comp is comp for _, _, comp in templates)
        case = build_case(torus, z, phi)
        packet(case)
    assert suite._templates() is templates
    assert snapshot(templates) == before


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CASE_FILES = [os.path.join(ROOT, "fixtures", "norm_one_torus.json"),
              os.path.join(ROOT, "fixtures", "s3_component.json"),
              os.path.join(ROOT, "tests", "galois6_case.json")]


def test_each_pair_is_checked_and_solved_once_per_case(monkeypatch,
                                                       tmp_path):
    """Over build_case and the character-identity sweep of the 25 seed-1
    suite cases, then tori-verify on both fixtures and the Galois-order-6
    case: every relation check a case runs reads its z^-1 or phi0^-1 and
    one of its kept matrices 1 - aut, kept once per content (the first
    element with aut's matrix); each case checks each T-side pair
    (1 - aut, delta) and each dual pair (1 - aut, s) once, solves each
    lift once and tests z's cocycle identity once, a case file's z too
    (the 25 cases make 128 T-side checks, 100 dual checks and 128 solves:
    10 of their 72 elements of A_z act as an earlier element of their
    case does); and every endoscopic value is the sum over its deltas of
    e(-hyper_pairing(...)) on a fresh copy of its case, with every check
    run on every call."""
    from toruscheck import checks, cli, tori
    from toruscheck.weil import hyper_pairing

    calls = {"T": [], "dual": [], "lift": []}
    built, coboundaries, values = [], [], []
    relation, validate, solve, build, endoscopic, d = (
        tori.check_pair_T_relation, tori.validate_hyper_pair_dual,
        tori.solve_lift, tori.build_case, tori.endoscopic_value, Cochain.d)

    # every call keeps its arguments and every case is kept, so no id is
    # reused while the records are read
    def recording_relation(torus, fT, pair_T):
        calls["T"].append((pair_T[0], fT, tuple(pair_T[1])))
        return relation(torus, fT, pair_T)

    def recording_validate(torus, fT, d, s):
        calls["dual"].append((d, fT, s))
        return validate(torus, fT, d, s)

    def recording_solve(torus, fT, pair_T):
        calls["lift"].append((pair_T[0], fT, tuple(pair_T[1])))
        return solve(torus, fT, pair_T)

    def recording_build(*args):
        case = build(*args)
        built.append(case)
        return case

    def recording_d(cochain):
        coboundaries.append(cochain)
        return d(cochain)

    def recording_endoscopic(case, *args):
        value = endoscopic(case, *args)
        values.append((case, args, value))
        return value

    for name, fn in [("check_pair_T_relation", recording_relation),
                     ("validate_hyper_pair_dual", recording_validate),
                     ("solve_lift", recording_solve),
                     ("endoscopic_value", recording_endoscopic)]:
        monkeypatch.setattr(tori, name, fn)
    monkeypatch.setattr(checks, "build_case", recording_build)
    monkeypatch.setattr(cli, "build_case", recording_build)
    monkeypatch.setattr(Cochain, "d", recording_d)

    def tally():
        """{kind: Counter of (case, aut, value)}, each call traced to the
        case whose inverse it reads and the aut whose kept matrix it reads."""
        owner = {id(c.z_inv): c for c in built}
        owner.update((id(c.phi_inv), c) for c in built)
        out = {kind: Counter() for kind in calls}
        for kind, records in calls.items():
            for inverse, fT, value in records:
                case = owner.get(id(inverse))
                assert case is not None and inverse is (
                    case.phi_inv if kind == "dual" else case.z_inv), kind
                auts = [key[1] for key, m in case.kept.items()
                        if key[0] == "complex" and m is fT]
                assert len(auts) == 1, kind
                out[kind][id(case), auts[0], value] += 1
        return out

    for case in checks.random_cases(random.Random(1), 25):
        assert checks.character_identity(case).ok
    counts = tally()
    assert [len(calls[kind]) for kind in ("T", "dual", "lift")] \
        == [len(counts[kind]) for kind in ("T", "dual", "lift")] \
        == [128, 100, 128]
    for path in CASE_FILES:
        assert cli.main(["tori-verify", "--input", path,
                         "--output", str(tmp_path / "out.json")]) == 0
    assert len(built) == 25 + len(CASE_FILES)
    for kind, counter in tally().items():
        assert set(counter.values()) == {1}, kind
    # casefile.load_case tests z of a case file, to exit 2 naming the
    # field, and build_case reads the verdict z keeps
    tested = Counter(map(id, coboundaries))
    assert [tested[id(c.z)] + tested[id(c.z_inv)] for c in built] \
        == [1] * (25 + len(CASE_FILES))
    assert {id(case) for case, _, _ in values} == set(map(id, built))
    monkeypatch.undo()
    for case, (s_dot, b, t_vec, a), value in values:
        fresh = dataclasses.replace(case, kept={})
        binv = case.A.inv(b)
        fT = IntMatrix.identity(case.torus.rank) - \
            case.torus.comp.matrices[binv]
        s = tuple(map(add, s_dot, case.s[b]))
        group = tori._conjugates(fresh, a, t_vec)[1].get(binv)
        want = sum((Cyc.root(-hyper_pairing(case.torus, fT,
                                            (case.z_inv, delta),
                                            (case.phi_inv, s)))
                    for delta in (group[2] if group else ())),
                   Cyc.integer(0))
        assert value == want, (s_dot, b, t_vec, a)


def test_each_torus_level_build_runs_once_per_torus(monkeypatch,
                                                    empty_memos):
    """From empty memos, the 25 seed-1 suite cases and their character-
    identity sweeps sit on 14 distinct tori, and each torus-level build
    runs once per distinct content however often it is looked up: the
    TN-inverse system (25 lookups, 14 builds), the s_a system per level M
    (72, 20), 1 - aut per first element with its matrix (62, 33: 10 of
    the 72 elements act as an earlier one of their case), the D0 matrix
    (80 from solve_t, 14), the G-module (14) and the invariant duals (25,
    14).  Every build is a put into its memo, so builds count puts."""
    from toruscheck import checks, tori, weil

    memos = {"tn": weil._tn_system, "s": tori._s_system,
             "complex": tori._complex_matrix,
             "d0": TorusModel.coboundary_matrix,
             "gmodule": TorusModel.gmodule, "duals": tori.invariant_duals}
    empty_memos(*(f.memo for f in memos.values()))
    kind = {id(f.memo): k for k, f in memos.items()}
    lookups, puts = Counter(), Counter()
    put = Memo.put

    def recording_put(self, key, value):
        puts[kind.get(id(self))] += 1
        return put(self, key, value)

    def counting(k, f):
        def lookup(*args):
            lookups[k] += 1
            return f(*args)
        return lookup

    monkeypatch.setattr(Memo, "put", recording_put)
    for owner, name, k in [(weil, "_tn_system", "tn"),
                           (tori, "_s_system", "s"),
                           (tori, "_complex_matrix", "complex"),
                           (tori, "solve_t", "d0"),
                           (checks, "invariant_duals", "duals")]:
        monkeypatch.setattr(owner, name, counting(k, getattr(owner, name)))
    tori_seen = set()
    for case in random_cases(random.Random(1), 25):
        tori_seen.add(case.torus.key)
        assert checks.character_identity(case).ok
    assert len(tori_seen) == 14
    assert {k: len(f.memo) for k, f in memos.items()} == \
        {k: puts[k] for k in memos} == \
        {"tn": 14, "s": 20, "complex": 33, "d0": 14, "gmodule": 14,
         "duals": 14}
    assert {k: lookups[k] for k in ("tn", "s", "complex", "d0", "duals")} \
        == {"tn": 25, "s": 72, "complex": 62, "d0": 80, "duals": 25}


#: Under python -O, on a fresh case: a non-invariant t, a non-invariant s
#: and a copy whose z is not a cocycle raise ValueError on every call and
#: keep nothing, and a bad dual pair raises before any integer solve.
OPTIMIZED_PAIR_GUARDS = """
import dataclasses
import sys

from toruscheck import tori, weil
from toruscheck.cohomology import Cochain
from toruscheck.groups import GroupAction
from toruscheck.lattice import IntMatrix
from toruscheck.qz import QZ
from toruscheck.tori import build_case, compute_h, endoscopic_value, \\
    theta_value
from toruscheck.weil import LocalModel, Parameter, TorusModel

if __debug__:
    sys.exit("asserts are still enabled")

solves = []


def counting(solve):
    def wrapper(*args):
        solves.append(args)
        return solve(*args)
    return wrapper


weil.solve_integer = counting(weil.solve_integer)
tori.solve_integer = counting(tori.solve_integer)
swap = IntMatrix([[0, 1], [1, 0]])
torus = TorusModel(LocalModel(2), GroupAction.cyclic(2, swap),
                   GroupAction.cyclic(2, IntMatrix([[-1, 0], [0, -1]])))
gm = torus.gmodule()
case = build_case(torus, Cochain(gm, 1, (0, 0, 1, -1)),
                  Parameter(torus, (QZ(1, 4), QZ(3, 4))))
bad_z = Cochain(gm, 1, (1, 0, 0, 0))
copy = dataclasses.replace(case, z=bad_z, z_inv=bad_z.neg(), kept={})
zero, bad_s, bad_t, t = torus.dual_zero(), (QZ(1, 3), QZ(0)), (1, 0), (1, 1)


def rejects(label, c, fn, *args):
    before = dict(c.kept), dict(c.h)
    del solves[:]
    messages = []
    for _ in range(2):
        try:
            fn(c, *args)
        except ValueError as e:
            messages.append(str(e))
        else:
            messages.append("silent")
    kept = "kept" if (dict(c.kept), dict(c.h)) != before else "kept nothing"
    print(label, "|", " | ".join(messages), "|", kept, "|", len(solves))


rejects("theta t", case, theta_value, zero, 1, bad_t, 1)
rejects("endoscopic t", case, endoscopic_value, zero, 1, bad_t, 1)
rejects("theta s", case, theta_value, bad_s, 1, t, 1)
rejects("endoscopic s", case, endoscopic_value, bad_s, 1, t, 1)
rejects("theta z", copy, theta_value, zero, 1, t, 1)
rejects("endoscopic z", copy, endoscopic_value, zero, 1, t, 1)
rejects("h z", copy, compute_h)
del solves[:]
endoscopic_value(case, zero, 1, t, 1)
print("good s solves", bool(solves))
"""


def test_pair_guards_raise_and_keep_nothing_under_python_O():
    """The guards of the kept pairings raise ValueError, so with asserts
    stripped a bad t, s or z still raises on every call, leaves the case as
    it was, and a bad dual pair is rejected before any integer solve."""
    import subprocess
    import sys

    import toruscheck

    src = os.path.dirname(os.path.dirname(os.path.abspath(toruscheck.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_PAIR_GUARDS],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    t_msg, s_msg = "t must be Galois-invariant", "s must be Galois-invariant"
    dual_msg = "dual-side pair not on the dual complex"
    z_msg = "T-side pair not a hypercocycle"
    assert proc.stdout.splitlines() == [
        "%s | %s | %s | kept nothing | 0" % (label, msg, msg)
        for label, msg in [("theta t", t_msg), ("endoscopic t", t_msg),
                           ("theta s", s_msg), ("endoscopic s", dual_msg),
                           ("theta z", z_msg), ("endoscopic z", z_msg),
                           ("h z", z_msg)]] + ["good s solves True"]


def _vector_route_report():
    """The differential test against the vector route of tori_reference,
    as lines: for the 25 seed-1 suite cases, every tests/*_case.json and
    both fixtures (each swept as tori-verify sweeps it) and the two
    retwisted cases of _asymmetric_bars, how many alpha-bars, beta-bars,
    verify_iso reports, kept pairings and h-bijection verdicts agree and
    which differ; then, for every case whose stabilizer has two or more
    elements, h moved by 1/3 at its last element: the packet's error and
    the vector route's verdict.  It uses no assert, so it runs alike
    under python -O."""
    from glob import glob

    from toruscheck import checks
    from toruscheck.casefile import load_case_file

    suite = list(random_cases(random.Random(1), 25))
    files = [build_case(*load_case_file(path)[:3]) for path in
             sorted(glob(os.path.join(ROOT, "tests", "*_case.json")))
             + [os.path.join(ROOT, "fixtures", name) for name in
                ("norm_one_torus.json", "s3_component.json")]]
    for case in suite + files:
        checks.character_identity(case)
    bars = [_asymmetric_bars(which)[0] for which in ("alpha", "beta")]
    for case in bars:
        compute_h(case)
    lines = []
    for label, cases in (("suite", suite), ("files", files),
                         ("retwisted", bars)):
        compared, bad = 0, []
        for case in cases:
            n, mismatches = tori_reference.vector_route_mismatches(case)
            compared, bad = compared + n, bad + mismatches
        lines.append("%s: %d cases, %d values, mismatches %r"
                     % (label, len(cases), compared, bad))
    moved = Counter()
    for case in suite + files:
        if len(case.A_phi_z) < 2:
            continue
        h = dict(case.h)
        h[case.A_phi_z[-1]] += QZ(1, 3)
        copy = dataclasses.replace(case, h=h, kept={})
        verdict = tori_reference.h_bijection(copy)[-1]
        try:
            packet(copy)
            error = "accepted"
        except CaseError as e:
            error = str(e)
        moved[error, verdict] += 1
    lines.append("h moved: %r" % sorted(moved.items()))
    return lines


def test_int_forms_match_the_vector_route():
    """alpha-bar, beta-bar, verify_iso, every kept pairing and the
    h-bijection verdict, which the case computes from int forms (dot
    products, one lift per relation, residue keys), equal the vector
    route's on every case of _vector_route_report, and every h moved at
    one element is rejected by both routes."""
    assert _vector_route_report() == [
        "suite: 25 cases, 770 values, mismatches []",
        "files: 6 cases, 282 values, mismatches []",
        "retwisted: 2 cases, 160 values, mismatches []",
        "h moved: [(('h does not induce a character bijection', False), 26)]"]


def test_a_key_two_torus_side_rows_share_counts_twice(monkeypatch):
    """With the torus-side selection listing one row of E^z in every place,
    the row the first twisted row matches among them has two hits (and
    any other none), so the h-bijection check raises for each choice, as
    the row-by-row comparison did; with the true selection it passes."""
    from toruscheck import tori

    case = next(c for c in random_cases(random.Random(1), 25)
                if len(packet(c)[2]) >= 2)
    ext, table, sel, elems, verdict = tori_reference.h_bijection(case)
    assert verdict
    tori._check_h_bijection(case, ext, table, sel, elems)
    real = tori.irr_with_central_char
    ext_z = tori._extension(case, "alpha")[0]
    _, sel_z = real(ext_z, QZ(1, ext_z.m))
    for k in sel_z:
        monkeypatch.setattr(tori, "irr_with_central_char", lambda e, psi, k=k:
                            (real(e, psi)[0], [k] * len(sel_z)))
        with pytest.raises(CaseError, match="h does not induce a character "
                                            "bijection"):
            tori._check_h_bijection(case, ext, table, sel, elems)


def test_int_forms_match_the_vector_route_under_python_O():
    """The same report with asserts stripped."""
    import subprocess
    import sys

    import toruscheck

    src = os.path.dirname(os.path.dirname(os.path.abspath(toruscheck.__file__)))
    tests = os.path.join(os.path.dirname(src), "tests")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
    script = ("import sys, test_tori\n"
              "if __debug__:\n"
              "    sys.exit('asserts are still enabled')\n"
              "print('\\n'.join(test_tori._vector_route_report()))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == _vector_route_report()


def test_records_are_kept_per_content_of_1_minus_aut(monkeypatch):
    """A cyclic component of order 6 acting trivially on Z, with Galois
    -1: every element has the identity's matrix, so the case keeps one
    1 - aut, under the identity, and over build_case and the character-
    identity sweep it checks each T-side pair and each dual pair and
    solves each lift once per value, not once per element."""
    from toruscheck import checks, tori

    calls = Counter()
    for name in ("check_pair_T_relation", "validate_hyper_pair_dual",
                 "solve_lift"):
        def counting(*args, name=name, real=getattr(tori, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(tori, name, counting)
    case = _trivially_acting(2, -1, 6, (1,), (QZ(1, 4),))
    assert case.A_phi_z == list(range(6))
    assert checks.character_identity(case).ok
    kept = [key for key in case.kept
            if key[0] in ("complex", "lift", "dual")
            and type(key[1]) is int]
    assert {key[1] for key in kept} == {0}
    assert case.matrix_rep(5) == 0
    # keyed by the element, the case kept 6 matrices, 6 lifts and 12 dual
    # pairs, each checked or solved once
    assert Counter(key[0] for key in kept) == \
        {"complex": 1, "lift": 1, "dual": 2}
    assert calls == {"check_pair_T_relation": 1,
                     "validate_hyper_pair_dual": 2, "solve_lift": 1}
