"""Reference implementations for differential tests.

* ``theta_by_convolution``: the representation sum of ``tori.theta_value``
  with the sum over the packet outside, one inner sum and one cyclic
  convolution per packet member, as it was computed before the two finite
  sums were swapped.
* The vector route of the case's Q/Z values: the cocycles alpha and beta
  built as vectors, one coordinate at a time, and evaluated by
  ``langlands_character`` and ``dual_eval``; ``verify_iso`` from them; a
  lift's pairing read back into a ``FiniteSupportChain`` and summed term
  by term; and the h-bijection by ``Cyc`` products compared row by row.
  ``ToriCase`` computes the same values as dot products with int forms.

Nothing in the package imports this module.  test_tori.py checks
``tori`` against it.
"""

from math import lcm
from operator import add, mul

from toruscheck.characters import irr_with_central_char
from toruscheck.cohomology import FiniteSupportChain, ZDomain
from toruscheck.qz import QZ, Cyc, convolve, qz_ints
from toruscheck import tori
from toruscheck.tori import CaseError, _extension, packet, pair_for_h
from toruscheck.weil import langlands_character


def theta_by_convolution(case, s_dot, b, t_vec, a):
    """(rep, closed) of theta_value, the representation sum as

        sum_i chi_i((kz, b)) sum_c chi_i((val_c + h(cac), cac)) / |Abar|

    with the inner sum over the conjugators c built for each packet member i
    as an exponent vector at level N, then multiplied by the row of b.  It
    enumerates the conjugators c in A_z itself, with
    delta0 = c.t_vec + zeta(c, a) and val_c = phi(delta0), reads the case's
    packet, h and pairings, and keeps no sums of its own; the inputs must
    already be valid."""
    pkt, table, sel, ext, elems = packet(case)
    L, D, forms = table.exponent_forms()
    col = {x: table.class_index[i] for i, x in enumerate(elems)}
    kz = case.kottwitz(s_dot)
    A = case.A
    conjugates = []
    for c in case.A_z:
        cac = A.mul(A.mul(c, a), A.inv(c))
        if cac in col:
            delta0 = tuple(x + y for x, y in zip(case.torus.comp.act(c, t_vec),
                                                 case.zeta(c, a)))
            conjugates.append(
                (cac, langlands_character(case.torus, case.phi, delta0)))
    roots = [(col[cac], val + case.h[cac]) for cac, val in conjugates]
    N = lcm(L, kz.den, *(q.den for _, q in roots))
    step = N // L
    roots = [(x, q.num * (N // q.den)) for x, q in roots]
    kzs = kz.num * (N // kz.den)
    acc = [0] * N
    for i in sel:
        inner = [0] * N
        for x, shift in roots:
            for k, c in forms[i][x]:
                inner[(k * step + shift) % N] += c
        acc = list(map(add, acc, convolve(
            inner, [(k * step + kzs, c) for k, c in forms[i][col[b]]])))
    rep = Cyc.from_pairs(enumerate(acc), N, D * D * len(elems))

    binv = case.A.inv(b)
    shift = kz - pair_for_h(case, b)
    closed = {}
    for cac, val in conjugates:
        if cac == binv:
            q = val + shift
            closed[q] = closed.get(q, 0) + 1
    return rep, Cyc(closed)


def alpha(case, a, b):
    """t_a + a.t_b - t_ab, a Galois-invariant lattice vector."""
    tab = case.t[case.A.mul(a, b)]
    return tuple(x + y - w for x, y, w in
                 zip(case.t[a], case.act(a, case.t[b]), tab))


def beta(case, a, b):
    """s_a + a.s_b - s_ab, a dual point (tuple of QZ)."""
    sab = case.s[case.A.mul(a, b)]
    return tuple(x + y - w for x, y, w in
                 zip(case.s[a], case.torus.dual_comp(a, case.s[b]), sab))


def alpha_bar(case, a, b):
    return langlands_character(case.torus, case.phi, alpha(case, a, b))


def beta_bar(case, a, b):
    return case.torus.dual_eval(beta(case, a, b), case.lam_z)


def verify_iso(case):
    """{(a, b): (lhs, rhs, equal)} of tori.verify_iso, in QZ arithmetic
    over the vector-route bars."""
    report = {}
    for a in case.A_phi_z:
        for b in case.A_phi_z:
            ab = case.A.mul(a, b)
            lhs = case.h[a] + case.h[b] - case.h[ab]
            rhs = alpha_bar(case, a, b) - beta_bar(case, a, b)
            report[(a, b)] = (lhs, rhs, lhs == rhs)
    return report


def chain_pairing(torus, dual_pair, lift):
    """<(d, s), (lam, mu1)> = s(lam) - sum_w d(w)(mu1(w)) for a flat lift of
    weil.solve_lift, its mu1 read back into a FiniteSupportChain on
    [-n, n) and summed term by term."""
    d, s = dual_pair
    r, n = torus.rank, torus.model.n
    lam = lift[:r]
    mu1 = FiniteSupportChain(ZDomain(n, torus.galois.matrices[1 % n]), 1, r, {
        (w,): lift[r + i * r:r + (i + 1) * r]
        for i, w in enumerate(range(-n, n))})
    nums, den = qz_ints(s)
    L = lcm(den, d.den)
    total = sum(map(mul, nums, lam)) * (L // den)
    for (w,), val in mu1.support.items():
        total -= sum(map(mul, d.nums[w % n], val)) * (L // d.den)
    return QZ(total, L)


def h_bijection(case):
    """(ext, table, sel, elems, verdict): the centralizer-side data the
    packet reads and whether twisting its rows by h, one Cyc product per
    value, hits each identity-central-character row of E^z once, compared
    value by value.  Raises CaseError when the extensions differ in size."""
    ext, elems = _extension(case, "beta")
    table, sel = irr_with_central_char(ext, QZ(1, ext.m))
    ext_z, elems_z = _extension(case, "alpha")
    table_z, sel_z = irr_with_central_char(ext_z, QZ(1, ext_z.m))
    if elems_z != elems or len(sel_z) != len(sel):
        raise CaseError("the two extensions disagree in size")
    rows_z = [[table_z.value(i, ext_z.element(QZ(0), j))
               for j in range(len(elems))] for i in sel_z]
    matched = set()
    for i in sel:
        twisted = [Cyc.root(case.h[a]) * table.value(i, ext.element(QZ(0), j))
                   for j, a in enumerate(elems)]
        hits = [k for k, row in enumerate(rows_z)
                if all(x == y for x, y in zip(twisted, row))]
        if len(hits) != 1:
            return ext, table, sel, elems, False
        matched.add(hits[0])
    return ext, table, sel, elems, len(matched) == len(sel)


def vector_route_mismatches(case):
    """(compared, mismatches): every alpha-bar and beta-bar of the case,
    verify_iso, every pairing value its kept dual pairs hold against its
    kept lifts, and the h-bijection verdict, each from the case and from
    the vector route; mismatches lists the (what, where) that differ.
    The caller runs the case first, so the pairings are kept."""
    compared, bad = 0, []
    for a in case.A_phi_z:
        for b in case.A_phi_z:
            for what, got, want in (
                    ("alpha_bar", case.alpha_bar(a, b), alpha_bar(case, a, b)),
                    ("beta_bar", case.beta_bar(a, b), beta_bar(case, a, b))):
                compared += 1
                if got != want:
                    bad.append((what, (a, b)))
    compared += 1
    if tori.verify_iso(case) != verify_iso(case):
        bad.append(("verify_iso", None))
    for key, record in list(case.kept.items()):
        if key[0] != "dual" or type(key[1]) is not int:
            continue
        s, _, values = record
        for delta, value in values.items():
            compared += 1
            lift = case.kept["lift", key[1], delta]
            if value != chain_pairing(case.torus, (case.phi_inv, s), lift):
                bad.append(("pairing", (key[1], delta, s)))
    ext, table, sel, elems, verdict = h_bijection(case)
    try:
        tori._check_h_bijection(case, ext, table, sel, elems)
        got = True
    except CaseError as e:
        if str(e) != "h does not induce a character bijection":
            raise
        got = False
    compared += 1
    if got != verdict:
        bad.append(("h_bijection", verdict))
    return compared, bad
