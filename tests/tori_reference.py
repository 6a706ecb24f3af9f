"""Reference implementation for differential tests: the representation sum
of ``tori.theta_value`` with the sum over the packet outside, one inner sum
and one cyclic convolution per packet member, as it was computed before the
two finite sums were swapped.

Nothing in the package imports this module.  test_tori.py checks
``tori.theta_value`` against it.
"""

from math import lcm

from toruscheck.qz import Cyc, convolve
from toruscheck.tori import packet, pair_for_h
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
        acc = convolve(inner,
                       [(k * step + kzs, c) for k, c in forms[i][col[b]]], acc)
    rep = Cyc.from_pairs(enumerate(acc), N, D * D * len(elems))

    binv = case.A.inv(b)
    shift = kz - pair_for_h(case, b)
    closed = {}
    for cac, val in conjugates:
        if cac == binv:
            q = val + shift
            closed[q] = closed.get(q, 0) + 1
    return rep, Cyc(closed)
