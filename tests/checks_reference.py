"""Self-checks as toruscheck computed them before they kept their repeated
values within a call, or drew their samples in one stream, kept as oracles
for tests/test_checks.py:

- `product_induction` builds the A1 inner form and the sampled twist datum
  afresh for every sample, and lists the datum's H^2 classes every time;
- `induced_cocycle_check` calls `data.alpha` once per (b1, b2, coset);
- `coinflation_boundary` and `block_twisted_traces` draw each value with
  its own `randrange` or `randint` call (the chain maps are the
  package's), and `block_twisted_trace` takes its products as `IntMatrix`
  products.

The code below is that version's, unchanged, so the oracles do not move
when the package's checks do.  They draw from the rng, and raise, exactly
as that version did.
"""

from __future__ import annotations

import itertools

from toruscheck.characters import _scalar_ratio, _tensor_operator
from toruscheck.checks import Verdict
from toruscheck.cohomology import FiniteDomain, FiniteSupportChain, \
    coinflation, tate_group
from toruscheck.groups import FiniteGroup, coset_section
from toruscheck.lattice import IntMatrix
from toruscheck.qz import Cyc
from toruscheck.rootdata import BasedRootDatum, TwistData, diagram_flip, \
    sign_induction, sign_product


def _a1_inner():
    return TwistData(BasedRootDatum.from_label("A1"), 2, (0,), (0,))


def product_induction(rng, samples):
    """Induction invariance and multiplicativity against the A1 inner form
    on random data of type A1, A2, A3 or D4 (with or without the diagram
    flip); data the sign rejects are redrawn."""
    labels = ["A1", "A2", "A3", "D4"]
    count = 0
    while count < samples:
        label = rng.choice(labels)
        d = BasedRootDatum.from_label(label)
        r = d.rank
        ap = diagram_flip(label) if rng.random() < 0.5 else tuple(range(r))
        tw = TwistData(d, 2, tuple(range(r)), ap)
        xi = rng.choice(list(tate_group(tw.xi_module(), 2).elements()))
        try:
            e_base, e_ind = sign_induction(tw, xi, rng.choice((2, 3)))
            e1, e2, e12 = sign_product(tw, xi, _a1_inner(),
                                       rng.choice([(0,), (1,)]))
        except ValueError:
            continue
        if e_base != e_ind or e12 != e1 * e2:
            return Verdict(False, {"samples": count, "label": label,
                                   "a_perm": list(ap), "xi": list(xi)})
        count += 1
    return Verdict(True, {"samples": count})


def induced_cocycle_check(data, B, A_elems, section):
    """Corestriction lemma in the finite model: build the induced
    intertwiners on the B-side, extract their 2-cocycle beta, and compare it
    entrywise with the cochain corestriction of alpha.

    Returns (beta, cores, equal) with beta and cores tables of Cyc scalars.
    """
    J = data.J
    sec = dict(section)
    cosets, coset_of, r_of = coset_section(B, A_elems, sec)
    coset_list = list(cosets)
    coset_pos = {cs: i for i, cs in enumerate(coset_list)}
    k = len(coset_list)
    dim = data.pi[0].n

    def h_b(b):
        """h_b per coset: h_b(s(c)) = g_{r(s(c) b)}."""
        return [data.g[r_of(B.mul(sec[cs], b))] for cs in coset_list]

    def tilde_H(b):
        """pi~_H(h_b x| b): output factor at c from input factor at the
        block of s(c) b through pi~_{r(s(c) b)}."""
        maps = []
        for cs in coset_list:
            sb = B.mul(sec[cs], b)
            maps.append((coset_pos[coset_of[sb]], data.piT[r_of(sb)]))
        return _tensor_operator(maps, dim, k)

    def pi_H(hvals):
        maps = [(ci, data.pi[hvals[ci]]) for ci in range(k)]
        return _tensor_operator(maps, dim, k)

    tilde_cache = {b: tilde_H(b) for b in range(B.order)}
    hb_cache = {b: h_b(b) for b in range(B.order)}
    beta = {}
    cores = {}
    for b1 in range(B.order):
        hv1 = hb_cache[b1]
        for b2 in range(B.order):
            hv2 = hb_cache[b2]
            b12 = B.mul(b1, b2)
            hv12 = hb_cache[b12]
            lhs = tilde_cache[b1].mul(tilde_cache[b2])
            # J-part of the product: (h_b1 . b1 h_b2)(s(c)); the value of
            # b1 h_b2 at s(c) is r(s(c) b1) applied to h_b2(s(c) b1)
            hextra = []
            for ci, cs in enumerate(coset_list):
                sb = B.mul(sec[cs], b1)
                cj = coset_pos[coset_of[sb]]
                aa = r_of(sb)
                hp = J.mul(hv1[ci], data.act[aa][hv2[cj]])
                hextra.append(J.mul(hp, J.inv(hv12[ci])))
            rhs = pi_H(hextra).mul(tilde_cache[b12])
            beta[(b1, b2)] = _scalar_ratio(lhs, rhs)
            prod = Cyc.integer(1)
            for cs in coset_list:
                sb1 = B.mul(sec[cs], b1)
                a_first = r_of(sb1)
                a_second = r_of(B.mul(sec[coset_of[sb1]], b2))
                prod = prod * data.alpha(a_first, a_second)
            cores[(b1, b2)] = prod
    equal = all(beta[key] == cores[key] for key in beta)
    return beta, cores, equal


def coinflation_boundary(rng, samples):
    """Coinflation from C4 to C2 (sign action) commutes with the boundary
    on random finite-support 2-chains."""
    signs = [IntMatrix.identity(1), IntMatrix([[-1]])]
    dom4 = FiniteDomain(FiniteGroup.cyclic(4), signs * 2)
    dom2 = FiniteDomain(FiniteGroup.cyclic(2), signs)
    for i in range(samples):
        supp = {(rng.randrange(4), rng.randrange(4)): (rng.randint(-3, 3),)
                for _ in range(5)}
        y = FiniteSupportChain(dom4, 2, 1, supp)
        lhs = coinflation(y, lambda w: w % 2, dom2).boundary()
        rhs = coinflation(y.boundary(), lambda w: w % 2, dom2)
        if lhs.support != rhs.support:
            return Verdict(False, {"sample": i}, {"samples": i + 1})
    return Verdict(True, None, {"samples": samples})


def block_twisted_trace(phis, T):
    """Both sides of the block-twisted trace identity: the trace of
    (Phi_0 (x) ... (x) Phi_{n-1}) composed with the cyclic-shift-then-T
    operator versus tr(Phi_0 ... Phi_{n-1} T), for integer matrices.

    Returns (lhs, rhs, equal)."""
    n = len(phis)
    dim = phis[0].rows
    if any(not m.rows == m.cols == dim for m in [*phis, T]):
        raise ValueError("dimension mismatch")
    last = phis[n - 1] * T
    lhs = 0
    for idx in itertools.product(range(dim), repeat=n):
        term = 1
        for kk in range(n - 1):
            term *= phis[kk].data[idx[kk]][idx[kk + 1]]
            if term == 0:
                break
        if term:
            lhs += term * last.data[idx[n - 1]][idx[0]]
    prod = phis[0]
    for m in phis[1:]:
        prod = prod * m
    prod = prod * T
    rhs = sum(prod.data[i][i] for i in range(dim))
    return lhs, rhs, lhs == rhs


def block_twisted_traces(rng, samples, bound):
    """The block-twisted trace identity on random tuples of up to four
    square blocks of dimension up to three, entries in [-bound, bound]."""
    for i in range(samples):
        nblk = rng.randint(1, 4)
        dim = rng.randint(1, 3)
        phis = [IntMatrix([[rng.randint(-bound, bound) for _ in range(dim)]
                           for _ in range(dim)]) for _ in range(nblk)]
        T = IntMatrix([[rng.randint(-bound, bound) for _ in range(dim)]
                       for _ in range(dim)])
        if not block_twisted_trace(phis, T)[2]:
            return Verdict(False, {"sample": i}, {"samples": i + 1})
    return Verdict(True, None, {"samples": samples})
