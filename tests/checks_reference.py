"""Two self-checks as toruscheck computed them before they kept their
repeated values within a call, kept as oracles for tests/test_checks.py:

- `product_induction` builds the A1 inner form and the sampled twist datum
  afresh for every sample, and lists the datum's H^2 classes every time;
- `induced_cocycle_check` calls `data.alpha` once per (b1, b2, coset).

The code below is that version's, unchanged, so the oracles do not move
when the package's checks do.  Both draw from the rng, and raise, exactly
as that version did.
"""

from __future__ import annotations

from toruscheck.characters import _scalar_ratio, _tensor_operator
from toruscheck.checks import Verdict
from toruscheck.cohomology import tate_group
from toruscheck.groups import coset_section
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
