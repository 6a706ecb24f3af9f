"""Finite models of lemmas of the paper's finite layer that no named check
runs, kept as test code beside the oracles; the README section "Library
code the checks do not reach" maps each to the test that states it.

Nothing in the package imports this module.
"""

import itertools
from fractions import Fraction
from math import lcm

from cyc_verify import conj, scaled
from toruscheck.characters import TABLE_CACHE
from toruscheck.cohomology import Cochain, GModule, hyper_h1, tate_group
from toruscheck.groups import Cocycle2, FiniteGroup, coset_section
from toruscheck.lattice import FGAbelian, IntMatrix
from toruscheck.qz import QZ, Cyc, qz_ints
from toruscheck.tori import CaseError


# ---------------------------------------------------------------------------
# groups and 2-cocycles


def subgroup_closure(G, gens):
    # in a finite group, closure under multiplication is a subgroup
    elems = {0} | set(gens)
    changed = True
    while changed:
        changed = False
        for a in list(elems):
            for b in list(elems):
                c = G.mul(a, b)
                if c not in elems:
                    elems.add(c)
                    changed = True
    return sorted(elems)


def shift_by_coboundary(alpha, cochain):
    """alpha + d(cochain) for a normalized 1-cochain {g: QZ}."""
    f, d = qz_ints([cochain[g] for g in range(alpha.group.order)])
    m = lcm(alpha.m, d)
    s, t, c = m // alpha.m, m // d, alpha.ints
    return Cocycle2._from_ints(alpha.group, [
        [s * c[a][b] + t * (f[a] + f[b] - f[ab])
         for b, ab in enumerate(ta)]
        for a, ta in enumerate(alpha.group.table)], m)


def inflate(alpha, big_group, projection):
    """The pullback of alpha along a map big_group -> alpha.group, given by
    the list of images: inflation along a surjection, restriction along the
    inclusion of a subgroup's element list."""
    c = alpha.ints
    proj = [projection[a] for a in range(big_group.order)]
    return Cocycle2._from_ints(
        big_group, [[c[a][b] for b in proj] for a in proj], alpha.m)


def corestriction_cocycle(alpha, B, A_elems, section):
    """Transfer a QZ-valued 2-cocycle alpha on the subgroup A (given inside B
    by the element list A_elems) to a 2-cocycle on B.

    `section` maps each right coset (sorted tuple of B-elements) to a chosen
    representative inside it.  With r(b) defined by b = r(b) s(coset of b),
    the corestriction is

        beta(b1, b2) = sum_c alpha(r(s(c) b1), r(s(c b1) b2)).
    """
    cosets, coset_of, r = coset_section(B, A_elems, section)
    c = alpha.ints

    def value(b1, b2):
        total = 0
        for cs in cosets:
            sb1 = B.mul(section[cs], b1)
            total += c[r(sb1)][r(B.mul(section[coset_of[sb1]], b2))]
        return total

    n = B.order
    beta = Cocycle2._from_ints(
        B, [[value(b1, b2) for b2 in range(n)] for b1 in range(n)], alpha.m)
    beta.validate()
    return beta


def isomorphism_from_coboundary(ext, cochain):
    """For alpha' = alpha + d(cochain) and ext = mu_m x|_{alpha'} A, the
    map (z, a) -> (z + c_a, a) is an isomorphism onto mu_m x|_alpha A.
    Returns the index map."""
    out = {}
    for k in range(ext.m):
        for a in range(ext.base.order):
            z = QZ(k, ext.m) + cochain[a]
            out[k * ext.base.order + a] = ext.element(z, a)
    return out


def stabilizer_of_class(A, act_on_class, cls):
    """Elements of A fixing a classified point under a supplied action
    act_on_class(a, cls) -> cls.  The result is checked to be a subgroup
    (it always is when act_on_class is a genuine action)."""
    stab = [a for a in range(A.order) if act_on_class(a, cls) == cls]
    if not A.is_subgroup(stab):
        raise ValueError("stabilizer failed subgroup closure")
    return stab


# ---------------------------------------------------------------------------
# the local model and the relative-position invariant


def fundamental_cochain(model, group_module):
    """The fundamental 2-cocycle c(sigma^i, sigma^j) = floor((i + j)/n) of
    the local model as a cochain of group_module."""
    n = model.n
    return Cochain(group_module, 2,
                   [model.c(i, j) for i in range(n) for j in range(n)])


def invariant_of(case, aut, z, delta, gamma=None):
    """The relative-position invariant of a commuting pair (z, delta) for
    the automorphism aut (defining relation aut.z - z = d(delta)): the
    class of (-z, delta) on the complex with map 1 - aut, in the integral
    hypercohomology.

    When gamma is given, delta must map to it in the coinvariants
    coker(1 - aut); otherwise the projection of delta is used."""
    torus = case.torus
    f = case.pair_complex_matrix(aut)
    coker = FGAbelian(torus.rank, f)
    if gamma is not None:
        if coker.nf(delta) != tuple(gamma):
            raise CaseError("not a norm of delta")
    T = GModule.from_action(torus.galois)
    H = hyper_h1(T, T, f)
    cls = H.classify(z.neg(), tuple(delta))
    return cls, H


# ---------------------------------------------------------------------------
# induction and extension of characters


def frobenius_induced_value(group, sub_elems, values, g):
    """|H|^-1 sum_{x in G, x^-1 g x in H} f(x^-1 g x)."""
    H = set(sub_elems)
    total = Cyc.zero()
    for x in range(group.order):
        y = group.mul(group.mul(group.inv(x), g), x)
        if y in H:
            total = total + values[y]
    return scaled(total, Fraction(1, len(sub_elems)))


def canonical_tensor_extension(big, sub_elems, x_char, twist=None):
    """The canonical linear character of H~ x_A H~ attached to an invariant
    one-dimensional character x of H: on pairs (e1, e2) in the same H-coset

        value = (x(h1) + w(c)) - (x(h2) + w(c)) = x(h1) - x(h2),

    manifestly independent of the scalar intertwiner choice w (`twist`),
    which is exposed so independence can be demonstrated by recomputation.
    Raises ValueError when x is not invariant."""
    H = set(sub_elems)
    for e in range(big.order):
        for h in sub_elems:
            if x_char[big.conj(big.inv(e), h)] != x_char[h]:
                raise ValueError("character is not invariant under the big group")
    cosets = big.right_cosets(sub_elems)
    section = {cs: cs[0] for cs in cosets}
    coset_of = {}
    for cs in cosets:
        for g in cs:
            coset_of[g] = cs
    twist = twist or {cs: QZ(0) for cs in cosets}

    def value(e1, e2):
        cs = coset_of[e1]
        if coset_of[e2] != cs:
            raise ValueError("pair not in the fiber product")
        s = section[cs]
        h1 = big.mul(e1, big.inv(s))
        h2 = big.mul(e2, big.inv(s))
        if h1 not in H or h2 not in H:
            raise ValueError("section outside its coset")
        return (x_char[h1] + twist[cs]) - (x_char[h2] + twist[cs])

    return value


def class_in_h2(alpha, m):
    """The class of alpha in H^2 of its group with coefficients in mu_m,
    for m a multiple of alpha's level."""
    A, s = alpha.group, m // alpha.m
    gm = GModule.finite(A, (m,), [IntMatrix.identity(1)] * A.order)
    x = Cochain(gm, 2, [s * v for row in alpha.ints for v in row])
    return tate_group(gm, 2).classify(x)


def _section_by_quotient(big, quot):
    sec = {}
    for e in range(big.order):
        a = quot[e]
        if a not in sec:
            sec[a] = e
    return sec


def _obstruction_cocycle(big, quot, stab_group, stab_elems, x, w):
    """2-cocycle of the stabilizer from the section and intertwiner scalars:
    alpha(a, b) = x(s_a s_b s_ab^-1) + w(a) + w(b) - w(ab).  Raises
    ValueError unless that is a normalized cocycle (w(1) = 0)."""
    sec = _section_by_quotient(big, quot)
    vals = {}
    for i, a in enumerate(stab_elems):
        for j, b in enumerate(stab_elems):
            ab = stab_elems[stab_group.mul(i, j)]
            h = big.mul(big.mul(sec[a], sec[b]), big.inv(sec[ab]))
            vals[(i, j)] = (x[h] + w[a] + w[b]) - w[ab]
    return Cocycle2(stab_group, vals)


def mackey_multiplicity_transfer(data, cache=None):
    """Finite model of the induced-correspondence lemma for two extensions
    of one component group A over matched invariant characters.

    data keys: big1, big2 (FiniteGroup extensions), sub1, sub2 (subgroup
    element lists), quot1, quot2 (lists: element -> A index), A, and
    orbits: a list of dicts with stab (subgroup list of A covering the
    stabilizer A_x), x1, x2 (invariant QZ-characters of sub_i), w1, w2
    (scalar intertwiner choices A_x -> QZ).

    Returns (correspondence, table1, table2, over1, over2).  Raises
    ValueError when the projective obstruction classes of a matched orbit
    disagree (the lemma's hypothesis)."""
    big1, big2 = data["big1"], data["big2"]
    sub1, sub2 = data["sub1"], data["sub2"]
    quot1, quot2 = data["quot1"], data["quot2"]
    A = data["A"]
    cache = cache or TABLE_CACHE
    t1 = cache.get_or_compute(big1)
    t2 = cache.get_or_compute(big2)

    fiber = [(e1, e2) for e1 in range(big1.order) for e2 in range(big2.order)
             if quot1[e1] == quot2[e2]]
    xt_values = {pair: Cyc.zero() for pair in fiber}
    for orbit in data["orbits"]:
        stab_elems = list(orbit["stab"])
        stab_group, _ = A.subgroup_as_group(stab_elems)
        x1, x2 = orbit["x1"], orbit["x2"]
        w1, w2 = orbit["w1"], orbit["w2"]
        o1 = _obstruction_cocycle(big1, quot1, stab_group, stab_elems, x1, w1)
        o2 = _obstruction_cocycle(big2, quot2, stab_group, stab_elems, x2, w2)
        m = lcm(o1.m, o2.m)
        c1 = class_in_h2(o1, m)
        c2 = class_in_h2(o2, m)
        if c1 != c2:
            raise ValueError("projective obstruction classes disagree")
        sec1 = _section_by_quotient(big1, quot1)
        sec2 = _section_by_quotient(big2, quot2)
        stab_set = set(stab_elems)
        small = [(e1, e2) for (e1, e2) in fiber if quot1[e1] in stab_set]
        small_set = set(small)

        def xt(e1, e2):
            a = quot1[e1]
            h1 = big1.mul(e1, big1.inv(sec1[a]))
            h2 = big2.mul(e2, big2.inv(sec2[a]))
            return Cyc.root((x1[h1] + w1[a]) - (x2[h2] + w2[a]))

        for (g1, g2) in fiber:
            total = Cyc.zero()
            for (c1e, c2e) in fiber:
                y1 = big1.conj(big1.inv(c1e), g1)
                y2 = big2.conj(big2.inv(c2e), g2)
                if (y1, y2) in small_set:
                    total = total + xt(y1, y2)
            xt_values[(g1, g2)] = xt_values[(g1, g2)] \
                + scaled(total, Fraction(1, len(small)))

    def irr_over(table, big, sub, xs):
        out = []
        for i in range(table.nchars):
            for x in xs:
                total = sum((Cyc.root(-x[h]) * table.value(i, h)
                             for h in sub), Cyc.zero())
                if scaled(total, Fraction(1, len(sub))).as_rational():
                    out.append(i)
                    break
        return out

    over1 = irr_over(t1, big1, sub1, [o["x1"] for o in data["orbits"]])
    over2 = irr_over(t2, big2, sub2, [o["x2"] for o in data["orbits"]])

    mult = {}
    for i in over1:
        for j in over2:
            total = Cyc.zero()
            for (e1, e2) in fiber:
                total = total + (xt_values[(e1, e2)]
                                 * conj(t1.value(i, e1)) * t2.value(j, e2))
            m = scaled(total, Fraction(1, len(fiber))).as_rational()
            if m is None or m.denominator != 1 or m < 0:
                raise ValueError("multiplicity must be a nonnegative integer")
            if m > 1:
                raise ValueError("multiplicity exceeds 1")
            mult[(i, j)] = int(m)
    corr = {}
    for i in over1:
        hits = [j for j in over2 if mult[(i, j)] == 1]
        if len(hits) != 1:
            raise ValueError("correspondence is not a bijection")
        corr[i] = hits[0]
    if not len(set(corr.values())) == len(over1) == len(over2):
        raise ValueError("correspondence is not a bijection")
    return corr, t1, t2, over1, over2


def restriction_multiplicity(table_big, big, sub_group, sub_elems, i, table_sub, j):
    """Multiplicity of the j-th irreducible of the subgroup in the
    restriction of the i-th irreducible of the big group."""
    total = Cyc.zero()
    for si, g in enumerate(sub_elems):
        total = total + table_big.value(i, g) * conj(table_sub.value(j, si))
    m = scaled(total, Fraction(1, len(sub_elems))).as_rational()
    if m is None or m.denominator != 1 or m < 0:
        raise ValueError("multiplicity must be a nonnegative integer")
    return int(m)


# ---------------------------------------------------------------------------
# twisted classes of block tuples


def twisted_classes(J, theta):
    """Orbits of J acting on itself by g . d = g d theta(g)^-1."""
    seen = set()
    classes = []
    for d in range(J.order):
        if d in seen:
            continue
        orbit = set()
        frontier = {d}
        while frontier:
            x = frontier.pop()
            if x in orbit:
                continue
            orbit.add(x)
            for g in range(J.order):
                y = J.mul(J.mul(g, x), J.inv(theta[g]))
                if y not in orbit:
                    frontier.add(y)
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    return classes


def block_rotation_class_bijection(J, theta, n):
    """The multiplication map from block tuples to the group induces a
    bijection from rotation-twisted classes of J^n to theta-twisted classes
    of J, with inverse d -> (d, 1, ..., 1).

    Returns (ok, class_count).  Checked by exhausting both orbit sets, so
    it only suits small groups and small n."""
    # element i of the direct product J^n is the i-th block tuple in
    # lexicographic order
    blocks = list(itertools.product(range(J.order), repeat=n))
    index = {t: i for i, t in enumerate(blocks)}
    big = J
    for _ in range(n - 1):
        big = FiniteGroup.direct_product(big, J)
    # the rotate-then-theta automorphism
    big_theta = [index[t[1:] + (theta[t[0]],)] for t in blocks]

    def product(t):
        prod = t[0]
        for x in t[1:]:
            prod = J.mul(prod, x)
        return prod

    small = twisted_classes(J, theta)
    class_of = {d: ci for ci, cls in enumerate(small) for d in cls}
    images = [{class_of[product(blocks[i])] for i in orbit}
              for orbit in twisted_classes(big, big_theta)]
    ok = (len(images) == len(small) and all(len(im) == 1 for im in images)
          and set().union(*images) == set(range(len(small)))
          and all(product((d,) + (0,) * (n - 1)) == d
                  for d in range(J.order)))
    return ok, len(small)
