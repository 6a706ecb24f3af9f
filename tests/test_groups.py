import itertools
import math
import os
import random
import subprocess
import sys

import pytest

import cocycle_reference
import toruscheck
from lemmas import (corestriction_cocycle, inflate, isomorphism_from_coboundary,
                    shift_by_coboundary, subgroup_closure)

from toruscheck.lattice import IntMatrix
from toruscheck.qz import QZ
from toruscheck.groups import (
    FiniteGroup,
    GroupAction,
    Cocycle2,
    CentralExtension,
    coset_section,
    induced_action,
    decompose_induced_automorphism,
    reconstruct_induced_automorphism,
    BlockDecompositionError,
)

#: tests/, put on the path of the python -O subprocesses for lemmas.py
TESTS = os.path.dirname(os.path.abspath(__file__))


def _values(alpha):
    """A cocycle's values as a dict {(a, b): alpha(a, b)}."""
    n = alpha.group.order
    return {(a, b): alpha(a, b) for a in range(n) for b in range(n)}


def test_group_constructions():
    assert FiniteGroup.cyclic(5).order == 5
    S3 = FiniteGroup.symmetric(3)
    assert S3.order == 6
    assert len(S3.conjugacy_classes()) == 3
    D4 = FiniteGroup.dihedral(4)
    assert D4.order == 8
    assert len(D4.conjugacy_classes()) == 5
    P = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    assert P.order == 4 and all(P.element_order(g) <= 2 for g in range(4))


def test_bad_table_rejected():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1, 1]])


def test_subgroup_and_cosets():
    C4 = FiniteGroup.cyclic(4)
    H = subgroup_closure(C4, [2])
    assert H == [0, 2]
    cosets = C4.right_cosets(H)
    assert sorted(cosets) == [(0, 2), (1, 3)]


def test_group_action_checks():
    sigma = IntMatrix([[-1]])
    act = GroupAction.cyclic(2, sigma)
    assert act.act(1, (3,)) == (-3,)
    with pytest.raises(ValueError, match="group relations"):
        GroupAction.cyclic(3, sigma)  # order 2 matrix cannot define a C3 action


def test_s3_lattice_action_commutes_with_negation():
    # standard rank-2 integral representation of S3
    r = IntMatrix([[0, -1], [1, -1]])
    s = IntMatrix([[0, 1], [1, 0]])
    S3 = FiniteGroup.symmetric(3)
    # build matrices by matching the permutation group's structure:
    # find generators of S3 of order 3 and 2 and map them to r, s
    mats = s3_matrices(S3, r, s)
    act = GroupAction(S3, mats)
    neg = GroupAction.cyclic(2, IntMatrix([[-1, 0], [0, -1]]))
    assert act.commutes_with(neg)


def s3_matrices(S3, r, s):
    gen3 = next(g for g in range(6) if S3.element_order(g) == 3)
    gen2 = next(g for g in range(6) if S3.element_order(g) == 2)
    mats = {0: IntMatrix.identity(2)}
    frontier = {gen3: r, gen2: s}
    mats.update(frontier)
    while len(mats) < 6:
        new = {}
        for a, ma in list(mats.items()):
            for b, mb in list(mats.items()):
                c = S3.mul(a, b)
                if c not in mats:
                    new[c] = ma * mb
        mats.update(new)
    return [mats[g] for g in range(6)]


def test_cocycle_validation_and_coboundary():
    C2 = FiniteGroup.cyclic(2)
    vals = {(a, b): QZ(1, 2) if a == b == 1 else QZ(0) for a in range(2) for b in range(2)}
    alpha = Cocycle2(C2, vals)
    beta = shift_by_coboundary(alpha, {0: QZ(0), 1: QZ(1, 4)})
    beta.validate()
    with pytest.raises(ValueError, match="not normalized"):
        bad = {(a, b): QZ(1, 3) if (a, b) == (1, 1) else QZ(0)
               for a in range(2) for b in range(2)}
        bad[(0, 1)] = QZ(1, 3)  # breaks normalization
        Cocycle2(C2, bad)


def test_cocycle_inflation_restriction_validity():
    C4 = FiniteGroup.cyclic(4)
    C2 = FiniteGroup.cyclic(2)
    alpha = Cocycle2(C4, {(a, b): QZ((a + b) // 4, 2)
                          for a in range(4) for b in range(4)})
    # restriction to the subgroup {0, 2} is a valid cocycle
    res = inflate(alpha, C2, [0, 2])
    res.validate()
    # inflation along C4 -> C2 of a C2-cocycle is a valid C4-cocycle
    beta = Cocycle2(C2, {(a, b): QZ(1, 2) if a == b == 1 else QZ(0)
                         for a in range(2) for b in range(2)})
    infl = inflate(beta, C4, [g % 2 for g in range(4)])
    infl.validate()


def test_corestriction_zero_and_identity():
    C4 = FiniteGroup.cyclic(4)
    zero = Cocycle2.zero(C4)
    sec = {tuple(sorted(cs)): cs[0] for cs in C4.right_cosets(range(4))}
    beta = corestriction_cocycle(zero, C4, list(range(4)), sec)
    assert all(v.is_zero() for v in _values(beta).values())

    # A = B with the identity section: beta == alpha
    vals = {(a, b): QZ((a % 4 + b % 4 >= 4) * 1, 2) for a in range(4) for b in range(4)}
    # the above is the mod-2 reduction of the fundamental cocycle of C4
    alpha = Cocycle2(C4, {(a, b): QZ((a + b) // 4, 2) for a in range(4) for b in range(4)})
    beta = corestriction_cocycle(alpha, C4, list(range(4)), sec)
    for k, v in _values(alpha).items():
        assert _values(beta)[k] == v


def test_corestriction_after_restriction_is_index_multiple():
    # cores(res(x)) = [B : A] x on H^2; for Z/2-coefficients over Z/2 < Z/4
    # the index is 2 and the generator dies
    from cochain_reference import from_table, table
    from toruscheck.cohomology import GModule, Cochain, tate_group

    C4 = FiniteGroup.cyclic(4)
    C2 = FiniteGroup.cyclic(2)
    gm = GModule.finite(C4, (2,), [IntMatrix.identity(1)] * 4)
    H2 = tate_group(gm, 2)
    assert H2.order == 2
    gen = next(c for c in H2.elements() if any(c))
    rep = H2.representative(gen)
    qz_vals = {k: QZ(v[0], 2) for k, v in table(rep).items()}
    alpha = Cocycle2(C4, qz_vals)
    res = inflate(alpha, C2, [0, 2])
    sec = {tuple(sorted(cs)): cs[0] for cs in C4.right_cosets([0, 2])}
    # embed the restricted cocycle back on the subgroup inside C4
    sub_vals = {}
    for i in range(2):
        for j in range(2):
            sub_vals[(i, j)] = res(i, j)
    res_on_sub = Cocycle2(C2, sub_vals)
    cores = corestriction_cocycle(res_on_sub, C4, [0, 2], sec)
    back = from_table(gm, 2, {k: (int(v.frac * 2),)
                              for k, v in _values(cores).items()})
    assert H2.classify(back) == H2.classify(Cochain.zero(gm, 2))


def test_central_extension_multiplication():
    C2xC2 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    # nontrivial alpha: the Q8-shaped extension values
    vals = {}
    for a in range(4):
        for b in range(4):
            a1, a2 = divmod(a, 2)
            b1, b2 = divmod(b, 2)
            # biadditive cocycle whose extension is the quaternion group
            vals[(a, b)] = QZ(a1 * b1 + a2 * b2 + a2 * b1, 2)
    alpha = Cocycle2(C2xC2, vals)
    E = CentralExtension(C2xC2, 2, alpha)
    assert E.group.order == 8
    # in the quaternion group exactly two elements square to the identity
    sqs = [E.group.mul(g, g) for g in range(8)]
    assert sum(1 for s in sqs if s == 0) == 2
    # extension from a cohomologous cocycle is isomorphic via the explicit map
    shift = {0: QZ(0), 1: QZ(1, 2), 2: QZ(0), 3: QZ(1, 2)}
    alpha2 = shift_by_coboundary(alpha, shift)
    E2 = CentralExtension(C2xC2, 2, alpha2)
    iso = isomorphism_from_coboundary(E2, shift)
    for x in range(8):
        for y in range(8):
            assert iso[E2.group.mul(x, y)] == E.group.mul(iso[x], iso[y])


def test_central_extension_generator():
    """The kept generator of mu_m is the element (1/m, identity)."""
    for base in (FiniteGroup.cyclic(1), FiniteGroup.cyclic(2),
                 FiniteGroup.symmetric(3)):
        for m in (1, 2, 3, 4, 6):
            ext = CentralExtension(base, m, Cocycle2.zero(base))
            assert ext.generator == ext.element(QZ(1, m), 0)
            assert ext.parts(ext.generator) == (QZ(1, m), 0)


def _reference_groups():
    """Each group with homomorphisms (phi, k) onto cyclic groups C_k: the
    carry cocycle of C_k pulled back along phi is an integral 2-cocycle."""
    C2, C3, C4 = (FiniteGroup.cyclic(n) for n in (2, 3, 4))
    S3 = FiniteGroup.symmetric(3)
    sign = [int(S3.element_order(g) == 2) for g in range(6)]
    return {
        "C2": (C2, [(list(range(2)), 2)]),
        "C3": (C3, [(list(range(3)), 3)]),
        "C4": (C4, [(list(range(4)), 4), ([g % 2 for g in range(4)], 2)]),
        "C2xC2": (FiniteGroup.direct_product(C2, C2),
                  [([g // 2 for g in range(4)], 2),
                   ([g % 2 for g in range(4)], 2)]),
        "S3": (S3, [(sign, 2)]),
    }


def _random_qz(rng, nonzero=False):
    den = rng.choice((2, 3, 4, 6) if nonzero else (1, 2, 3, 4, 6))
    return QZ(rng.randrange(1 if nonzero else 0, den), den)


def _random_table(G, homs, rng):
    """A normalized QZ table on G: carry cocycles times random values plus
    the coboundary of a random normalized 1-cochain, then either kept,
    changed at one entry, changed in an identity slot, or redrawn."""
    n = G.order
    f = [QZ(0)] + [_random_qz(rng) for _ in range(n - 1)]
    vals = {(a, b): f[a] + f[b] - f[G.mul(a, b)]
            for a in range(n) for b in range(n)}
    for phi, k in homs:
        t = _random_qz(rng)
        for (a, b) in vals:
            vals[(a, b)] += (phi[a] + phi[b]) // k * t
    kind = rng.randrange(4)
    if kind == 1:
        key = (rng.randrange(1, n), rng.randrange(1, n))
        vals[key] += _random_qz(rng, nonzero=True)
    elif kind == 2:
        a = rng.randrange(1, n)
        vals[rng.choice([(a, 0), (0, a)])] += _random_qz(rng, nonzero=True)
    elif kind == 3:
        for (a, b) in vals:
            vals[(a, b)] = _random_qz(rng) if a and b else QZ(0)
    return vals


def _outcome(make):
    try:
        return "accepted", make()
    except ValueError as e:
        return "rejected", str(e)


@pytest.mark.parametrize("name", sorted(_reference_groups()))
def test_cocycle_matches_hook_reference(name):
    """Cocycle2 and CentralExtension against the QZ-hook cocycle check and
    QZ-arithmetic extension table they replaced, on seeded random tables
    with values of mixed orders: the same accept or reject, the same
    message and the same Cayley table."""
    G, homs = _reference_groups()[name]
    rng = random.Random(name)
    seen = set()
    for _ in range(40):
        vals = _random_table(G, homs, rng)
        got = _outcome(lambda: Cocycle2(G, vals))
        want = _outcome(lambda: cocycle_reference.validate(G, vals))
        assert got[0] == want[0]
        seen.add(got[0] if got[0] == "accepted" else got[1])
        if got[0] == "rejected":
            assert got[1] == want[1]
            continue
        alpha = got[1]
        assert _values(alpha) == vals
        assert alpha.m == math.lcm(*(v.order for v in vals.values()))
        for m in (alpha.m, 2 * alpha.m, rng.randrange(1, 13)):
            ext = _outcome(lambda: CentralExtension(G, m, alpha).group.table)
            ref = _outcome(
                lambda: cocycle_reference.extension_table(G, m, vals))
            assert ext[0] == ref[0]
            if ext[0] == "accepted":
                assert [list(r) for r in ext[1]] == ref[1]
            else:
                assert ext[1] == ref[1]
        f = {0: QZ(0), **{g: _random_qz(rng) for g in range(1, G.order)}}
        shifted = {(a, b): v + f[a] + f[b] - f[G.mul(a, b)]
                   for (a, b), v in vals.items()}
        assert _values(shift_by_coboundary(alpha, f)) == shifted
    # on C2 every normalized table is a cocycle: (1, 1) is its one entry
    assert "accepted" in seen
    assert ("2-cocycle identity fails" in seen) == (G.order > 2)
    assert seen & {"not normalized in 1st slot", "not normalized in 2nd slot"}


def test_induced_automorphism_example():
    # Gamma = Z/4, Delta = <g^2> acting trivially on X = Z
    C4 = FiniteGroup.cyclic(4)
    delta = [0, 2]
    sub = [IntMatrix.identity(1), IntMatrix.identity(1)]
    act, cosets = induced_action(C4, delta, sub)
    a = IntMatrix([[0, -1], [-1, 0]])
    sigma0, a_prime = decompose_induced_automorphism(C4, delta, sub, act, cosets, 1, a)
    assert sigma0 in (1, 3)
    assert a_prime == IntMatrix([[-1]])
    back = reconstruct_induced_automorphism(C4, delta, sub, cosets, sigma0, a_prime)
    assert back == a


def test_induced_automorphism_identity():
    C4 = FiniteGroup.cyclic(4)
    delta = [0, 2]
    sub = [IntMatrix.identity(1), IntMatrix([[-1]])]
    act, cosets = induced_action(C4, delta, sub)
    ident = IntMatrix.identity(2)
    sigma0, a_prime = decompose_induced_automorphism(C4, delta, sub, act, cosets, 1, ident)
    assert sigma0 in delta  # coset of Delta
    assert a_prime == IntMatrix.identity(1)


def test_induced_action_from_a_non_normal_subgroup_of_s3():
    """Ind of the trivial module from a subgroup of order 2 of S3 is the
    permutation module on its three right cosets: the trace of g counts the
    cosets Delta s with Delta s g = Delta s.  S3 is nonabelian, so a block
    layout that gave g -> (action of g^-1) fails the homomorphism check."""
    S3 = FiniteGroup.symmetric(3)
    t = next(g for g in range(1, 6) if S3.mul(g, g) == 0)
    act, cosets = induced_action(S3, [0, t], [IntMatrix.identity(1)] * 2)
    traces = []
    for g in range(6):
        m = act.matrices[g]
        traces.append(sum(m.data[i][i] for i in range(m.rows)))
        assert traces[-1] == sum(1 for cs in cosets
                                 if {S3.mul(x, g) for x in cs} == set(cs))
    assert sorted(traces) == [0, 0, 1, 1, 1, 3]


def test_induced_automorphism_rejects_block_mixing():
    C4 = FiniteGroup.cyclic(4)
    delta = [0, 2]
    sub = [IntMatrix.identity(1), IntMatrix.identity(1)]
    act, cosets = induced_action(C4, delta, sub)
    with pytest.raises(BlockDecompositionError):
        decompose_induced_automorphism(
            C4, delta, sub, act, cosets, 1, IntMatrix([[1, 1], [0, 1]]))


def test_induced_automorphism_roundtrip_random():
    random.seed(20240)
    checked = 0
    for gamma, delta in [
        (FiniteGroup.cyclic(4), [0, 2]),
        (FiniteGroup.cyclic(6), [0, 2, 4]),
        (FiniteGroup.cyclic(6), [0, 3]),
        (FiniteGroup.dihedral(4), None),
    ]:
        if delta is None:
            delta = subgroup_closure(gamma, [next(
                g for g in range(gamma.order) if gamma.element_order(g) == 2
                and all(gamma.conj(h, g) in (g, 0) or True for h in range(gamma.order)))])
            # take the center-ish subgroup of D4: rotations by pi
            delta = [0, gamma.power(next(g for g in range(gamma.order)
                                         if gamma.element_order(g) == 4), 2)]
        for x_rank, sub_mat in [(1, IntMatrix([[-1]])), (1, IntMatrix.identity(1)),
                                (2, IntMatrix([[0, 1], [1, 0]]))]:
            d_ord = len(delta)
            # build a Delta-action: delta generator of the cyclic quotient acts
            mats = {0: IntMatrix.identity(x_rank)}
            ok = True
            for d in delta:
                k = 0
                x = 0
                m = IntMatrix.identity(x_rank)
                # express d as a power of the first nontrivial delta element
                d0 = next((e for e in delta if e != 0), None)
                if d == 0:
                    mats[d] = IntMatrix.identity(x_rank)
                    continue
                y, m2 = d0, sub_mat
                while y != d:
                    y = gamma.mul(y, d0)
                    m2 = m2 * sub_mat
                    if y == 0 and y != d:
                        ok = False
                        break
                if not ok:
                    break
                mats[d] = m2
            if not ok or len(mats) != d_ord:
                continue
            if sub_mat * sub_mat != IntMatrix.identity(x_rank) and d_ord > 2:
                continue
            sub = [mats[d] for d in delta]
            try:
                act, cosets = induced_action(gamma, delta, sub)
            except ValueError:
                continue
            # random valid automorphism built via reconstruction, then round-trip
            for _ in range(5):
                sigma0 = random.randrange(gamma.order)
                dset = set(delta)
                if {gamma.conj(sigma0, d) for d in dset} != dset:
                    continue
                a_pr = random.choice(
                    [IntMatrix.identity(x_rank), -IntMatrix.identity(x_rank)])
                a = reconstruct_induced_automorphism(
                    gamma, delta, sub, cosets, sigma0, a_pr)
                try:
                    s_out, a_out = decompose_induced_automorphism(
                        gamma, delta, sub, act, cosets, x_rank, a)
                except BlockDecompositionError:
                    continue  # a need not be equivariant for every sigma0/a'
                back = reconstruct_induced_automorphism(
                    gamma, delta, sub, cosets, s_out, a_out)
                assert back == a
                checked += 1
    assert checked >= 20


def _associative(t):
    n = len(t)
    return all(t[t[x][y]][z] == t[x][t[y][z]]
               for x in range(n) for y in range(n) for z in range(n))


def _light_accepts(t):
    try:
        FiniteGroup(t)
    except ValueError as e:
        assert str(e) == "associativity fails"
        return False
    return True


def _normalized_latin_squares(n, rng=None):
    """Latin squares on range(n) with row 0 and column 0 the identity, by
    backtracking over the cells in row order: all of them, or with rng a
    stream of random ones (candidates tried in random order)."""
    t = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(c):
        if c == len(cells):
            yield tuple(tuple(row) for row in t)
            return
        i, j = cells[c]
        used = set(t[i][:j]) | {t[k][j] for k in range(i)}
        free = [v for v in range(n) if v not in used]
        if rng is not None:
            rng.shuffle(free)
        for v in free:
            t[i][j] = v
            yield from fill(c + 1)
        t[i][j] = None

    return fill(0)


def test_light_test_matches_all_triples_on_small_latin_squares():
    """Every normalized Latin square of order 1 to 5 (63 of them): the
    table is accepted exactly when all n^3 triples associate."""
    seen = {True: 0, False: 0}
    for n in range(1, 6):
        for t in _normalized_latin_squares(n):
            expected = _associative(t)
            assert _light_accepts(t) == expected, t
            seen[expected] += 1
    assert sum(seen.values()) == 63 and seen[False] > 0 and seen[True] > 0


def _relabeled(t, rng):
    """The table under a random relabeling that fixes the identity 0."""
    n = len(t)
    perm = [0] + rng.sample(range(1, n), n - 1)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[t[a][b]]
    return out


def _intercalate_swaps(t):
    """Loops one 2x2 swap away from the table: wherever rows i, k and
    columns j, l (none of them 0) hold a b / b a, exchange a and b."""
    n = len(t)
    for i, k in itertools.combinations(range(1, n), 2):
        for j, l in itertools.combinations(range(1, n), 2):
            if t[i][j] == t[k][l] and t[i][l] == t[k][j]:
                out = [list(row) for row in t]
                out[i][j], out[i][l] = t[i][l], t[i][j]
                out[k][j], out[k][l] = t[k][l], t[k][j]
                yield out


def test_light_test_matches_all_triples_on_loops_of_order_6_to_8():
    """Seeded loops of order 6 to 8: random normalized Latin squares, the
    groups of those orders relabeled at random, and loops one intercalate
    swap away from a group, which fail associativity on few triples."""
    rng = random.Random("light")
    C2 = FiniteGroup.cyclic(2)
    tables = []
    for n in (6, 7, 8):
        tables += [next(_normalized_latin_squares(n, rng)) for _ in range(10)]
    for G in [FiniteGroup.cyclic(6), FiniteGroup.symmetric(3),
              FiniteGroup.cyclic(7), FiniteGroup.cyclic(8),
              FiniteGroup.dihedral(4),
              FiniteGroup.direct_product(C2, FiniteGroup.cyclic(4)),
              FiniteGroup.direct_product(C2, FiniteGroup.direct_product(C2, C2)),
              _q8()]:
        t = _relabeled(G.table, rng)
        tables.append(t)
        tables += list(itertools.islice(_intercalate_swaps(t), 4))
    seen = {True: 0, False: 0}
    for t in tables:
        expected = _associative(t)
        assert _light_accepts(t) == expected, t
        seen[expected] += 1
    assert seen[True] >= 8 and seen[False] >= 30


def _q8():
    """The quaternion group, as the unit quaternions +-1, +-i, +-j, +-k."""
    units = {"1": (1, "1"), "i": (1, "i"), "j": (1, "j"), "k": (1, "k")}
    prod = {("1", x): (1, x) for x in "1ijk"}
    prod.update({(x, "1"): (1, x) for x in "1ijk"})
    prod.update({("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"),
                 ("k", "k"): (-1, "1"), ("i", "j"): (1, "k"),
                 ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
                 ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"),
                 ("i", "k"): (-1, "j")})
    elems = [(s, u) for s in (1, -1) for u in units]
    index = {e: i for i, e in enumerate(elems)}
    table = []
    for s1, u1 in elems:
        row = []
        for s2, u2 in elems:
            s, u = prod[(u1, u2)]
            row.append(index[(s1 * s2 * s, u)])
        table.append(row)
    return FiniteGroup(table)


def test_generators_generate():
    """Closing {0} under right multiplication by the generators reaches
    every element, and no generator is a product of the earlier ones."""
    for G in [FiniteGroup.cyclic(1), FiniteGroup.cyclic(12),
              FiniteGroup.symmetric(4), FiniteGroup.dihedral(6), _q8(),
              FiniteGroup.direct_product(FiniteGroup.cyclic(2),
                                         FiniteGroup.symmetric(3))]:
        gens = G.generators()
        for k in range(len(gens) + 1):
            assert (gens[k] not in subgroup_closure(G, gens[:k])
                    if k < len(gens) else
                    subgroup_closure(G, gens) == list(range(G.order)))


def test_coset_section_rejects_bad_sections():
    C4 = FiniteGroup.cyclic(4)
    good = {(0, 2): 0, (1, 3): 3}
    cosets, coset_of, r = coset_section(C4, [0, 2], good)
    assert cosets == [(0, 2), (1, 3)] and coset_of[1] == (1, 3)
    # b = r(b) s(coset of b): 1 = 2 + 3 in C4, and 2 is A_elems[1]
    assert [r(b) for b in range(4)] == [0, 1, 1, 0]
    for bad in [{(0, 2): 0, (1, 3): 2}, {(0, 2): 0}]:
        with pytest.raises(ValueError, match="section must choose"):
            coset_section(C4, [0, 2], bad)
    # {0, 1} is not a subgroup of C4: 3 - 1 = 2 is outside it
    _, _, r = coset_section(C4, [0, 1], {(0, 1): 0, (1, 2): 1, (2, 3): 3,
                                         (0, 3): 3})
    with pytest.raises(ValueError, match="mismatch"):
        [r(b) for b in range(4)]


#: Under python -O: a QZ cochain on C3 that is normalized but not a cocycle,
#: a constant cocycle (not normalized), an extension by mu_3 of a cocycle
#: of level 2, an action of C2 x C2 that keeps every relation through one
#: generator and breaks one through the other, a section that picks outside
#: its coset, and the same action in a case file, which must exit 2 naming
#: the field.
OPTIMIZED_CHECKS = """
import contextlib, io, json, os, sys, tempfile
from toruscheck.cli import main
from lemmas import corestriction_cocycle
from toruscheck.groups import (CentralExtension, Cocycle2, FiniteGroup,
                               GroupAction)
from toruscheck.lattice import IntMatrix
from toruscheck.qz import QZ

if __debug__:
    sys.exit("asserts are still enabled")


def attempt(label, make):
    try:
        make()
        print(label, "accepted")
    except ValueError as e:
        print(label, "rejected:", e)


C3 = FiniteGroup.cyclic(3)
C4 = FiniteGroup.cyclic(4)
K = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
attempt("non-cocycle", lambda: Cocycle2(C3, {
    (a, b): QZ(1, 2) if (a, b) == (1, 1) else QZ(0)
    for a in range(3) for b in range(3)}))
attempt("non-normalized", lambda: Cocycle2(C3, {
    (a, b): QZ(1, 2) for a in range(3) for b in range(3)}))
C2 = FiniteGroup.cyclic(2)
attempt("mu_m", lambda: CentralExtension(C2, 3, Cocycle2(C2, {
    (a, b): QZ(a * b, 2) for a in range(2) for b in range(2)})))
# m(x + (0, 1)) = m(x) m(0, 1) holds for every x; m(0, 1) m(1, 0) differs
# from m(1, 1) = m(1, 0) m(0, 1), since the swap and the sign do not commute
swap, sign = IntMatrix([[0, 1], [1, 0]]), IntMatrix([[-1, 0], [0, 1]])
mats = [IntMatrix.identity(2), swap, sign, sign * swap]
attempt("action", lambda: GroupAction(K, mats))
attempt("section", lambda: corestriction_cocycle(
    Cocycle2.zero(FiniteGroup.cyclic(2)), C4, [0, 2], {(0, 2): 0, (1, 3): 2}))
doc = {"schema": 1, "rank": 2, "galois": {"order": 1, "matrix": [[1, 0], [0, 1]]},
       "component": {"kind": "table", "table": [list(r) for r in K.table],
                     "matrices": [[list(r) for r in m.data] for m in mats]},
       "z": [[0, 0]], "phi": ["0", "0"]}
with tempfile.TemporaryDirectory() as d:
    path = os.path.join(d, "case.json")
    with open(path, "w") as f:
        json.dump(doc, f)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["tori-verify", "--input", path])
    print("case file exit", code, err.getvalue().strip())
"""


def test_group_checks_run_under_python_O():
    src = os.path.dirname(os.path.dirname(os.path.abspath(toruscheck.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, TESTS]))
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_CHECKS],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "non-cocycle rejected: 2-cocycle identity fails",
        "non-normalized rejected: not normalized in 2nd slot",
        "mu_m rejected: cocycle values must lie in mu_m",
        "action rejected: matrices must satisfy the group relations",
        "section rejected: section must choose inside each coset",
        "case file exit 2 error: component.matrices: matrices must satisfy "
        "the group relations",
    ]


#: Bad inputs for every guard of groups.py that had been an assert, and for
#: the subgroup guard of lemmas.stabilizer_of_class, run with asserts
#: stripped.
OPTIMIZED_GUARDS = """
import sys

from lemmas import stabilizer_of_class
from toruscheck.groups import (FiniteGroup, GroupAction, induced_action,
    decompose_induced_automorphism)
from toruscheck.lattice import IntMatrix

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


C2, C4 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(4)
raises("identity first", lambda: C4.subgroup_as_group([2, 0]))
raises("subgroup", lambda: C4.subgroup_as_group([0, 1]))
raises("ranks", lambda: GroupAction.trivial(C2, 1).commutes_with(
    GroupAction.trivial(C2, 2)))
raises("stabilizer", lambda: stabilizer_of_class(
    C4, lambda a, cls: cls if a == 1 else cls + 1, 0))
sub = [IntMatrix.identity(1), IntMatrix([[-1]])]
act, cosets = induced_action(C4, [0, 2], sub)
raises("shape", lambda: decompose_induced_automorphism(
    C4, [0, 2], sub, act, cosets, 1, IntMatrix.identity(3)))
"""


def test_guards_raise_under_python_O():
    """The guards of groups.py and lemmas.stabilizer_of_class raise
    ValueError, so they still run when Python strips asserts."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(toruscheck.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, TESTS]))
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_GUARDS],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "raised identity first - identity must come first",
        "raised subgroup - elements do not form a subgroup",
        "raised ranks - actions of ranks 1 and 2",
        "raised stabilizer - stabilizer failed subgroup closure",
        "raised shape - an automorphism of the induced module must be 2 x 2",
    ]
