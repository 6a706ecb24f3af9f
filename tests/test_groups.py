import random

import pytest

from toruscheck.lattice import IntMatrix
from toruscheck.qz import QZ
from toruscheck.groups import (
    FiniteGroup,
    GroupAction,
    Cocycle2,
    CentralExtension,
    corestriction_cocycle,
    induced_action,
    decompose_induced_automorphism,
    reconstruct_induced_automorphism,
    BlockDecompositionError,
    qz_module,
)


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
    H = C4.subgroup_closure([2])
    assert H == [0, 2]
    cosets = C4.right_cosets(H)
    assert sorted(cosets) == [(0, 2), (1, 3)]


def test_group_action_checks():
    sigma = IntMatrix([[-1]])
    act = GroupAction.cyclic(2, sigma)
    assert act.act(1, (3,)) == (-3,)
    with pytest.raises(AssertionError):
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
    beta = alpha.shift_by_coboundary({0: QZ(0), 1: QZ(1, 4)})
    beta.validate()
    with pytest.raises(AssertionError):
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
    res = alpha.restrict([0, 2], C2)
    res.validate()
    # inflation along C4 -> C2 of a C2-cocycle is a valid C4-cocycle
    beta = Cocycle2(C2, {(a, b): QZ(1, 2) if a == b == 1 else QZ(0)
                         for a in range(2) for b in range(2)})
    infl = beta.inflate(C4, [g % 2 for g in range(4)])
    infl.validate()


def test_corestriction_zero_and_identity():
    C4 = FiniteGroup.cyclic(4)
    zero = Cocycle2.zero(C4)
    sec = {tuple(sorted(cs)): cs[0] for cs in C4.right_cosets(range(4))}
    beta = corestriction_cocycle(zero, C4, list(range(4)), sec)
    assert all(v.is_zero() for v in beta.values.values())

    # A = B with the identity section: beta == alpha
    vals = {(a, b): QZ((a % 4 + b % 4 >= 4) * 1, 2) for a in range(4) for b in range(4)}
    # the above is the mod-2 reduction of the fundamental cocycle of C4
    alpha = Cocycle2(C4, {(a, b): QZ((a + b) // 4, 2) for a in range(4) for b in range(4)})
    beta = corestriction_cocycle(alpha, C4, list(range(4)), sec)
    for k, v in alpha.values.items():
        assert beta.values[k] == v


def test_corestriction_after_restriction_is_index_multiple():
    # cores(res(x)) = [B : A] x on H^2; for Z/2-coefficients over Z/2 < Z/4
    # the index is 2 and the generator dies
    from toruscheck.cohomology import GModule, Cochain, tate_group

    C4 = FiniteGroup.cyclic(4)
    C2 = FiniteGroup.cyclic(2)
    gm = GModule.finite(C4, (2,), [IntMatrix.identity(1)] * 4)
    H2 = tate_group(gm, 2)
    assert H2.order == 2
    gen = next(c for c in H2.elements() if any(c))
    rep = H2.representative(gen)
    qz_vals = {k: QZ(v[0], 2) for k, v in rep.table.items()}
    alpha = Cocycle2(C4, qz_vals)
    res = alpha.restrict([0, 2], C2)
    sec = {tuple(sorted(cs)): cs[0] for cs in C4.right_cosets([0, 2])}
    # embed the restricted cocycle back on the subgroup inside C4
    sub_vals = {}
    for i in range(2):
        for j in range(2):
            sub_vals[(i, j)] = res(i, j)
    res_on_sub = Cocycle2(C2, sub_vals)
    cores = corestriction_cocycle(res_on_sub, C4, [0, 2], sec)
    back = Cochain(gm, 2, {k: (int(v.frac * 2),)
                           for k, v in cores.values.items()})
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
    alpha2 = alpha.shift_by_coboundary(shift)
    E2 = CentralExtension(C2xC2, 2, alpha2)
    iso = E2.isomorphism_from_coboundary(shift)
    for x in range(8):
        for y in range(8):
            assert iso[E2.group.mul(x, y)] == E.group.mul(iso[x], iso[y])


def test_induced_automorphism_example():
    # Gamma = Z/4, Delta = <g^2> acting trivially on X = Z
    C4 = FiniteGroup.cyclic(4)
    delta = [0, 2]
    sub = [IntMatrix.identity(1), IntMatrix.identity(1)]
    act, cosets = induced_action(C4, delta, sub, 1)
    a = IntMatrix([[0, -1], [-1, 0]])
    sigma0, a_prime = decompose_induced_automorphism(C4, delta, sub, act, cosets, 1, a)
    assert sigma0 in (1, 3)
    assert a_prime == IntMatrix([[-1]])
    back = reconstruct_induced_automorphism(C4, delta, sub, cosets, 1, sigma0, a_prime)
    assert back == a


def test_induced_automorphism_identity():
    C4 = FiniteGroup.cyclic(4)
    delta = [0, 2]
    sub = [IntMatrix.identity(1), IntMatrix([[-1]])]
    act, cosets = induced_action(C4, delta, sub, 1)
    ident = IntMatrix.identity(2)
    sigma0, a_prime = decompose_induced_automorphism(C4, delta, sub, act, cosets, 1, ident)
    assert sigma0 in delta  # coset of Delta
    assert a_prime == IntMatrix.identity(1)


def test_induced_automorphism_rejects_block_mixing():
    C4 = FiniteGroup.cyclic(4)
    delta = [0, 2]
    sub = [IntMatrix.identity(1), IntMatrix.identity(1)]
    act, cosets = induced_action(C4, delta, sub, 1)
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
            delta = gamma.subgroup_closure([next(
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
                act, cosets = induced_action(gamma, delta, sub, x_rank)
            except AssertionError:
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
                    gamma, delta, sub, cosets, x_rank, sigma0, a_pr)
                try:
                    s_out, a_out = decompose_induced_automorphism(
                        gamma, delta, sub, act, cosets, x_rank, a)
                except BlockDecompositionError:
                    continue  # a need not be equivariant for every sigma0/a'
                back = reconstruct_induced_automorphism(
                    gamma, delta, sub, cosets, x_rank, s_out, a_out)
                assert back == a
                checked += 1
    assert checked >= 20
