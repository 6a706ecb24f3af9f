import os
import random
import subprocess
import sys

import pytest

import cochain_reference
import cohomology_reference as ref
from cochain_reference import from_table

import toruscheck
from toruscheck import checks
from toruscheck.casefile import load_case_file
from toruscheck.lattice import IntMatrix
from toruscheck.groups import FiniteGroup, GroupAction
from toruscheck.cohomology import (
    GModule,
    Cochain,
    tate_group,
    cup,
    d_matrix,
    dd_rows,
    hyper_h1,
    ZDomain,
    FiniteDomain,
    FiniteSupportChain,
    coinflation,
    normalize_cocycle,
)


def neg_module(n):
    """Z with Z/n acting through sigma -> -1 (n even) for tests."""
    return GModule.from_action(GroupAction.cyclic(n, IntMatrix([[-1]])))


def triv_module(n, rank=1):
    return GModule.from_action(GroupAction.trivial(FiniteGroup.cyclic(n), rank))


def test_d_of_constant():
    gm = neg_module(2)
    x = Cochain(gm, 0, (3,))
    dx = x.d()
    assert dx(0) == (0,)
    assert dx(1) == (-6,)  # sigma(m) - m = -3 - 3


def test_d_squared_zero_random():
    random.seed(5)
    gm = GModule.from_action(GroupAction.cyclic(4, IntMatrix([[-1]])))
    for _ in range(25):
        x = Cochain(gm, 1, [random.randint(-5, 5) for i in range(4)])
        ddx = x.d().d()
        assert ddx.vec == (0,) * 64


def _sign_matrices(group):
    """Z by the sign of S3: -1 on the elements of order 2."""
    return [IntMatrix([[-1 if g and group.mul(g, g) == 0 else 1]])
            for g in range(group.order)]


def _regular_matrices(group):
    """The permutation matrices of left multiplication on Z[group]."""
    n = group.order
    return [IntMatrix([[1 if group.mul(g, j) == i else 0 for j in range(n)]
                       for i in range(n)]) for g in range(n)]


def _coboundary_modules():
    c2, c3, c4, c6 = (FiniteGroup.cyclic(n) for n in (2, 3, 4, 6))
    s3 = FiniteGroup.symmetric(3)
    sign = _sign_matrices(s3)
    rot = GroupAction.cyclic(3, IntMatrix([[0, -1], [1, -1]]))
    c4_mats = [IntMatrix([[1, 0], [0, (-1) ** k]]) for k in range(4)]
    swap = IntMatrix([[0, 1], [1, 0]])
    return {
        "Z over C2": GModule.trivial_ints(c2),
        "Z over S3": GModule.trivial_ints(s3),
        "Z^2 over C6": GModule.from_action(GroupAction.trivial(c6, 2)),
        "Z by -1 over C4": neg_module(4),
        "Z by -1 over C6": neg_module(6),
        "Z^2 by rotation over C3": GModule.from_action(rot),
        "Z^2 by rotation over C6": GModule.from_action(GroupAction.cyclic(
            6, IntMatrix([[1, -1], [1, 0]]))),
        "Z by the sign of S3": GModule.from_action(GroupAction(s3, sign)),
        "Z^2 by the swap over C2": GModule.from_action(
            GroupAction.cyclic(2, swap)),
        "Z[S3] permuted by S3": GModule.from_action(
            GroupAction(s3, _regular_matrices(s3))),
        "Z[C6] permuted by C6": GModule.from_action(
            GroupAction(c6, _regular_matrices(c6))),
        "Z/2 + Z/4 over C4": GModule.finite(c4, (2, 4), c4_mats),
        "Z/3 by the sign of S3": GModule.finite(s3, (3,), sign),
        "Z/2 over C3": GModule.finite(c3, (2,), [IntMatrix([[1]])] * 3),
        "Z/3 + Z/3 swapped over C6": GModule.finite(
            c6, (3, 3), [swap if k % 2 else IntMatrix.identity(2)
                         for k in range(6)]),
    }


@pytest.mark.parametrize("name", sorted(_coboundary_modules()))
def test_d_matches_reference(name):
    """Cochain.d against the key-at-a-time coboundary it replaced, on seeded
    random cochains of degrees 0-3: the same values under the same keys in
    the same order."""
    gm = _coboundary_modules()[name]
    rng = random.Random(name)
    for degree in range(4):
        size = gm.ngens * gm.group.order ** degree
        for _ in range(3):
            x = Cochain(gm, degree, [rng.randint(-9, 9) for _ in range(size)])
            got, want = x.d(), cochain_reference.coboundary(x)
            assert got.degree == want.degree == degree + 1
            assert got.vec == want.vec


@pytest.mark.parametrize("name", sorted(_coboundary_modules()))
def test_d_matrix_matches_unit_cochains(name):
    """d_matrix, written from the compiled rows, equals entry for entry the
    matrix built column by column from the coboundaries of unit cochains,
    in degrees 0-2, or 0-1 where C^3 has 400 entries or more (the oracle
    computes one coboundary per column)."""
    gm = _coboundary_modules()[name]
    for degree in range(3 if gm.group.order ** 3 * gm.ngens < 400 else 2):
        assert d_matrix(gm, degree) == cochain_reference.d_matrix(gm, degree)


def _non_homomorphism():
    """Z^2 over C3 with matrices that fix the identity but do not compose
    like the group: d o d is not zero on it."""
    return GModule(FiniteGroup.cyclic(3), 2, None,
                   [IntMatrix.identity(2), IntMatrix([[0, 1], [1, 0]]),
                    IntMatrix([[2, 0], [0, 1]])], check=False)


def _sampled_modules():
    modules = dict(_coboundary_modules())
    modules["non-homomorphism"] = _non_homomorphism()
    return modules


@pytest.mark.parametrize("name", sorted(_sampled_modules()))
def test_sampled_checks_match_per_sample_reference(name):
    """checks.dd_zero (one composed operator) and checks.cup_leibniz (flat
    cup products) against their per-sample key-at-a-time forms: the same
    Verdict, witness and counts, and the same rng state afterwards, on
    valid modules and on one whose matrices are not a homomorphism."""
    gm = _sampled_modules()[name]
    for degree in range(3):
        for samples in (0, 5):
            ours, theirs = random.Random(name), random.Random(name)
            assert checks.dd_zero(gm, degree, ours, samples, 3) == \
                cochain_reference.dd_zero(gm, degree, theirs, samples, 3)
            assert ours.getstate() == theirs.getstate()
    ours, theirs = random.Random(name), random.Random(name)
    assert checks.cup_leibniz(gm, ours, 4) == \
        cochain_reference.cup_leibniz(gm, theirs, 4)
    assert ours.getstate() == theirs.getstate()


def test_sampled_checks_fail_on_a_non_homomorphism():
    """The module whose matrices are not a homomorphism fails both sampled
    checks at the first sample, and d o d has nonzero rows on it."""
    gm = _non_homomorphism()
    assert dd_rows(gm, 1)
    assert checks.dd_zero(gm, 1, random.Random(0), 20, 3) == \
        checks.Verdict(False, {"sample": 0}, {"samples": 1})
    assert not checks.cup_leibniz(gm, random.Random(0), 20).ok


def _case_modules():
    """The Galois modules X of the two fixtures and of the order-6 case."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = {"norm one": os.path.join(root, "fixtures", "norm_one_torus.json"),
             "S3 component": os.path.join(root, "fixtures",
                                          "s3_component.json"),
             "Galois order 6": os.path.join(root, "tests",
                                            "galois6_case.json")}
    return {name: load_case_file(path)[0].gmodule()
            for name, path in paths.items()}


@pytest.mark.parametrize("name", ["norm one", "S3 component",
                                  "Galois order 6"])
def test_cup_matches_reference(name):
    """cup, which acts on the values of y once per product of a left key,
    equals the key-at-a-time cup of tests/cochain_reference.py on random
    cochains of degrees 0-2 each, with integer cochains on the left
    (n . v) and on the right (v . n)."""
    gm = _case_modules()[name]
    ints = GModule.trivial_ints(gm.group)
    rng = random.Random(name)

    def times(a, b):
        return tuple(b[0] * c for c in a)

    def cochain(module, degree):
        size = module.ngens * module.group.order ** degree
        return Cochain(module, degree, [rng.randint(-5, 5)
                                        for _ in range(size)])

    for p in range(3):
        for q in range(3):
            for left, right, pairing in [(ints, gm, lambda a, b: times(b, a)),
                                         (gm, ints, times)]:
                x, y = cochain(left, p), cochain(right, q)
                got = cup(x, y, pairing, gm)
                want = cochain_reference.cup(x, y, pairing, gm)
                assert got.degree == want.degree == p + q
                assert got.vec == want.vec, (p, q)


def test_tate_examples():
    # Z/2 acting by -1 on Z: H^-1 = Z/2, H^0 = 0
    gm = neg_module(2)
    hm1 = tate_group(gm, -1)
    assert hm1.group.torsion == (2,) and hm1.group.free_rank == 0
    h0 = tate_group(gm, 0)
    assert h0.group.order == 1

    # trivial action on Z: H^-1 = 0
    gmt = triv_module(3)
    assert tate_group(gmt, -1).group.order == 1

    # Z/2 trivial on Z: H^2 = Z/2
    gm2 = triv_module(2)
    h2 = tate_group(gm2, 2)
    assert h2.group.torsion == (2,) and h2.group.free_rank == 0


def test_tate_h2_exhaustive_crosscheck():
    # exhaustive 2-cocycle enumeration oracle over Z/2 with Z/2-coefficients
    # (trivial action): values in {0, 1} mod 2; count classes and compare
    C2 = FiniteGroup.cyclic(2)
    gm = GModule.finite(C2, (2,), [IntMatrix.identity(1)] * 2)
    import itertools

    def is_cocycle(tab):
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    s = (tab[(b, c)] - tab[(C2.mul(a, b), c)]
                         + tab[(a, C2.mul(b, c))] - tab[(a, b)])
                    if s % 2:
                        return False
        return True

    cocycles = []
    keys = [(a, b) for a in range(2) for b in range(2)]
    for vals in itertools.product(range(2), repeat=4):
        tab = dict(zip(keys, vals))
        if is_cocycle(tab):
            cocycles.append(tab)
    # coboundaries from 1-cochains
    cobs = set()
    for vals in itertools.product(range(2), repeat=2):
        c = dict(zip([0, 1], vals))
        tab = tuple(sorted(((a, b), (c[b] - c[C2.mul(a, b)] + c[a]) % 2)
                           for a in range(2) for b in range(2)))
        cobs.add(tab)
    classes = set()
    for z in cocycles:
        canon = None
        for cob in cobs:
            shifted = tuple(sorted(((k, (z[k] + dict(cob)[k]) % 2))
                                   for k in keys))
            if canon is None or shifted < canon:
                canon = shifted
        classes.add(canon)
    h2 = tate_group(gm, 2)
    assert h2.order == len(classes) == 2


def test_classify_representative_roundtrip():
    gm = GModule.from_action(GroupAction.cyclic(3, IntMatrix([[0, -1], [1, -1]])))
    for n in (1, 2):
        H = tate_group(gm, n)
        for coords in H.elements():
            rep = H.representative(coords)
            assert ref.is_normalized(rep)
            assert H.classify(rep) == coords


def test_cup_leibniz_random():
    random.seed(11)
    Q = FiniteGroup.cyclic(4)
    ints = GModule.trivial_ints(Q)
    gm = GModule.from_action(GroupAction.cyclic(4, IntMatrix([[-1]])))

    def pairing(a, b):
        return (a[0] * b[0],)

    for _ in range(10):
        x = Cochain(ints, 1, [random.randint(-3, 3) for i in range(4)])
        y = Cochain(gm, 1, [random.randint(-3, 3) for i in range(4)])
        lhs = cup(x, y, pairing, gm).d()
        rhs = cup(x.d(), y, pairing, gm).add(cup(x, y.d(), pairing, gm).neg())
        # d(x u y) = dx u y + (-1)^p x u dy with p = 1
        assert lhs.vec == rhs.vec


def test_cup_with_norm_zero_element_spec_example():
    # Q = Z/2, c(s,s) = 1 else 0 valued in Z (trivial action), X = Z with -1,
    # lambda = 1 (norm zero): the degree-(-1) cup  z(r) = sum_t c(r,t) (rt.lam)
    # gives (1) = 0, (s) = 1, a cocycle that is NOT a coboundary.
    Q = FiniteGroup.cyclic(2)
    gm = neg_module(2)
    c = {(a, b): 1 if a == b == 1 else 0 for a in range(2) for b in range(2)}
    lam = (1,)
    table = {}
    for r in range(2):
        acc = (0,)
        for t in range(2):
            v = gm.act(Q.mul(r, t), lam)
            acc = tuple(x + c[(r, t)] * y for x, y in zip(acc, v))
        table[(r,)] = acc
    z = from_table(gm, 1, table)
    assert z(0) == (0,)
    assert z(1) == (1,)
    assert not any(z.d().vec)
    # cocycle identity 1 + sigma.1 = 0 holds; coboundary obstruction:
    # (s-1)t = -2t = 1 unsolvable
    H1 = tate_group(gm, 1)
    assert H1.classify(z) != H1.classify(Cochain.zero(gm, 1))


def test_hyper_h1_f_zero_splits():
    # f = 0: H^1(T -> U) = H^1(Q, T) + U^Q
    Q3 = GroupAction.cyclic(3, IntMatrix([[0, -1], [1, -1]]))
    T = GModule.from_action(Q3)
    U = GModule.from_action(GroupAction.trivial(FiniteGroup.cyclic(3), 1))
    H = hyper_h1(T, U, IntMatrix.zero(1, 2))
    h1T = tate_group(T, 1)
    expected_torsion = h1T.group.torsion
    assert H.group.free_rank == 1  # U^Q = Z
    assert H.group.torsion == expected_torsion


def test_hyper_h1_spec_norm_one_example():
    # T = U = Z with Q = Z/2 by -1 and f = 2 (= 1 - a^-1 for a = -1)
    act = GroupAction.cyclic(2, IntMatrix([[-1]]))
    T = GModule.from_action(act)
    H = hyper_h1(T, T, IntMatrix([[2]]))
    # direct enumeration oracle: z(s) = k, c with f(k) = (s-1)c = -2c, so
    # k = -c; boundaries: (-2t, 2t).  Classes = Z / ... compute by brute force
    # on the lattice {(k, c): k = -c} = Z, boundaries 2Z: expect Z/2... but
    # only pairs with k in the cocycle set: all k. So H = Z/2.
    assert H.group.order == 2

    # exactness at H^1(T->U): kernel of (z,c)->[z] equals image of U^Q
    h1T = tate_group(T, 1)
    from toruscheck.cohomology import Cochain as C

    kernel_classes = set()
    for coords in H.elements():
        z, c = H.representative(coords)
        if not any(h1T.classify(z)):
            kernel_classes.add(coords)
    image_classes = set()
    # U^Q = 0 here (action -1), so image is trivial class only
    z0 = C.zero(T, 1)
    image_classes.add(H.classify(z0, (0,)))
    assert kernel_classes == image_classes


def test_hyper_h1_exactness_verification():
    act2 = GroupAction.cyclic(2, IntMatrix([[-1]]))
    T2 = GModule.from_action(act2)
    cases = [
        (T2, T2, IntMatrix([[2]])),   # norm-one complex
        (T2, T2, IntMatrix.zero(1, 1)),
    ]
    Q3 = GroupAction.cyclic(3, IntMatrix([[0, -1], [1, -1]]))
    T3 = GModule.from_action(Q3)
    U3 = GModule.from_action(GroupAction.trivial(FiniteGroup.cyclic(3), 1))
    cases.append((T3, U3, IntMatrix.zero(1, 2)))
    ident = GModule.from_action(GroupAction.trivial(FiniteGroup.cyclic(3), 1))
    cases.append((ident, ident, IntMatrix.identity(1)))
    for cx in cases:
        H = hyper_h1(*cx)
        assert ref.verify_exactness(H)


def test_hyper_h1_exactness_randomized():
    # complexes 1 - a drawn from the case generator
    from toruscheck.suite import random_case_data

    rng = random.Random(31)
    checked = 0
    while checked < 6:
        torus, z, phi = random_case_data(rng)
        T = GModule.from_action(torus.galois)
        a = rng.randrange(torus.comp.group.order)
        f = IntMatrix.identity(torus.rank) - torus.comp.matrices[a]
        H = hyper_h1(T, T, f)
        assert ref.verify_exactness(H)
        checked += 1


def test_hyper_h1_rejects_non_equivariant():
    T = GModule.from_action(GroupAction.cyclic(2, IntMatrix([[-1]])))
    U = GModule.from_action(GroupAction.trivial(FiniteGroup.cyclic(2), 1))
    with pytest.raises(ValueError, match="f must be equivariant"):
        hyper_h1(T, U, IntMatrix([[1]]))


def test_homology_differential_and_boundary_squared():
    random.seed(3)
    dom = ZDomain(4, IntMatrix([[-1]]))
    for _ in range(20):
        supp = {}
        for _ in range(4):
            key = (random.randint(-5, 5), random.randint(-5, 5))
            supp[key] = (random.randint(-4, 4),)
        y = FiniteSupportChain(dom, 2, 1, supp)
        assert not y.boundary().boundary().support  # d d = 0 (degree 2 -> 0)
    for _ in range(20):
        supp = {}
        for _ in range(4):
            key = (random.randint(-5, 5), random.randint(-5, 5),
                   random.randint(-5, 5))
            supp[key] = (random.randint(-4, 4),)
        y = FiniteSupportChain(dom, 3, 1, supp)
        assert not y.boundary().boundary().support


def test_homology_differential_one_point():
    # degree-1 chain at w with value v: boundary = (sigma^-w - 1) v at ()
    dom = ZDomain(2, IntMatrix([[-1]]))
    y = FiniteSupportChain(dom, 1, 1, {(3,): (2,)})
    b = y.boundary()
    assert b.value(()) == (-2 - 2,)  # sigma^-3 = -1: (-2) - 2


def test_coinflation_commutes_with_boundary():
    # chains on Z/4 -> Z/2 model
    random.seed(9)
    C4 = FiniteGroup.cyclic(4)
    C2 = FiniteGroup.cyclic(2)
    m4 = [IntMatrix.identity(1), IntMatrix([[-1]]), IntMatrix.identity(1),
          IntMatrix([[-1]])]
    m2 = [IntMatrix.identity(1), IntMatrix([[-1]])]
    dom4 = FiniteDomain(C4, m4)
    dom2 = FiniteDomain(C2, m2)
    proj = lambda w: w % 2
    for _ in range(20):
        supp = {(random.randrange(4), random.randrange(4)): (random.randint(-3, 3),)
                for _ in range(5)}
        y = FiniteSupportChain(dom4, 2, 1, supp)
        lhs = coinflation(y, proj, dom2).boundary()
        rhs = coinflation(y.boundary(), proj, dom2)
        assert lhs.support == rhs.support


@pytest.mark.parametrize("seed", range(4))
def test_chain_maps_match_the_per_term_sums(seed):
    """boundary and coinflation, summed in one dict with zero sums dropped
    at the end, give the supports of one add_into per term: on chains of
    degree 1-3 over Z (rank 1 and 2) and over C4, with values small enough
    that many sums cancel, including to an empty chain."""
    rng = random.Random(seed)
    C4 = FiniteGroup.cyclic(4)
    doms = [ZDomain(4, IntMatrix([[-1]])),
            ZDomain(3, IntMatrix([[0, -1], [1, -1]])),
            FiniteDomain(C4, [IntMatrix([[(-1) ** w]]) for w in range(4)])]
    dom2 = FiniteDomain(FiniteGroup.cyclic(2),
                        [IntMatrix([[1]]), IntMatrix([[-1]])])
    emptied = 0
    for _ in range(30):
        for dom in doms:
            rank = dom.mats[0].rows
            keys = range(4) if isinstance(dom, FiniteDomain) else range(-2, 3)
            for degree in (1, 2, 3):
                supp = {tuple(rng.choice(keys) for _ in range(degree)):
                        tuple(rng.randint(-1, 1) for _ in range(rank))
                        for _ in range(rng.randint(0, 6))}
                y = FiniteSupportChain(dom, degree, rank, supp)
                got = y.boundary().support
                assert got == ref.boundary_by_terms(y).support
                assert all(any(v) for v in got.values())
                emptied += bool(supp) and not got
                if isinstance(dom, FiniteDomain):
                    push = coinflation(y, lambda w: w % 2, dom2).support
                    assert push == ref.coinflation_by_terms(
                        y, lambda w: w % 2, dom2).support
                    assert all(any(v) for v in push.values())
    assert emptied


def test_coinflation_fiber_example():
    C4 = FiniteGroup.cyclic(4)
    C2 = FiniteGroup.cyclic(2)
    dom4 = FiniteDomain(C4, [IntMatrix.identity(1)] * 4)
    dom2 = FiniteDomain(C2, [IntMatrix.identity(1)] * 2)
    y = FiniteSupportChain(dom4, 1, 1, {(1,): (5,), (3,): (5,)})
    out = coinflation(y, lambda w: w % 2, dom2)
    assert out.value((1,)) == (10,)  # fiber size 2 combines values
    # pointwise evaluator agrees
    out2 = ref.coinflation_pointwise(y, lambda w: [w, w + 2], dom2, [(1,), (0,)])
    assert out2.value((1,)) == (10,)
    with pytest.raises(ValueError):
        ref.coinflation_pointwise(y, lambda w: None, dom2, [(1,)])


def test_enumeration_crosschecks_snf_route():
    # the two computation paths (exhaustive enumeration of cochain tables
    # and the integer-linear-system route) must agree on finite modules
    C2 = FiniteGroup.cyclic(2)
    C3 = FiniteGroup.cyclic(3)
    neg_mod2 = GModule.finite(C2, (4,), [IntMatrix.identity(1),
                                         IntMatrix([[-1]])])
    cases = [
        (GModule.finite(C2, (2,), [IntMatrix.identity(1)] * 2), 1),
        (GModule.finite(C2, (2,), [IntMatrix.identity(1)] * 2), 2),
        (GModule.finite(C2, (4,), [IntMatrix.identity(1)] * 2), 2),
        (neg_mod2, 1),
        (neg_mod2, 2),
        (GModule.finite(C3, (3,), [IntMatrix.identity(1)] * 3), 1),
    ]
    for gm, deg in cases:
        snf_order = tate_group(gm, deg).order
        enum_order = ref.enumerate_h_classes(gm, deg)
        assert snf_order == enum_order, (gm.rels, deg, snf_order, enum_order)


def test_degree_rejected():
    gm = neg_module(2)
    with pytest.raises(ValueError):
        tate_group(gm, 3)
    with pytest.raises(ValueError):
        tate_group(gm, -2)


def test_cyclic_periodicity_h0_h2():
    # for cyclic Q, cup with the fundamental 2-cocycle maps H^0 onto H^2:
    # same cardinality and a classwise bijection
    from toruscheck.weil import LocalModel

    cases = [
        (2, IntMatrix([[-1]])),
        (2, IntMatrix([[0, 1], [1, 0]])),
        (3, IntMatrix([[0, -1], [1, -1]])),
        (4, IntMatrix([[0, -1], [1, 0]])),
        (2, IntMatrix.identity(1)),
    ]
    for n, mat in cases:
        gm = GModule.from_action(GroupAction.cyclic(n, mat))
        H0 = tate_group(gm, 0)
        H2 = tate_group(gm, 2)
        assert H0.order == H2.order
        model = LocalModel(n)
        images = set()
        for coords in H0.elements():
            m = H0.representative(coords)
            x = Cochain(gm, 2, [model.c(i, j) * x for i in range(n)
                                for j in range(n) for x in m])
            cls = H2.classify(x)
            assert cls is not None
            images.add(cls)
        assert len(images) == H2.order


def test_hyper_h1_identity_complex_collapses():
    # f = id with trivial action: every pair (z, c) is a boundary
    Q = FiniteGroup.cyclic(3)
    T = GModule.from_action(GroupAction.trivial(Q, 1))
    H = hyper_h1(T, T, IntMatrix.identity(1))
    assert H.group.order == 1


def test_normalize_cocycle():
    Q = FiniteGroup.cyclic(2)
    gm = GModule.trivial_ints(Q)
    # full (non-normalized) 2-cocycle: constant 1 is a cocycle for trivial action
    x = Cochain(gm, 2, (1, 1, 1, 1))
    y = normalize_cocycle(x)
    assert y(0, 0) == (0,) and y(0, 1) == (0,)
    assert y(1, 0) == (0,)
    assert not any(y.d().vec)


#: Under python -O: cochain vectors too short and too long (one value per
#: key, but two entries in each value of a rank-1 module), the sum of
#: cochains of different degrees, a Weil-group domain whose matrix order
#: does not divide n, and the boundary of a 0-chain.
OPTIMIZED_CHECKS = """
import sys
from toruscheck.lattice import IntMatrix
from toruscheck.groups import GroupAction
from toruscheck.cohomology import (Cochain, FiniteSupportChain, GModule,
                                   ZDomain)

if __debug__:
    sys.exit("asserts are still enabled")


def attempt(label, make):
    try:
        make()
        print(label, "accepted")
    except ValueError as e:
        print(label, "rejected:", e)


gm = GModule.from_action(GroupAction.cyclic(2, IntMatrix([[-1]])))
attempt("cochain", lambda: Cochain(gm, 1, (0,)))
attempt("long cochain", lambda: Cochain(gm, 1, (0, 5, 1, 7)))
attempt("sum", lambda: Cochain(gm, 1, (0, 5)).add(Cochain(gm, 2, (1, 7, 0, 0))))
attempt("domain", lambda: ZDomain(2, IntMatrix([[0, -1], [1, 0]])))
chain = FiniteSupportChain(ZDomain(2, IntMatrix([[-1]])), 0, 1, {(): (1,)})
attempt("boundary", chain.boundary)
"""


def test_cohomology_checks_run_under_python_O():
    src = os.path.dirname(os.path.dirname(os.path.abspath(toruscheck.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_CHECKS],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "cochain rejected: a cochain vector of the wrong length",
        "long cochain rejected: a cochain vector of the wrong length",
        "sum rejected: cochains of different degrees or modules",
        "domain rejected: matrix order must divide n",
        "boundary rejected: a degree-0 chain has no boundary",
    ]


#: Bad inputs for every guard of cohomology.py, run with asserts stripped.
OPTIMIZED_GUARDS = """
import sys

from toruscheck.cohomology import Cochain, GModule, hyper_h1, tate_group
from toruscheck.groups import FiniteGroup, GroupAction
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


C2 = FiniteGroup.cyclic(2)
one, minus = IntMatrix.identity(1), IntMatrix([[-1]])
raises("matrix count", lambda: GModule(C2, 1, None, [one]))
raises("identity", lambda: GModule(C2, 1, None, [minus, one]))
raises("relations", lambda: GModule.finite(
    C2, (2, 4), [IntMatrix.identity(2), IntMatrix([[0, 1], [1, 0]])]))
gm = GModule.from_action(GroupAction.cyclic(2, minus))
raises("degree", lambda: tate_group(gm, 1).classify(Cochain.zero(gm, 2)))
C3 = GModule.from_action(GroupAction.trivial(FiniteGroup.cyclic(3), 1))
raises("one group", lambda: hyper_h1(gm, C3, one))
raises("shape", lambda: hyper_h1(gm, gm, IntMatrix.identity(2)))
triv = GModule.from_action(GroupAction.trivial(C2, 1))
raises("equivariant", lambda: hyper_h1(gm, triv, one))
H = hyper_h1(gm, gm, IntMatrix([[2]]))
raises("hypercocycle", lambda: H.classify(Cochain(gm, 1, (1, 0)), (0,)))
"""


def test_guards_raise_under_python_O():
    """The guards of cohomology.py raise ValueError, so they still run when
    Python strips asserts."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(toruscheck.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_GUARDS],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "raised matrix count - need one matrix per group element",
        "raised identity - identity must act trivially",
        "raised relations - action not defined mod relations",
        "raised degree - a cochain of degree 2 for H^1",
        "raised one group - complex needs one group",
        "raised shape - f must be a 1 x 1 matrix",
        "raised equivariant - f must be equivariant",
        "raised hypercocycle - not a hypercocycle for this complex",
    ]
