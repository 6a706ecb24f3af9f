import itertools
import os
import random
import subprocess
import sys

import pytest

import fraction_dual
from cohomology_reference import WeilZ, is_normalized
from lemmas import fundamental_cochain
from lift_reference import fold, lift_system
from toruscheck import checks, weil
from toruscheck.cli import main
from toruscheck.lattice import IntMatrix, solve_integer
from toruscheck.qz import QZ
from toruscheck.groups import FiniteGroup, GroupAction
from toruscheck.cohomology import (
    Cochain,
    tate_group,
    ZDomain,
    FiniteSupportChain,
)
from toruscheck.weil import (
    LocalModel,
    TorusModel,
    Parameter,
    tn_iso,
    tn_inverse,
    langlands_character,
    chain_map_phi,
    elementary_pairing,
    hyper_pairing,
    LiftNotFound,
)


def norm_one_torus(n=2):
    """X = Z with sigma acting by -1 (n = 2) or rotation lattices."""
    model = LocalModel(n)
    if n == 2:
        act = GroupAction.cyclic(2, IntMatrix([[-1]]))
    elif n == 3:
        act = GroupAction.cyclic(3, IntMatrix([[0, -1], [1, -1]]))
    elif n == 4:
        act = GroupAction.cyclic(4, IntMatrix([[0, -1], [1, 0]]))
    else:
        raise ValueError(n)
    return TorusModel(model, act)


@pytest.mark.parametrize("n", [3, 4])
def test_boundary_matrix_is_the_chain_boundary(n):
    """The lift system's boundary block sends a window chain's coordinates
    to FiniteSupportChain.boundary of that chain over W = Z (WeilZ):
    sum_w (sigma^-w - 1) mu(w).  At Galois order 3 and 4 sigma^w and
    sigma^-w differ, so this pins the orientation."""
    torus = norm_one_torus(n)
    r = torus.rank
    dom = WeilZ(n, torus.galois.matrices[1])
    window = list(range(-2 * n, 2 * n))
    B = weil._boundary_matrix(torus, window)
    rng = random.Random("boundary-%d" % n)
    for _ in range(20):
        x = [rng.randint(-3, 3) for _ in range(r * len(window))]
        mu = FiniteSupportChain(dom, 1, r, {
            (w,): x[i * r:(i + 1) * r] for i, w in enumerate(window)})
        assert tuple(B.apply(x)) == mu.boundary().support.get((), (0,) * r)


def test_fundamental_cocycle_generates_h2():
    model = LocalModel(3)
    Q = FiniteGroup.cyclic(3)
    from toruscheck.cohomology import GModule

    gm = GModule.trivial_ints(Q)
    c = fundamental_cochain(model, gm)
    assert is_normalized(c)
    assert not any(c.d().vec)
    H2 = tate_group(gm, 2)
    assert H2.order == 3
    cls = H2.classify(c)
    assert any(cls), "fundamental class must be nontrivial"
    # it generates: its multiples exhaust H^2
    seen = {cls}
    acc = c
    for _ in range(2):
        acc = acc.add(c)
        seen.add(H2.classify(acc))
    assert len(seen) == 3


def test_tn_iso_examples():
    t = norm_one_torus(2)
    # lam = 0 -> zero cocycle
    z0 = tn_iso(t, (0,))
    assert not any(z0.vec)
    # n = 2, X = Z with -1, lam = 1 -> z(sigma) = 1, nontrivial class
    z = tn_iso(t, (1,))
    assert z(1) == (1,)
    H1 = tate_group(t.gmodule(), 1)
    assert any(H1.classify(z))
    # rejects norm-nonzero input
    t3 = TorusModel(LocalModel(3), GroupAction.trivial(FiniteGroup.cyclic(3), 1))
    with pytest.raises(ValueError, match="zero norm"):
        tn_iso(t3, (1,))


def test_tn_bijectivity_rank2_rotation():
    # Q = Z/3 acting by the Z[zeta_3] rotation lattice: |H^-1| = |H^1| = 3
    t = norm_one_torus(3)
    gm = t.gmodule()
    Hm1 = tate_group(gm, -1)
    H1 = tate_group(gm, 1)
    assert Hm1.order == 3 and H1.order == 3
    images = set()
    for coords in Hm1.elements():
        lam = Hm1.representative(coords)
        images.add(H1.classify(tn_iso(t, lam)))
    assert len(images) == 3  # injective, hence bijective


def test_tn_bijectivity_exhaustive_small():
    cases = [
        (2, IntMatrix([[-1]])),
        (2, IntMatrix([[0, 1], [1, 0]])),
        (4, IntMatrix([[0, -1], [1, 0]])),
        (6, IntMatrix([[0, -1], [1, 1]])),
        (2, IntMatrix([[-1, 0], [0, 1]])),
        (5, IntMatrix([[0, 0, 0, -1], [1, 0, 0, -1],
                       [0, 1, 0, -1], [0, 0, 1, -1]])),
    ]
    for n, m in cases:
        t = TorusModel(LocalModel(n), GroupAction.cyclic(n, m))
        gm = t.gmodule()
        Hm1 = tate_group(gm, -1)
        H1 = tate_group(gm, 1)
        assert Hm1.order == H1.order
        images = set()
        for coords in Hm1.elements():
            lam = Hm1.representative(coords)
            images.add(H1.classify(tn_iso(t, lam)))
        assert len(images) == Hm1.order


def test_tn_inverse_round_trip():
    t = norm_one_torus(4)
    gm = t.gmodule()
    H1 = tate_group(gm, 1)
    for coords in H1.elements():
        z = H1.representative(coords)
        lam = tn_inverse(t, z)
        assert H1.classify(tn_iso(t, lam)) == coords


def test_kottwitz_character_examples():
    t = norm_one_torus(2)
    # trivial z -> trivial character
    z0 = Cochain.zero(t.gmodule(), 1)
    assert t.dual_eval((QZ(1, 2),), tn_inverse(t, z0)).is_zero()
    # nontrivial z, s = 1/2: value 1/2 (i.e. -1)
    z = tn_iso(t, (1,))
    assert t.dual_eval((QZ(1, 2),), tn_inverse(t, z)) == QZ(1, 2)


def test_kottwitz_pairing_perfect_z4_example():
    # exhaustive pairing table on the Z/4 rotation lattice
    t = norm_one_torus(4)
    gm = t.gmodule()
    Hm1 = tate_group(gm, -1)
    # dual side: Q-fixed torsion characters of the coinvariants (X_Q)_tor;
    # here H^-1 = (X_Q)_tor, so both sides have the same (finite) order
    duals = dual_points_killing_IX(t)
    nonzero_rows = set()
    for coords in Hm1.elements():
        lam = Hm1.representative(coords)
        row = tuple(t.dual_eval(s, lam) for s in duals)
        nonzero_rows.add(row)
    assert len(nonzero_rows) == Hm1.order  # injectivity on one side
    assert len(duals) == Hm1.order


def dual_points_killing_IX(torus):
    """All Q-invariant torsion duals trivial on the augmentation submodule,
    with denominators bounded by the torsion exponent (exhaustive model of
    Hom((X_Q)_tor, Q/Z))."""
    from toruscheck.lattice import FGAbelian

    r = torus.rank
    ident = IntMatrix.identity(r)
    cols = []
    for m in torus.galois.matrices[1:]:
        cols.extend((m - ident).columns())
    coinv = FGAbelian(r, IntMatrix.from_columns(cols, r))
    exps = coinv.torsion
    out = []
    if not exps:
        return [torus.dual_zero()]
    m = 1
    for d in exps:
        m = m * d // __import__("math").gcd(m, d)
    for combo in itertools.product(range(m), repeat=r):
        s = tuple(QZ(k, m) for k in combo)
        # must kill IX: s((sigma - 1)x) = 0 for basis x and all sigma
        ok = True
        for mat in torus.galois.matrices[1:]:
            for j in range(r):
                col = tuple(mat.data[i][j] - (1 if i == j else 0)
                            for i in range(r))
                if not torus.dual_eval(s, col).is_zero():
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(s)
    # deduplicate by values on coinvariant torsion generators
    seen = {}
    for s in out:
        key = tuple(s)
        seen[key] = s
    # quotient by duals trivial on the torsion part: keep distinct rows on
    # H^-1 representatives
    return list(seen.values())


def test_langlands_character_examples():
    # Q = Z/2 trivial on X = Z, phi0(sigma) = 1/2: [phi](1) = 1/2
    t = TorusModel(LocalModel(2), GroupAction.trivial(FiniteGroup.cyclic(2), 1))
    phi = Parameter(t, (QZ(1, 2),))
    assert langlands_character(t, phi, (1,)) == QZ(1, 2)
    # trivial parameter -> trivial character
    phi0 = Parameter(t, (QZ(0),))
    assert langlands_character(t, phi0, (7,)).is_zero()
    # [phi](N mu) = 0 for random mu: N mu = 2 mu here and 2 * 1/2 = 0
    random.seed(2)
    for _ in range(10):
        mu = (random.randint(-9, 9),)
        Nmu = t.norm_matrix().apply(mu)
        assert langlands_character(t, phi, Nmu).is_zero()


@pytest.mark.parametrize("n,galois,comp,message", [
    (3, GroupAction.cyclic(2, IntMatrix([[-1]])), None,
     "the Galois action has order 2, the model 3"),
    (2, GroupAction.cyclic(2, IntMatrix([[-1]])),
     GroupAction.cyclic(2, IntMatrix([[0, 1], [1, 0]])),
     "the component action has rank 2, the Galois action 1"),
    (2, GroupAction.cyclic(2, IntMatrix([[0, 1], [1, 0]])),
     GroupAction.cyclic(2, IntMatrix([[-1, 0], [0, 1]])),
     "Galois and component actions must commute"),
])
def test_torus_model_rejects_inconsistent_actions(n, galois, comp, message):
    with pytest.raises(ValueError, match=message):
        TorusModel(LocalModel(n), galois, comp)


def test_parameter_requires_norm_zero():
    t = norm_one_torus(2)  # dual action of sigma is -1 too; N_dual = 0: all ok
    Parameter(t, (QZ(1, 3),))
    t2 = TorusModel(LocalModel(2), GroupAction.trivial(FiniteGroup.cyclic(2), 1))
    with pytest.raises(ValueError, match="cocycle identity"):
        Parameter(t2, (QZ(1, 3),))  # N_dual = 2: 2/3 != 0


def test_chain_map_phi_basics():
    t = norm_one_torus(2)
    dom = ZDomain(2, IntMatrix([[-1]]))
    # mu1 = 0 -> 0
    assert chain_map_phi(t, FiniteSupportChain(dom, 1, 1)) == (0,)
    # support on the kernel nZ: w = 2k contributes per the formula
    mu = FiniteSupportChain(dom, 1, 1, {(2,): (1,)})
    assert chain_map_phi(t, mu) == (0,)  # (1 + sigma) lam = 0 for sigma = -1
    # trivial-action model: phi(delta_w) = -w * value
    tt = TorusModel(LocalModel(3), GroupAction.trivial(FiniteGroup.cyclic(3), 1))
    dom3 = ZDomain(3, IntMatrix.identity(1))
    for w in range(-4, 5):
        mu = FiniteSupportChain(dom3, 1, 1, {(w,): (1,)})
        assert chain_map_phi(tt, mu) == (-w,)


def test_phi_kills_boundaries():
    random.seed(8)
    for t, n in [(norm_one_torus(2), 2), (norm_one_torus(3), 3)]:
        dom = WeilZ(n, t.galois.matrices[1])
        for _ in range(20):
            supp = {(random.randint(-4, 4), random.randint(-4, 4)):
                    tuple(random.randint(-3, 3) for _ in range(t.rank))
                    for _ in range(3)}
            mu2 = FiniteSupportChain(dom, 2, t.rank, supp)
            assert chain_map_phi(t, mu2.boundary()) == (0,) * t.rank


def test_phi_psi_boundary_compatibility():
    # d0(phi(mu1)) = tn_iso(boundary(mu1)) as cocycles
    random.seed(13)
    for t, n in [(norm_one_torus(2), 2), (norm_one_torus(4), 4)]:
        dom = WeilZ(n, t.galois.matrices[1])
        gm = t.gmodule()
        for _ in range(15):
            supp = {(random.randint(-5, 5),):
                    tuple(random.randint(-3, 3) for _ in range(t.rank))
                    for _ in range(3)}
            mu1 = FiniteSupportChain(dom, 1, t.rank, supp)
            val = chain_map_phi(t, mu1)
            lhs = Cochain(gm, 0, val).d()
            lam = mu1.boundary().support.get((), (0,) * t.rank)
            rhs = tn_iso(t, lam)
            assert lhs.vec == rhs.vec


def test_elementary_pairing_degenerations():
    t = norm_one_torus(2)
    dom = ZDomain(2, IntMatrix([[-1]]))
    phi = Parameter(t, (QZ(1, 4),))
    # both trivial -> 0
    mu0 = FiniteSupportChain(dom, 1, 1)
    assert elementary_pairing(t, (phi, t.dual_zero()), ((0,), mu0)).is_zero()
    # lam = 0, single-point chain -> pure -<d(w), mu1(w)> term
    mu = FiniteSupportChain(dom, 1, 1, {(1,): (1,)})
    val = elementary_pairing(t, (phi, t.dual_zero()), ((0,), mu))
    assert val == -phi.psi[0]  # phi's value at sigma is psi


def test_hyper_pairing_trivial_and_kottwitz_edge():
    t = norm_one_torus(2)
    gm = t.gmodule()
    # a = 1: fT = 0; pairing reduces to the Kottwitz pairing
    fT = IntMatrix.zero(1, 1)
    z = tn_iso(t, (1,))
    phi0 = Parameter(t, (QZ(0),))
    s = (QZ(1, 2),)
    val = hyper_pairing(t, fT, (z, (0,)), (phi0, s))
    assert val == t.dual_eval(s, tn_inverse(t, z))
    # either class trivial -> 0
    z0 = Cochain.zero(gm, 1)
    assert hyper_pairing(t, fT, (z0, (0,)), (phi0, s)) == QZ(1, 2) * 0 + QZ(0) \
        or hyper_pairing(t, fT, (z0, (0,)), (phi0, s)).is_zero()


def test_hyper_pairing_langlands_edge():
    # <(0, v), (phi0^-1 ...)>: reduces to the Langlands character, for both
    # trivial and nontrivial Galois actions
    t = TorusModel(LocalModel(3), GroupAction.trivial(FiniteGroup.cyclic(3), 1))
    fT = IntMatrix.zero(1, 1)
    phi = Parameter(t, (QZ(1, 3),))
    z0 = Cochain.zero(t.gmodule(), 1)
    for v in [(1,), (2,), (-3,)]:
        val = hyper_pairing(t, fT, (z0, v), (phi, t.dual_zero()))
        assert val == langlands_character(t, phi, v)


def test_hyper_pairing_two_representative_agreement():
    # norm-one-torus with a = -1: fT = 1 - a^-1 = 2; shift the T-side pair by
    # a boundary (d0 x, fT x) and compare
    t = norm_one_torus(2)
    gm = t.gmodule()
    fT = IntMatrix([[2]])
    z = tn_iso(t, (1,)).neg()   # u = -z for the invariant convention
    # v with fT(u(s)) = s.v - v: u(sigma) = -1: fT u = -2 = (sigma - 1) v
    # => -2 = -2v: v = 1
    v = (1,)
    phi = Parameter(t, (QZ(1, 4),))
    # dual pair: d = -phi0, s with s.sigma - s = d(sigma) o fT
    d = phi.neg()
    # s: sigma.s - s = -2 s ... choose s = 1/4: sigma.s = -1/4: diff = -1/2;
    # d(sigma) o fT = -(1/4) * 2 = -1/2: ok
    s = (QZ(1, 4),)
    val1 = hyper_pairing(t, fT, (z, v), (d, s))
    # shift the T-side by a boundary with x = 3: (u + d0 x, v + fT x)
    x = (3,)
    dx = Cochain(gm, 0, x).d()
    z2 = z.add(dx)
    v2 = (v[0] + 2 * x[0],)
    val2 = hyper_pairing(t, fT, (z2, v2), (d, s))
    assert val1 == val2
    # additivity in the dual slot: the doubled pair (2d, 2s) is again valid
    d2 = Parameter(t, (d.psi[0] + d.psi[0],))
    val_double = hyper_pairing(t, fT, (z, v), (d2, (s[0] + s[0],)))
    assert val_double == val1 + val1
    # dual-side coboundary invariance: (d + du, s + u o fT) for u in X-hat
    u_dual = (QZ(1, 8),)
    du = fraction_dual.dual_sub(fraction_dual.dual_sigma(t, 1, u_dual),
                                u_dual)
    d3 = Parameter(t, (d.psi[0] + du[0],))
    # rank 1: the one coordinate of u o fT is its value at the basis vector
    s3 = (s[0] + t.dual_eval(u_dual, fT.apply((1,))),)
    val3 = hyper_pairing(t, fT, (z, v), (d3, s3))
    assert val3 == val1


def test_elementary_pairing_kills_boundaries():
    # (boundary-lambda1, f lambda1 - boundary-mu2) pairs to zero with any
    # genuine dual pair; here f = 0 so the chain side is (d(lam1), -d(mu2))
    random.seed(21)
    t = norm_one_torus(2)
    dom = WeilZ(2, IntMatrix([[-1]]))
    phi = Parameter(t, (QZ(1, 4),))
    s = t.dual_zero()  # (phi, 0) is a valid pair for f = 0
    for _ in range(20):
        lam1 = FiniteSupportChain(dom, 1, 1, {
            (random.randint(-4, 4),): (random.randint(-3, 3),)
            for _ in range(3)})
        mu2 = FiniteSupportChain(dom, 2, 1, {
            (random.randint(-4, 4), random.randint(-4, 4)):
                (random.randint(-3, 3),) for _ in range(3)})
        lam = lam1.boundary().support.get((), (0,))
        mu1 = FiniteSupportChain(dom, 1, 1, {
            k: tuple(-a for a in v)
            for k, v in mu2.boundary().support.items()})
        val = elementary_pairing(t, (phi, s), (lam, mu1))
        assert val.is_zero()


def test_hyper_pairing_rejects_bad_dual_pair():
    t = norm_one_torus(2)
    fT = IntMatrix([[2]])
    z = tn_iso(t, (1,)).neg()
    phi = Parameter(t, (QZ(1, 4),))
    with pytest.raises(ValueError, match="dual-side"):
        hyper_pairing(t, fT, (z, (1,)), (phi.neg(), (QZ(1, 3),)))
    garbage = Cochain(t.gmodule(), 1, (1, 0))
    with pytest.raises(ValueError, match="T-side"):
        hyper_pairing(t, fT, (garbage, (0,)), (phi.neg(), t.dual_zero()))


def test_hyper_pairing_reports_missing_lift(monkeypatch):
    # a non-cocycle smuggled past the validation must surface as a hard
    # error, never as a silently approximated value
    t = norm_one_torus(2)
    fT = IntMatrix([[2]])
    gm = t.gmodule()
    garbage = Cochain(gm, 1, (1, 0))  # z(1) != 0
    phi = Parameter(t, (QZ(0),))
    monkeypatch.setattr(weil, "check_pair_T_cocycle", lambda *args: None)
    monkeypatch.setattr(weil, "check_pair_T_relation", lambda *args: None)
    with pytest.raises(LiftNotFound):
        hyper_pairing(t, fT, (garbage, (0,)), (phi, t.dual_zero()))


def test_hyper_pairing_error_precedence(monkeypatch):
    """The T-side check comes first, then the dual-side check, and only then
    the solve: a dual-side failure raises before any lift is attempted, so
    LiftNotFound never takes its place."""
    t = norm_one_torus(2)
    fT = IntMatrix([[2]])
    z = tn_iso(t, (1,)).neg()
    phi = Parameter(t, (QZ(1, 4),))
    garbage = Cochain(t.gmodule(), 1, (1, 0))
    bad_dual = (phi.neg(), (QZ(1, 3),))
    solves = []
    monkeypatch.setattr(weil, "solve_integer",
                        lambda *args: solves.append(args))
    for pair_T, dual, side in [((garbage, (0,)), bad_dual, "T-side"),
                               ((z, (1,)), bad_dual, "dual-side")]:
        with pytest.raises(ValueError, match=side) as info:
            hyper_pairing(t, fT, pair_T, dual)
        assert not isinstance(info.value, LiftNotFound)
    assert solves == []
    # with every check passing, the stubbed solve is reached and finds none
    with pytest.raises(LiftNotFound):
        hyper_pairing(t, fT, (z, (1,)), (phi.neg(), (QZ(1, 4),)))
    assert solves


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CASE_FILES = [os.path.join(ROOT, "fixtures", "norm_one_torus.json"),
              os.path.join(ROOT, "fixtures", "s3_component.json"),
              os.path.join(ROOT, "tests", "galois6_case.json")]


def _lift_solves(monkeypatch, tmp_path):
    """[(torus, fT, D, b)]: every distinct lift system solve_lift solves,
    with its right-hand side, over the character-identity sweep of twelve
    seeded suite cases, and tori-verify and pairing on both fixtures and
    the Galois-order-6 case."""
    built, solved = {}, {}
    build, solve = weil._lift_system, weil.solve_integer

    def recording_build(torus, fT, D):
        A, dom = build(torus, fT, D)
        built[A.data] = (torus, fT, D)
        return A, dom

    def recording_solve(A, b):
        if A.data in built:
            solved.setdefault((A.data, tuple(b)), (*built[A.data], tuple(b)))
        return solve(A, b)

    monkeypatch.setattr(weil, "_lift_system", recording_build)
    monkeypatch.setattr(weil, "solve_integer", recording_solve)
    for case in checks.random_cases(random.Random(1), 12):
        assert checks.character_identity(case).ok
    for command in ("tori-verify", "pairing"):
        for path in CASE_FILES:
            assert main([command, "--input", path,
                         "--output", str(tmp_path / "out.json")]) == 0
    return list(solved.values())


def test_no_wider_window_admits_a_lift(monkeypatch, tmp_path):
    """solve_lift solves on [-n, n) only.  On every lift system of a swept
    suite case and of the case files, with its own right-hand side and with
    its first and last entries moved by one either way, the systems at
    half-widths n, 2n and 4n are solvable alike, and a solution at 2n or
    4n folded onto [-n, n) solves the system there."""
    solves = _lift_solves(monkeypatch, tmp_path)
    assert len({(t.rank, t.model.n) for t, _, _, _ in solves}) >= 3
    n_values = {t.model.n for t, _, _, _ in solves}
    assert 1 in n_values or 2 in n_values
    assert max(n_values) >= 3
    verdicts = set()
    for torus, fT, D, b in solves:
        r, n = torus.rank, torus.model.n
        narrow = weil._lift_system(torus, fT, D)[0]
        assert lift_system(torus, fT, D, n) == narrow
        wide = [(h, lift_system(torus, fT, D, h)) for h in (2 * n, 4 * n)]
        moved = [b[:j] + (b[j] + e,) + b[j + 1:]
                 for j in (0, len(b) - 1) for e in (-1, 1)]
        for rhs in [b] + moved:
            x = solve_integer(narrow, rhs)
            verdicts.add(x is not None)
            for h, A in wide:
                y = solve_integer(A, rhs)
                assert (y is None) == (x is None), (n, h, rhs)
                if y is not None:
                    assert narrow.apply(fold(y, r, n, h)) == rhs
    assert verdicts == {True, False}


def test_hyper_pairing_is_lift_then_evaluation(monkeypatch):
    """hyper_pairing evaluates the lift of its T-side pair against its dual
    pair: every dual pair of one T-side pair gets the same lift, so one
    lift serves them all, and a dual pair off the dual complex raises
    before any lift is solved."""
    t = norm_one_torus(2)
    fT = IntMatrix([[2]])
    z = tn_iso(t, (1,)).neg()
    lifts = []
    solve = weil.solve_lift

    def recording_solve(*args):
        lifts.append(solve(*args))
        return lifts[-1]

    monkeypatch.setattr(weil, "solve_lift", recording_solve)
    values = set()
    for q in (QZ(1, 4), QZ(3, 4), QZ(1, 8), QZ(0)):
        # s on the dual complex of fT = 2: -2 s = 2 d(sigma) = -2 q
        d = Parameter(t, (q,)).neg()
        for s in ((q,), (q + QZ(1, 2),)):
            value = hyper_pairing(t, fT, (z, (1,)), (d, s))
            assert value == elementary_pairing(t, (d, s), lifts[0])
            values.add(value)
        solved = len(lifts)
        with pytest.raises(ValueError, match="dual-side"):
            hyper_pairing(t, fT, (z, (1,)), (d, (q + QZ(1, 3),)))
        assert len(lifts) == solved
    assert len(values) > 1 and len(lifts) == 8
    lam, mu = lifts[0]
    assert all(other == lam and chain.support == mu.support
               for other, chain in lifts)


#: An invalid dual-side pair: fT = 0 forces s.sigma = s, but sigma acts by -1
#: and s = 1/4 is not fixed.
OPTIMIZED_CHECKS = """
from toruscheck.lattice import IntMatrix
from toruscheck.qz import QZ
from toruscheck.groups import GroupAction
from toruscheck.cohomology import Cochain
from toruscheck.weil import LocalModel, TorusModel, Parameter, hyper_pairing

assert False, "asserts are still enabled"
t = TorusModel(LocalModel(2), GroupAction.cyclic(2, IntMatrix([[-1]])))
u = Cochain(t.gmodule(), 1, (0, 0))
try:
    value = hyper_pairing(t, IntMatrix([[0]]), (u, (0,)),
                          (Parameter(t, (QZ(0),)), (QZ(1, 4),)))
except ValueError as e:
    print("raised", e)
else:
    print("returned", value)
"""


def test_hyper_pairing_checks_run_under_python_O():
    """The pair checks raise ValueError, so python -O rejects an invalid
    pair instead of pairing it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(weil.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_CHECKS],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised dual-side pair not on the dual complex\n"


def test_guards_raise_under_python_O():
    """LocalModel rejects n < 1 with ValueError, so the check still runs
    when Python strips asserts."""
    script = "\n".join([
        "import sys",
        "from toruscheck.weil import LocalModel",
        "if __debug__:",
        "    sys.exit('asserts are still enabled')",
        "try:",
        "    LocalModel(0)",
        "except ValueError as e:",
        "    print('raised', e)",
        "else:",
        "    print('silent')",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(weil.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised n must be at least 1, not 0\n"
