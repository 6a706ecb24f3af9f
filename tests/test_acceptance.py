"""Acceptance gate: every criterion is exact (no tolerances anywhere) and
prints one pass/fail line.  Element sweeps over the infinite F-points model
use the documented finite test sets: the zero vector plus the invariant
lattice basis on the torus side, and the zero dual plus one dual per
torsion generator of the coinvariants on the centralizer side.
"""

import random
import time

import pytest

from toruscheck import checks
from toruscheck.lattice import IntMatrix
from toruscheck.qz import QZ, Cyc
from toruscheck.groups import (
    FiniteGroup,
    GroupAction,
    Cocycle2,
    CentralExtension,
)
from toruscheck.cohomology import GModule
from toruscheck.weil import LocalModel, TorusModel
from toruscheck.characters import InducedIntertwinerData, CycMatrix
from toruscheck.suite import random_case_data


def announce(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print("ACCEPTANCE %d [%s]: %s%s" % (num, name, status,
                                        " (%s)" % detail if detail else ""))
    assert ok, "acceptance criterion %d failed" % num


SUITE_SEED = 20260809


_suite_cache = {}


def suite():
    if "cases" not in _suite_cache:
        t0 = time.time()
        _suite_cache["cases"] = list(
            checks.random_cases(random.Random(SUITE_SEED), 50))
        _suite_cache["build_seconds"] = time.time() - t0
    return _suite_cache["cases"]


def test_criterion_1_extension_isomorphism():
    """At least 50 random cases, rank <= 4, |Q| <= 6, |A| <= 8 with the
    nonabelian six-element group included; the identity is exact in Q/Z and
    the whole run stays under two minutes."""
    t0 = time.time()
    cases = suite()
    saw_nonabelian = False
    ok = True
    pairs = 0
    for case in cases:
        assert case.torus.rank <= 4
        assert case.torus.model.n <= 6
        assert case.A.order <= 8
        if case.A.order == 6 and len(case.A.conjugacy_classes()) == 3:
            saw_nonabelian = True
        v = checks.extension_isomorphism(case)
        pairs += v.counts["pairs"]
        ok = ok and v.ok
    elapsed = time.time() - t0 + _suite_cache.get("build_seconds", 0)
    announce(1, "extension isomorphism identity",
             ok and saw_nonabelian and len(cases) >= 50 and elapsed < 120,
             "%d cases, %d pairs, %.1fs" % (len(cases), pairs, elapsed))


def test_criterion_2_character_identity():
    """Three-way agreement on the same suite for every stabilizer pair
    (a, b) of every case, over the documented element test sets; includes
    the vanishing branch."""
    ok = True
    triples = 0
    vanishing = 0
    for case in suite():
        v = checks.character_identity(case)
        ok = ok and v.ok
        triples += v.counts["triples"]
        vanishing += v.counts["vanishing"]
    announce(2, "character identity three ways", ok and triples > 0,
             "%d triples, %d vanishing-branch" % (triples, vanishing))


def klein_nontrivial_extension():
    C2xC2 = FiniteGroup.direct_product(FiniteGroup.cyclic(2),
                                       FiniteGroup.cyclic(2))
    vals = {}
    for a in range(4):
        for b in range(4):
            a1, a2 = divmod(a, 2)
            b1, b2 = divmod(b, 2)
            vals[(a, b)] = QZ(a1 * b1 + a2 * b2 + a2 * b1, 2)
    return CentralExtension(C2xC2, 2, Cocycle2(C2xC2, vals))


def extension_fixtures():
    """Central extensions mu_m x| A with |A| up to 24."""
    out = [klein_nontrivial_extension()]
    for G in [FiniteGroup.cyclic(2), FiniteGroup.cyclic(4),
              FiniteGroup.cyclic(6),
              FiniteGroup.direct_product(FiniteGroup.cyclic(2),
                                         FiniteGroup.cyclic(2)),
              FiniteGroup.symmetric(3), FiniteGroup.dihedral(4),
              FiniteGroup.dihedral(6), FiniteGroup.symmetric(4)]:
        out.append(CentralExtension(G, 2, Cocycle2.zero(G)))
    # a mu_4 example with a nontrivial class on C4
    C4 = FiniteGroup.cyclic(4)
    vals = {(i, j): QZ((i + j) // 4, 4) for i in range(4) for j in range(4)}
    out.append(CentralExtension(C4, 4, Cocycle2(C4, vals)))
    return out


def test_criterion_3_twisted_orthogonality():
    """Both sides agree exactly for every psi-centralizing e and every e2 in
    the fixture extensions, including the Klein-four case where the sum over
    the single two-dimensional character at the identity is 4 = |Z_A(1)|."""
    ok = True
    pairs = 0
    for ext in extension_fixtures():
        v = checks.orthogonality(ext)
        ok = ok and v.ok
        pairs += v.witness["pairs"]
    ok = ok and checks.klein_four_pin(klein_nontrivial_extension()).ok
    announce(3, "twisted orthogonality", ok, "%d pairs" % pairs)


def test_criterion_4_twisted_kottwitz_sign():
    """Signs square to one on every accepted input; multiplicativity and
    induction invariance on at least 20 randomized data; the A1 fixture
    matches the rank formula and the E6 flip is +1 for every class."""
    rng = random.Random(41)
    squares = checks.sign_squares()
    laws = checks.product_induction(rng, 20)
    ok = (squares.ok and laws.ok and checks.a1_fixture().ok
          and checks.e6_flip_fixture().ok)
    announce(4, "twisted Kottwitz sign", ok,
             "%d signs, %d randomized laws" % (squares.counts["signs"],
                                               laws.witness["samples"]))


def test_criterion_5_duality_perfectness():
    """For at least 20 random modules the pairing between the minus-one Tate
    group and the dual of the coinvariant torsion has equal cardinalities
    and trivial kernels on both sides, checked exhaustively."""
    rng = random.Random(17)
    checked = 0
    ok = True
    while checked < 20:
        torus, z, phi = random_case_data(rng)
        ok = checks.kottwitz_perfect(torus).ok and ok
        checked += 1
    announce(5, "duality perfectness", ok, "%d modules" % checked)


def test_criterion_6_cohomology_algebra():
    """d after d vanishes on at least 1000 random cochains; the cup Leibniz
    rule holds; coinflation commutes with the differential and the two-level
    square of chain maps commutes on fixtures."""
    rng = random.Random(6)
    ok = True
    count = 0
    modules = [
        GModule.from_action(GroupAction.cyclic(2, IntMatrix([[-1]]))),
        GModule.from_action(GroupAction.cyclic(4, IntMatrix([[0, -1], [1, 0]]))),
        GModule.from_action(GroupAction.cyclic(3, IntMatrix([[0, -1], [1, -1]]))),
        GModule.from_action(GroupAction.cyclic(6, IntMatrix([[0, -1], [1, 1]]))),
    ]
    while count < 1000:
        gm = rng.choice(modules)
        v = checks.dd_zero(gm, rng.choice((1, 2)), rng, 1, 5)
        ok = ok and v.ok
        count += v.counts["samples"]

    leibniz = 0
    for gm in modules:
        v = checks.cup_leibniz(gm, rng, 10)
        ok = ok and v.ok
        leibniz += v.counts["samples"]

    ok = checks.coinflation_boundary(rng, 50).ok and ok

    # the two-level square between levels n and 2n
    for mat, n in [(IntMatrix([[-1]]), 2), (IntMatrix([[0, -1], [1, -1]]), 3)]:
        small = TorusModel(LocalModel(n), GroupAction.cyclic(n, mat))
        ok = checks.level_square(small, rng, 20, 6).ok and ok
    announce(6, "cohomology algebra", ok,
             "%d cochains, %d Leibniz checks" % (count, leibniz))


def q8_matrix_datum():
    E = klein_nontrivial_extension()
    J = E.group
    A = FiniteGroup.cyclic(2)
    i_cyc = Cyc.root(QZ(1, 4))
    M = {
        (0, 0): CycMatrix.identity(2),
        (1, 0): CycMatrix([[i_cyc, 0], [0, -1 * i_cyc]]),
        (0, 1): CycMatrix([[0, 1], [-1, 0]]),
        (1, 1): CycMatrix([[0, i_cyc], [i_cyc, 0]]),
    }
    pi = []
    for e in range(8):
        zq, a = E.parts(e)
        a1, a2 = divmod(a, 2)
        mat = M[(a1, a2)]
        pi.append(CycMatrix([[Cyc.root(zq) * v for v in row]
                             for row in mat.rows]))

    def amap(e):
        zq, a = E.parts(e)
        x, y = divmod(a, 2)
        return E.element(zq + QZ(x * y, 2), y * 2 + x)

    act = [list(range(8)), [amap(e) for e in range(8)]]
    Ti = pi[E.element(QZ(0), 2)]
    Tj = pi[E.element(QZ(0), 1)]
    Tmat = CycMatrix([[aa + bb for aa, bb in zip(r1, r2)]
                      for r1, r2 in zip(Ti.rows, Tj.rows)])
    return InducedIntertwinerData(J, A, act, [0, 0], pi, [CycMatrix.identity(2), Tmat])


def test_criterion_7_induction_lemmas():
    """At least 10 intertwiner fixtures where the induced cocycle equals the
    corestriction entry by entry, and at least 100 random block-twisted
    trace identities (blocks <= 4, dimension <= 3), all exact."""
    rng = random.Random(7)
    fixtures = 0
    ok = True
    B4 = FiniteGroup.cyclic(4)
    B2 = FiniteGroup.cyclic(2)
    phases = [QZ(0), QZ(1, 4), QZ(1, 2), QZ(3, 4), QZ(1, 8)]
    for w in phases:
        for B, A_elems in [(B4, [0, 2]), (B2, [0, 1])]:
            data = checks.scalar_datum(w)
            ok = checks.corestriction(data, B, A_elems).ok and ok
            fixtures += 1
    # a genuinely two-dimensional matrix fixture, also with a shifted section
    data = q8_matrix_datum()
    for end in (0, -1):
        ok = checks.corestriction(data, B4, [0, 2], end).ok and ok
        fixtures += 1

    v = checks.block_twisted_traces(rng, 100, 4)
    ok = ok and v.ok
    traces = v.counts["samples"]
    announce(7, "induction lemmas", ok and fixtures >= 10,
             "%d fixtures, %d traces" % (fixtures, traces))


def test_criterion_8_induced_automorphism_roundtrip():
    """decompose after reconstruct is the identity on at least 20 random
    block-structured equivariant automorphisms with index at most 4."""
    v = checks.induced_automorphism_roundtrip(random.Random(8), 20)
    announce(8, "induced automorphism decomposition", v.ok,
             "%d samples" % v.counts["samples"])
