import itertools
import os
import random
import subprocess
import sys

import pytest

import toruscheck
from rootdata_reference import lambda_T_two_level
from test_sign_pins import all_data
from toruscheck import rootdata
from toruscheck.lattice import IntMatrix
from toruscheck.qz import QZ
from toruscheck.cohomology import tate_group
from toruscheck.rootdata import (
    BasedRootDatum,
    TwistData,
    cartan_matrix,
    diagram_flip,
    lambda_T,
    coinvariant_class,
    twisted_sign,
    sign_product,
    sign_induction,
    levi_restriction,
    _in_coinvariant_boundary,
)


def test_centers():
    assert BasedRootDatum.from_label("A1").center.torsion == (2,)
    assert BasedRootDatum.from_label("A2").center.torsion == (3,)
    assert BasedRootDatum.from_label("A3").center.torsion == (4,)
    assert BasedRootDatum.from_label("D4").center.torsion == (2, 2)
    assert BasedRootDatum.from_label("D5").center.torsion == (4,)
    assert BasedRootDatum.from_label("E6").center.torsion == (3,)


def trivial_perm(n):
    return tuple(range(n))


def test_fundamental_weight_pairing():
    # <omega_i, alpha_j^vee> = delta: built into the coordinates; the center
    # class of omega_1 in A1 generates P/Q
    d = BasedRootDatum.from_label("A1")
    assert d.center_class((1,)) == (1,)


def test_lambda_a1():
    # a = 1, type A1: lambda_T = omega, restriction to the center nontrivial
    d = BasedRootDatum.from_label("A1")
    tw = TwistData(d, 2, trivial_perm(1), trivial_perm(1))
    lam, cc = lambda_T(tw)
    assert lam == (1,)
    assert cc == (1,)
    # equals half the sum of the positive roots: rho = omega here
    sq, cls = coinvariant_class(tw, cc)
    assert any(cls)


def test_lambda_a2_flip():
    # A2 with a = flip, Gamma trivial: lambda_T = one weight; coinvariants of
    # negation on Z/3 vanish
    d = BasedRootDatum.from_label("A2")
    tw = TwistData(d, 1, trivial_perm(2), diagram_flip("A2"))
    lam, cc = lambda_T(tw)
    assert sum(lam) == 1  # a single representative weight
    sq, cls = coinvariant_class(tw, cc)
    assert not any(cls)  # image 0 in coinvariants
    assert sq.group.order == 1


def test_lambda_e6_flip():
    d = BasedRootDatum.from_label("E6")
    tw = TwistData(d, 1, trivial_perm(6), diagram_flip("E6"))
    lam, cc = lambda_T(tw)
    sq, cls = coinvariant_class(tw, cc)
    assert sq.group.order == 1


def test_lambda_representative_independence():
    # A2 with a = flip: the two orbit-representative choices give the same
    # coinvariant class
    d = BasedRootDatum.from_label("A2")
    tw = TwistData(d, 1, trivial_perm(2), diagram_flip("A2"))
    sq, _ = coinvariant_class(tw, (0,))
    lam, cc = lambda_T(tw)
    other = (0, 1)
    assert lam == (1, 0)
    assert sq.classify(cc) == sq.classify(d.center_class(other))


def _lambda_data():
    """A1-A5, D4, D5 and E6 with n = 2 and each of galois_perm and a_perm
    trivial or the diagram flip; each datum, its products with the A1 inner
    form and its inductions with 2 and 3 blocks: 128 data."""
    inner = TwistData(BasedRootDatum.from_label("A1"), 2, (0,), (0,))
    out = []
    for label in ("A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6"):
        d = BasedRootDatum.from_label(label)
        perms = (trivial_perm(d.rank), diagram_flip(label))
        for gp in perms:
            for ap in perms:
                tw = TwistData(d, 2, gp, ap)
                out += [tw, tw.product(inner), tw.induced(2), tw.induced(3)]
    return out


def test_lambda_T_matches_the_two_level_rule():
    """lambda_T, the Galois orbit of the least weight of each orbit of the
    group galois_perm and a_perm generate, equals the two-level choice (the
    first Galois orbit of each a-orbit of Galois orbits) on the 128 data of
    _lambda_data, on every datum of checks.sign_squares and of the sign
    pins, and on every commuting pair of permutations of A1^4."""
    data = _lambda_data()
    assert len(data) == 128
    for label in ("A1", "A2", "A3", "D4", "E6"):
        d = BasedRootDatum.from_label(label)
        ident = trivial_perm(d.rank)
        data += [TwistData(d, 2, ident, ap)
                 for ap in (ident, diagram_flip(label))]
    data += [tw for _, tw in all_data()]
    # every commuting pair on the four nodes of A1^4, over n = 12: some
    # a-orbit there meets a Galois orbit only away from its least weight
    a1_4 = BasedRootDatum(IntMatrix.identity(4) * 2)
    perms = list(itertools.permutations(range(4)))
    data += [TwistData(a1_4, 12, g, a) for g in perms for a in perms
             if all(g[a[i]] == a[g[i]] for i in range(4))]
    for tw in data:
        assert lambda_T(tw) == lambda_T_two_level(tw), tw.key
    # both rules pick more than one orbit somewhere, and differ from the
    # all-ones weight somewhere
    assert any(sum(lambda_T(tw)[0]) > 1 for tw in data)
    assert any(0 in lambda_T(tw)[0] for tw in data)


def test_e6_flip_action_is_negation():
    d = BasedRootDatum.from_label("E6")
    tw = TwistData(d, 1, trivial_perm(6), diagram_flip("E6"))
    m = tw.center_action_matrix(diagram_flip("E6"))
    # on Z/3 the flip must act by -1: matrix entry 2 mod 3
    assert m.data[0][0] % 3 == 2


def test_twisted_sign_a1():
    d = BasedRootDatum.from_label("A1")
    tw = TwistData(d, 2, trivial_perm(1), trivial_perm(1))
    gm = tw.xi_module()
    H2 = tate_group(gm, 2)
    assert H2.order == 2
    # trivial xi -> +1
    assert twisted_sign(tw, (0,)) == 1
    # nontrivial class (the unramified inner form of the adjoint A1 group):
    # sign -1, matching the p-adic rank formula (-1)^(1-0)
    assert twisted_sign(tw, (1,)) == -1
    assert twisted_sign(tw, (1,)) == (-1) ** (1 - 0)


def test_twisted_sign_rejects_a_pairing_of_order_above_two(monkeypatch):
    """The order-2 guard: the A1 class of sign -1 pairs to 1/2; with the
    weights halved against the denominator it pairs to 1/4, outside the
    wired regime, and twisted_sign raises instead of returning a sign."""
    tw = TwistData(BasedRootDatum.from_label("A1"), 2, trivial_perm(1),
                   trivial_perm(1))
    assert twisted_sign(tw, (1,)) == -1
    pres = tw.sign_presentation()
    monkeypatch.setattr(tw, "sign_presentation",
                        lambda: pres._replace(den=2 * pres.den))
    assert twisted_sign(tw, (0,)) == 1
    with pytest.raises(ValueError, match="pairing value has order > 2"):
        twisted_sign(tw, (1,))


def test_twisted_sign_e6_flip_always_plus():
    d = BasedRootDatum.from_label("E6")
    tw = TwistData(d, 3, trivial_perm(6), diagram_flip("E6"))
    gm = tw.xi_module()
    H2 = tate_group(gm, 2)
    for coords in H2.elements():
        assert twisted_sign(tw, coords) == 1


def test_twisted_sign_squares_to_one():
    cases = []
    for label in ("A1", "A2", "A3", "D4", "E6"):
        d = BasedRootDatum.from_label(label)
        r = d.rank
        cases.append(TwistData(d, 2, trivial_perm(r), trivial_perm(r)))
        flip = diagram_flip(label)
        cases.append(TwistData(d, 2, trivial_perm(r), flip))
        # Galois acting by the flip (order divides 2)
        cases.append(TwistData(d, 2, flip, trivial_perm(r)))
    for tw in cases:
        gm = tw.xi_module()
        H2 = tate_group(gm, 2)
        for coords in H2.elements():
            try:
                s = twisted_sign(tw, coords)
            except ValueError:
                continue  # xi with no a-fixed representative is rejected
            assert s in (1, -1)


def test_sign_multiplicativity():
    d1 = BasedRootDatum.from_label("A1")
    tw1 = TwistData(d1, 2, trivial_perm(1), trivial_perm(1))
    d2 = BasedRootDatum.from_label("A3")
    tw2 = TwistData(d2, 2, trivial_perm(3), trivial_perm(3))
    gm2 = tw2.xi_module()
    H22 = tate_group(gm2, 2)
    for xi1 in [(0,), (1,)]:
        for xi2 in H22.elements():
            e1, e2, e12 = sign_product(tw1, xi1, tw2, xi2)
            assert e12 == e1 * e2
    # product with a trivial factor leaves the sign unchanged
    e1, e2, e12 = sign_product(tw1, (1,), tw2, tuple([0] * len(H22.group.torsion)))
    assert e2 == 1 and e12 == e1


def test_sign_induction_invariance():
    d = BasedRootDatum.from_label("A1")
    tw = TwistData(d, 2, trivial_perm(1), trivial_perm(1))
    for xi in [(0,), (1,)]:
        for blocks in (1, 2, 3):
            e_base, e_ind = sign_induction(tw, xi, blocks)
            assert e_base == e_ind


def test_sign_randomized_product_and_induction():
    random.seed(77)
    labels = ["A1", "A2", "A3", "D4"]
    checked = 0
    while checked < 20:
        label = random.choice(labels)
        d = BasedRootDatum.from_label(label)
        r = d.rank
        use_flip_a = random.random() < 0.5
        a = diagram_flip(label) if use_flip_a else trivial_perm(r)
        g = trivial_perm(r)
        tw = TwistData(d, 2, g, a)
        gm = tw.xi_module()
        H2 = tate_group(gm, 2)
        elements = list(H2.elements())
        xi = random.choice(elements)
        # a-fixedness can fail for some classes when a acts nontrivially;
        # skip those (they are outside the operation's precondition)
        try:
            s = twisted_sign(tw, xi)
        except ValueError:
            continue
        assert s in (1, -1)
        e_base, e_ind = sign_induction(tw, xi, random.choice((2, 3)))
        assert e_base == e_ind
        checked += 1


def test_levi_restriction():
    # A2 > A1 standard Levi, trivial actions: images agree coordinatewise
    d = BasedRootDatum.from_label("A2")
    tw = TwistData(d, 1, trivial_perm(2), trivial_perm(2))
    rep = levi_restriction(tw, [0])
    assert rep["exact_equal"] and rep["coinvariant_equal"]
    # full Levi: trivial equality
    rep = levi_restriction(tw, [0, 1])
    assert rep["exact_equal"]
    # empty Levi
    rep = levi_restriction(tw, [])
    assert rep["image"] == () and rep["intrinsic"] == ()
    # a-stable Levi in D4 under the swap automorphism
    d4 = BasedRootDatum.from_label("D4")
    tw4 = TwistData(d4, 1, trivial_perm(4), diagram_flip("D4"))
    rep = levi_restriction(tw4, [0, 1])
    assert rep["coinvariant_equal"]
    # non-stable subset rejected
    with pytest.raises(ValueError, match="not a-stable"):
        levi_restriction(tw4, [2])


def test_levi_restriction_across_representatives(monkeypatch):
    """D4 with a swapping nodes 2 and 3, Levi {2, 3}: lambda_{T,G} built on
    node 3 restricts to (0, 1) while lambda_{T,M} is (1, 0), so they differ
    coordinatewise, and (-1, 1) = (a - 1)(1, 0) puts them in one
    a-coinvariant class."""
    d4 = BasedRootDatum.from_label("D4")
    tw4 = TwistData(d4, 1, trivial_perm(4), diagram_flip("D4"))
    choose = rootdata.lambda_T

    def on_node_3(twist):
        if twist is not tw4:
            return choose(twist)
        lam = (1, 1, 0, 1)
        return lam, d4.center_class(lam)

    monkeypatch.setattr(rootdata, "lambda_T", on_node_3)
    rep = levi_restriction(tw4, [2, 3])
    assert rep["image"] == (0, 1) and rep["intrinsic"] == (1, 0)
    assert not rep["exact_equal"] and rep["coinvariant_equal"]


def test_coinvariant_boundary_needs_an_invariant_preimage():
    """With Galois and a both swapping the nodes of A1 x A1, (-1, 1) is
    (a - 1)(1, 0), but every Galois-invariant x has (a - 1) x = 0, so it is
    not in (1 - a) of the invariants."""
    tw = TwistData(BasedRootDatum(IntMatrix([[2, 0], [0, 2]])), 2, (1, 0),
                   (1, 0))
    assert _in_coinvariant_boundary(tw, (0, 0))
    assert not _in_coinvariant_boundary(tw, (-1, 1))
    flip_only = TwistData(tw.datum, 1, (0, 1), (1, 0))
    assert _in_coinvariant_boundary(flip_only, (-1, 1))
    assert not _in_coinvariant_boundary(flip_only, (1, 0))


def test_levi_restriction_with_galois():
    # A3 with Galois acting by the flip; the Levi {0, 2} is stable
    d = BasedRootDatum.from_label("A3")
    tw = TwistData(d, 2, diagram_flip("A3"), trivial_perm(3))
    rep = levi_restriction(tw, [0, 2])
    assert rep["coinvariant_equal"]


@pytest.mark.parametrize("label,n,gp,ap,message", [
    ("A2", 1, (0, 1), (0, 0), "a_perm must be a permutation"),
    ("A2", 1, (0,), (0, 1), "galois_perm must be a permutation"),
    ("A1", 0, (0,), (0,), "n must be at least 1"),
    ("A3", 2, (0, 1, 2), (1, 0, 2), "a_perm must preserve"),
    ("A2", 3, (1, 0), (0, 1), "must divide n"),
    ("D4", 2, (0, 1, 3, 2), (2, 1, 0, 3), "must commute"),
])
def test_twist_data_rejects_invalid_data(label, n, gp, ap, message):
    with pytest.raises(ValueError, match=message):
        TwistData(BasedRootDatum.from_label(label), n, gp, ap)


@pytest.mark.parametrize("label", ["A0", "D2", "B2", "A", "E7", ""])
def test_unsupported_cartan_labels(label):
    with pytest.raises(ValueError, match="unsupported Cartan type"):
        cartan_matrix(label)


@pytest.mark.parametrize("label,n,flip", [
    ("A1", 2, False), ("A2", 2, True), ("A3", 2, True), ("A3", 4, True),
    ("D4", 2, True), ("D5", 2, True), ("E6", 3, False),
])
def test_xi_module_h0_and_h2_share_invariants(label, n, flip):
    """The case-file loader bounds xi by the invariant factors of Tate H^0,
    which equal those of H^2 for a cyclic Galois group."""
    r = len(cartan_matrix(label).data)
    gp = diagram_flip(label) if flip else trivial_perm(r)
    gm = TwistData(BasedRootDatum.from_label(label), n, gp,
                   trivial_perm(r)).xi_module()
    h0, h2 = tate_group(gm, 0).group, tate_group(gm, 2).group
    assert (h0.torsion, h0.free_rank) == (h2.torsion, h2.free_rank)


#: Under python -O: a product of data with different n, factor coordinates
#: that do not give an element of Hom(P/Q, Q/Z) (A2 built from two A1
#: blocks, once as a product and once as a diagonal), factor ranks that do
#: not add up, Levi subsets that are not Galois- or not a-stable, a class
#: without an a-fixed representative (asked for twice), and a pairing of
#: order 4 on a class whose representative is already kept.
OPTIMIZED_CHECKS = """
import sys
from toruscheck.rootdata import (BasedRootDatum, TwistData, diagram_flip,
                                 dual_coordinates, levi_restriction,
                                 sign_product, twisted_sign)

if __debug__:
    sys.exit("asserts are still enabled")


def attempt(label, fn):
    try:
        print(label, "accepted:", fn())
    except ValueError as e:
        print(label, "rejected:", e)


def twist(label, n, galois=None, a=None):
    d = BasedRootDatum.from_label(label)
    ident = tuple(range(d.rank))
    return TwistData(d, n, galois or ident, a or ident)


a1, a2 = twist("A1", 2), twist("A2", 2)
attempt("product", lambda: sign_product(a1, (1,), twist("A1", 3), ()))
attempt("product coordinates",
        lambda: dual_coordinates(a2, (a1, a1), (0, 1)))
attempt("diagonal coordinates",
        lambda: dual_coordinates(a2, (a1,) * 2, (1,) * 2))
attempt("factor ranks", lambda: dual_coordinates(a2, (a1,), (1,)))
attempt("Galois-stable", lambda: levi_restriction(
    twist("A3", 2, galois=diagram_flip("A3")), [0]))
attempt("a-stable", lambda: levi_restriction(
    twist("D4", 1, a=diagram_flip("D4")), [2]))
a3 = twist("A3", 2, a=diagram_flip("A3"))
attempt("a-fixed", lambda: twisted_sign(a3, (1,)))
attempt("a-fixed again", lambda: twisted_sign(a3, (1,)))
attempt("kept", lambda: twisted_sign(a1, (1,)))
pres = a1.sign_presentation()
a1.sign_presentation = lambda: pres._replace(den=2 * pres.den)
attempt("order 2", lambda: twisted_sign(a1, (1,)))
"""


def test_sign_checks_run_under_python_O():
    src = os.path.dirname(os.path.dirname(os.path.abspath(toruscheck.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_CHECKS],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "product rejected: product needs a common Galois group",
        "product coordinates rejected: dual element out of range",
        "diagonal coordinates rejected: dual element out of range",
        "factor ranks rejected: the factor ranks must add up to 2",
        "Galois-stable rejected: Levi subset not Galois-stable",
        "a-stable rejected: Levi subset not a-stable",
        "a-fixed rejected: xi admits no a-fixed representative; rejected",
        "a-fixed again rejected: xi admits no a-fixed representative; "
        "rejected",
        "kept accepted: -1",
        "order 2 rejected: pairing value has order > 2; datum outside the "
        "wired regime",
    ]
