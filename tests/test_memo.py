"""The bounded content-keyed memos: keys separate inputs that differ in
one entry, cached values equal fresh builds, callers never mutate them, and
no memo outgrows its limit."""

import os
import pickle
from fractions import Fraction

import pytest

from toruscheck import cohomology, lattice, rootdata, weil
from toruscheck.cli import main
from toruscheck.cohomology import (
    CohomologyGroup,
    GModule,
    coboundary_rows,
    dd_rows,
    tate_group,
    tate_minus1,
    tate_zero,
)
from toruscheck.groups import FiniteGroup, GroupAction
from toruscheck.lattice import IntMatrix, Memo
from toruscheck.qz import QZ
from toruscheck.rootdata import BasedRootDatum, TwistData
from toruscheck.weil import LocalModel, Parameter, TorusModel, hyper_pairing, \
    tn_iso

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = [os.path.join(ROOT, "fixtures", name)
            for name in ("norm_one_torus.json", "s3_component.json")]
MEMOS = [(lattice, "_snf_cache"), (lattice, "_plan_cache"),
         (cohomology, "_rows_cache"),
         (cohomology, "_dd_cache"), (cohomology, "_d_matrix_cache"),
         (cohomology, "_tate_cache"),
         (rootdata, "_twist_cache"), (weil, "_lift_cache")]


@pytest.fixture
def fresh_memos(monkeypatch):
    """Empty memos for the test, so it sees every entry it causes."""
    for module, name in MEMOS:
        monkeypatch.setattr(module, name, Memo())
    return [getattr(module, name) for module, name in MEMOS]


def test_memo_never_exceeds_its_limit(monkeypatch):
    monkeypatch.setattr(lattice, "MEMO_LIMIT", 3)
    memo = Memo()
    for k in range(10):
        assert memo.get_or_compute(("k", k), pow, k, 2) == k * k
        assert len(memo) <= 3
    # a cleared entry is rebuilt, not lost
    assert memo.get_or_compute(("k", 0), pow, 0, 2) == 0


def test_solve_plans_are_keyed_by_matrix_content(fresh_memos, monkeypatch):
    """An equal matrix built again shares the solve plan and the SNF of the
    first; a matrix one entry apart gets its own; an emptied plan memo
    gives the same solutions."""
    A, again = IntMatrix([[2, 4], [6, 8]]), IntMatrix([[2, 4], [6, 8]])
    other = IntMatrix([[2, 4], [6, 9]])
    assert lattice.solve_integer(A, (2, 6)) == (1, 0)
    assert lattice.solve_integer(again, (4, 12)) == (2, 0)
    assert len(lattice._plan_cache) == len(lattice._snf_cache) == 1
    assert lattice.solve_integer(other, (2, 6)) == (1, 0)
    assert lattice.solve_integer(other, (1, 6)) is None
    assert len(lattice._plan_cache) == len(lattice._snf_cache) == 2
    monkeypatch.setattr(lattice, "_plan_cache", Memo())
    assert lattice.solve_integer(again, (4, 12)) == (2, 0)
    assert lattice.solve_integer(other, (1, 6)) is None
    assert len(lattice._plan_cache) == 2


def _modules():
    c2 = FiniteGroup.cyclic(2)
    one, minus = IntMatrix.identity(1), IntMatrix([[-1]])
    return {
        "Z trivial": GModule(c2, 1, None, [one, one]),
        "Z sign": GModule(c2, 1, None, [one, minus]),
        "Z/2": GModule.finite(c2, (2,), [one, one]),
        "Z/3": GModule.finite(c2, (3,), [one, one]),
        "Z[C3] rotation": GModule.from_action(GroupAction.cyclic(
            3, IntMatrix([[0, -1], [1, -1]]))),
        "A2 xi": TwistData(BasedRootDatum.from_label("A2"), 2, (1, 0),
                           (0, 1)).xi_module(),
    }


def test_cold_tate_group_factors_no_basis(monkeypatch):
    """A cold tate_group(gm, 1) of the norm-one fixture inverts only the U
    of each FGAbelian it builds, once per group, and never a basis; it
    keeps no solve plan, and takes three SNFs: the cocycle system, the
    generator matrix of the Subquotient and its relation matrix."""
    from toruscheck.casefile import load_case_file
    gm = load_case_file(FIXTURES[0])[0].gmodule()
    for module, name in MEMOS:
        monkeypatch.setattr(module, name, Memo())
    inverted, factored, groups = [], [], []
    inverse, snf = lattice.unimodular_inverse, lattice.smith_normal_form
    build = lattice.FGAbelian.__init__

    def counted_build(self, ngens, rels):
        build(self, ngens, rels)
        groups.append(self)

    monkeypatch.setattr(lattice, "unimodular_inverse",
                        lambda M: inverted.append(M) or inverse(M))
    monkeypatch.setattr(lattice, "smith_normal_form",
                        lambda M: factored.append(M) or snf(M))
    monkeypatch.setattr(lattice.FGAbelian, "__init__", counted_build)
    H1 = tate_group(gm, 1)
    assert H1.order == 2
    assert groups == [H1.group]
    assert inverted == [G.U for G in groups]
    assert len(factored) == 3 and len(lattice._plan_cache) == 0


def test_tate_groups_are_keyed_by_module_content(fresh_memos):
    m = _modules()
    # one action-matrix entry apart, and one invariant factor apart
    for left, right, n in [("Z trivial", "Z sign", 1), ("Z/2", "Z/3", 2)]:
        a, b = tate_group(m[left], n), tate_group(m[right], n)
        assert a is not b and a.order != b.order
    assert len(cohomology._tate_cache) == 4
    # an equal module built again shares the entry
    again = GModule(FiniteGroup.cyclic(2), 1, None,
                    [IntMatrix.identity(1), IntMatrix([[-1]])])
    assert tate_group(again, 1) is tate_group(m["Z sign"], 1)
    assert len(cohomology._tate_cache) == 4


def _plain(rep):
    """A representative as comparable data: a vector or a cochain's vector."""
    return getattr(rep, "vec", rep)


def test_cached_tate_group_matches_a_fresh_build(fresh_memos):
    fresh = {-1: tate_minus1, 0: tate_zero,
             1: lambda gm: CohomologyGroup(gm, 1),
             2: lambda gm: CohomologyGroup(gm, 2)}
    for name, gm in _modules().items():
        for n, build in fresh.items():
            tate_group(gm, n)
            cached, new = tate_group(gm, n), build(gm)
            assert (cached.group.torsion, cached.group.free_rank) == \
                (new.group.torsion, new.group.free_rank), name
            for coords in cached.elements():
                rep = cached.representative(coords)
                assert _plain(new.representative(coords)) == _plain(rep)
                assert new.classify(rep) == cached.classify(rep) == coords


def _lift_inputs():
    """Valid hyper pairs on the norm-one torus that differ in fT alone
    (first and third) or in the denominator D of v alone (second and
    third)."""
    t = TorusModel(LocalModel(2), GroupAction.cyclic(2, IntMatrix([[-1]])))
    d = Parameter(t, (QZ(1, 4),)).neg()
    return t, [
        (IntMatrix([[2]]), (tn_iso(t, (1,)).neg(), (1,)), (d, (QZ(3, 4),))),
        (IntMatrix([[1]]), (tn_iso(t, (1,)).neg(), (Fraction(1, 2),)),
         (d, (QZ(1, 8),))),
        (IntMatrix([[1]]), (tn_iso(t, (2,)).neg(), (1,)), (d, (QZ(1, 8),))),
    ]


def test_lift_systems_are_keyed_by_fT_and_D(fresh_memos, monkeypatch):
    t, inputs = _lift_inputs()
    built = []
    build = weil._lift_system

    def recording(torus, fT, D):
        built.append((fT.data, D))
        return build(torus, fT, D)

    monkeypatch.setattr(weil, "_lift_system", recording)
    shared = [hyper_pairing(t, *x) for x in inputs]
    assert shared[0] == QZ(1, 2)
    # one system per (fT, D), then reused
    assert built == [(((2,),), 1), (((1,),), 2), (((1,),), 1)]
    assert [hyper_pairing(t, *x) for x in inputs] == shared
    assert len(built) == len(weil._lift_cache) == 3
    for x, value in zip(inputs, shared):
        monkeypatch.setattr(weil, "_lift_cache", Memo())
        assert hyper_pairing(t, *x) == value


def test_twist_data_is_keyed_by_content(fresh_memos):
    flip, ident = (1, 0), (0, 1)
    tw = TwistData(BasedRootDatum.from_label("A2"), 1, ident, flip)
    same = TwistData(BasedRootDatum.from_label("A2"), 1, ident, flip)
    other = TwistData(BasedRootDatum.from_label("A2"), 1, ident, ident)
    assert same.dual_center_action_matrix(flip) is \
        tw.dual_center_action_matrix(flip)
    assert tw.dual_center_action_matrix(flip) == IntMatrix([[2]])
    assert tw.dual_center_action_matrix(ident) == IntMatrix([[1]])
    assert other.xi_module() is not tw.xi_module()
    assert same.sign_presentation() is tw.sign_presentation()
    assert other.sign_presentation() is not tw.sign_presentation()


def test_coboundary_rows_are_keyed_by_module_content(fresh_memos):
    """Equal module content shares one entry of the rows memo, however the
    module is built; a different action, group table or degree gets its own
    rows, and so does d o d."""
    m = _modules()
    again = GModule(FiniteGroup.cyclic(2), 1, None,
                    [IntMatrix.identity(1), IntMatrix([[-1]])])
    assert coboundary_rows(again, 1) is coboundary_rows(m["Z sign"], 1)
    assert coboundary_rows(m["Z trivial"], 1) != \
        coboundary_rows(m["Z sign"], 1)
    assert coboundary_rows(m["Z sign"], 2) != coboundary_rows(m["Z sign"], 1)
    klein = FiniteGroup.direct_product(FiniteGroup.cyclic(2),
                                       FiniteGroup.cyclic(2))
    c4 = FiniteGroup.cyclic(4)
    assert coboundary_rows(GModule.trivial_ints(klein), 1) != \
        coboundary_rows(GModule.trivial_ints(c4), 1)
    assert len(cohomology._rows_cache) == 5
    assert dd_rows(again, 1) is dd_rows(m["Z sign"], 1) == ()
    assert len(cohomology._rows_cache) == 5
    assert len(cohomology._dd_cache) == 1


def test_cached_values_are_not_mutated(fresh_memos, monkeypatch, tmp_path):
    """Every value a memo stores during full cohomology, sign and
    tori-verify runs reads
    the same at the end as when it was stored, and no memo outgrows its
    limit."""
    stored = []
    original = Memo.get_or_compute

    def recording(self, key, compute, *args):
        miss = key not in self._entries
        value = original(self, key, compute, *args)
        if miss:
            stored.append((value, pickle.dumps(value)))
        return value

    monkeypatch.setattr(Memo, "get_or_compute", recording)
    for command in ("cohomology", "sign", "tori-verify"):
        for path in FIXTURES:
            assert main([command, "--input", path,
                         "--output", str(tmp_path / "out.json")]) == 0
    assert len(stored) > 100
    for value, at_store in stored:
        assert pickle.dumps(value) == at_store
    assert all(0 < len(memo) <= lattice.MEMO_LIMIT for memo in fresh_memos)


def _sign_data():
    """The data of checks.sign_squares (n = 2, trivial and flipped a, over
    A1, A2, A3, D4 and E6) and E6 with n = 3 and the flip."""
    from toruscheck.rootdata import diagram_flip
    out = []
    for label in ("A1", "A2", "A3", "D4", "E6"):
        d = BasedRootDatum.from_label(label)
        ident = tuple(range(d.rank))
        out += [TwistData(d, 2, ident, ap)
                for ap in (ident, diagram_flip(label))]
    e6 = BasedRootDatum.from_label("E6")
    return out + [TwistData(e6, 3, tuple(range(6)), diagram_flip("E6"))]


def _signs(data):
    """Every class's sign, or the message of its rejection, per datum."""
    out = []
    for tw in data:
        for xi in tate_group(tw.xi_module(), 2).elements():
            try:
                out.append(rootdata.twisted_sign(tw, xi))
            except ValueError as e:
                out.append(str(e))
    return out


def test_kept_fixed_representatives_equal_fresh_ones(fresh_memos,
                                                     monkeypatch):
    """Each class's kept a-fixed representative is a fresh
    _exactly_fixed_representative, built once however often the sign is
    asked for; a class without one is rejected on every call; and an
    emptied memo gives the same signs."""
    fresh = rootdata._exactly_fixed_representative
    built = []

    def recording(pres, coords):
        built.append((id(pres), coords))
        return fresh(pres, coords)

    monkeypatch.setattr(rootdata, "_exactly_fixed_representative", recording)
    data = _sign_data()
    signs = _signs(data)
    kept, rejected = set(), set()
    for tw in data:
        pres = tw.sign_presentation()
        for xi in pres.H2.elements():
            if pres.weights is None:
                # the sign is +1 for every class; no representative is kept
                assert rootdata.twisted_sign(tw, xi) == 1
                assert ("fixed_representative", tw.key, xi) \
                    not in rootdata._twist_cache._entries
                continue
            want = fresh(pres, xi)
            got = tw.fixed_representative(xi)
            assert (got is None) == (want is None)
            if want is None:
                rejected.add((tw.key, xi))
                for _ in range(2):
                    with pytest.raises(ValueError, match="no a-fixed"):
                        rootdata.twisted_sign(tw, xi)
            else:
                kept.add((tw.key, xi))
                assert got.vec == want.vec
                assert rootdata.twisted_sign(tw, xi) in (1, -1)
    # A1 (one datum: its flip is trivial) and A3 keep 2 each, flipped A3
    # keeps 1 and flipped D4 2; flipped A3 rejects 1 class, flipped D4 2
    assert (len(kept), len(rejected)) == (7, 3)
    assert len(built) == len(set(built)) == 10
    assert _signs(data) == signs
    monkeypatch.setattr(rootdata, "_twist_cache", Memo())
    assert _signs(data) == signs
