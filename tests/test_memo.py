"""The bounded content-keyed memos: every process-level cache is one,
keys separate inputs that differ in one entry, cached values equal fresh
builds, callers never mutate them, no memo outgrows its limit, and a solved
matrix keeps one record."""

import importlib
import inspect
import io
import os
import pickle
import pkgutil
from fractions import Fraction

import pytest

import toruscheck
from toruscheck import characters, cohomology, lattice, qz, rootdata, \
    suite, weil
from toruscheck.characters import CharacterTable
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
from toruscheck.lattice import IntMatrix, Memo, solve_integer
from toruscheck.qz import QZ
from toruscheck.rootdata import BasedRootDatum, TwistData
from toruscheck.weil import LocalModel, Parameter, TorusModel, hyper_pairing, \
    tn_iso

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = [os.path.join(ROOT, "fixtures", name)
            for name in ("norm_one_torus.json", "s3_component.json")]
#: Every process-level cache, by name: a memoized build carries its Memo
#: as its attribute memo; the solved matrices and the character tables of
#: TABLE_CACHE keep theirs.
MEMOS = {
    "lattice._snf_cache": lattice._snf_cache,
    "cohomology.coboundary_rows": coboundary_rows.memo,
    "cohomology.dd_rows": dd_rows.memo,
    "cohomology.d_matrix": cohomology._d_matrix_cache,
    "cohomology.tate_group": tate_group.memo,
    "weil._lift_system": weil._lift_system.memo,
    "rootdata.BasedRootDatum.from_label": BasedRootDatum.from_label.memo,
    **{"rootdata.TwistData.%s" % name: f.memo
       for name, f in vars(TwistData).items() if hasattr(f, "memo")},
    "qz.cyclotomic_poly": qz.cyclotomic_poly.memo,
    "qz._level": qz._level.memo,
    "qz._power_residue": qz._power_residue.memo,
    "qz._odd_level_rows": qz._odd_level_rows.memo,
    "suite._templates": suite._templates.memo,
    "characters.TABLE_CACHE": characters.TABLE_CACHE._tables,
}


@pytest.fixture
def fresh_memos(empty_memos):
    """Every memo emptied for the test (see conftest.empty_memos)."""
    empty_memos(*MEMOS.values())
    return MEMOS


def _held_memos():
    """{id: Memo} of every Memo a module of the package holds: as a module
    attribute, as the memo of a function or of a class attribute, or as
    the store of a TableCache."""
    held = {}
    for info in pkgutil.iter_modules(toruscheck.__path__):
        module = importlib.import_module("toruscheck." + info.name)
        values = list(vars(module).values())
        values += [v for cls in values
                   if inspect.isclass(cls) and cls.__module__ == module.__name__
                   for v in vars(cls).values()]
        for v in values:
            v = getattr(v, "__func__", v)
            for memo in (v, getattr(v, "memo", None),
                         getattr(v, "_tables", None)):
                if isinstance(memo, Memo):
                    held[id(memo)] = memo
    return held


def test_every_process_cache_is_a_listed_memo():
    """The memos the modules hold are exactly those MEMOS lists: a new
    cache is a Memo, and these tests cover it."""
    held = _held_memos()
    assert len(MEMOS) == 21
    assert set(held) == {id(m) for m in MEMOS.values()}


def test_memo_never_exceeds_its_limit(fresh_memos, monkeypatch, tmp_path):
    """Under a limit of 3 no memo ever holds more than 3 entries, a cleared
    entry is rebuilt rather than lost, replacing a value does not clear a
    full memo, and the file commands on both fixtures and a random suite,
    which fill every memo, still give their golden reports."""
    monkeypatch.setattr(lattice, "MEMO_LIMIT", 3)
    memo = Memo()
    for k in range(10):
        assert memo.get_or_compute(("k", k), pow, k, 2) == k * k
        assert len(memo) <= 3
    # a cleared entry is rebuilt, not lost
    assert memo.get_or_compute(("k", 0), pow, 0, 2) == 0
    memo = Memo()
    for k in range(3):
        memo.put(("k", k), k * k)
    memo.put(("k", 0), "zero")
    assert len(memo) == 3 and memo["k", 0] == "zero"
    peak, puts = {}, {}
    put = Memo.put

    def recording(self, key, value):
        out = put(self, key, value)
        peak[id(self)] = max(peak.get(id(self), 0), len(self))
        puts[id(self)] = puts.get(id(self), 0) + 1
        return out

    monkeypatch.setattr(Memo, "put", recording)
    for path in FIXTURES:
        fixture = os.path.splitext(os.path.basename(path))[0]
        for command in ("cohomology", "pairing", "sign", "projirr",
                        "tori-verify"):
            out = tmp_path / "out.json"
            assert main([command, "--input", path, "--output", str(out)]) == 0
            with open(os.path.join(ROOT, "perfbench", "golden", "cli",
                                   "%s.%s.json" % (command, fixture))) as f:
                assert out.read_text() == f.read(), (command, fixture)
    out = tmp_path / "suite.json"
    assert main(["random-suite", "--seed", "7", "--suite-size", "10",
                 "--output", str(out)]) == 0
    with open(os.path.join(ROOT, "tests", "golden",
                           "random-suite.seed7.size10.json")) as f:
        assert out.read_text() == f.read()
    # every memo took entries, and each filled up to the limit when it
    # took more
    assert all(puts.get(id(m)) for m in MEMOS.values())
    assert {name: peak[id(m)] for name, m in MEMOS.items()} == \
        {name: min(3, puts[id(m)]) for name, m in MEMOS.items()}


def test_solve_plans_are_keyed_by_matrix_content(fresh_memos, monkeypatch):
    """solve_integer alone leaves a matrix its plan and no SNF; an SNF read
    then adds the SNF and keeps that plan; the plan of a matrix whose SNF
    is kept is built from it, with no second SNF; an equal matrix built
    again shares the record, and one entry apart gets its own; emptied
    records give the same solutions."""
    factored = []
    snf = lattice.smith_normal_form
    monkeypatch.setattr(lattice, "smith_normal_form",
                        lambda M: factored.append(M.data) or snf(M))
    records = lattice._snf_cache
    A, again = IntMatrix([[2, 4], [6, 8]]), IntMatrix([[2, 4], [6, 8]])
    other = IntMatrix([[2, 4], [6, 9]])
    assert solve_integer(A, (2, 6)) == (1, 0)
    assert solve_integer(again, (4, 12)) == (2, 0)
    (kept, plan), = records.values()
    assert kept is None and plan is not None and len(factored) == 1
    U, D, V = lattice.snf_cached(again)
    assert records[A.data][0] == (U, D, V) and records[A.data][1] is plan
    assert len(factored) == 2
    lattice.snf_cached(other)
    assert solve_integer(other, (2, 6)) == (1, 0)
    assert solve_integer(other, (1, 6)) is None
    assert len(factored) == 3 and len(records) == 2
    assert records[other.data][0] is lattice.snf_cached(other)
    records.clear()
    assert solve_integer(again, (4, 12)) == (2, 0)
    assert solve_integer(other, (1, 6)) is None
    assert len(lattice._snf_cache) == 2


def test_only_snf_reads_keep_an_snf(fresh_memos, monkeypatch, tmp_path):
    """Over the file commands on both fixtures and a random suite, a record
    holds a dense SNF exactly when snf_cached was asked for its matrix: a
    matrix that only solve_integer reads keeps its plan alone."""
    read = set()
    snf_cached = lattice.snf_cached

    def recording(M):
        read.add(M.data)
        return snf_cached(M)

    monkeypatch.setattr(lattice, "snf_cached", recording)
    for path in FIXTURES:
        for command in ("cohomology", "pairing", "sign", "projirr",
                        "tori-verify"):
            assert main([command, "--input", path,
                         "--output", str(tmp_path / "out.json")]) == 0
    assert main(["random-suite", "--seed", "1", "--suite-size", "5",
                 "--output", str(tmp_path / "out.json")]) == 0
    records = lattice._snf_cache
    solved_only = [k for k, (snf, plan) in records.items() if snf is None]
    assert len(solved_only) >= 20
    assert all(records[k][1] is not None for k in solved_only)
    assert {k for k, (snf, _) in records.items() if snf is not None} == read


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


def test_cold_tate_group_factors_no_basis(monkeypatch, empty_memos):
    """A cold tate_group(gm, 1) of the norm-one fixture inverts only the U
    of each FGAbelian it builds, once per group, and never a basis; it
    keeps no solve plan, and takes three SNFs: the cocycle system, the
    generator matrix of the Subquotient and its relation matrix."""
    from toruscheck.casefile import load_case_file
    gm = load_case_file(FIXTURES[0])[0].gmodule()
    empty_memos(*MEMOS.values())
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
    assert len(factored) == 3
    assert all(plan is None
               for _, plan in lattice._snf_cache.values())


def test_tate_groups_are_keyed_by_module_content(fresh_memos):
    m = _modules()
    # one action-matrix entry apart, and one invariant factor apart
    for left, right, n in [("Z trivial", "Z sign", 1), ("Z/2", "Z/3", 2)]:
        a, b = tate_group(m[left], n), tate_group(m[right], n)
        assert a is not b and a.order != b.order
    assert len(tate_group.memo) == 4
    # an equal module built again shares the entry
    again = GModule(FiniteGroup.cyclic(2), 1, None,
                    [IntMatrix.identity(1), IntMatrix([[-1]])])
    assert tate_group(again, 1) is tate_group(m["Z sign"], 1)
    assert len(tate_group.memo) == 4


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


def test_lift_systems_are_keyed_by_fT_and_D(fresh_memos):
    t, inputs = _lift_inputs()
    memo = weil._lift_system.memo
    shared = [hyper_pairing(t, *x) for x in inputs]
    assert shared[0] == QZ(1, 2)
    # one system per (fT, D), then reused
    assert [key[1:] for key in memo] == \
        [(((2,),), 1), (((1,),), 2), (((1,),), 1)]
    systems = list(memo.values())
    assert [hyper_pairing(t, *x) for x in inputs] == shared
    assert len(memo) == 3
    assert all(a is b for a, b in zip(memo.values(), systems))
    for x, value in zip(inputs, shared):
        memo.clear()
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
    # one datum per label, and one key string per twist datum
    assert tw.datum is other.datum
    assert list(BasedRootDatum.from_label.memo) == [("A2",)]
    assert tw.key == same.key and tw.key is not same.key
    assert tw.key != other.key


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
    assert len(coboundary_rows.memo) == 5
    assert dd_rows(again, 1) is dd_rows(m["Z sign"], 1) == ()
    assert len(coboundary_rows.memo) == 5
    assert len(dd_rows.memo) == 1


#: The per-object stores of memo values: what a group or a character
#: table derives from its own content on first use and keeps for the
#: object's lifetime.  They may fill after the value is stored.
PER_OBJECT = {FiniteGroup: ("_classes", "_class_index", "_powers", "_gens",
                            "table_key"),
              CharacterTable: ("central", "products", "lhs", "_forms")}


class _ContentPickler(pickle.Pickler):
    """Pickles a value with the per-object stores of its groups and tables
    left out."""

    def reducer_override(self, obj):
        skip = PER_OBJECT.get(type(obj))
        if skip is None:
            return NotImplemented
        names = getattr(type(obj), "__slots__", None) or sorted(vars(obj))
        return tuple, (tuple((n, getattr(obj, n)) for n in names
                             if n not in skip),)


def _content(value):
    out = io.BytesIO()
    _ContentPickler(out).dump(value)
    return out.getvalue()


def test_cached_values_are_not_mutated(fresh_memos, monkeypatch, tmp_path):
    """Every value a memo stores during full cohomology, sign, tori-verify
    and random-suite runs has the same content at the end as when it was
    stored, and every memo holds entries, none more than its limit."""
    stored = []
    put = Memo.put

    def recording(self, key, value):
        stored.append((value, _content(value)))
        return put(self, key, value)

    monkeypatch.setattr(Memo, "put", recording)
    for command in ("cohomology", "sign", "tori-verify"):
        for path in FIXTURES:
            assert main([command, "--input", path,
                         "--output", str(tmp_path / "out.json")]) == 0
    assert main(["random-suite", "--seed", "1", "--suite-size", "3",
                 "--output", str(tmp_path / "out.json")]) == 0
    assert len(stored) > 100
    for value, at_store in stored:
        assert _content(value) == at_store
    assert {name: 0 < len(memo) <= lattice.MEMO_LIMIT
            for name, memo in fresh_memos.items()} == \
        {name: True for name in fresh_memos}


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
                assert (tw.key, xi) \
                    not in TwistData.fixed_representative.memo
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
    for f in vars(TwistData).values():
        if hasattr(f, "memo"):
            f.memo.clear()
    assert _signs(data) == signs
