"""Failure paths of the named checks: a failing identity gives a failing
verdict with a witness, never a silent pass."""

import dataclasses
import json
import os
import random

import pytest

from toruscheck import checks
from toruscheck.characters import CharacterTable, TABLE_CACHE
from toruscheck.qz import Cyc
from toruscheck.cli import COMMANDS, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE = os.path.join(ROOT, "fixtures", "norm_one_torus.json")


def test_check_ids_are_unique_and_prefixed():
    ids = [cid for entries in COMMANDS.values() for cid, _, _ in entries]
    assert len(ids) == len(set(ids))
    prefix = {"tori-verify": "tori.", "random-suite": "suite."}
    for command, entries in COMMANDS.items():
        for cid, _, _ in entries:
            assert cid.startswith(prefix.get(command, command + "."))


def test_klein_four_pin_fails_on_the_split_extension():
    """On the split extension mu_2 x C2 x C2 the sum at e = e2 = 1 is 4
    too, but over four one-dimensional characters, so the pin fails."""
    from toruscheck.groups import FiniteGroup, Cocycle2, CentralExtension
    K = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    assert checks.klein_four_pin(CentralExtension(K, 2, Cocycle2.zero(K))) \
        == checks.Verdict(False)


def test_sampling_check_names_its_first_failing_sample(monkeypatch):
    calls = []

    def fake_trace(phis, T):
        calls.append(len(calls))
        return 0, 0, len(calls) < 3

    monkeypatch.setattr(checks, "block_twisted_trace", fake_trace)
    v = checks.block_twisted_traces(random.Random(1), 10, 3)
    assert v == checks.Verdict(False, {"sample": 2}, {"samples": 3})
    assert len(calls) == 3


def test_character_identity_failure_has_a_witness(monkeypatch):
    case = next(checks.random_cases(random.Random(3), 1))
    real = checks.character_identity_report

    def off_by_one(case, s, b, t, a):
        r = real(case, s, b, t, a)
        return dataclasses.replace(
            r, endoscopic_value=r.endoscopic_value + Cyc.integer(1))

    monkeypatch.setattr(checks, "character_identity_report", off_by_one)
    v = checks.character_identity(case)
    assert not v.ok
    assert v.witness["failure"]["endoscopic"] != v.witness["failure"]["rep"]
    assert v.witness["checked"] == v.counts["triples"] > 0


def test_engine_value_error_fails_and_ends_the_command(monkeypatch, tmp_path,
                                                       capsys, empty_memos):
    """A table above MAX_ORDER fails projirr.table and ends the command;
    the process table cache starts empty, so the table is built."""
    empty_memos(TABLE_CACHE._tables)
    monkeypatch.setattr(CharacterTable, "MAX_ORDER", 1)
    out = tmp_path / "report.json"
    assert main(["projirr", "--input", FIXTURE, "--output", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert [c["id"] for c in doc["checks"]] == ["projirr.table"]
    assert doc["checks"][0]["status"] == "fail"
    assert "exceeds" in doc["checks"][0]["witness"]["error"]


def _norm_one_torus():
    from toruscheck.casefile import load_case_file
    return load_case_file(FIXTURE)[0]


def test_kottwitz_perfect_fails_on_truncated_duals(monkeypatch):
    torus = _norm_one_torus()
    assert checks.kottwitz_perfect(torus) == checks.Verdict(True)
    real = checks.invariant_duals
    monkeypatch.setattr(checks, "invariant_duals",
                        lambda torus: real(torus)[:-1])
    assert checks.kottwitz_perfect(torus) == checks.Verdict(False)


def test_kottwitz_perfect_fails_on_a_repeated_generator(monkeypatch):
    """On Z^2 with sigma = -1, H^-1 is (Z/2)^2; the generators 1/2 e_1
    twice have the right orders but miss the classes and duals of e_2."""
    from toruscheck.groups import GroupAction
    from toruscheck.lattice import IntMatrix
    from toruscheck.weil import LocalModel, TorusModel

    torus = TorusModel(LocalModel(2),
                       GroupAction.cyclic(2, -IntMatrix.identity(2)))
    duals = checks.invariant_duals(torus)
    assert len(duals) == 3 and checks.kottwitz_perfect(torus).ok
    monkeypatch.setattr(checks, "invariant_duals",
                        lambda torus: [duals[0], duals[1], duals[1]])
    assert checks.kottwitz_perfect(torus) == checks.Verdict(False)


def test_sign_squares_names_the_first_bad_sign(monkeypatch):
    v = checks.sign_squares()
    assert v.ok and v.witness is None and v.counts["signs"] > 0
    monkeypatch.setattr(checks, "twisted_sign", lambda twist, xi: 2)
    bad = checks.sign_squares()
    assert not bad.ok
    assert bad.witness == {"label": "A1", "a_perm": [0], "xi": [0],
                           "sign": 2}
    assert bad.counts["signs"] > v.counts["signs"]


def test_sign_squares_witness_is_the_first_failure(monkeypatch):
    from toruscheck.rootdata import diagram_flip, twisted_sign

    def flip_d4_doubles(twist, xi):
        s = twisted_sign(twist, xi)
        flipped = twist.a_perm != tuple(range(twist.datum.rank))
        return 2 * s if twist.datum.label == "D4" and flipped else s

    signs = checks.sign_squares().counts
    monkeypatch.setattr(checks, "twisted_sign", flip_d4_doubles)
    v = checks.sign_squares()
    assert not v.ok
    assert (v.witness["label"], v.witness["a_perm"], abs(v.witness["sign"])) \
        == ("D4", list(diagram_flip("D4")), 2)
    assert v.counts == signs


def test_induced_roundtrip_fails_on_a_perturbed_reconstruction(monkeypatch):
    v = checks.induced_automorphism_roundtrip(random.Random(8), 20)
    assert v == checks.Verdict(True, None, {"samples": 20})
    real = checks.reconstruct_induced_automorphism
    monkeypatch.setattr(checks, "reconstruct_induced_automorphism",
                        lambda *args: -real(*args))
    bad = checks.induced_automorphism_roundtrip(random.Random(8), 20)
    assert not bad.ok
    assert bad.witness["sample"] == 0 and bad.counts == {"samples": 1}
    assert "error" not in bad.witness


def test_induced_roundtrip_names_a_decomposition_error(monkeypatch):
    from toruscheck.groups import BlockDecompositionError

    def refuse(*args):
        raise BlockDecompositionError("not block-structured")

    monkeypatch.setattr(checks, "decompose_induced_automorphism", refuse)
    v = checks.induced_automorphism_roundtrip(random.Random(8), 20)
    assert not v.ok
    assert v.witness["sample"] == 0
    assert v.witness["error"] == "not block-structured"

    def crash(*args):
        raise KeyError("a bug, not a rejected input")

    monkeypatch.setattr(checks, "decompose_induced_automorphism", crash)
    with pytest.raises(KeyError):
        checks.induced_automorphism_roundtrip(random.Random(8), 20)


#: The CLI's default seeds 0-9, the fixtures' seeds 7 and 11, and the
#: acceptance gate's 41.
ORACLE_SEEDS = sorted(set(range(10)) | {7, 11, 41})


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_product_induction_matches_the_per_sample_loop(seed):
    """Building each datum once per call keeps the verdict and every draw:
    the rng ends in the same state as after the per-sample loop."""
    import checks_reference

    ref_rng, rng = random.Random(seed), random.Random(seed)
    want = checks_reference.product_induction(ref_rng, 20)
    assert checks.product_induction(rng, 20) == want
    assert want.ok and want.witness == {"samples": 20}
    assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("seed", [7, 11])
def test_product_induction_failure_matches_the_per_sample_loop(
        seed, monkeypatch):
    """A product law that fails on its fourth sample gives the same
    witness and leaves the rng where the per-sample loop leaves it."""
    import checks_reference
    from toruscheck import rootdata

    def failing_on(k):
        calls = []

        def sign_product(*args):
            calls.append(1)
            e1, e2, e12 = rootdata.sign_product(*args)
            return (e1, e2, -e12) if len(calls) == k else (e1, e2, e12)
        return sign_product

    ref_rng, rng = random.Random(seed), random.Random(seed)
    monkeypatch.setattr(checks_reference, "sign_product", failing_on(4))
    want = checks_reference.product_induction(ref_rng, 20)
    monkeypatch.setattr(checks, "sign_product", failing_on(4))
    assert checks.product_induction(rng, 20) == want
    assert not want.ok and want.witness["samples"] == 3
    assert rng.getstate() == ref_rng.getstate()


def _corestriction_data():
    """(data, B, A_elems, end): the acceptance gate's ten scalar fixtures
    with both sections, and its two-dimensional Q8 fixture."""
    from test_acceptance import q8_matrix_datum
    from toruscheck.groups import FiniteGroup
    from toruscheck.qz import QZ

    B4, B2 = FiniteGroup.cyclic(4), FiniteGroup.cyclic(2)
    out = [(checks.scalar_datum(w), B, A_elems, end)
           for w in (QZ(0), QZ(1, 4), QZ(1, 2), QZ(3, 4), QZ(1, 8))
           for B, A_elems in ((B4, [0, 2]), (B2, [0, 1]))
           for end in (0, -1)]
    data = q8_matrix_datum()
    return out + [(data, B4, [0, 2], end) for end in (0, -1)]


def _recording_alpha(monkeypatch, fail=None):
    """A log of the corestriction check's work: each alpha pair asked for,
    and "beta" for each beta ratio in between.  Alpha raises ValueError on
    the pair `fail`."""
    import checks_reference
    from toruscheck import characters
    from toruscheck.characters import InducedIntertwinerData

    log, inside = [], []
    real_alpha, real_ratio = InducedIntertwinerData.alpha, \
        characters._scalar_ratio

    def alpha(self, a1, a2):
        log.append((a1, a2))
        if (a1, a2) == fail:
            raise ValueError("alpha%r refused" % ((a1, a2),))
        inside.append(1)
        try:
            return real_alpha(self, a1, a2)
        finally:
            inside.pop()

    def ratio(lhs, rhs):
        if not inside:
            log.append("beta")
        return real_ratio(lhs, rhs)

    monkeypatch.setattr(InducedIntertwinerData, "alpha", alpha)
    monkeypatch.setattr(characters, "_scalar_ratio", ratio)
    monkeypatch.setattr(checks_reference, "_scalar_ratio", ratio)
    return log


def _first_uses(log):
    """The log with every alpha pair after its first request dropped."""
    seen = set()
    out = []
    for x in log:
        if x == "beta" or x not in seen:
            out.append(x)
            seen.add(x)
    return out


def test_induced_cocycle_check_matches_the_per_coset_alpha_product(
        monkeypatch):
    """The alpha table of one call gives the same beta and cores tables as
    one alpha per (b1, b2, coset), and asks for each pair once, at the
    point of its first use there."""
    import checks_reference
    from toruscheck.characters import induced_cocycle_check
    from toruscheck.groups import FiniteGroup
    from toruscheck.qz import QZ

    log = _recording_alpha(monkeypatch)
    for data, B, A_elems, end in _corestriction_data():
        section = {cs: cs[end] for cs in B.right_cosets(A_elems)}
        want = checks_reference.induced_cocycle_check(data, B, A_elems,
                                                      section)
        ref_log = list(log)
        log.clear()
        got = induced_cocycle_check(data, B, A_elems, section)
        assert got == want and got[2]
        assert log == _first_uses(ref_log)
        assert checks.corestriction(data, B, A_elems, end).ok
        log.clear()
    # the scalar datum on C4: 4 alpha pairs, where the loop asks 32 times
    B4 = FiniteGroup.cyclic(4)
    section = {cs: cs[0] for cs in B4.right_cosets([0, 2])}
    data = checks.scalar_datum(QZ(1, 4))
    checks_reference.induced_cocycle_check(data, B4, [0, 2], section)
    assert len(log) - log.count("beta") == 32
    log.clear()
    induced_cocycle_check(data, B4, [0, 2], section)
    assert len(log) - log.count("beta") == 4


@pytest.mark.parametrize("fail", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_induced_cocycle_check_raises_where_the_reference_raises(
        fail, monkeypatch):
    """An alpha that raises stops both versions at the same point."""
    import checks_reference
    from toruscheck.characters import induced_cocycle_check
    from toruscheck.groups import FiniteGroup
    from toruscheck.qz import QZ

    log = _recording_alpha(monkeypatch, fail)
    data, B4 = checks.scalar_datum(QZ(1, 4)), FiniteGroup.cyclic(4)
    section = {cs: cs[0] for cs in B4.right_cosets([0, 2])}
    with pytest.raises(ValueError) as want:
        checks_reference.induced_cocycle_check(data, B4, [0, 2], section)
    ref_log = list(log)
    log.clear()
    with pytest.raises(ValueError) as got:
        induced_cocycle_check(data, B4, [0, 2], section)
    assert str(got.value) == str(want.value)
    assert log == _first_uses(ref_log)


@pytest.mark.parametrize("lo", [-4, 0, 3])
@pytest.mark.parametrize("width", range(1, 10))
def test_draws_are_the_randint_stream(width, lo):
    """draws(rng, lo, hi, count) gives the values of count randint(lo, hi)
    calls and leaves the rng where they leave it, for widths 1-9 (1, 2, 4
    and 8 among them, where no draw is rejected)."""
    from toruscheck.suite import draws

    hi = lo + width - 1
    for seed in (0, 1, 41):
        ref_rng, rng = random.Random(seed), random.Random(seed)
        want = [ref_rng.randint(lo, hi) for _ in range(200)]
        got = draws(rng, lo, hi, 150) + draws(rng, lo, hi, 0) \
            + draws(rng, lo, hi, 50)
        assert got == want
        assert rng.getstate() == ref_rng.getstate()
    with pytest.raises(ValueError, match="empty range"):
        draws(random.Random(0), lo, lo - 1, 1)


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_sampling_checks_match_the_per_entry_draws(seed):
    """Drawing each sample's values in one flat draw keeps the verdicts and
    every draw: the rng ends where the per-entry randint loops leave it."""
    import checks_reference

    for name, args in (("coinflation_boundary", (30,)),
                       ("block_twisted_traces", (100, 3))):
        ref_rng, rng = random.Random(seed), random.Random(seed)
        want = getattr(checks_reference, name)(ref_rng, *args)
        assert want.ok and want.counts == {"samples": args[0]}
        assert getattr(checks, name)(rng, *args) == want
        assert rng.getstate() == ref_rng.getstate()


def _mutated_trace(trace):
    """The block-twisted trace with its identity broken on a sample with
    three blocks whose T has corner entry 2: lhs moved by one."""
    def mutated(phis, T):
        lhs, rhs, _ = trace(phis, T)
        if len(phis) == 3 and T.data[0][0] == 2:
            lhs += 1
        return lhs, rhs, lhs == rhs
    return mutated


def _mutated_coinflation(push):
    """Coinflation that drops the value at (1, 1) of a 2-chain's image when
    it is (2,), so the square fails on such a sample unless the boundary
    cancels it."""
    def mutated(chain, projection, target):
        out = push(chain, projection, target)
        if chain.degree == 2 and out.support.get((1, 1)) == (2,):
            del out.support[1, 1]
        return out
    return mutated


@pytest.mark.parametrize("seed", [7, 11, 41])
def test_sampling_check_failures_match_the_per_entry_draws(seed,
                                                           monkeypatch):
    """A broken identity fails both forms on the same sample, with the same
    witness, and leaves the rng in the same state."""
    import checks_reference

    for name, args, target, mutate in (
            ("coinflation_boundary", (30,), "coinflation",
             _mutated_coinflation),
            ("block_twisted_traces", (100, 3), "block_twisted_trace",
             _mutated_trace)):
        for module in (checks, checks_reference):
            monkeypatch.setattr(module, target,
                                mutate(getattr(module, target)))
        ref_rng, rng = random.Random(seed), random.Random(seed)
        want = getattr(checks_reference, name)(ref_rng, *args)
        assert not want.ok and want.counts["samples"] < args[0]
        assert getattr(checks, name)(rng, *args) == want
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("seed", range(5))
def test_block_twisted_trace_matches_the_matrix_products(seed):
    """Both sides of the identity, and the verdict, equal those of the
    IntMatrix-product version; blocks of another size raise in both."""
    import checks_reference
    from toruscheck.characters import block_twisted_trace
    from toruscheck.lattice import IntMatrix

    rng = random.Random(seed)
    for _ in range(60):
        nblk, dim = rng.randint(1, 4), rng.randint(1, 3)
        mats = [IntMatrix([[rng.randint(-5, 5) for _ in range(dim)]
                           for _ in range(dim)]) for _ in range(nblk + 1)]
        *phis, T = mats
        got = block_twisted_trace(phis, T)
        assert got == checks_reference.block_twisted_trace(phis, T)
        assert got[2]
    bad = IntMatrix([[1, 2], [3, 4]]), IntMatrix.identity(3)
    for trace in (block_twisted_trace, checks_reference.block_twisted_trace):
        with pytest.raises(ValueError, match="dimension mismatch"):
            trace([bad[0]], bad[1])
