"""Failure paths of the named checks: a failing identity gives a failing
verdict with a witness, never a silent pass."""

import dataclasses
import json
import os
import random

from toruscheck import checks
from toruscheck.characters import CharacterTable
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
                                                       capsys):
    monkeypatch.setattr(CharacterTable, "MAX_ORDER", 1)
    out = tmp_path / "report.json"
    assert main(["projirr", "--input", FIXTURE, "--output", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert [c["id"] for c in doc["checks"]] == ["projirr.table"]
    assert doc["checks"][0]["status"] == "fail"
    assert "exceeds" in doc["checks"][0]["witness"]["error"]
