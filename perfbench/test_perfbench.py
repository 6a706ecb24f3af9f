"""Self-tests of the benchmark harness.

    python3 -m pytest -q -p no:cacheprovider perfbench/test_perfbench.py

Each workload runs at a tiny size; the tests check that every metric is
emitted with a unit, that a corrupted golden entry or verdict lands in the
failure count (also under ``python -O``), that the span recorder rebinds and
restores every name, and that traced call counts repeat exactly.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

run.bootstrap()

import tracer  # noqa: E402
import workloads  # noqa: E402
from toruscheck import characters, cli, tori, weil  # noqa: E402
from toruscheck.qz import QZ, Cyc  # noqa: E402


def bench(*args, python_flags=(), root=ROOT, env=None):
    cmd = [sys.executable, *python_flags, "-B",
           os.path.join(root, "perfbench", "run.py"), *args]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=170, env=env)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


def tiny(workload, trace, *extra, **kw):
    return bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--ops", "2", *extra, **kw)


@pytest.mark.parametrize("workload", ["suite", "tables", "cli"])
def test_end_to_end_metrics_emitted(workload):
    proc, result = tiny(workload, 0)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    assert list(result["metrics"]) == [m for m, _ in run.END_TO_END]
    for name, unit in run.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
    for name, _ in run.END_TO_END:
        assert any(line.startswith(name + " ") and "samples=" in line
                   for line in proc.stdout.splitlines())


@pytest.mark.parametrize("workload", ["suite", "tables", "cli"])
def test_traced_metrics_emitted_and_counts_repeat(workload):
    runs = []
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        proc, result = tiny(workload, 1, env=env)
        assert proc.returncode == 0, proc.stderr
        assert result["correct"]
        runs.append(result["metrics"])
    assert list(runs[0]) == [m for m, _ in tracer.PER_LAYER]
    for name, unit in tracer.PER_LAYER:
        assert runs[0][name]["unit"] == unit
        if unit == "count":
            assert runs[0][name]["value"] == runs[1][name]["value"], name


def make(name, tmp_path):
    wl = workloads.WORKLOADS[name](ROOT, str(tmp_path))
    ops = wl.setup(5)[:3]
    return wl, ops


@pytest.mark.parametrize("workload", ["suite", "tables", "cli"])
def test_corrupt_golden_counts_as_failure(workload, tmp_path):
    wl, ops = make(workload, tmp_path)
    tally = run.Tally()
    run.timed_pass(wl, ops, tally, [])
    assert (tally.attempted, tally.failed) == (3, 0)
    key = ops[0].key
    if workload == "cli":
        wl.golden[key] = wl.golden[key].replace("pass", "fail", 1)
    else:
        wl.golden[key] = dict(wl.golden[key], digest="0" * 64)
    durations = []
    run.timed_pass(wl, ops, tally, durations)
    assert (tally.attempted, tally.failed) == (6, 1)
    assert [good for _, good, _ in durations] == [False, True, True]
    assert all(ref > 0 for _, _, ref in durations)
    assert "golden" in tally.messages[0]


def test_false_verdict_counts_as_failure(tmp_path):
    wl, _ = make("tables", tmp_path)
    op = next(o for o in wl.setup(5) if o.key == "klein.mu2")
    table, verdicts = wl.run(op)
    assert wl.check(op, (table, verdicts)) is None
    e, e2, _ = verdicts[0]
    assert wl.check(op, (table, [(e, e2, False)] + verdicts[1:])) is not None


def test_exception_counts_as_failure(tmp_path):
    wl, ops = make("suite", tmp_path)
    ops[0].data = (ops[0].data[0], None, ops[0].data[2])
    tally = run.Tally()
    run.timed_pass(wl, ops, tally, [])
    assert (tally.attempted, tally.failed) == (3, 1)


def copy_checkout(dest):
    shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(os.path.join(ROOT, "fixtures"), os.path.join(dest, "fixtures"))
    shutil.copytree(HERE, os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))


def test_corrupt_golden_fails_run_under_optimize(tmp_path):
    copy_checkout(str(tmp_path))
    gdir = os.path.join(str(tmp_path), "perfbench", "golden", "cli")
    for name in os.listdir(gdir):
        path = os.path.join(gdir, name)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        with open(path, "w", encoding="utf-8") as f:
            f.write(text.replace('"failed": 0', '"failed": 1'))
    proc, result = tiny("cli", 0, python_flags=("-O",), root=str(tmp_path))
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert any(line.split()[:2] == ["fail_frac", "1"]
               for line in proc.stdout.splitlines())


def test_without_program_exits_nonzero(tmp_path):
    shutil.copytree(HERE, os.path.join(str(tmp_path), "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = tiny("cli", 0, root=str(tmp_path))
    assert proc.returncode != 0
    assert result is None


def test_recorder_rebinds_and_restores_every_name():
    originals = (weil.hyper_pairing, tori.hyper_pairing, cli.build_case,
                 characters.TableCache.__dict__["key"], Cyc.is_zero)
    assert tori.hyper_pairing is weil.hyper_pairing
    rec = tracer.Recorder()
    rec.install()
    try:
        assert tori.hyper_pairing is weil.hyper_pairing
        assert tori.hyper_pairing is not originals[0]
        assert cli.build_case is tori.build_case is not originals[2]
        assert isinstance(characters.TableCache.__dict__["key"], staticmethod)
        Cyc.root(QZ(1, 3)).is_zero()
        QZ(1, 2)
    finally:
        rec.uninstall()
    assert (weil.hyper_pairing, tori.hyper_pairing, cli.build_case,
            characters.TableCache.__dict__["key"], Cyc.is_zero) == originals
    calls, _ = rec.aggregate()
    assert calls["qz.Cyc.is_zero"] == 1
    assert rec.counts["qz.QZ"] >= 1


def test_self_time_excludes_children():
    rec = tracer.Recorder()
    outer = rec._span_wrapper("outer", lambda f: f())
    inner = rec._span_wrapper("inner", lambda: sum(range(20000)))
    outer(inner)
    _, self_s = rec.aggregate()
    total = rec.end[0] - rec.start[0]
    assert rec.parent[1] == 0
    assert self_s["outer"] == pytest.approx(total - self_s["inner"])


def test_canonical_form_matches_program():
    third = Cyc.root(QZ(1, 3))
    for value in (third + Cyc.root(QZ(2, 3)), Cyc.integer(-1),
                  third * 2 + Cyc.root(QZ(1, 4))):
        n, key = value.reduced_key(12)
        assert workloads.canonical_cyc(value, 12) == [str(c) for c in key]


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 90) == 90
    assert run.percentile(values, 50) == 50
    assert run.percentile([7], 90) == 7
    assert run.rank(90, 190) == 171


def test_rescale_to_reference_speed():
    nominal = run.REF_NOMINAL_S
    # A host at half the reference speed doubles both; the rescaled time holds.
    assert run.rescale([0.2, 0.4], [2 * nominal] * 2) == pytest.approx([0.1, 0.2])
    # Each op takes the median reference time of its neighbourhood, so one
    # outlying reference sample moves nothing.
    refs = [nominal] * 9
    refs[4] = 10 * nominal
    assert run.rescale([0.1] * 9, refs) == pytest.approx([0.1] * 9)
    assert run.reference() == run.reference()


def test_metric_names_agree_with_benchmark_and_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench_doc = json.load(f)
    assert [(m["name"], m["unit"]) for m in bench_doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench_doc["per_layer"]] == tracer.PER_LAYER
    assert [w["name"] for w in bench_doc["workloads"]] == run.WORKLOAD_NAMES
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as f:
        spec = json.load(f)
    mapped = [m for group in spec["layer_to_end_to_end"] for m in group["per_layer"]]
    assert sorted(mapped) == sorted(m for m, _ in tracer.PER_LAYER)
    e2e = {m for m, _ in run.END_TO_END}
    for group in spec["layer_to_end_to_end"]:
        for workload, metric in group["moves"] + group["flat"]:
            assert workload in run.WORKLOAD_NAMES and metric in e2e
