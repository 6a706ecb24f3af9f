"""Regenerate the golden outputs under ``golden/``.

    python3 perfbench/golden.py

Run it only on a commit whose outputs are known to be right: every later run
of the benchmark compares each op's output against these files.  It refuses
to write a golden copy of an output whose own verdicts fail.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402

import run  # noqa: E402


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def suite_golden(workloads):
    """Digest, stratum and work (``QZ`` values created) of every pool case."""
    import tracer

    cases = []
    for k in range(workloads.POOL_SIZE):
        op = workloads.Op(k, workloads.suite_case_data(k))
        workloads.SuiteWorkload.run(op)  # fills the module caches first
        recorder = tracer.Recorder()
        recorder.install()
        try:
            result = workloads.SuiteWorkload.run(op)
        finally:
            recorder.uninstall()
        _, _, iso, reports = result
        if not (all(v[2] for v in iso.values()) and all(ok for _, ok in reports)):
            raise SystemExit("suite pool case %d fails its own verdicts" % k)
        entry = workloads.SuiteWorkload.summarize(result)
        entry["work"] = recorder.counts["qz.QZ"]
        cases.append(entry)
    return {"pool_base": workloads.POOL_BASE, "cases": cases}


def tables_golden(workloads):
    items = {}
    for name, _, build in workloads.TABLE_ITEMS:
        item = workloads.table_input(build(), None)
        result = workloads.TablesWorkload.run(workloads.Op(name, item))
        if any(v is False for _, _, v in result[1]):
            raise SystemExit("table item %s fails its own sweep" % name)
        items[name] = workloads.TablesWorkload.summarize(item, result)
    return {"items": items}


def cli_golden(workloads, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="golden-", dir=run.OUT_DIR)
    try:
        cli = workloads.CliWorkload(run.ROOT, workdir)
        for path in workloads.fixture_paths(run.ROOT):
            for command in workloads.CLI_COMMANDS:
                op = workloads.Op(workloads.cli_key(command, path),
                                  (command, path))
                first = cli.run(op)
                again = cli.run(op)  # projirr: the disk-cache load path
                if first[0] != 0 or first != again:
                    raise SystemExit("cli %s is not a stable pass" % op.key)
                with open(os.path.join(out_dir, op.key + ".json"), "w",
                          encoding="utf-8") as f:
                    f.write(first[1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    run.bootstrap()
    os.makedirs(run.OUT_DIR, exist_ok=True)
    import workloads

    gdir = workloads.GOLDEN_DIR
    os.makedirs(gdir, exist_ok=True)
    cli_golden(workloads, os.path.join(gdir, "cli"))
    write_json(os.path.join(gdir, "tables.json"), tables_golden(workloads))
    write_json(os.path.join(gdir, "suite.json"), suite_golden(workloads))
    return 0


if __name__ == "__main__":
    sys.exit(main())
