"""The reach set of src/toruscheck: the runs that count as callers.

A top-level function or public method of the package is *reached* when
this set of runs enters it:

* the five file commands on every case file in fixtures/ and the
  ``*_case.json`` files in tests/, plus one ``--format text``, one
  ``--check-filter`` and one ``--output`` run;
* ``projirr --cache-dir`` twice, cold then warm;
* ``random-suite`` at one small size;
* every bad input that tests/test_cli.py parametrizes;
* the checks of each acceptance criterion on that criterion's own inputs
  (the builders of tests/test_acceptance.py), with fewer samples.

`entered` runs the set in one fresh process whose profiler is installed
before the package is imported, so that builders that run only on a memo
miss and the import-time `memoized` wrappers count.  tests/test_layout.py
holds the rule that reads it.  By hand::

    python tests/reach.py

prints the definitions the set enters and misses, and the wall time of
the traced run.
"""

import ast
import json
import os
import subprocess
import sys
import time

TESTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS)
SRC = os.path.join(ROOT, "src", "toruscheck")
COMMANDS = ["cohomology", "pairing", "sign", "projirr", "tori-verify"]


def case_files():
    """The case files the file commands run on: fixtures/*.json, then
    tests/*_case.json, each in name order."""
    fixtures = os.path.join(ROOT, "fixtures")
    return ([os.path.join(fixtures, f) for f in sorted(os.listdir(fixtures))
             if f.endswith(".json")]
            + [os.path.join(TESTS, f) for f in sorted(os.listdir(TESTS))
               if f.endswith("_case.json")])


def package_sources():
    """{file name: source} over src/toruscheck."""
    out = {}
    for fn in sorted(os.listdir(SRC)):
        if fn.endswith(".py"):
            with open(os.path.join(SRC, fn), encoding="utf-8") as f:
                out[fn] = f.read()
    return out


def definitions(sources):
    """{qualified name: (file, first line)} of the top-level functions and
    the public methods of the top-level classes of the sources.  The first
    line is that of the first decorator, as the code object records it."""
    out = {}
    for fn, text in sources.items():
        mod = fn[:-3]
        for node in ast.parse(text).body:
            if isinstance(node, ast.FunctionDef):
                subs = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                subs = [("%s.%s" % (node.name, sub.name), sub)
                        for sub in node.body
                        if isinstance(sub, ast.FunctionDef)
                        and not sub.name.startswith("_")]
            else:
                continue
            for name, d in subs:
                out["%s.%s" % (mod, name)] = (fn, min(
                    [d.lineno] + [x.lineno for x in d.decorator_list]))
    return out


def unreached(sources, entered):
    """The qualified names of the definitions of the sources whose
    (file, first line) is not in entered."""
    return {q for q, at in definitions(sources).items() if at not in entered}


def record(run, directory=SRC):
    """Call run() under sys.setprofile and return the (file name, first
    line) of every function it entered whose file lies in directory."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    where = os.path.realpath(directory)
    return {(os.path.basename(c.co_filename), c.co_firstlineno)
            for c in codes
            if os.path.realpath(os.path.dirname(c.co_filename)) == where}


def _quiet_main(*argv):
    """cli.main(argv) with stdout and stderr discarded; the exit code."""
    import contextlib
    import io
    from toruscheck import cli
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


def command_runs(workdir):
    """The command half of the reach set: cli.main on the case files, the
    output options, the disk cache, random-suite and the bad inputs,
    writing its files under workdir."""
    import test_cli

    cases = case_files()
    for path in cases:
        for command in COMMANDS:
            _quiet_main(command, "--input", path)
    first = cases[0]
    _quiet_main("tori-verify", "--input", first, "--format", "text")
    _quiet_main("tori-verify", "--input", first, "--check-filter", "tori.*")
    _quiet_main("sign", "--input", first,
                "--output", os.path.join(workdir, "report.json"))
    for _ in range(2):
        _quiet_main("projirr", "--input", first,
                    "--cache-dir", os.path.join(workdir, "tables"))
    _quiet_main("random-suite", "--seed", "7", "--suite-size", "3")
    bad = os.path.join(workdir, "bad.json")
    for command, raw in test_cli.bad_inputs():
        with open(bad, "wb") as f:
            f.write(raw)
        _quiet_main(command, "--input", bad)


def gate_runs():
    """The gate half of the reach set: the checks of each acceptance
    criterion, in criterion order, on its own inputs and fewer samples
    (criterion 3 sweeps only the extensions of base groups of order up to
    4)."""
    import random
    import test_acceptance as gate
    from toruscheck import checks
    from toruscheck.groups import FiniteGroup
    from toruscheck.weil import LocalModel, TorusModel

    for case in checks.random_cases(random.Random(gate.SUITE_SEED), 2):
        checks.extension_isomorphism(case)                      # 1
        checks.character_identity(case)                         # 2
    rng = random.Random(0)
    for ext in gate.extension_fixtures():                       # 3
        if ext.base.order <= 4:
            checks.orthogonality(ext)
    checks.klein_four_pin(gate.klein_nontrivial_extension())
    checks.sign_squares()                                       # 4
    checks.product_induction(rng, 2)
    checks.a1_fixture()
    checks.e6_flip_fixture()
    checks.kottwitz_perfect(gate.random_case_data(rng)[0])      # 5
    for gm in gate.cohomology_modules():                        # 6
        for degree in (1, 2):
            checks.dd_zero(gm, degree, rng, 1, 5)
        checks.cup_leibniz(gm, rng, 1)
    checks.coinflation_boundary(rng, 2)
    for mat, n in gate.LEVEL_SQUARES:
        small = TorusModel(LocalModel(n), gate.GroupAction.cyclic(n, mat))
        checks.level_square(small, rng, 2, 6)
    checks.corestriction(checks.scalar_datum(gate.QZ(1, 4)),    # 7
                         FiniteGroup.cyclic(2), [0, 1])
    for end in (0, -1):
        checks.corestriction(gate.q8_matrix_datum(), FiniteGroup.cyclic(4),
                             [0, 2], end)
    checks.block_twisted_traces(rng, 5, 4)
    checks.induced_automorphism_roundtrip(rng, 5)               # 8


def _traced(workdir):
    """{"commands": [[file, line], ...], "gate": [...], "seconds": wall
    time} of one traced run of the set in this process, which must not yet
    have imported the package: what the command half enters, then what the
    gate half enters."""
    import pytest  # noqa: F401  (imported untraced; the test modules use it)
    if "toruscheck" in sys.modules:
        raise RuntimeError("the package is imported already")
    t0 = time.perf_counter()
    commands = record(lambda: command_runs(workdir))
    gate = record(gate_runs)
    return {"commands": sorted(commands), "gate": sorted(gate),
            "seconds": time.perf_counter() - t0}


def entered(workdir):
    """(commands, gate, seconds): the (file name, first line) of every
    definition the command half and the gate half of the reach set enter,
    and the traced seconds, from one fresh process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(SRC)] + [p for p in [os.environ.get("PYTHONPATH")]
                                  if p]))
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--json", workdir],
        capture_output=True, text=True, env=env, timeout=120)
    if proc.returncode:
        raise RuntimeError("the reach set failed:\n" + proc.stderr)
    doc = json.loads(proc.stdout)
    return ({tuple(at) for at in doc["commands"]},
            {tuple(at) for at in doc["gate"]}, doc["seconds"])


def main(argv):
    import tempfile
    if argv[:1] == ["--json"]:
        sys.path.insert(0, os.path.dirname(SRC))
        print(json.dumps(_traced(argv[1])))
        return 0
    with tempfile.TemporaryDirectory() as workdir:
        commands, gate, seconds = entered(workdir)
    defs = definitions(package_sources())
    tally = {"commands": 0, "gate": 0, "missed": 0}
    for q, at in sorted(defs.items()):
        how = "commands" if at in commands else "gate" if at in gate \
            else "missed"
        tally[how] += 1
        print("%-8s %s" % (how, q))
    print("%d definitions: %d entered by the commands, %d by the gate "
          "only, %d missed; traced run %.2f s"
          % (len(defs), tally["commands"], tally["gate"], tally["missed"],
             seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
