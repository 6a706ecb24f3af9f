"""Benchmark harness for toruscheck.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Runs one workload (``suite``, ``tables`` or ``cli``; ``all`` runs each in its
own process) as a closed loop with one client, single-threaded, on the
program under ``src/`` of the checkout that holds this file.  Every op's
output is checked against its golden copy.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print every metric with its unit and sample
count, and the run's metadata.

With ``--trace 0`` the metrics are the end-to-end ones (see BENCHMARK.json).
Their times are *reference-speed* times: between ops (and between the steps
of set-up) the harness times a fixed stdlib-only reference loop
(``reference``), and the wall time of each op or step is multiplied by
``REF_NOMINAL_S`` over the median of the reference times just before and
after it.  A shared host whose single-thread speed swings by tens of percent
within seconds slows the loop and the program alike, so the rescaled times
hold still while the program's own cost shows in full.  The wall-clock
figures are printed beside them.
With ``--trace 1`` the run wraps the program's public functions in a span
recorder (tracer.py), runs one pass untraced and the same pass traced, and
reports the per-layer metrics and the tracing overhead; spans are written to
``.perfbench_out/``.

The harness writes only to ``.perfbench_out/`` in the checkout, and removes
the temporary directory it makes there (the ``projirr`` disk table cache).
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402
from statistics import median  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ["suite", "tables", "cli"]
CHILD_TIMEOUT_S = 170

#: End-to-end metrics and their units; ``fail_frac`` is printed but not part
#: of the JSON metrics, since it is 0 on a correct run (the JSON carries
#: ``attempted`` and ``failed`` instead).
END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

#: Set-up is measured this many times per run: once in the run's own process
#: and in further fresh processes; the median is reported.
SETUP_SAMPLES = 3

#: Times are rescaled to the speed at which one ``reference()`` call takes
#: this long (about the median speed of a 2.1 GHz Xeon vCPU, Python 3.11).
REF_NOMINAL_S = 1.5e-3


class BootstrapError(Exception):
    pass


def bootstrap():
    """Put the checkout's ``src/`` first on the path and import the program
    from there, never from an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "toruscheck", "__init__.py")):
        raise BootstrapError("no toruscheck package under %s" % src)
    if not os.path.isdir(os.path.join(ROOT, "fixtures")):
        raise BootstrapError("no fixtures directory under %s" % ROOT)
    sys.path.insert(0, src)
    import toruscheck

    where = os.path.dirname(os.path.abspath(toruscheck.__file__))
    if where != os.path.join(src, "toruscheck"):
        raise BootstrapError("toruscheck imported from %s, not %s" % (where, src))


def rank(pct, n):
    """1-based nearest rank of the pct-th percentile of n samples."""
    return max(1, -(-pct * n // 100))


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[rank(pct, len(sorted_values)) - 1]


def reference():
    """Fixed interpreter-bound work in the program's style (``Fraction``
    arithmetic, small dicts, sorting) that uses nothing of the program, so
    no change to the program moves its time."""
    acc = Fraction(0)
    d = {}
    for i in range(1, 400):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        d[(i * 7919) % 1009] = acc.denominator % 97
    s = 0
    for k in sorted(d):
        s += d[k] * k
    return s


def reference_time():
    """Seconds one ``reference()`` call takes now, with the collector off so
    that the program's heap does not enter it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def rescale(seconds, refs):
    """Each stretch's seconds at the reference speed.  ``refs[i]`` was timed
    just before ``seconds[i]`` and ``refs[i + 1]`` just after; a stretch is
    multiplied by REF_NOMINAL_S over the median of the two reference times
    before it and the two after, since the host's speed holds for about a
    second at most."""
    return [dt * REF_NOMINAL_S / median(refs[max(0, i - 1):i + 3])
            for i, dt in enumerate(seconds)]


class ReferenceClock:
    """Times a stretch of work cut into steps, on the wall clock and at the
    reference speed.  A reference call is timed at the start and at every
    ``cut()``; its own time is left out."""

    def __init__(self):
        self.steps = []
        self.refs = [reference_time()]
        self.t0 = time.perf_counter()

    def cut(self):
        self.steps.append(time.perf_counter() - self.t0)
        self.refs.append(reference_time())
        self.t0 = time.perf_counter()

    def seconds(self):
        """(wall seconds, seconds at the reference speed) of the steps."""
        return sum(self.steps), sum(rescale(self.steps, self.refs))


def git_commit():
    """Commit of the checkout, read from ``.git`` without running git;
    ``unknown`` outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def src_lines():
    total = 0
    pkg = os.path.join(ROOT, "src", "toruscheck")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as f:
                total += sum(1 for _ in f)
    return total


def metadata(args, samples):
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
        "src_lines": src_lines(),
    }


class Tally:
    """Ops attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, op, error):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append("op %s: %s" % (op.key, error))


def run_op(workload, op):
    """Run one op; returns (result, error message or None).  Any exception
    the program raises is a failed op, not a crash of the harness."""
    try:
        return workload.run(op), None
    except Exception as e:  # the op boundary: record and go on
        return None, "%s: %s" % (type(e).__name__, e)


def check_op(workload, op, result, error):
    if error is not None:
        return error
    try:
        return workload.check(op, result)
    except Exception as e:  # a malformed result fails the op
        return "check raised %s: %s" % (type(e).__name__, e)


def timed_pass(workload, ops, tally, durations):
    """Run and check each op; appends each op's (seconds, passed, reference
    seconds timed just before it) to ``durations``."""
    clock = time.perf_counter
    for op in ops:
        ref = reference_time()
        t0 = clock()
        result, error = run_op(workload, op)
        dt = clock() - t0
        error = check_op(workload, op, result, error)
        tally.record(op, error)
        durations.append((dt, error is None, ref))


def make_workload(name, workdir):
    import workloads

    return workloads.WORKLOADS[name](ROOT, workdir)


def generate(args, workdir, cut=lambda: None):
    """Import and input generation; returns (workload, pass).  ``cut`` is
    called after the import and after each generated input."""
    workload = make_workload(args.workload, workdir)
    cut()
    ops = workload.setup(args.seed, cut)
    return workload, ops[:args.ops] if args.ops else ops


def warm_up(workload, ops, tally, cut=lambda: None):
    for op in workload.warmup_ops(ops):
        result, error = run_op(workload, op)
        tally.record(op, check_op(workload, op, result, error))
        cut()


def setup_in_fresh_process(args):
    cmd = [sys.executable, "-B", os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    if args.ops:
        cmd += ["--ops", str(args.ops)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("set-up process failed: %s" % proc.stderr.strip())
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def measure(args, workload, ops, tally):
    """Whole passes in a closed loop until ``--seconds`` have gone by, so
    every run holds passes of the same composition.  Returns each op's
    (seconds, passed, reference seconds) and the number of ops in a pass."""
    durations = []
    loop_start = time.perf_counter()
    while True:
        timed_pass(workload, ops, tally, durations)
        if time.perf_counter() - loop_start >= args.seconds:
            return durations, len(ops)


def timing_values(seconds, passed, pass_len, setup_s):
    """ops_per_s is the median over passes of verified ops per second of
    program time, which a burst of noise in one pass does not move; the
    latency percentiles are taken over every op of the run."""
    throughputs = []
    for first in range(0, len(seconds), pass_len):
        busy = sum(seconds[first:first + pass_len])
        throughputs.append(sum(passed[first:first + pass_len]) / busy)
    ms = sorted(dt * 1000 for dt in seconds)
    return {"ops_per_s": median(throughputs),
            "op_p50_ms": percentile(ms, 50),
            "op_p90_ms": percentile(ms, 90),
            "setup_s": median(setup_s)}


def end_to_end(durations, pass_len, setup_samples):
    """The end-to-end metrics at the reference speed, and the same timings
    on the wall clock (printed only)."""
    wall = [dt for dt, _, _ in durations]
    passed = [ok for _, ok, _ in durations]
    refs = [ref for _, _, ref in durations]
    values = timing_values(rescale(wall, refs), passed, pass_len,
                           [s for _, s in setup_samples])
    values["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_values = timing_values(wall, passed, pass_len,
                                [w for w, _ in setup_samples])
    n = len(wall)
    samples = {"ops_per_s": n // pass_len, "op_p50_ms": n, "op_p90_ms": n,
               "op_p90_ms.beyond": n - rank(90, n),
               "setup_s": len(setup_samples), "peak_rss_mb": 1,
               "ref_ms": 1000 * median(refs)}
    metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}
    return metrics, samples, wall_values


def traced(args, workdir, tally):
    """Input generation and one pass under the span recorder, plus the same
    pass untraced for the overhead.  Warm-up runs untraced in between."""
    import tracer

    recorder = tracer.Recorder()
    recorder.install()
    try:
        workload, ops = generate(args, workdir)
    finally:
        recorder.uninstall()
    warm_up(workload, ops, tally)

    def one_pass(trace):
        results = []
        if trace:
            recorder.install()
        t0 = time.perf_counter()
        try:
            for i, op in enumerate(ops):
                recorder.op_id = i
                results.append(run_op(workload, op))
        finally:
            wall = time.perf_counter() - t0
            if trace:
                recorder.uninstall()
        for op, (result, error) in zip(ops, results):
            tally.record(op, check_op(workload, op, result, error))
        return wall

    untraced_s = one_pass(False)
    traced_s = one_pass(True)
    from toruscheck import cohomology

    metrics = recorder.metrics(len(cohomology._d_matrix_cache),
                               traced_s - untraced_s)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "trace-%s-seed%d.jsonl" % (args.workload,
                                                             args.seed))
    recorder.write(path)
    samples = {"ops": len(ops), "spans": len(recorder.start),
               "untraced_s": untraced_s, "traced_s": traced_s,
               "trace_file": os.path.relpath(path, ROOT)}
    return metrics, samples


def print_result(args, metrics, samples, tally, wall_values=None):
    print("perfbench %s seed=%d seconds=%s trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("meta " + json.dumps(metadata(args, samples), sort_keys=True))
    width = max(len(m) for m in metrics)
    for name, m in metrics.items():
        count = samples.get(name, samples.get("ops", ""))
        print("%-*s %14.6g %-6s samples=%s" % (width, name, m["value"],
                                                m["unit"], count))
    if wall_values:
        print("wall clock (reference call took %.4f ms, nominal %.4f ms): %s"
              % (samples["ref_ms"], 1000 * REF_NOMINAL_S,
                 " ".join("%s=%.6g" % kv for kv in wall_values.items())))
    print("%-*s %14.6g %-6s samples=%d" % (
        width, "fail_frac", tally.failed / max(1, tally.attempted), "ratio",
        tally.attempted))
    for msg in tally.messages:
        print("FAIL " + msg)
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))


def run_all(args):
    """Each workload in its own process; a combined summary at the end."""
    combined = {}
    attempted = failed = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, "-B", os.path.abspath(__file__),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.ops:
            cmd += ["--ops", str(args.ops)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise RuntimeError("workload %s printed no result" % name)
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, m in result["metrics"].items():
            combined["%s.%s" % (name, metric)] = m
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0 if failed == 0 else 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--ops", type=int, default=0,
                   help="cut each pass to its first N ops (smoke tests)")
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def stop_on_sigterm(signum, frame):
    """Turn SIGTERM into SystemExit so the temporary directory is removed."""
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, stop_on_sigterm)
    args = parse_args(argv)
    clock = ReferenceClock()
    try:
        bootstrap()
    except BootstrapError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    clock.cut()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    tally = Tally()
    wall_values = None
    try:
        if args.trace:
            metrics, samples = traced(args, workdir, tally)
        else:
            workload, ops = generate(args, workdir, clock.cut)
            warm_up(workload, ops, tally, clock.cut)
            setup_s = clock.seconds()
            if args.setup_only:
                print(json.dumps({"setup_s": setup_s}))
                return 0
            durations, pass_len = measure(args, workload, ops, tally)
            setup_samples = [setup_s] + [setup_in_fresh_process(args)
                                         for _ in range(SETUP_SAMPLES - 1)]
            metrics, samples, wall_values = end_to_end(durations, pass_len,
                                                       setup_samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_result(args, metrics, samples, tally, wall_values)
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
