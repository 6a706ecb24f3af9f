"""Batch front end: parse case files, run each command's named checks,
cache character tables on disk, and emit deterministic verification reports.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 input error.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import json
import os
import random
import sys
import threading
from types import SimpleNamespace

from . import checks
from .qz import QZ
from .groups import FiniteGroup
from .characters import CharacterTable, TableCache, TABLE_CACHE
from .tori import build_case, packet
from .casefile import (
    CaseFileError,
    load_case_file,
    load_root_datum,
    encode_cyc,
    decode_cyc,
    SCHEMA_VERSION,
)


class Report:
    """Ordered list of check records; serialization is byte-stable."""

    def __init__(self, command, inputs_digest=""):
        self.command = command
        self.inputs_digest = inputs_digest
        self.checks = []

    def add(self, check_id, anchor, status, witness=None):
        self.checks.append({
            "anchor": anchor,
            "id": check_id,
            "status": "pass" if status else "fail",
            "witness": witness or {},
        })

    def filtered(self, pattern):
        if not pattern:
            return self.checks
        return [c for c in self.checks if fnmatch.fnmatch(c["id"], pattern)]

    def render(self, fmt, pattern=None):
        checks = self.filtered(pattern)
        failed = sum(1 for c in checks if c["status"] == "fail")
        if fmt == "json":
            doc = {
                "schema": SCHEMA_VERSION,
                "command": self.command,
                "inputs_digest": self.inputs_digest,
                "checks": checks,
                "summary": {"total": len(checks), "failed": failed},
            }
            return json.dumps(doc, sort_keys=True, indent=2) + "\n", failed
        lines = ["# %s  (inputs %s)" % (self.command,
                                        self.inputs_digest or "-")]
        for c in checks:
            lines.append("%-4s %-42s %s" % (
                "ok" if c["status"] == "pass" else "FAIL", c["id"], c["anchor"]))
            if c["status"] == "fail" and c["witness"]:
                lines.append("     witness: %s" % json.dumps(c["witness"],
                                                             sort_keys=True))
        lines.append("summary: %d checks, %d failed" % (len(checks), failed))
        return "\n".join(lines) + "\n", failed


class DiskTableCache(TableCache):
    """Character tables stored as JSON files, one per table key; a loaded
    table is re-verified (orthogonality) and recomputed when corrupt."""

    def __init__(self, directory):
        super().__init__()
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, key):
        return os.path.join(self.directory, "table-%s.json" % key)

    # the base class's lookup, bound here as well: perfbench's tracer wraps
    # methods found in a class's own __dict__
    get_or_compute = TableCache.get_or_compute

    def _miss(self, key, group):
        """The stored table when it loads and verifies, else the computed
        table, stored."""
        t = self._load(key, group)
        if t is None:
            t = super()._miss(key, group)
            self._store(key, t)
        return t

    def _store(self, key, table):
        """Write the table as JSON to a temp file beside its path (named per
        process and thread), then move it over the path, so a write cut
        short leaves the old file whole."""
        doc = {
            "order": table.group.order,
            "chars": [[encode_cyc(v) for v in row] for row in table.chars],
            "dims": table.dims,
        }
        path = self._path(key)
        tmp = os.path.join(self.directory, ".%s.%d.%d.tmp" % (
            os.path.basename(path), os.getpid(), threading.get_ident()))
        try:
            with open(tmp, "w", encoding="utf-8") as f:
                json.dump(doc, f, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def _load(self, key, group):
        path = self._path(key)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as f:
                doc = json.load(f)
            chars = [[decode_cyc(terms) for terms in row]
                     for row in doc["chars"]]
            table = CharacterTable(group, chars, [int(d) for d in doc["dims"]])
            table.verify()
            return table
        except (KeyError, TypeError, ValueError, ZeroDivisionError,
                RecursionError):
            return None  # corruption: fall through to recomputation


# ---------------------------------------------------------------------------
# commands


class Inputs(SimpleNamespace):
    """What the checks of one command read: the parsed case file (torus, z,
    phi, extras) or the suite size, the seeded rng, the table cache, and
    the values several checks share (case, suite), each built on first use."""

    def __getattr__(self, name):
        if name == "case":
            value = build_case(self.torus, self.z, self.phi)
        elif name == "suite":
            value = checks.suite(self.rng, self.size)
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value


#: command -> its checks in report order, as (check id, anchor, run) with
#: run(inputs) -> checks.Verdict.  A check that raises ValueError (an input
#: the engines reject, such as a group above the table size bound) fails with
#: the message as its witness and ends the command.
COMMANDS = {
    "cohomology": [
        ("cohomology.dd_zero", "differential squares to zero",
         lambda x: checks.dd_zero(x.torus.gmodule(), 1, x.rng, 200, 4)),
        ("cohomology.tate_orders", "Tate group orders",
         lambda x: checks.tate_orders(x.torus.gmodule())),
        ("cohomology.classify_representative",
         "classify after representative is the identity",
         lambda x: checks.classify_representative(x.torus.gmodule())),
        ("cohomology.cup_leibniz", "cup product Leibniz rule",
         lambda x: checks.cup_leibniz(x.torus.gmodule(), x.rng, 20)),
        ("cohomology.coinflation_boundary",
         "coinflation commutes with the differential",
         lambda x: checks.coinflation_boundary(x.rng, 30)),
        ("cohomology.level_square",
         "coinflation against inflation square at two levels",
         lambda x: checks.level_square(x.torus, x.rng, 10, 5)),
    ],
    "pairing": [
        ("pairing.tn_bijective", "TN map is a bijection",
         lambda x: checks.tn_bijective(x.torus)),
        ("pairing.kottwitz_perfect", "Kottwitz pairing separates classes",
         lambda x: checks.kottwitz_perfect(x.torus)),
        ("pairing.langlands_edge",
         "pairing restricts to the Langlands pairing",
         lambda x: checks.langlands_edge(x.torus, x.phi)),
        ("pairing.kottwitz_edge", "pairing restricts to the Kottwitz pairing",
         lambda x: checks.kottwitz_edge(x.torus, x.z)),
    ],
    "sign": [
        ("sign.value", "twisted sign of the supplied datum",
         lambda x: checks.sign_value(*(x.extras.get("root_datum")
                                       or load_root_datum({})))),
        ("sign.a1_fixture",
         "A1 nontrivial class gives -1 (rank formula cross-check)",
         lambda x: checks.a1_fixture()),
        ("sign.e6_flip_fixture", "E6 flip gives +1 for every class",
         lambda x: checks.e6_flip_fixture()),
        ("sign.product_induction", "multiplicativity and induction invariance",
         lambda x: checks.product_induction(x.rng, 20)),
        ("sign.levi", "Levi restriction of the weight sum",
         lambda x: checks.levi()),
    ],
    "projirr": [
        ("projirr.table", "component character table orthogonality",
         lambda x: checks.component_table(x.torus.comp.group, x.cache)),
        ("projirr.orthogonality",
         "twisted orthogonality sweep on the case extension",
         lambda x: checks.orthogonality(packet(x.case)[3], x.cache)),
        ("projirr.corestriction", "induced cocycle equals the corestriction",
         lambda x: checks.corestriction(checks.scalar_datum(QZ(1, 4)),
                                        FiniteGroup.cyclic(4), [0, 2])),
        ("projirr.block_twisted_trace",
         "block-twisted trace identity on random tuples",
         lambda x: checks.block_twisted_traces(x.rng, 100, 3)),
    ],
    "tori-verify": [
        ("tori.h_computed", "comparison function computed",
         lambda x: checks.h_computed(x.case)),
        ("tori.extension_isomorphism",
         "h(a) + h(b) - h(ab) = alpha-bar - beta-bar",
         lambda x: checks.extension_isomorphism(x.case)),
        ("tori.packet", "packet enumerated",
         lambda x: checks.packet_enumerated(x.case)),
        ("tori.character_identity",
         "representation sum = closed form = endoscopic value",
         lambda x: checks.character_identity(x.case)),
    ],
    "random-suite": [
        ("suite.extension_isomorphism",
         "extension identity over the random suite",
         lambda x: x.suite[0]),
        ("suite.character_identity",
         "three-way character identity over the random suite",
         lambda x: x.suite[1]),
    ],
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="toruscheck",
        description="exact verification of cohomological pairings, "
                    "projective characters, and disconnected-torus "
                    "character identities")
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("--input", help="case file (JSON)")
    parser.add_argument("--output", help="report path (default stdout)")
    parser.add_argument("--format", choices=["json", "text"], default="json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--suite-size", type=int, default=10)
    parser.add_argument("--cache-dir", help="character table cache directory")
    parser.add_argument("--check-filter", help="glob over check ids")
    args = parser.parse_args(argv)

    # without a directory, the process cache that tori.packet reads too
    cache = DiskTableCache(args.cache_dir) if args.cache_dir else TABLE_CACHE

    if args.command == "random-suite":
        if args.suite_size < 0:
            print("error: --suite-size must be at least 0", file=sys.stderr)
            return 2
        digest = hashlib.sha256(
            b"seed=%d;size=%d" % (args.seed, args.suite_size)).hexdigest()[:16]
        inputs = Inputs(rng=random.Random(args.seed), cache=cache,
                        size=args.suite_size)
    else:
        if not args.input:
            print("error: --input is required for %s" % args.command,
                  file=sys.stderr)
            return 2
        try:
            with open(args.input, "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()[:16]
            torus, z, phi, extras = load_case_file(args.input)
        except (CaseFileError, OSError) as e:
            print("error: %s" % e, file=sys.stderr)
            return 2
        inputs = Inputs(rng=random.Random(int(extras.get("seed", args.seed))),
                        cache=cache, torus=torus, z=z, phi=phi, extras=extras)

    report = Report(args.command, digest)
    for check_id, anchor, run in COMMANDS[args.command]:
        try:
            verdict = run(inputs)
        except ValueError as e:
            report.add(check_id, anchor, False, {"error": str(e)})
            break
        report.add(check_id, anchor, verdict.ok, verdict.witness)

    text, failed = report.render(args.format, args.check_filter)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
