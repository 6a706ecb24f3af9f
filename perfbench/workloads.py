"""The three workloads of the toruscheck benchmark.

Each workload turns a seed into one *pass*: a fixed-composition list of ops.
The harness runs whole passes in a closed loop (one client, the next op starts
when the previous one has returned), times each op, and checks each op's
output against a golden copy stored under ``golden/``.

* ``suite``  -- the torus verifier over seeded random cases: ``build_case``,
  ``compute_h``, ``verify_iso`` and the three-way character identity sweep.
* ``tables`` -- character tables (with ``verify()``) and twisted-orthogonality
  sweeps on central extensions, each op on a fresh ``TableCache``.
* ``cli``    -- the five file commands on both fixtures through ``cli.main``,
  with ``projirr`` reading a disk table cache filled during warm-up.

A workload's ``setup(seed, cut)`` calls ``cut()`` after each input it
generates, so that the harness can time set-up in short steps.

The program is always called through module attributes (``tori.build_case``
rather than a name imported here), so the span recorder in ``tracer.py`` sees
every call once it has rebound those attributes.

None of the checks here use ``assert``: a run under ``python -O`` checks as
much as a normal run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction
from math import gcd

from toruscheck import casefile, characters, cli, groups, suite, tori
from toruscheck.qz import QZ

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")


class Op:
    """One unit of work: ``key`` names its golden entry, ``data`` is the
    input generated in set-up."""

    __slots__ = ("key", "data")

    def __init__(self, key, data):
        self.key = key
        self.data = data


def digest(doc):
    """SHA-256 of the canonical JSON form of ``doc``."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden(name):
    with open(os.path.join(GOLDEN_DIR, name), "r", encoding="utf-8") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# suite

#: Cases of the suite pool are ``random_case_data(random.Random(POOL_BASE + k))``
#: for ``k`` in ``range(POOL_SIZE)``; ``golden/suite.json`` holds one digest per
#: pool case.
POOL_BASE = 1_000_000
POOL_SIZE = 240
#: Pool cases fall into work classes: sorted by recorded work, a class starts
#: where a case's work exceeds CLASS_RATIO times the first work of the class.
#: A pass draws one case in POOL_FRACTION from every class, at least one:
#: 41 cases.  With 6 the 50th and 90th percentiles of a run fall in the middle
#: of a class's cases (the 21st and the 37th-38th of a pass), not at a step
#: between two classes, where they would jump from run to run.
CLASS_RATIO = 1.1
POOL_FRACTION = 6


def work_classes(works):
    """Pool indices grouped into work classes, lightest class first."""
    classes = []
    start = None
    for k in sorted(range(len(works)), key=lambda k: (works[k], k)):
        if start is None or works[k] > CLASS_RATIO * start:
            classes.append([])
            start = works[k]
        classes[-1].append(k)
    return classes


def suite_case_data(k):
    return suite.random_case_data(random.Random(POOL_BASE + k))


def suite_stratum(case):
    """Cost class of a case: Galois order, rank, component group order and
    class count, and the size of the stabilizer the identity sweep runs over."""
    torus = case.torus
    A = torus.comp.group
    return "n%d.r%d.A%d.c%d.s%d" % (torus.model.n, torus.rank, A.order,
                                    len(A.conjugacy_classes()),
                                    len(case.A_phi_z))


class SuiteWorkload:
    name = "suite"

    def __init__(self, root, workdir):
        self.golden = load_golden("suite.json")["cases"]

    def setup(self, seed, cut=lambda: None):
        """Draw a fixed number of cases from each work class of the pool and
        generate them.

        The work of a case is the number of ``QZ`` values it creates, counted
        when the golden copy was made; it tracks a case's time closely (the
        arithmetic under ``QZ`` and ``Cyc`` dominates).  Drawing by class
        keeps the cost mix of a pass, and so its percentiles, the same for
        every seed."""
        rng = random.Random(seed)
        chosen = []
        for members in work_classes([c["work"] for c in self.golden]):
            quota = max(1, (len(members) + POOL_FRACTION // 2) // POOL_FRACTION)
            chosen.extend(rng.sample(members, quota))
        rng.shuffle(chosen)
        ops = []
        for k in chosen:
            ops.append(Op(k, suite_case_data(k)))
            cut()
        return ops

    def warmup_ops(self, ops):
        """One case of each stratum fills the module-level caches
        (``_snf_cache``, ``_d_matrix_cache``, ``TABLE_CACHE``)."""
        seen, out = set(), []
        for op in ops:
            stratum = self.golden[op.key]["stratum"]
            if stratum not in seen:
                seen.add(stratum)
                out.append(op)
        return out

    @staticmethod
    def run(op):
        torus, z, phi = op.data
        case = tori.build_case(torus, z, phi)
        h = tori.compute_h(case)
        iso = tori.verify_iso(case)
        reports = []
        if len(case.A_phi_z) <= 6:
            duals = tori.invariant_duals(torus)[:2]
            tvecs = suite.invariant_vectors(torus)[:2]
            for a in case.A_phi_z:
                for b in case.A_phi_z:
                    for s in duals:
                        for t in tvecs:
                            r = tori.character_identity_report(case, s, b, t, a)
                            reports.append((r, r.all_equal))
        return case, h, iso, reports

    @staticmethod
    def summarize(result):
        """Golden form of one case: the h values, the iso verdicts and the
        three encoded identity values of every triple."""
        case, h, iso, reports = result
        doc = {
            "h": [[str(a), casefile.encode_qz(v)] for a, v in sorted(h.items())],
            "iso": [[str(k), bool(v[2])] for k, v in sorted(iso.items())],
            "triples": [[casefile.encode_cyc(r.rep_value),
                         casefile.encode_cyc(r.closed_value),
                         casefile.encode_cyc(r.endoscopic_value)]
                        for r, _ in reports],
        }
        return {"stratum": suite_stratum(case), "digest": digest(doc)}

    def check(self, op, result):
        _, _, iso, reports = result
        if not all(v[2] for v in iso.values()):
            return "extension isomorphism identity fails"
        if not all(ok for _, ok in reports):
            return "character identity fails"
        if self.summarize(result)["digest"] != self.golden[op.key]["digest"]:
            return "output differs from golden case %d" % op.key
        return None


# ---------------------------------------------------------------------------
# tables

def _klein_mu2():
    K = groups.FiniteGroup.direct_product(groups.FiniteGroup.cyclic(2),
                                          groups.FiniteGroup.cyclic(2))
    vals = {}
    for a in range(4):
        for b in range(4):
            a1, a2 = divmod(a, 2)
            b1, b2 = divmod(b, 2)
            vals[(a, b)] = QZ(a1 * b1 + a2 * b2 + a2 * b1, 2)
    return K, 2, vals


def _mu4_c4():
    C4 = groups.FiniteGroup.cyclic(4)
    return C4, 4, {(i, j): QZ((i + j) // 4, 4)
                   for i in range(4) for j in range(4)}


def _split(m, G):
    return G, m, {(a, b): QZ(0) for a in range(G.order) for b in range(G.order)}


def _g(ctor, *args):
    return lambda: getattr(groups.FiniteGroup, ctor)(*args)


def _x(f1, f2):
    return lambda: groups.FiniteGroup.direct_product(f1(), f2())


#: (name, copies per pass, make).  ``make()`` returns a FiniteGroup, whose
#: character table the op computes, or (base, m, cocycle values) for a
#: central extension mu_m x| base, whose table and full twisted-orthogonality
#: sweep the op computes.  The groups whose tables are computed have orders 8
#: to 60 and 5 to 18 classes; the extensions include the Klein, mu2 x D6 and
#: mu4-on-C4 cases of the acceptance gate.  Items of 3 s or more (C12 x S3,
#: mu2 x S4) are left out so that a pass holds enough ops for a 90th
#: percentile with ten samples beyond.
#:
#: The copies place both percentiles inside a block of ops of like cost, not
#: at a gap between two costs, so that they do not jump between items from
#: run to run.  A pass holds 60 ops: 18 cheap ones (about 25 ms), then 24 of
#: 70-100 ms, whose middle holds the 30th op (op_p50_ms), and 10 more up to
#: D18; the 53rd to 55th ops are the three D20s, which hold the 54th op
#: (op_p90_ms); five heavier ops follow.
TABLE_ITEMS = [
    ("S4", 5, _g("symmetric", 4)),
    ("D6", 5, _g("dihedral", 6)),
    ("C2xS3", 5, _x(_g("cyclic", 2), _g("symmetric", 3))),
    ("klein.mu2", 3, _klein_mu2),
    ("D10", 6, _g("dihedral", 10)),
    ("C2xD4", 6, _x(_g("cyclic", 2), _g("dihedral", 4))),
    ("C3xS3", 4, _x(_g("cyclic", 3), _g("symmetric", 3))),
    ("S3xS3", 4, _x(_g("symmetric", 3), _g("symmetric", 3))),
    ("D12", 4, _g("dihedral", 12)),
    ("mu2xC2xC2", 2, lambda: _split(2, groups.FiniteGroup.direct_product(
        groups.FiniteGroup.cyclic(2), groups.FiniteGroup.cyclic(2)))),
    ("mu2xC4", 2, lambda: _split(2, groups.FiniteGroup.cyclic(4))),
    ("C2xS4", 1, _x(_g("cyclic", 2), _g("symmetric", 4))),
    ("C2xD6", 1, _x(_g("cyclic", 2), _g("dihedral", 6))),
    ("D15", 1, _g("dihedral", 15)),
    ("C4xS3", 1, _x(_g("cyclic", 4), _g("symmetric", 3))),
    ("mu2xS3", 1, lambda: _split(2, groups.FiniteGroup.symmetric(3))),
    ("D18", 1, _g("dihedral", 18)),
    ("D20", 3, _g("dihedral", 20)),
    ("mu2xC6", 1, lambda: _split(2, groups.FiniteGroup.cyclic(6))),
    ("mu2xD4", 1, lambda: _split(2, groups.FiniteGroup.dihedral(4))),
    ("mu4.C4", 1, _mu4_c4),
    ("D30", 1, _g("dihedral", 30)),
    ("mu2xD6", 1, lambda: _split(2, groups.FiniteGroup.dihedral(6))),
]


def _relabel(n, rng):
    """A random permutation of range(n) fixing the identity 0."""
    rest = list(range(1, n))
    rng.shuffle(rest)
    return [0] + rest


def _classes(table):
    """Conjugacy classes of a Cayley table, as a map element -> class index,
    classes numbered by their least element.  Computed here so that the
    golden form does not depend on the program's own class enumeration."""
    n = len(table)
    inv = [row.index(0) for row in table]
    index = [-1] * n
    count = 0
    for g in range(n):
        if index[g] < 0:
            for h in range(n):
                index[table[table[h][g]][inv[h]]] = count
            count += 1
    return index


def _exponent(table):
    e = 1
    for g in range(len(table)):
        x, k = g, 1
        while x != 0:
            x, k = table[x][g], k + 1
        e = e * k // gcd(e, k)
    return e


_CYCLOTOMIC = {}


def _cyclotomic(n):
    """Integer coefficients (low degree first) of the n-th cyclotomic
    polynomial."""
    if n not in _CYCLOTOMIC:
        poly = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                den = _cyclotomic(d)
                out = [0] * (len(poly) - len(den) + 1)
                for i in range(len(out) - 1, -1, -1):
                    c = poly[i + len(den) - 1]
                    out[i] = c
                    for j, dc in enumerate(den):
                        poly[i + j] -= c * dc
                poly = out
        _CYCLOTOMIC[n] = poly
    return _CYCLOTOMIC[n]


def canonical_cyc(value, level):
    """Residue of a cyclotomic value modulo Phi_level, read from its report
    encoding: equal values give equal residues at a common level."""
    vec = [Fraction(0)] * level
    for qs, cs in casefile.encode_cyc(value):
        k = Fraction(qs) * level
        if k.denominator != 1:
            raise ValueError("value %s lies outside Q(zeta_%d)" % (qs, level))
        vec[int(k) % level] += Fraction(cs)
    phi = _cyclotomic(level)
    deg = len(phi) - 1
    for i in range(len(vec) - 1, deg - 1, -1):
        c = vec[i]
        if c:
            for j, pc in enumerate(phi):
                vec[i - deg + j] -= c * pc
    rem = vec[:deg]
    while rem and rem[-1] == 0:
        rem.pop()
    return [str(c) for c in rem]


class TableInput:
    """One relabeled table item: the Cayley table (or base table plus
    cocycle) handed to the program, and the maps back to the base labeling
    that make the golden form independent of the relabeling."""

    __slots__ = ("table", "m", "cocycle", "back", "classes", "level")


def table_input(built, rng):
    """Relabel an item's group by a seeded permutation.  Relabeling gives a
    new input of the same cost; ``rng=None`` keeps the base labeling."""
    item = TableInput()
    if isinstance(built, groups.FiniteGroup):
        base, m, cocycle = built, None, None
    else:
        base, m, cocycle = built
    n = base.order
    perm = _relabel(n, rng) if rng is not None else list(range(n))
    base_rows = [list(r) for r in base.table]
    item.table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            item.table[perm[a]][perm[b]] = perm[base_rows[a][b]]
    item.m = m
    if m is None:
        item.cocycle = None
        full_base, back = base_rows, [0] * n
        for a in range(n):
            back[perm[a]] = a
    else:
        item.cocycle = {(perm[a], perm[b]): v for (a, b), v in cocycle.items()}
        full_base = groups.CentralExtension(
            base, m, groups.Cocycle2(base, cocycle)).group.table
        back = [0] * (m * n)
        for k in range(m):
            for a in range(n):
                back[k * n + perm[a]] = k * n + a
    item.back = back
    item.classes = _classes(full_base)
    e = _exponent(full_base)
    item.level = e if e % 2 == 0 else 2 * e
    return item


class TablesWorkload:
    name = "tables"

    def __init__(self, root, workdir):
        self.golden = load_golden("tables.json")["items"]

    def setup(self, seed, cut=lambda: None):
        rng = random.Random(seed)
        ops = []
        for name, copies, build in TABLE_ITEMS:
            built = build()
            for _ in range(copies):
                ops.append(Op(name, table_input(built, rng)))
                cut()
        rng.shuffle(ops)
        return ops

    def warmup_ops(self, ops):
        """The plain-group items: they fill the cyclotomic-polynomial cache
        for every level the pass uses.  Extension ops reuse the same code."""
        seen, out = set(), []
        for op in ops:
            if op.data.m is None and op.key not in seen:
                seen.add(op.key)
                out.append(op)
        return out

    @staticmethod
    def run(op):
        item = op.data
        cache = characters.TableCache()
        G = groups.FiniteGroup(item.table)
        if item.m is None:
            return cache.get_or_compute(G), []
        alpha = groups.Cocycle2(G, item.cocycle)
        ext = groups.CentralExtension(G, item.m, alpha)
        table = cache.get_or_compute(ext.group)
        psi = QZ(1, ext.m)
        verdicts = []
        for e in range(ext.group.order):
            if not characters.is_psi_centralizing(ext, psi, e):
                continue
            for e2 in range(ext.group.order):
                _, _, verdict = characters.twisted_orthogonality(
                    ext, psi, e, e2, cache)
                verdicts.append((e, e2, verdict))
        return table, verdicts

    @staticmethod
    def summarize(item, result):
        """Golden form: each irreducible's dimension and its values as
        residues mod Phi_level, in the base labeling's class order; rows
        sorted; plus every sweep verdict keyed by base-labeled elements."""
        table, verdicts = result
        nclasses = max(item.classes) + 1
        rows = []
        for dim, values in zip(table.dims, table.chars):
            row = [None] * nclasses
            for cls, v in zip(table.classes, values):
                row[item.classes[item.back[cls[0]]]] = canonical_cyc(v, item.level)
            rows.append([dim, row])
        rows.sort(key=lambda r: json.dumps(r))
        sweep = sorted([item.back[e], item.back[e2], v] for e, e2, v in verdicts)
        return {"classes": nclasses, "pairs": len(sweep),
                "digest": digest({"rows": rows, "sweep": sweep})}

    def check(self, op, result):
        if any(v is False for _, _, v in result[1]):
            return "twisted orthogonality fails"
        if self.summarize(op.data, result)["digest"] != self.golden[op.key]["digest"]:
            return "output differs from golden item %s" % op.key
        return None


# ---------------------------------------------------------------------------
# cli

CLI_COMMANDS = ["cohomology", "pairing", "sign", "projirr", "tori-verify"]
#: Run twice per pass.  Of the ten command-fixture pairs it is the fifth
#: cheapest (about 30 ms, next to projirr's 40 ms), so with eleven ops the
#: pass's median falls among its own samples, not at the step between two
#: commands, where it would jump from run to run.
CLI_REPEATED = ("cohomology", "s3_component")


def fixture_paths(root):
    d = os.path.join(root, "fixtures")
    return [os.path.join(d, f) for f in sorted(os.listdir(d))
            if f.endswith(".json")]


def cli_key(command, path):
    return "%s.%s" % (command, os.path.splitext(os.path.basename(path))[0])


class CliWorkload:
    name = "cli"

    def __init__(self, root, workdir):
        self.fixtures = fixture_paths(root)
        self.cache_dir = os.path.join(workdir, "tables")
        self.golden = {}
        gdir = os.path.join(GOLDEN_DIR, "cli")
        for f in sorted(os.listdir(gdir)):
            with open(os.path.join(gdir, f), "r", encoding="utf-8") as fh:
                self.golden[os.path.splitext(f)[0]] = fh.read()

    def setup(self, seed, cut=lambda: None):
        """Every command on every fixture once per pass, CLI_REPEATED once
        more, in seeded order."""
        ops = [Op(cli_key(c, p), (c, p)) for p in self.fixtures
               for c in CLI_COMMANDS]
        ops += [op for op in ops if op.key == "%s.%s" % CLI_REPEATED]
        random.Random(seed).shuffle(ops)
        return ops

    def warmup_ops(self, ops):
        """A whole pass; it also fills the ``projirr`` disk table cache."""
        return list(ops)

    def argv(self, op):
        command, path = op.data
        argv = [command, "--input", path]
        if command == "projirr":
            argv += ["--cache-dir", self.cache_dir]
        return argv

    def run(self, op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(self.argv(op))
        return code, out.getvalue()

    def check(self, op, result):
        code, text = result
        if code != 0:
            return "exit code %d" % code
        if text != self.golden.get(op.key):
            return "report differs from golden %s" % op.key
        return None


WORKLOADS = {"suite": SuiteWorkload, "tables": TablesWorkload,
             "cli": CliWorkload}
