"""Span recorder for the traced run.

The recorder wraps public functions of the ``toruscheck`` modules from the
outside.  Installing it rebinds *every* name that points at a wrapped function
across the loaded ``toruscheck.*`` modules (``tori`` imports ``hyper_pairing``
by name, ``cli`` imports ``build_case`` by name, and so on); methods are
wrapped on their class.  Uninstalling restores every original binding.

A ``span`` target records one span per call: name, start, end, parent span
and op id, kept in flat arrays in memory and written out at the end of the
run.  A ``count`` target only counts calls; it is used for functions called
hundreds of thousands of times per pass, where a span per call would cost
more memory than the rest of the run.

Per-layer metrics are derived from the spans and counts: ``.calls``,
``.self_s`` (span time minus the time covered by child spans), and the cache
hit ratios.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

#: (metric prefix, module, attribute, mode).  An attribute ``Class.method`` is
#: wrapped on the class.  ``cli.DiskTableCache.get_or_compute`` overrides the
#: base method and is reported under the base method's name.
TARGETS = [
    ("qz.QZ", "toruscheck.qz", "QZ.__init__", "count"),
    ("qz.Cyc", "toruscheck.qz", "Cyc.__init__", "count"),
    ("qz.Cyc.is_zero", "toruscheck.qz", "Cyc.is_zero", "span"),
    ("qz.cyc_div", "toruscheck.qz", "cyc_div", "count"),
    ("characters.character_table", "toruscheck.characters", "character_table", "span"),
    ("characters.CharacterTable.verify", "toruscheck.characters", "CharacterTable.verify", "span"),
    ("characters.TableCache.get_or_compute", "toruscheck.characters", "TableCache.get_or_compute", "span"),
    ("characters.TableCache.get_or_compute", "toruscheck.cli", "DiskTableCache.get_or_compute", "span"),
    ("characters.TableCache.key", "toruscheck.characters", "TableCache.key", "span"),
    ("characters.is_psi_centralizing", "toruscheck.characters", "is_psi_centralizing", "span"),
    ("characters.twisted_orthogonality", "toruscheck.characters", "twisted_orthogonality", "span"),
    ("groups.FiniteGroup.power", "toruscheck.groups", "FiniteGroup.power", "count"),
    ("groups.FiniteGroup.conjugacy_classes", "toruscheck.groups", "FiniteGroup.conjugacy_classes", "count"),
    ("weil.hyper_pairing", "toruscheck.weil", "hyper_pairing", "span"),
    ("weil.tn_iso", "toruscheck.weil", "tn_iso", "span"),
    ("weil.langlands_character", "toruscheck.weil", "langlands_character", "count"),
    ("tori.build_case", "toruscheck.tori", "build_case", "span"),
    ("tori.compute_h", "toruscheck.tori", "compute_h", "span"),
    ("tori.verify_iso", "toruscheck.tori", "verify_iso", "span"),
    ("tori.packet", "toruscheck.tori", "packet", "span"),
    ("tori.theta_value", "toruscheck.tori", "theta_value", "span"),
    ("tori.endoscopic_value", "toruscheck.tori", "endoscopic_value", "span"),
    ("tori.character_identity_report", "toruscheck.tori", "character_identity_report", "span"),
    ("cohomology.hyper_h1", "toruscheck.cohomology", "hyper_h1", "span"),
    ("cohomology.tate_group", "toruscheck.cohomology", "tate_group", "span"),
    ("cohomology.d_matrix", "toruscheck.cohomology", "d_matrix", "count"),
    ("lattice.smith_normal_form", "toruscheck.lattice", "smith_normal_form", "span"),
    ("lattice.snf_cached", "toruscheck.lattice", "snf_cached", "span"),
    ("lattice.solve_integer", "toruscheck.lattice", "solve_integer", "span"),
    ("rootdata.twisted_sign", "toruscheck.rootdata", "twisted_sign", "span"),
    ("rootdata.sign_induction", "toruscheck.rootdata", "sign_induction", "span"),
    ("rootdata.sign_product", "toruscheck.rootdata", "sign_product", "span"),
    ("casefile.load_case_file", "toruscheck.casefile", "load_case_file", "span"),
    ("cli.Report.render", "toruscheck.cli", "Report.render", "span"),
    ("suite.random_case_data", "toruscheck.suite", "random_case_data", "span"),
]

#: Per-layer metrics reported by the traced run, with their units.
PER_LAYER = [
    ("qz.QZ.created", "count"),
    ("qz.Cyc.created", "count"),
    ("qz.Cyc.is_zero.calls", "count"),
    ("qz.Cyc.is_zero.self_s", "s"),
    ("qz.cyc_div.calls", "count"),
    ("characters.character_table.calls", "count"),
    ("characters.character_table.self_s", "s"),
    ("characters.CharacterTable.verify.calls", "count"),
    ("characters.CharacterTable.verify.self_s", "s"),
    ("characters.TableCache.get_or_compute.calls", "count"),
    ("characters.table_cache.hit_ratio", "ratio"),
    ("characters.TableCache.key.self_s", "s"),
    ("characters.is_psi_centralizing.calls", "count"),
    ("characters.is_psi_centralizing.self_s", "s"),
    ("characters.twisted_orthogonality.calls", "count"),
    ("characters.twisted_orthogonality.self_s", "s"),
    ("groups.FiniteGroup.power.calls", "count"),
    ("groups.FiniteGroup.conjugacy_classes.calls", "count"),
    ("weil.hyper_pairing.calls", "count"),
    ("weil.hyper_pairing.self_s", "s"),
    ("weil.tn_iso.calls", "count"),
    ("weil.tn_iso.self_s", "s"),
    ("weil.langlands_character.calls", "count"),
    ("tori.build_case.self_s", "s"),
    ("tori.compute_h.self_s", "s"),
    ("tori.verify_iso.self_s", "s"),
    ("tori.packet.calls", "count"),
    ("tori.packet.self_s", "s"),
    ("tori.theta_value.self_s", "s"),
    ("tori.endoscopic_value.self_s", "s"),
    ("tori.character_identity_report.calls", "count"),
    ("cohomology.hyper_h1.calls", "count"),
    ("cohomology.hyper_h1.self_s", "s"),
    ("cohomology.tate_group.calls", "count"),
    ("cohomology.tate_group.self_s", "s"),
    ("cohomology.d_matrix.calls", "count"),
    ("cohomology.d_matrix_cache.size", "count"),
    ("lattice.smith_normal_form.calls", "count"),
    ("lattice.smith_normal_form.self_s", "s"),
    ("lattice.snf_cached.calls", "count"),
    ("lattice.snf_cache.hit_ratio", "ratio"),
    ("lattice.solve_integer.calls", "count"),
    ("lattice.solve_integer.self_s", "s"),
    ("rootdata.twisted_sign.calls", "count"),
    ("rootdata.twisted_sign.self_s", "s"),
    ("rootdata.sign_induction.self_s", "s"),
    ("rootdata.sign_product.self_s", "s"),
    ("casefile.load_case_file.self_s", "s"),
    ("cli.Report.render.self_s", "s"),
    ("suite.random_case_data.calls", "count"),
    ("suite.random_case_data.self_s", "s"),
    ("trace.overhead_s", "s"),
]


class Recorder:
    """Spans and call counts of the wrapped functions."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self.op_id = -1
        self._stack = []
        self._restore = []

    def _name_id(self, metric):
        if metric not in self._ids:
            self._ids[metric] = len(self.names)
            self.names.append(metric)
        return self._ids[metric]

    def _span_wrapper(self, metric, fn):
        nid = self._name_id(metric)
        stack = self._stack
        names, parents, ops = self.name, self.parent, self.op
        starts, ends = self.start, self.end
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(rec.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _count_wrapper(self, metric, fn):
        counts = self.counts
        counts.setdefault(metric, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every target and rebind every name that refers to it."""
        if self._restore:
            raise RuntimeError("recorder already installed")
        for _, modname, _, _ in TARGETS:
            importlib.import_module(modname)
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "toruscheck"
                                         or n.startswith("toruscheck."))]
        for metric, modname, attr, mode in TARGETS:
            module = sys.modules[modname]
            make = self._span_wrapper if mode == "span" else self._count_wrapper
            if "." in attr:
                clsname, meth = attr.split(".")
                cls = getattr(module, clsname)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    new = staticmethod(make(metric, raw.__func__))
                else:
                    new = make(metric, raw)
                setattr(cls, meth, new)
                self._restore.append((cls, meth, raw))
                continue
            fn = getattr(module, attr)
            new = make(metric, fn)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, name, new)
                        self._restore.append((mod, name, fn))

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore = []

    # -- derived metrics -------------------------------------------------

    def aggregate(self):
        """Per span name: calls, total time and self time; per parent span:
        the names of its direct children."""
        n = len(self.start)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        calls, self_s = {}, {}
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = (self_s.get(name, 0.0)
                            + (self.end[i] - self.start[i]) - child_time[i])
        return calls, self_s

    def parents_with_child(self, parent_metric, child_metric):
        """Number of spans of ``parent_metric`` with at least one direct child
        span of ``child_metric``."""
        pid = self._ids.get(parent_metric)
        cid = self._ids.get(child_metric)
        if pid is None or cid is None:
            return 0
        hit = set()
        for i in range(len(self.start)):
            if self.name[i] == cid:
                p = self.parent[i]
                if p >= 0 and self.name[p] == pid:
                    hit.add(p)
        return len(hit)

    def metrics(self, d_matrix_cache_size, overhead_s):
        calls, self_s = self.aggregate()
        calls.update(self.counts)
        out = {}
        for metric, unit in PER_LAYER:
            if metric.endswith(".calls"):
                value = calls.get(metric[:-len(".calls")], 0)
            elif metric.endswith(".created"):
                value = self.counts.get(metric[:-len(".created")], 0)
            elif metric.endswith(".self_s"):
                value = self_s.get(metric[:-len(".self_s")], 0.0)
            else:
                value = None
            out[metric] = value
        lookups = calls.get("characters.TableCache.get_or_compute", 0)
        computed = self.parents_with_child(
            "characters.TableCache.get_or_compute", "characters.character_table")
        out["characters.table_cache.hit_ratio"] = (
            1 - computed / lookups if lookups else 0.0)
        snf_calls = calls.get("lattice.snf_cached", 0)
        snf_computed = self.parents_with_child(
            "lattice.snf_cached", "lattice.smith_normal_form")
        out["lattice.snf_cache.hit_ratio"] = (
            1 - snf_computed / snf_calls if snf_calls else 0.0)
        out["cohomology.d_matrix_cache.size"] = d_matrix_cache_size
        out["trace.overhead_s"] = overhead_s
        return {m: {"value": out[m], "unit": u} for m, u in PER_LAYER}

    def write(self, path):
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as f:
            for i in range(len(self.start)):
                f.write(json.dumps({
                    "name": self.names[self.name[i]],
                    "start": self.start[i],
                    "end": self.end[i],
                    "parent": self.parent[i],
                    "op": self.op[i],
                }, separators=(",", ":")) + "\n")
