"""A guard against regrowth of code that no real run reaches, against a
second way to draw a random integer, against a second cache mechanism, and
against a second per-case store (see the last three tests).

The reach rule: every top-level function of ``src/toruscheck`` and every
public method of its top-level classes is entered by the reach set of
tests/reach.py, or is listed below with the reason it stays.  The set is
the five file commands on every case file, the output and cache options,
random-suite, the bad inputs tests/test_cli.py parametrizes, and the
checks of each acceptance criterion; it runs once, in a fresh process
traced from before the package is imported.  A definition only a test
calls is not reached: it moves to a test oracle or goes.  The lists:

* GATE_ONLY names the checks that only the acceptance criteria run: the
  gate half of the set enters each, the command half none;
* BENCHMARK_ONLY names what only the benchmark under perfbench/ reaches,
  with the definitions only it reaches in turn: the set enters none of
  them.

A listed name must still be defined and must still be as listed (else it
leaves the list), and must be named in its README section; each
BENCHMARK_ONLY name is also named under perfbench/.  A top-level class
must be named somewhere in ``src/`` outside its own definition.
"""

import ast
import dataclasses
import os
import re

import pytest

import reach
from toruscheck.tori import ToriCase

README = os.path.join(reach.ROOT, "README.md")
PERFBENCH = os.path.join(reach.ROOT, "perfbench")

#: Checks only the acceptance gate calls (no CLI command runs them); the
#: README section "Checks and the acceptance gate" names each.
GATE_ONLY = {
    "checks.klein_four_pin":
        "criterion 3: the Klein-four sum is 4 over one 2-dimensional character",
    "checks.sign_squares": "criterion 4: every accepted sign squares to one",
    "checks.induced_automorphism_roundtrip":
        "criterion 8: decompose after reconstruct is the identity",
}

#: Definitions only the benchmark reaches: name -> (reason, the definitions
#: only it reaches).  The README table "Library code the checks do not
#: reach" names each, and some file under perfbench/ names each.  A lemma
#: that only a test states lives in tests/lemmas.py.
BENCHMARK_ONLY = {
    "groups.FiniteGroup.power": ("perfbench's tracer counts its calls", ()),
    "qz.Cyc.reduced_key": ("canonical forms perfbench's tests compare", ()),
    "cohomology.hyper_h1": (
        "perfbench's tracer wraps it; H^1 of a two-term complex, which it "
        "builds as a TwoTermComplex and returns as a HyperH1",
        ("cohomology.HyperH1.classify", "cohomology.HyperH1.elements",
         "cohomology.HyperH1.is_pair", "cohomology.HyperH1.order",
         "cohomology.HyperH1.representative")),
}


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    """reach.entered: what the command half and the gate half enter."""
    return reach.entered(str(tmp_path_factory.mktemp("reach")))


def _benchmark_only():
    return set(BENCHMARK_ONLY) | {q for _, under in BENCHMARK_ONLY.values()
                                  for q in under}


def test_every_definition_has_a_caller_or_a_reason(reached):
    commands, gate, _ = reached
    sources = reach.package_sources()
    defs = reach.definitions(sources)
    missed = reach.unreached(sources, commands | gate)
    benchmark = _benchmark_only()
    assert sorted(missed - benchmark) == [], "no run of the reach set enters"
    assert sorted((benchmark | set(GATE_ONLY)) - set(defs)) == [], \
        "listed but no longer defined"
    assert sorted(benchmark - missed) == [], "listed but now reached"
    assert [q for q in sorted(GATE_ONLY)
            if defs[q] in commands or defs[q] not in gate] == [], \
        "listed as gate-only but a command runs it, or the gate does not"


ADD = """
class Group:
    def add(self, g):
        return g

    def mul(self, a, b):
        return a


def closure(group, elems):
    seen = set()
    for a in elems:
        seen.add(group.mul(a, a))
    return seen
"""


def test_an_uncalled_method_is_unreached_though_its_name_is_called(tmp_path):
    """Group.add is never entered, though `seen.add(...)` calls a method of
    that name, which a rule by attribute names would count as its call;
    Group.mul and closure are entered."""
    path = str(tmp_path / "groups.py")
    ns = {}
    exec(compile(ADD, path, "exec"), ns)
    entered = reach.record(lambda: ns["closure"](ns["Group"](), [1, 2]),
                           str(tmp_path))
    assert reach.unreached({"groups.py": ADD}, entered) == {"groups.Group.add"}
    assert "add" in {n.attr for n in ast.walk(ast.parse(ADD))
                     if isinstance(n, ast.Attribute)}


def _unnamed_classes(sources):
    """The qualified names of the top-level classes of the sources that no
    name, attribute or import in them mentions outside the class itself."""
    classes, names = {}, []
    for fn, text in sources.items():
        tree = ast.parse(text)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                classes["%s.%s" % (fn[:-3], node.name)] = (
                    fn, node.lineno, node.end_lineno)
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                names.append((fn, n.lineno, n.id))
            elif isinstance(n, ast.Attribute):
                names.append((fn, n.lineno, n.attr))
            elif isinstance(n, (ast.Import, ast.ImportFrom)):
                names.extend((fn, n.lineno, a.name.split(".")[-1])
                             for a in n.names)
    return {q for q, (fn, first, last) in classes.items()
            if not any(name == q.rsplit(".", 1)[1]
                       and not (f == fn and first <= line <= last)
                       for f, line, name in names)}


def test_every_class_is_named():
    assert sorted(_unnamed_classes(reach.package_sources())) == []
    sample = "class Used:\n    pass\n\n\nclass Unused:\n    x = Used\n"
    assert _unnamed_classes({"groups.py": sample}) == {"groups.Unused"}


def _readme_section(title):
    with open(README, encoding="utf-8") as f:
        text = f.read()
    start = text.index("\n## %s\n" % title)
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_listed_names_are_in_the_readme():
    checks = _readme_section("Checks and the acceptance gate")
    library = _readme_section("Library code the checks do not reach")
    assert [q for q in sorted(GATE_ONLY)
            if "`%s`" % q.split(".", 1)[1] not in checks] == []
    assert [q for q in sorted(BENCHMARK_ONLY)
            if "| `%s` |" % q not in library] == []


def test_benchmark_only_names_are_named_in_perfbench():
    """Each BENCHMARK_ONLY definition is named, as a whole word, in some
    file under perfbench/, so the list cannot hold code only tests use."""
    texts = []
    for dirpath, _, files in os.walk(PERFBENCH):
        for fn in sorted(files):
            if fn.endswith((".py", ".json")):
                with open(os.path.join(dirpath, fn), encoding="utf-8") as f:
                    texts.append(f.read())
    assert [q for q in sorted(BENCHMARK_ONLY)
            if not any(re.search(r"\b%s\b" % q.rsplit(".", 1)[1], text)
                       for text in texts)] == []


def _integer_draws(sources):
    """[(file, line)] of every `.randint(...)` or `.randrange(...)` call in
    the sources."""
    return [(fn, n.lineno) for fn, text in sources.items()
            for n in ast.walk(ast.parse(text))
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr in ("randint", "randrange")]


def test_integers_are_drawn_one_way():
    """The package draws its random integers through `suite.draws`, whose
    stream is that of `randint`; no module calls `randint` or `randrange`
    itself (a docstring may name them)."""
    assert _integer_draws(reach.package_sources()) == []
    sample = "def f(rng):\n    return rng.randint(1, 2) + r.randrange(3)\n"
    assert _integer_draws({"suite.py": sample}) == [("suite.py", 2)] * 2


#: functools' caching decorators: unbounded, or tied to no Memo.
FUNCTOOLS_CACHES = {"lru_cache", "cache", "cached_property"}


def _functools_caches(sources):
    """[(file, line)] of every import of a FUNCTOOLS_CACHES name from
    functools and every functools.<name> attribute in the sources."""
    out = []
    for fn, text in sources.items():
        for n in ast.walk(ast.parse(text)):
            if isinstance(n, ast.ImportFrom) and n.module == "functools" \
                    and any(a.name in FUNCTOOLS_CACHES for a in n.names) \
                    or isinstance(n, ast.Attribute) \
                    and n.attr in FUNCTOOLS_CACHES \
                    and isinstance(n.value, ast.Name) \
                    and n.value.id == "functools":
                out.append((fn, n.lineno))
    return out


def test_caches_are_memos():
    """Every process-level cache of the package is a lattice.Memo, bounded
    by MEMO_LIMIT: no module imports or uses functools' caching
    decorators (test_memo.py covers each Memo)."""
    assert _functools_caches(reach.package_sources()) == []
    sample = ("import functools\nfrom functools import lru_cache, wraps\n"
              "\n\n@functools.cache\ndef f():\n    pass\n")
    assert _functools_caches({"qz.py": sample}) == [("qz.py", 2),
                                                    ("qz.py", 5)]


def test_a_case_keeps_values_in_one_store():
    """The fields of ToriCase are its constructor fields without a default,
    plus h and kept: whatever a case keeps goes into kept under a
    (kind, ...) key, and with slots an attribute of another name cannot be
    set on a case at all."""
    fields = dataclasses.fields(ToriCase)
    with_default = [f.name for f in fields
                    if f.default is not dataclasses.MISSING
                    or f.default_factory is not dataclasses.MISSING]
    assert with_default == ["h", "kept"]
    assert ToriCase.__slots__ == tuple(f.name for f in fields)
