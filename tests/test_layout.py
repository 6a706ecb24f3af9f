"""A guard against regrowth of code that nothing in the package calls,
against a second way to draw a random integer, and against a second
per-case store (see the last two tests).

Every top-level function or class of ``src/toruscheck`` and every public
method must be named somewhere in ``src/`` outside its own definition, or
be listed below with the reason it stays: a check only the acceptance gate
runs, or a definition the benchmark under perfbench/ names.  A top-level
definition counts as named through a name, an attribute or an import; a
method only through an attribute (``obj.name``), so a local variable of the
same name does not hide an uncalled method.  A listed name must still be
defined, must still have no caller in ``src/`` (else it leaves the list),
and must be named in its README section.
"""

import ast
import dataclasses
import os
import re

import toruscheck
from toruscheck.tori import ToriCase

SRC = os.path.dirname(os.path.abspath(toruscheck.__file__))
ROOT = os.path.dirname(os.path.dirname(SRC))
README = os.path.join(ROOT, "README.md")
PERFBENCH = os.path.join(ROOT, "perfbench")

#: Checks only the acceptance gate calls (no CLI command runs them); the
#: README section "Checks and the acceptance gate" names each.
GATE_ONLY = {
    "checks.klein_four_pin":
        "criterion 3: the Klein-four sum is 4 over one 2-dimensional character",
    "checks.sign_squares": "criterion 4: every accepted sign squares to one",
    "checks.induced_automorphism_roundtrip":
        "criterion 8: decompose after reconstruct is the identity",
}

#: Definitions only the benchmark reaches; the README table "Library code
#: the checks do not reach" names each, and some file under perfbench/
#: names each.  A lemma that only a test states lives in tests/lemmas.py.
BENCHMARK_ONLY = {
    "groups.FiniteGroup.dihedral": "a constructor perfbench's tables use",
    "groups.FiniteGroup.power": "perfbench's tracer counts its calls",
    "qz.Cyc.reduced_key": "canonical forms perfbench's tests compare",
    "cohomology.hyper_h1":
        "perfbench's tracer wraps it; H^1 of a two-term complex",
}


def _package_sources():
    """{file name: source} over src/toruscheck."""
    out = {}
    for fn in sorted(os.listdir(SRC)):
        if fn.endswith(".py"):
            with open(os.path.join(SRC, fn), encoding="utf-8") as f:
                out[fn] = f.read()
    return out


def _definitions_and_names(sources):
    """({qualified name: (file, first line, last line)}, [(file, line,
    name, is_attribute)]) over the sources: their top-level functions and
    classes and the public methods of those classes, and every name,
    attribute and imported name they mention."""
    defs, names = {}, []
    for fn, text in sources.items():
        tree = ast.parse(text)
        mod = fn[:-3]
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs["%s.%s" % (mod, node.name)] = (fn, node.lineno,
                                                node.end_lineno)
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) \
                            and not sub.name.startswith("_"):
                        defs["%s.%s.%s" % (mod, node.name, sub.name)] = (
                            fn, sub.lineno, sub.end_lineno)
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                names.append((fn, n.lineno, n.id, False))
            elif isinstance(n, ast.Attribute):
                names.append((fn, n.lineno, n.attr, True))
            elif isinstance(n, (ast.Import, ast.ImportFrom)):
                names.extend((fn, n.lineno, a.name.split(".")[-1], False)
                             for a in n.names)
    return defs, names


def _uncalled(sources=None):
    """The definitions (as _definitions_and_names gives them) and the
    qualified names of those nothing else in the sources (default: src/)
    names."""
    defs, names = _definitions_and_names(sources or _package_sources())
    out = set()
    for qual, (fn, first, last) in defs.items():
        short = qual.rsplit(".", 1)[1]
        method = qual.count(".") == 2
        if not any(name == short and (attr or not method)
                   and not (f == fn and first <= line <= last)
                   for f, line, name, attr in names):
            out.add(qual)
    return defs, out


def _readme_section(title):
    with open(README, encoding="utf-8") as f:
        text = f.read()
    start = text.index("\n## %s\n" % title)
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_every_definition_has_a_caller_or_a_reason():
    defs, uncalled = _uncalled()
    listed = set(GATE_ONLY) | set(BENCHMARK_ONLY)
    assert sorted(uncalled - listed) == [], "defined but never called in src/"
    assert sorted(listed - set(defs)) == [], "listed but no longer defined"
    assert sorted(listed - uncalled) == [], "listed but now called in src/"


CLASS_OF = """
class Group:
    def class_of(self, g):
        return g


def bijection(classes):
    class_of = {d: i for i, d in enumerate(classes)}
    return [class_of[d] for d in classes]
"""


def test_a_local_name_does_not_call_a_method():
    """A method counts as called only through an attribute: a local dict of
    the same name leaves it uncalled, and obj.class_of(...) calls it."""
    _, uncalled = _uncalled({"groups.py": CLASS_OF})
    assert "groups.Group.class_of" in uncalled
    called = CLASS_OF + "\n\nprint(Group().class_of(0))\n"
    _, uncalled = _uncalled({"groups.py": called})
    assert "groups.Group.class_of" not in uncalled


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
    assert _integer_draws(_package_sources()) == []
    sample = "def f(rng):\n    return rng.randint(1, 2) + r.randrange(3)\n"
    assert _integer_draws({"suite.py": sample}) == [("suite.py", 2)] * 2


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
