"""A guard against regrowth of code that nothing in the package calls.

Every top-level function or class of ``src/toruscheck`` and every public
method must be named somewhere in ``src/`` outside its own definition, or
be listed below with the reason it stays.  A listed name must still be
defined, must still have no caller in ``src/`` (else it leaves the list),
and must be named in its README section.
"""

import ast
import os

import toruscheck

SRC = os.path.dirname(os.path.abspath(toruscheck.__file__))
README = os.path.join(os.path.dirname(os.path.dirname(SRC)), "README.md")

#: Checks only the acceptance gate calls (no CLI command runs them); the
#: README section "Checks and the acceptance gate" names each.
GATE_ONLY = {
    "checks.klein_four_pin":
        "criterion 3: the Klein-four sum is 4 over one 2-dimensional character",
    "checks.sign_squares": "criterion 4: every accepted sign squares to one",
    "checks.induced_automorphism_roundtrip":
        "criterion 8: decompose after reconstruct is the identity",
}

#: Library code no check reaches; the README table "Library code the checks
#: do not reach" names each, with the lemma it models and its test.
LIBRARY_ONLY = {
    "characters.mackey_multiplicity_transfer":
        "the induced-correspondence lemma for matched extensions",
    "characters.restriction_multiplicity":
        "restriction multiplicities the Mackey test compares against",
    "characters.canonical_tensor_extension":
        "the canonical extension of an invariant character",
    "characters.frobenius_induced_value": "Frobenius induction",
    "characters.block_rotation_class_bijection":
        "twisted classes of J^n against those of J",
    "groups.FiniteGroup.dihedral": "a constructor tests and perfbench use",
    "groups.FiniteGroup.subgroup_closure": "a constructor tests use",
    "groups.FiniteGroup.power": "perfbench's tracer counts its calls",
    "groups.Cocycle2.inflate": "inflation and restriction of 2-cocycles",
    "groups.Cocycle2.shift_by_coboundary":
        "cohomologous cocycles give isomorphic extensions",
    "groups.CentralExtension.isomorphism_from_coboundary":
        "cohomologous cocycles give isomorphic extensions",
    "groups.corestriction_cocycle": "corestriction of 2-cocycles",
    "groups.stabilizer_of_class": "stabilizers of classified points",
    "qz.Cyc.reduced_key": "canonical forms the tests and perfbench compare",
    "qz.Cyc.as_qz": "recognising a single root of unity",
    "tori.invariant_of": "the relative-position invariant of a pair",
    "weil.LocalModel.fundamental_cochain":
        "the fundamental class generates H^2",
    "weil.TorusModel.dual_compose": "dual points composed with a matrix",
}


def _definitions_and_names():
    """({qualified name: (file, first line, last line)}, [(file, line,
    name)]) over the package: its top-level functions and classes and the
    public methods of those classes, and every name, attribute and imported
    name it mentions."""
    defs, names = {}, []
    for fn in sorted(os.listdir(SRC)):
        if not fn.endswith(".py"):
            continue
        with open(os.path.join(SRC, fn), encoding="utf-8") as f:
            tree = ast.parse(f.read())
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
                names.append((fn, n.lineno, n.id))
            elif isinstance(n, ast.Attribute):
                names.append((fn, n.lineno, n.attr))
            elif isinstance(n, (ast.Import, ast.ImportFrom)):
                names.extend((fn, n.lineno, a.name.split(".")[-1])
                             for a in n.names)
    return defs, names


def _uncalled():
    """The qualified names of the definitions nothing else in src/ names."""
    defs, names = _definitions_and_names()
    out = set()
    for qual, (fn, first, last) in defs.items():
        short = qual.rsplit(".", 1)[1]
        if not any(name == short and not (f == fn and first <= line <= last)
                   for f, line, name in names):
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
    listed = set(GATE_ONLY) | set(LIBRARY_ONLY)
    assert sorted(uncalled - listed) == [], "defined but never called in src/"
    assert sorted(listed - set(defs)) == [], "listed but no longer defined"
    assert sorted(listed - uncalled) == [], "listed but now called in src/"


def test_listed_names_are_in_the_readme():
    checks = _readme_section("Checks and the acceptance gate")
    library = _readme_section("Library code the checks do not reach")
    assert [q for q in sorted(GATE_ONLY)
            if "`%s`" % q.split(".", 1)[1] not in checks] == []
    assert [q for q in sorted(LIBRARY_ONLY)
            if "| `%s` |" % q not in library] == []
