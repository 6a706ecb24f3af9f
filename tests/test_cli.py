import json
import os
import subprocess
import sys

import pytest

from toruscheck.cli import main, DiskTableCache
from toruscheck.characters import TableCache, character_table
from toruscheck.groups import FiniteGroup
from toruscheck.casefile import load_case, CaseFileError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")
BENCH_GOLDEN = os.path.join(ROOT, "perfbench", "golden", "cli")
FIXTURE = {
    "schema": 1,
    "rank": 1,
    "galois": {"order": 2, "matrix": [[-1]]},
    "component": {"kind": "cyclic", "order": 2, "matrix": [[-1]]},
    "z": [[0], [1]],
    "phi": ["1/4"],
    "root_datum": {"label": "A1", "n": 2, "galois_perm": [0], "a_perm": [0],
                   "xi": [1]},
    "seed": 7,
}


def write_fixture(tmp_path, doc=None, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc or FIXTURE))
    return str(path)


def bad_inputs():
    """(command, case file bytes) of every bad input the tests below
    parametrize, each with the command its test runs."""
    docs = ([("tori-verify", doc) for doc in NOT_OBJECTS]
            + [("sign", dict(FIXTURE, root_datum=rd))
               for rd, _ in BAD_ROOT_DATA]
            + [("sign", doc) for _, doc in UNBOUNDED_GALOIS]
            + [("tori-verify", table_fixture(t)) for t, _ in BAD_TABLES]
            + [("tori-verify", dict(FIXTURE, **{key: 3}))
               for key in UNKNOWN_KEYS])
    return ([("cohomology", raw) for raw in UNREADABLE_JSON]
            + [(c, json.dumps(doc).encode()) for c, doc in docs])


def run_main(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--output", str(out)])
    return code, out.read_bytes()


def test_tori_verify_passes(tmp_path):
    path = write_fixture(tmp_path)
    code, out = run_main(["tori-verify", "--input", path], tmp_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["failed"] == 0
    assert any(c["id"] == "tori.character_identity" for c in doc["checks"])


def test_reports_are_byte_identical(tmp_path):
    path = write_fixture(tmp_path)
    code1, out1 = run_main(["tori-verify", "--input", path], tmp_path, "a.json")
    code2, out2 = run_main(["tori-verify", "--input", path], tmp_path, "b.json")
    assert code1 == code2 == 0
    assert out1 == out2
    # random-suite determinism for a fixed seed
    code3, out3 = run_main(["random-suite", "--seed", "5", "--suite-size", "3"],
                           tmp_path, "c.json")
    code4, out4 = run_main(["random-suite", "--seed", "5", "--suite-size", "3"],
                           tmp_path, "d.json")
    assert code3 == code4 == 0
    assert out3 == out4


def test_cache_transparency(tmp_path):
    path = write_fixture(tmp_path)
    cdir = tmp_path / "cache"
    code1, out1 = run_main(["projirr", "--input", path,
                            "--cache-dir", str(cdir)], tmp_path, "a.json")
    # second run hits the disk cache; the report must be identical
    code2, out2 = run_main(["projirr", "--input", path,
                            "--cache-dir", str(cdir)], tmp_path, "b.json")
    code3, out3 = run_main(["projirr", "--input", path], tmp_path, "c.json")
    assert code1 == code2 == code3 == 0
    assert out1 == out2 == out3
    assert any(f.startswith("table-") for f in os.listdir(cdir))


def test_projirr_builds_each_table_once_per_process(monkeypatch, tmp_path,
                                                    empty_memos):
    """Without --cache-dir, projirr reads the process table cache, which
    tori.packet fills too: on the norm-one fixture the first run builds one
    table (the component C2's, which is also the extension's) and a second
    run in the same process builds none."""
    from toruscheck import characters
    empty_memos(characters.TABLE_CACHE._tables)
    built = []

    def counted(group):
        built.append(group.order)
        return character_table(group)

    monkeypatch.setattr(characters, "character_table", counted)
    path = os.path.join(ROOT, "fixtures", "norm_one_torus.json")
    assert run_main(["projirr", "--input", path], tmp_path, "a.json")[0] == 0
    assert built == [2]
    assert run_main(["projirr", "--input", path], tmp_path, "b.json")[0] == 0
    assert built == [2]


def test_cache_corruption_detected(tmp_path):
    cdir = tmp_path / "cache"
    cache = DiskTableCache(str(cdir))
    G = FiniteGroup.dihedral(4)
    t1 = cache.get_or_compute(G)
    key = cache.key(G)
    # corrupt the stored table
    p = cdir / ("table-%s.json" % key)
    doc = json.loads(p.read_text())
    doc["dims"][0] = 3
    p.write_text(json.dumps(doc))
    cache2 = DiskTableCache(str(cdir))
    t2 = cache2.get_or_compute(G)  # falls back to recomputation
    assert t2.dims == t1.dims
    # a short row, a zero denominator, a wrongly typed field and a
    # document that is not an object are recomputed too
    good = json.loads(p.read_text())
    short = json.loads(p.read_text())
    short["chars"][1] = short["chars"][1][:-1]
    zero = json.loads(p.read_text())
    zero["chars"][0][0][0][1] = "1/0"
    # a rational in exponent form, which Fraction would take without
    # bound to read, and a document nested past the recursion limit too
    exponent = json.loads(p.read_text())
    exponent["chars"][0][0][0][1] = "1e-1000000000"
    texts = [json.dumps(doc) for doc in [
        short, zero, dict(good, dims=[None] * len(good["dims"])),
        dict(good, chars=7), [good], exponent]] + ["[" * 100000]
    for text in texts:
        p.write_text(text)
        t3 = DiskTableCache(str(cdir)).get_or_compute(FiniteGroup.dihedral(4))
        assert t3.dims == t1.dims
        assert all(a == b for x, y in zip(t3.chars, t1.chars)
                   for a, b in zip(x, y))


def test_cache_writes_are_atomic(tmp_path, monkeypatch):
    """A json.dump cut short by an error leaves the previous table file
    whole, and no temp file behind."""
    cdir = tmp_path / "cache"
    cache = DiskTableCache(str(cdir))
    G = FiniteGroup.dihedral(4)
    table = cache.get_or_compute(G)
    key = cache.key(G)
    before = {p.name: p.read_text() for p in cdir.iterdir()}
    real_dump = json.dump

    def cut_short(doc, f, **kw):
        f.write(json.dumps(doc, **kw)[:20])
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", cut_short)
    with pytest.raises(OSError):
        cache._store(key, table)
    with pytest.raises(OSError):
        DiskTableCache(str(cdir)).get_or_compute(FiniteGroup.cyclic(5))
    monkeypatch.setattr(json, "dump", real_dump)
    after = {p.name: p.read_text() for p in cdir.iterdir()}
    assert after == before
    for text in after.values():
        json.loads(text)
    reloaded = DiskTableCache(str(cdir)).get_or_compute(G)
    assert reloaded.dims == table.dims


def test_cache_keeps_no_manifest(tmp_path):
    """A cache directory holds one file per table and no manifest.json; a
    stale manifest there is neither read nor rewritten."""
    cdir = tmp_path / "cache"
    G = FiniteGroup.dihedral(4)
    table = DiskTableCache(str(cdir)).get_or_compute(G)
    assert os.listdir(cdir) == ["table-%s.json" % TableCache.key(G)]
    (cdir / "manifest.json").write_text("not json")
    DiskTableCache(str(cdir)).get_or_compute(FiniteGroup.cyclic(5))
    assert (cdir / "manifest.json").read_text() == "not json"
    reloaded = DiskTableCache(str(cdir)).get_or_compute(G)
    assert reloaded.dims == table.dims


def test_corrupted_cocycle_rejected(tmp_path):
    bad = dict(FIXTURE)
    bad["z"] = [[1], [1]]  # violates normalization z(1) = 0
    path = write_fixture(tmp_path, bad)
    code = main(["tori-verify", "--input", path, "--output",
                 str(tmp_path / "x.json")])
    assert code == 2


def test_non_cocycle_z_names_the_first_failing_key(tmp_path, capsys):
    """A z that breaks the cocycle identity is an input error naming the
    first pair of Q^2 in `tuples` order where d(z) is not zero."""
    doc = {"schema": 1, "rank": 1, "galois": {"order": 3, "matrix": [[1]]},
           "component": {"kind": "trivial"}, "z": [[0], [1], [2]],
           "phi": ["0"]}
    with pytest.raises(CaseFileError) as e:
        load_case(doc)
    assert str(e.value) == "z: cocycle identity fails at (1, 2)"
    assert main(["cohomology", "--input", write_fixture(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == \
        "error: z: cocycle identity fails at (1, 2)\n"


def test_casefile_validation_messages():
    bad = dict(FIXTURE)
    bad["z"] = [[0], [1], [2]]
    with pytest.raises(CaseFileError) as e:
        load_case(bad)
    assert "z" in str(e.value)
    bad2 = dict(FIXTURE)
    bad2["phi"] = ["1/3"]  # norm not zero for the dual action? here it is:
    # dual action of -1 is -1, so any value works; break the shape instead
    bad3 = dict(FIXTURE)
    bad3["phi"] = ["1/3", "1/3"]
    with pytest.raises(CaseFileError):
        load_case(bad3)
    bad4 = dict(FIXTURE)
    bad4["galois"] = {"order": 3, "matrix": [[-1]]}
    with pytest.raises(CaseFileError):
        load_case(bad4)
    for field, value in [("component", [1]), ("seed", "x"), ("seed", [7]),
                         ("root_datum", [1])]:
        bad5 = dict(FIXTURE)
        bad5[field] = value
        with pytest.raises(CaseFileError) as e:
            load_case(bad5)
        assert e.value.field == field


#: Case files json cannot read: not UTF-8, nested past the recursion limit,
#: an integer literal past int's digit limit.
UNREADABLE_JSON = [
    b'{"schema": 1, "rank": 1\xff}',
    b"[" * 100000,
    b'{"schema": 1, "rank": ' + b"1" * 5001 + b"}",
]


@pytest.mark.parametrize("raw", UNREADABLE_JSON,
                         ids=["not-utf-8", "nested", "long-integer"])
def test_unreadable_json_is_an_input_error(raw, tmp_path, capsys):
    """A case file that is not UTF-8, nests past the recursion limit or
    holds an integer literal past int's digit limit exits 2 with a message
    naming json, not with a traceback."""
    path = tmp_path / "case.json"
    path.write_bytes(raw)
    assert main(["cohomology", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: json: ")


def test_phi_is_an_integer_or_p_over_q(tmp_path):
    """phi takes integers and "p/q" only: an exponent or a decimal is an
    input error naming phi, at once even for "1e-100000000", which
    Fraction would take without bound to read (run in a fresh process, so
    that a hang fails the test)."""
    for value in ("1e-5", "0.25", "1/4.0", " 1/4", "1_0", "1/-4"):
        with pytest.raises(CaseFileError) as e:
            load_case(dict(FIXTURE, phi=[value]))
        assert e.value.field == "phi"
    for value in ("1/4", "-3/4", "5/4", "0", 1, "7"):
        load_case(dict(FIXTURE, phi=[value]))
    path = write_fixture(tmp_path, dict(FIXTURE, phi=["1e-100000000"]))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "toruscheck.cli",
                           "tori-verify", "--input", path],
                          capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: phi: ")


NOT_OBJECTS = [[1, 2], "case", 3, None]


@pytest.mark.parametrize("doc", NOT_OBJECTS)
def test_case_file_must_be_an_object(doc, tmp_path, capsys):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CaseFileError) as e:
        load_case(doc)
    assert e.value.field == "case"
    assert main(["tori-verify", "--input", str(path)]) == 2
    assert "case: expected a JSON object" in capsys.readouterr().err


#: (root_datum, the field its error names)
BAD_ROOT_DATA = [
    ({"label": "A2", "n": 1, "a_perm": [0, 0]}, "root_datum"),
    ({"label": "A2", "n": 1, "galois_perm": [0]}, "root_datum"),
    ({"label": "A1", "n": 0}, "root_datum"),
    ({"label": "A0"}, "root_datum.label"),
    ({"label": "A1", "n": 2, "xi": "x"}, "root_datum.xi"),
    ({"label": "A1", "n": 2, "xi": [5]}, "root_datum.xi"),
    # ranks above MAX_LABEL_RANK (8), rejected before the datum is built
    ({"label": "A400"}, "root_datum.label"),
    ({"label": "D9"}, "root_datum.label"),
    ({"label": "A" + "9" * 5000}, "root_datum.label"),
    # a raw Cartan matrix with more rows than MAX_LABEL_RANK, rejected
    # before its determinant is taken
    ({"cartan": [[2 if i == j else -1 if abs(i - j) == 1 else 0
                  for j in range(9)] for i in range(9)]},
     "root_datum.cartan"),
]


@pytest.mark.parametrize("root_datum,field", BAD_ROOT_DATA)
def test_root_datum_is_validated(root_datum, field, tmp_path, capsys):
    bad = dict(FIXTURE, root_datum=root_datum)
    with pytest.raises(CaseFileError) as e:
        load_case(bad)
    assert e.value.field == field
    assert main(["sign", "--input", write_fixture(tmp_path, bad)]) == 2
    assert capsys.readouterr().err.startswith("error: " + field)


UNBOUNDED_GALOIS = [
    ("galois.order", dict(FIXTURE, galois={"order": 7, "matrix": [[-1]]})),
    ("root_datum.n", dict(FIXTURE, root_datum={"label": "A1", "n": 7})),
]


@pytest.mark.parametrize("field,doc", UNBOUNDED_GALOIS)
def test_galois_order_is_bounded(field, doc, tmp_path, capsys):
    """Galois orders above MAX_GALOIS_ORDER (6) exit 2 before any Tate
    group of the cyclic Galois group is built."""
    with pytest.raises(CaseFileError) as e:
        load_case(doc)
    assert e.value.field == field
    assert main(["sign", "--input", write_fixture(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.startswith("error: %s: " % field)


def test_cartan_labels_up_to_the_rank_bound_load():
    """MAX_LABEL_RANK (8) admits E6, the largest label in use, and A_n and
    D_n up to rank 8."""
    for label in ("E6", "A8", "D8"):
        doc = dict(FIXTURE, root_datum={"label": label, "n": 2})
        twist, _ = load_case(doc)[3]["root_datum"]
        assert twist.datum.rank == int(label[1:])


def test_raw_cartan_matrix_gives_the_sign_of_its_label(tmp_path):
    """A raw 1 x 1 Cartan matrix loads as label A1 does and gives its
    sign.value -1 at the nontrivial class."""
    signs = []
    for root_datum in ({"cartan": [[2]], "n": 2, "xi": [1]},
                       {"label": "A1", "n": 2, "xi": [1]}):
        code, out = run_main(["sign", "--input", write_fixture(
            tmp_path, dict(FIXTURE, root_datum=root_datum))], tmp_path)
        assert code == 0
        check = json.loads(out)["checks"][0]
        assert check["id"] == "sign.value"
        signs.append(check["witness"]["sign"])
    assert signs == [-1, -1]


#: (component table, the message it exits 2 with)
BAD_TABLES = [
    ([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0],
      [4, 2, 0, 1, 3]], "associativity fails"),
    ([], "rows and columns must be permutations"),
    ([[0, 1], [1]], "rows and columns must be permutations"),
]


def table_fixture(table):
    """FIXTURE with a component of kind table, one 1 x 1 identity matrix
    per row."""
    return dict(FIXTURE, component={"kind": "table", "table": table,
                                    "matrices": [[[1]]] * len(table)})


@pytest.mark.parametrize("table,message", BAD_TABLES)
def test_bad_component_table_exits_2(table, message, tmp_path, capsys):
    """A non-associative Latin square, an empty table and a ragged one as
    the component group's table."""
    doc = table_fixture(table)
    assert main(["tori-verify", "--input", write_fixture(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == "error: component.table: %s\n" % message


UNKNOWN_KEYS = ["suite_size", "comment"]


@pytest.mark.parametrize("key", UNKNOWN_KEYS)
def test_unknown_top_level_key_is_rejected(key, tmp_path):
    bad = dict(FIXTURE, **{key: 3})
    with pytest.raises(CaseFileError) as e:
        load_case(bad)
    assert e.value.field == key
    assert main(["tori-verify", "--input", write_fixture(tmp_path, bad)]) == 2


def test_negative_suite_size_is_input_error(capsys):
    assert main(["random-suite", "--suite-size", "-3"]) == 2
    assert "--suite-size" in capsys.readouterr().err


def test_check_filter(tmp_path):
    path = write_fixture(tmp_path)
    code, out = run_main(["tori-verify", "--input", path,
                          "--check-filter", "tori.packet"], tmp_path)
    doc = json.loads(out)
    assert [c["id"] for c in doc["checks"]] == ["tori.packet"]


def test_empty_suite_passes(tmp_path):
    code, out = run_main(["random-suite", "--suite-size", "0"], tmp_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["failed"] == 0


def test_missing_input_is_input_error(tmp_path, capsys):
    code = main(["tori-verify"])
    assert code == 2


def test_the_shared_parser_answers_as_a_fresh_one(monkeypatch, tmp_path,
                                                  capsys):
    """The process's one parser gives a bad command line, and -h, the
    output and exit code a parser built afresh gives, on every call; a
    good line after a bad one parses as before; and main(None) reads
    sys.argv."""
    from toruscheck import cli

    def refusal(parse, argv):
        with pytest.raises(SystemExit) as e:
            parse(argv)
        return e.value.code, tuple(capsys.readouterr())

    for argv in (["bogus"], ["random-suite", "--seed", "x"], ["-h"]):
        fresh = refusal(cli._parser().parse_args, argv)
        assert refusal(main, argv) == refusal(main, argv) == fresh
    code, out = run_main(["random-suite", "--suite-size", "0"], tmp_path)
    path = tmp_path / "argv.json"
    monkeypatch.setattr(sys, "argv", ["toruscheck", "random-suite",
                                      "--suite-size", "0",
                                      "--output", str(path)])
    assert main(None) == code == 0
    assert path.read_bytes() == out


def test_big_integer_encoding():
    # integer strings are accepted on input
    doc = dict(FIXTURE)
    doc["z"] = [[0], ["1"]]
    load_case(doc)


@pytest.mark.parametrize("name", sorted(os.listdir(BENCH_GOLDEN)))
def test_fixture_reports_match_golden(name, tmp_path):
    """Each fixture report equals its golden copy byte for byte: the JSON
    report the benchmark's copy, the text report its copy in
    tests/golden/cli."""
    command, fixture = os.path.splitext(name)[0].split(".")
    path = os.path.join(ROOT, "fixtures", fixture + ".json")
    code, out = run_main([command, "--input", path], tmp_path)
    assert code == 0
    with open(os.path.join(BENCH_GOLDEN, name), "rb") as f:
        assert out == f.read()
    code, out = run_main([command, "--input", path, "--format", "text"],
                         tmp_path, "out.txt")
    assert code == 0
    stem = os.path.splitext(name)[0]
    with open(os.path.join(GOLDEN, "cli", stem + ".txt"), "rb") as f:
        assert out == f.read()


@pytest.mark.parametrize("command", ["cohomology", "pairing", "sign",
                                     "projirr", "tori-verify"])
def test_galois_order_6_reports_match_golden(command, tmp_path):
    """A rank-2 case over the Galois group of order 6 (component s3), whose
    cochains have faces a group of order 2 never shows: each JSON report
    equals its golden copy in tests/golden/galois6."""
    path = os.path.join(ROOT, "tests", "galois6_case.json")
    code, out = run_main([command, "--input", path], tmp_path)
    assert code == 0
    with open(os.path.join(GOLDEN, "galois6", command + ".json"), "rb") as f:
        assert out == f.read()


@pytest.mark.parametrize("command", ["cohomology", "pairing", "sign",
                                     "projirr", "tori-verify"])
@pytest.mark.parametrize("name", ["a3_flip", "d4_table", "trivial"])
def test_case_file_reports_match_golden(name, command, tmp_path):
    """Case files that enter code no fixture reaches, each JSON report
    equal to its golden copy in tests/golden/<name>:

    * trivial: no component key, so the component action is
      GroupAction.trivial;
    * d4_table: a table component, D4 on Z^2 by signed permutations, with
      the Galois generator acting by -1;
    * a3_flip: the A3 root datum under the flip, whose H^2 class xi = (1)
      has a representative that normalize_cocycle must shift."""
    path = os.path.join(ROOT, "tests", name + "_case.json")
    code, out = run_main([command, "--input", path], tmp_path)
    assert code == 0
    with open(os.path.join(GOLDEN, name, command + ".json"), "rb") as f:
        assert out == f.read()


def _run_optimized(args):
    """python -O -m toruscheck.cli with args, in a fresh process."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, "-O", "-m", "toruscheck.cli"]
                          + args, capture_output=True, env=env, timeout=60)


@pytest.mark.parametrize("name", sorted(os.listdir(BENCH_GOLDEN)))
def test_fixture_reports_match_golden_under_python_O(name):
    """With asserts stripped, each fixture report is still the golden copy."""
    command, fixture = os.path.splitext(name)[0].split(".")
    proc = _run_optimized([command, "--input",
                           os.path.join(ROOT, "fixtures", fixture + ".json")])
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(BENCH_GOLDEN, name), "rb") as f:
        assert proc.stdout == f.read()


def test_noncommuting_component_exits_2_under_python_O(tmp_path):
    """A component matrix that does not commute with the Galois matrix is
    an input error with asserts stripped too."""
    doc = {"schema": 1, "rank": 2,
           "galois": {"order": 2, "matrix": [[0, 1], [1, 0]]},
           "component": {"kind": "cyclic", "order": 2,
                         "matrix": [[-1, 0], [0, 1]]},
           "z": [[0, 0], [0, 0]], "phi": ["0", "0"]}
    proc = _run_optimized(["tori-verify", "--input",
                           write_fixture(tmp_path, doc)])
    assert proc.returncode == 2
    assert proc.stderr == (b"error: component: Galois and component actions "
                           b"must commute\n")


@pytest.mark.parametrize("fmt,ext", [("json", "json"), ("text", "txt")])
def test_random_suite_report_matches_golden(fmt, ext, tmp_path):
    code, out = run_main(["random-suite", "--seed", "7", "--suite-size", "10",
                          "--format", fmt], tmp_path)
    assert code == 0
    name = "random-suite.seed7.size10." + ext
    with open(os.path.join(GOLDEN, name), "rb") as f:
        assert out == f.read()


@pytest.mark.parametrize("seed", [0, 5])
def test_random_suite_size25_matches_golden(seed, tmp_path):
    """random-suite at size 25: each report equals its golden copy, written
    before the integer presentations moved behind block_matrix and
    homology."""
    code, out = run_main(["random-suite", "--seed", str(seed),
                          "--suite-size", "25"], tmp_path)
    assert code == 0
    name = "random-suite.seed%d.size25.json" % seed
    with open(os.path.join(GOLDEN, name), "rb") as f:
        assert out == f.read()


def test_case_error_fails_the_check(monkeypatch, tmp_path):
    """CaseError is a ValueError: an inconsistent case fails the check that
    builds it, with the message as witness, instead of a traceback."""
    from toruscheck import cli
    from toruscheck.tori import CaseError

    def inconsistent(torus, z, phi):
        raise CaseError("class not fixed: stabilizer data inconsistent")

    monkeypatch.setattr(cli, "build_case", inconsistent)
    code, out = run_main(["tori-verify", "--input", write_fixture(tmp_path)],
                         tmp_path)
    assert code == 1
    doc = json.loads(out)
    assert [(c["id"], c["status"]) for c in doc["checks"]] == [
        ("tori.h_computed", "fail")]
    assert doc["checks"][0]["witness"] == {
        "error": "class not fixed: stabilizer data inconsistent"}


def test_lift_not_found_fails_the_check(monkeypatch, tmp_path):
    """LiftNotFound is a ValueError: a hyper pairing with no chain-level
    lift fails its check with the message as witness."""
    from toruscheck import weil

    monkeypatch.setattr(weil, "solve_integer", lambda A, b: None)
    code, out = run_main(["pairing", "--input", write_fixture(tmp_path)],
                         tmp_path)
    assert code == 1
    doc = json.loads(out)
    assert [(c["id"], c["status"]) for c in doc["checks"]] == [
        ("pairing.tn_bijective", "pass"), ("pairing.kottwitz_perfect", "pass"),
        ("pairing.langlands_edge", "fail")]
    assert doc["checks"][-1]["witness"] == {
        "error": "no chain-level lift found for the hyper pairing input"}
