"""twisted_sign, sign_induction and sign_product pinned on every class of
H^2 of a fixed family of twist data: warm on every class, and with the
rootdata and cohomology memos emptied before each call on every class that
gets signs and the first few that are rejected.

The family: A1, A2, A3 and D4 with a trivial and with a = the diagram
flip, the E6 flip (all with n = 2 and Galois acting trivially), each of
these times the A1 inner form, and each of those induced with 2 and 3
blocks.  The pinned values in tests/golden/signs.json were recorded before
the per-datum sign presentation and the face-table coboundary existed; see
`outcome` for how an entry spells a call's result.
"""

import json
import os

from toruscheck import cohomology, rootdata
from toruscheck.cohomology import tate_group
from toruscheck.lattice import Memo
from toruscheck.rootdata import BasedRootDatum, TwistData, diagram_flip, \
    sign_induction, sign_product, twisted_sign

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "tests", "golden", "signs.json")) as f:
    PINS = json.load(f)
MEMOS = [(rootdata, "_twist_cache"), (cohomology, "_rows_cache"),
         (cohomology, "_d_matrix_cache"), (cohomology, "_tate_cache")]
#: The cold pass makes every call that returns signs but only the first
#: few calls per datum that reject the class: each cold call rebuilds the
#: datum's presentation, and all 1,575 rejections would take most of a
#: minute.
COLD_REJECTIONS = 4
REJECTED = "xi admits no a-fixed representative; rejected"


def base_data():
    """(name, twist) for the data with n = 2 and trivial Galois action; a
    trailing ~ marks a = the diagram flip."""
    out = []
    for label in ("A1", "A2", "A3", "D4", "E6"):
        d = BasedRootDatum.from_label(label)
        ident = tuple(range(d.rank))
        if label != "E6":
            out.append((label, TwistData(d, 2, ident, ident)))
        out.append((label + "~", TwistData(d, 2, ident, diagram_flip(label))))
    return out


def all_data():
    inner = TwistData(BasedRootDatum.from_label("A1"), 2, (0,), (0,))
    data = []
    for name, tw in base_data():
        data += [(name, tw), (name + "xA1", tw.product(inner))]
    return data + [("%s^%d" % (name, k), tw.induced(k))
                   for name, tw in data for k in (2, 3)]


def outcome(fn, *args):
    """One + or - per sign the call returns, r when it rejects the class
    with REJECTED, or the message of any other ValueError."""
    try:
        value = fn(*args)
    except ValueError as e:
        return "r" if str(e) == REJECTED else str(e)
    signs = value if isinstance(value, tuple) else (value,)
    return "".join({1: "+", -1: "-"}[e] for e in signs)


def sign_cases():
    """(pin path, function, args) for every pinned call."""
    inner = TwistData(BasedRootDatum.from_label("A1"), 2, (0,), (0,))
    cases = []
    for name, tw in all_data():
        for i, c in enumerate(tate_group(tw.xi_module(), 2).elements()):
            cases.append((("twisted_sign", name, i), twisted_sign, (tw, c)))
    for name, tw in base_data():
        for i, c in enumerate(tate_group(tw.xi_module(), 2).elements()):
            for k in (2, 3):
                cases.append((("sign_induction", name, str(k), i),
                              sign_induction, (tw, c, k)))
            for j, c2 in enumerate([(0,), (1,)]):
                cases.append((("sign_product", name, 2 * i + j),
                              sign_product, (tw, c, inner, c2)))
    return cases


def pinned(path):
    value = PINS
    for step in path:
        value = value[step]
    return value


def test_pins_cover_the_family():
    names = [name for name, _ in all_data()]
    assert sorted(PINS["twisted_sign"]) == sorted(names)
    for name, tw in all_data():
        H2 = tate_group(tw.xi_module(), 2)
        assert list(H2.group.torsion) == PINS["H2"][name]
    assert sum(map(len, PINS["twisted_sign"].values())) == 1779


def test_signs_match_pins_cold(monkeypatch):
    rejections = {}
    for path, fn, args in sign_cases():
        if pinned(path) == "r":
            rejections[path[:-1]] = seen = rejections.get(path[:-1], 0) + 1
            if seen > COLD_REJECTIONS:
                continue
        for module, name in MEMOS:
            monkeypatch.setattr(module, name, Memo())
        assert outcome(fn, *args) == pinned(path), path


def test_signs_match_pins_warm():
    for _ in range(2):
        for path, fn, args in sign_cases():
            assert outcome(fn, *args) == pinned(path), path
