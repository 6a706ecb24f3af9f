"""Declarative case files: one JSON document per case, schema-versioned.

Integers may be written as strings (required beyond 53 bits); values of
Q/Z are "p/q" strings.  Validation errors carry the offending field."""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .lattice import IntMatrix
from .qz import QZ, Cyc
from .groups import FiniteGroup, GroupAction
from .cohomology import Cochain, tate_group, tuples
from .weil import LocalModel, TorusModel, Parameter
from .rootdata import BasedRootDatum, TwistData
from .suite import s3_action

SCHEMA_VERSION = 1

#: The largest Galois order a case file may give (`galois.order` and
#: `root_datum.n`): the cost of the Tate groups of the cyclic Galois group
#: grows steeply with its order.
MAX_GALOIS_ORDER = 6

#: The largest rank a Cartan `root_datum.label` may name, and the most rows
#: a raw `root_datum.cartan` may have: the datum is built when the file
#: loads, at a cost that grows about as the cube of the rank.
MAX_LABEL_RANK = 8

#: The top-level fields of a case file, and those of its root_datum block;
#: any other key is an input error.
FIELDS = ("schema", "rank", "galois", "component", "z", "phi", "root_datum",
          "seed")
ROOT_DATUM_FIELDS = ("label", "cartan", "n", "galois_perm", "a_perm", "xi")


class CaseFileError(ValueError):
    def __init__(self, field, message):
        self.field = field
        super().__init__("%s: %s" % (field, message))


def _as_int(v, field):
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise CaseFileError(field, "expected an integer (or integer string)")
    try:
        return int(v)
    except ValueError:
        raise CaseFileError(field, "bad integer %r" % (v,))


def _as_int_list(v, field):
    if not isinstance(v, list):
        raise CaseFileError(field, "expected a list of integers")
    return [_as_int(x, field) for x in v]


def _as_matrix(v, field, size=None):
    if not isinstance(v, list) or not all(isinstance(r, list) for r in v):
        raise CaseFileError(field, "expected a matrix (list of rows)")
    if len({len(r) for r in v}) > 1:
        raise CaseFileError(field, "rows of different lengths")
    rows = [[_as_int(x, field) for x in r] for r in v]
    m = IntMatrix(rows)
    if size is not None and (m.rows, m.cols) != (size, size):
        raise CaseFileError(field, "expected a %dx%d matrix" % (size, size))
    return m


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(v):
    """The Fraction of an int or an integer or "p/q" string; else ValueError.
    Fraction also reads exponents, as in "1e-1000000000", in unbounded time."""
    if isinstance(v, str) and _RATIONAL.fullmatch(v) \
            or isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    raise ValueError("expected an integer or a 'p/q' string, not %r" % (v,))


def _as_qz(v, field):
    try:
        return QZ(parse_rational(v))
    except (ValueError, ZeroDivisionError):
        raise CaseFileError(field, "bad rational %r: expected an integer or "
                            "a 'p/q' string" % (v,))


def _component_action(spec, rank):
    if not isinstance(spec, dict):
        raise CaseFileError("component", "expected an object")
    kind = spec.get("kind")
    if kind == "cyclic":
        order = _as_int(spec.get("order"), "component.order")
        m = _as_matrix(spec.get("matrix"), "component.matrix", rank)
        try:
            return GroupAction.cyclic(order, m)
        except ValueError as e:
            raise CaseFileError("component.matrix", str(e))
    if kind == "s3":
        extra = rank - 2
        if extra < 0:
            raise CaseFileError("component", "s3 needs rank >= 2")
        return s3_action(extra_rank=extra)
    if kind == "trivial":
        return GroupAction.trivial(FiniteGroup.cyclic(1), rank)
    if kind == "table":
        table = spec.get("table")
        if not isinstance(table, list):
            raise CaseFileError("component.table", "expected a table")
        try:
            G = FiniteGroup([[_as_int(x, "component.table") for x in row]
                             for row in table])
        except ValueError as e:
            raise CaseFileError("component.table", str(e))
        mats = spec.get("matrices")
        if not isinstance(mats, list) or len(mats) != G.order:
            raise CaseFileError("component.matrices",
                                "need one matrix per element")
        try:
            return GroupAction(G, [_as_matrix(m, "component.matrices", rank)
                                   for m in mats])
        except ValueError as e:
            raise CaseFileError("component.matrices", str(e))
    raise CaseFileError("component.kind", "unknown kind %r" % (kind,))


def load_root_datum(spec):
    """(TwistData, xi) from a root_datum block: the datum by Cartan `label`
    (default A1) or raw `cartan` matrix, Galois order `n` (default 2), the
    permutations `galois_perm` and `a_perm` (default identity), and `xi`,
    the class's coordinates in H^2 (default zero), each in range of its
    invariant factor."""
    if not isinstance(spec, dict):
        raise CaseFileError("root_datum", "expected an object")
    for key in spec:
        if key not in ROOT_DATUM_FIELDS:
            raise CaseFileError("root_datum.%s" % key, "unknown field")
    label = spec.get("label", "custom" if "cartan" in spec else "A1")
    if not isinstance(label, str):
        raise CaseFileError("root_datum.label", "expected a string")
    rank = label[1:]
    if rank.isdecimal() and (len(rank) > 3 or int(rank) > MAX_LABEL_RANK):
        raise CaseFileError("root_datum.label", "rank %s exceeds the bound %d"
                            % (rank, MAX_LABEL_RANK))
    if "cartan" in spec:
        cartan = _as_matrix(spec["cartan"], "root_datum.cartan")
        if cartan.rows > MAX_LABEL_RANK:
            raise CaseFileError("root_datum.cartan", "rank %d exceeds the "
                                "bound %d" % (cartan.rows, MAX_LABEL_RANK))
        if cartan.rows != cartan.cols or cartan.rows == 0 \
                or cartan.det() == 0:
            raise CaseFileError("root_datum.cartan",
                                "expected a nonsingular square matrix")
        datum = BasedRootDatum(cartan, label)
    else:
        try:
            datum = BasedRootDatum.from_label(label)
        except ValueError as e:
            raise CaseFileError("root_datum.label", str(e))
    identity = list(range(datum.rank))
    n = _as_int(spec.get("n", 2), "root_datum.n")
    if n > MAX_GALOIS_ORDER:
        raise CaseFileError("root_datum.n", "Galois order %d exceeds the "
                            "bound %d" % (n, MAX_GALOIS_ORDER))
    gp = _as_int_list(spec.get("galois_perm", identity),
                      "root_datum.galois_perm")
    ap = _as_int_list(spec.get("a_perm", identity), "root_datum.a_perm")
    try:
        twist = TwistData(datum, n, gp, ap)
    except ValueError as e:
        raise CaseFileError("root_datum", str(e))
    # H^2 of the cyclic Galois group has the invariant factors of Tate
    # H^0 (periodicity), which costs far less to build
    factors = tate_group(twist.xi_module(), 0).group.torsion
    xi = _as_int_list(spec.get("xi", [0] * len(factors)), "root_datum.xi")
    if len(xi) != len(factors) or not all(
            0 <= x < d for x, d in zip(xi, factors)):
        raise CaseFileError("root_datum.xi", "expected %d coordinates, "
                            "each below its factor of %r" % (len(factors),
                                                             list(factors)))
    return twist, tuple(xi)


def load_case(doc):
    """Build (torus, z, phi, extras) from a parsed JSON document; extras
    holds the seed and load_root_datum's (TwistData, xi), when given."""
    if not isinstance(doc, dict):
        raise CaseFileError("case", "expected a JSON object at the top level")
    for key in doc:
        if key not in FIELDS:
            raise CaseFileError(key, "unknown field")
    if doc.get("schema") != SCHEMA_VERSION:
        raise CaseFileError("schema", "unsupported schema %r" % doc.get("schema"))
    rank = _as_int(doc.get("rank"), "rank")
    gal = doc.get("galois")
    if not isinstance(gal, dict):
        raise CaseFileError("galois", "expected an object")
    n = _as_int(gal.get("order"), "galois.order")
    if not 1 <= n <= MAX_GALOIS_ORDER:
        raise CaseFileError("galois.order", "expected an order from 1 to %d, "
                            "not %d" % (MAX_GALOIS_ORDER, n))
    gmat = _as_matrix(gal.get("matrix"), "galois.matrix", rank)
    try:
        galois = GroupAction.cyclic(n, gmat)
    except ValueError as e:
        raise CaseFileError("galois.matrix", str(e))
    comp = _component_action(doc.get("component") or {"kind": "trivial"}, rank)
    try:
        torus = TorusModel(LocalModel(n), galois, comp)
    except ValueError as e:
        raise CaseFileError("component", str(e))

    ztab = doc.get("z")
    if not isinstance(ztab, list) or len(ztab) != n:
        raise CaseFileError("z", "expected %d rows (one per sigma power)" % n)
    vec = []
    for i, row in enumerate(ztab):
        if not isinstance(row, list) or len(row) != rank:
            raise CaseFileError("z[%d]" % i, "expected %d entries" % rank)
        vec.extend(_as_int(x, "z[%d]" % i) for x in row)
    gm = torus.gmodule()
    z = Cochain(gm, 1, vec)
    if not z.is_cocycle():
        j = next(j for j, x in enumerate(z.d().vec) if x)
        key = tuples(gm.group, 2)[j // rank]
        raise CaseFileError("z", "cocycle identity fails at %r" % (key,))

    phirow = doc.get("phi")
    if not isinstance(phirow, list) or len(phirow) != rank:
        raise CaseFileError("phi", "expected %d entries" % rank)
    psi = tuple(_as_qz(x, "phi") for x in phirow)
    try:
        phi = Parameter(torus, psi)
    except ValueError as e:
        raise CaseFileError("phi", str(e))

    extras = {}
    if "seed" in doc:
        extras["seed"] = _as_int(doc["seed"], "seed")
    if "root_datum" in doc:
        extras["root_datum"] = load_root_datum(doc["root_datum"])
    return torus, z, phi, extras


def load_case_file(path):
    """load_case of the file's JSON; text that is not UTF-8 or JSON, or past
    the nesting or integer digit limits, is an input error of field json."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise CaseFileError("json", "line %d: %s" % (e.lineno, e.msg))
        except (ValueError, RecursionError) as e:
            raise CaseFileError("json", str(e))
    return load_case(doc)


def encode_qz(q):
    return "%d/%d" % (q.num, q.den)


def encode_cyc(c):
    """The terms of c as ["j/d", "a/b"] pairs for (a / b) e(j/d), each
    fraction in lowest terms, sorted by the root's (d, j)."""
    return [["%d/%d" % (j, d), "%d/%d" % (a, b)]
            for d, j, a, b in c.reduced_terms()]


def decode_cyc(terms):
    """Inverse of encode_cyc."""
    return Cyc({QZ(parse_rational(q)): parse_rational(c) for q, c in terms})
