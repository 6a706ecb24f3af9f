"""Differential tests: the dual-action matrices, the integer dual-torus
actions, the Parameter table and the two hyper-pair checks against the
solve_integer and QZ/Fraction versions in fraction_dual.py.

Each example draws a torus of rank 1-4 with a cyclic Galois action of order
1-6 (blocks of finite order conjugated by a random unimodular matrix), a
component action by -sigma, and an fT = c0 + c1 sigma that commutes with
the Galois action.  Inputs are built to satisfy each check, then perturbed,
so both accepting and rejecting inputs are compared.
"""

import os
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import fraction_dual as ref
from toruscheck import suite, weil
from toruscheck.casefile import load_case_file
from toruscheck.cohomology import Cochain
from toruscheck.groups import GroupAction
from toruscheck.lattice import IntMatrix, unimodular_inverse
from toruscheck.qz import QZ, qz_tuple
from toruscheck.tori import _is_invariant_dual
from toruscheck.weil import LocalModel, Parameter, TorusModel

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = [os.path.join(ROOT, "fixtures", name)
            for name in ("norm_one_torus.json", "s3_component.json")]

#: integer matrices of finite order, by order
BLOCKS = {
    1: [((1,),)],
    2: [((-1,),), ((0, 1), (1, 0))],
    3: [((0, -1), (1, -1)), ((0, 0, 1), (1, 0, 0), (0, 1, 0))],
    4: [((0, -1), (1, 0))],
    6: [((1, -1), (1, 0))],
}


def _order(m):
    ident = IntMatrix.identity(m.rows)
    p, k = m, 1
    while p != ident:
        p, k = p * m, k + 1
    return k


@st.composite
def tori(draw):
    n = draw(st.integers(1, 6))
    rank = draw(st.integers(1, 4))
    blocks = [b for k, bs in BLOCKS.items() if n % k == 0 for b in bs]
    g = [[0] * rank for _ in range(rank)]
    at = 0
    while at < rank:
        b = draw(st.sampled_from([b for b in blocks if len(b) <= rank - at]))
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                g[at + i][at + j] = x
        at += len(b)
    U = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for _ in range(draw(st.integers(0, 3)) if rank > 1 else 0):
        i, j = draw(st.permutations(range(rank)))[:2]
        c = draw(st.integers(-2, 2))
        U[i] = [x + c * y for x, y in zip(U[i], U[j])]
    U = IntMatrix(U)
    g = U * IntMatrix(g) * unimodular_inverse(U)
    minus_g = IntMatrix([[-x for x in row] for row in g.data])
    torus = TorusModel(LocalModel(n), GroupAction.cyclic(n, g),
                       GroupAction.cyclic(_order(minus_g), minus_g))
    c0, c1 = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    fT = IntMatrix([[c0 * int(i == j) + c1 * x for j, x in enumerate(row)]
                    for i, row in enumerate(g.data)])
    return torus, fT


def duals(rank):
    return st.lists(st.builds(QZ, st.integers(-24, 24), st.integers(1, 12)),
                    min_size=rank, max_size=rank).map(tuple)


def ints(rank, bound=5):
    return st.lists(st.integers(-bound, bound), min_size=rank,
                    max_size=rank).map(tuple)


def outcome(fn, *args):
    """The value fn returns, or the type of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def dual_norm(torus, s):
    """sum_i sigma^i.s, a Galois-invariant dual point."""
    total = torus.dual_zero()
    for i in range(torus.model.n):
        total = ref.dual_add(total, ref.dual_sigma(torus, i, s))
    return total


@settings(max_examples=150, deadline=None)
@given(tori().flatmap(lambda x: st.tuples(
    st.just(x), duals(x[0].rank), ints(x[0].rank), st.integers(0, 11))))
def test_dual_actions_match_oracle(data):
    (torus, fT), s, vec, a = data
    a %= torus.comp.group.order
    assert torus._galois_dualT == ref.dual_transposes(torus.galois)
    assert torus._comp_dualT == ref.dual_transposes(torus.comp)
    assert torus.dual_eval(s, vec) == ref.dual_eval(torus, s, vec)
    assert torus.dual_comp(a, s) == ref.dual_comp(torus, a, s)
    assert _is_invariant_dual(torus, s) == ref.is_invariant_dual(torus, s)
    inv = dual_norm(torus, s)
    assert _is_invariant_dual(torus, inv) and ref.is_invariant_dual(torus, inv)


def rationals(rank):
    return st.lists(st.one_of(st.integers(-3, 3),
                              st.fractions(-3, 3, max_denominator=6)),
                    min_size=rank, max_size=rank).map(tuple)


@settings(max_examples=150, deadline=None)
@given(tori().flatmap(lambda x: st.tuples(
    st.just(x), duals(x[0].rank), duals(x[0].rank), rationals(x[0].rank))))
def test_rational_evaluation_matches_oracle(data):
    """At rational vectors, dual_eval and langlands_character give the
    Q-linear extension of the canonical lift, as the Fraction oracle does."""
    (torus, _), s, u, vec = data
    assert torus.dual_eval(s, vec) == ref.dual_eval_rational(torus, s, vec)
    phi = Parameter(torus, ref.dual_sub(ref.dual_sigma(torus, 1, u), u))
    assert weil.langlands_character(torus, phi, vec) == \
        ref.dual_eval_rational(torus, phi.value(1), vec)


def test_dual_transposes_match_oracle_on_fixtures_and_suite():
    """The dual actions equal the column-by-column inverses, transposed, on
    both fixtures and on every template a random suite torus is built from."""
    models = [load_case_file(path)[0] for path in FIXTURES]
    models += [TorusModel(LocalModel(n), GroupAction.cyclic(n, gmat), comp)
               for n, gmat, comp in suite._templates()]
    for torus in models:
        assert torus._galois_dualT == ref.dual_transposes(torus.galois)
        assert torus._comp_dualT == ref.dual_transposes(torus.comp)


@settings(max_examples=150, deadline=None)
@given(tori().flatmap(lambda x: st.tuples(
    st.just(x), duals(x[0].rank), duals(x[0].rank))))
def test_parameter_table_matches_oracle(data):
    (torus, _), psi, u = data
    # an arbitrary psi, usually not a cocycle
    table = outcome(ref.parameter_table, torus, psi)
    got = outcome(lambda: Parameter(torus, psi).table)
    assert got == table
    # the coboundary of u: always a cocycle
    psi = ref.dual_sub(ref.dual_sigma(torus, 1, u), u)
    phi = Parameter(torus, psi)
    assert phi.table == ref.parameter_table(torus, psi)
    assert all(phi.table[i] == qz_tuple(phi.nums[i], phi.den)
               for i in range(torus.model.n))


@settings(max_examples=150, deadline=None)
@given(tori().flatmap(lambda x: st.tuples(
    st.just(x), duals(x[0].rank), duals(x[0].rank), duals(x[0].rank),
    st.integers(0, 2))))
def test_validate_hyper_pair_dual_matches_oracle(data):
    (torus, fT), u, t, e, scale = data
    # d = the coboundary of u and s = u o fT + (an invariant point) lie on
    # the dual complex; s + scale * e usually does not
    psi = ref.dual_sub(ref.dual_sigma(torus, 1, u), u)
    d = Parameter(torus, psi)
    table = ref.parameter_table(torus, psi)
    s = ref.dual_add(ref.dual_compose(torus, u, fT), dual_norm(torus, t))
    assert weil.validate_hyper_pair_dual(torus, fT, d, s) is None
    assert ref.validate_hyper_pair_dual(torus, fT, table, s) is None
    s = ref.dual_add(s, tuple(q * scale for q in e))
    assert (outcome(weil.validate_hyper_pair_dual, torus, fT, d, s)
            == outcome(ref.validate_hyper_pair_dual, torus, fT, table, s))


def _check_T(torus, fT, u, v):
    weil.check_pair_T_cocycle(u)
    return weil.check_pair_T_relation(torus, fT, (u, v))


@settings(max_examples=150, deadline=None)
@given(tori().flatmap(lambda x: st.tuples(
    st.just(x), ints(x[0].rank), ints(x[0].rank), st.integers(1, 6),
    st.lists(st.fractions(-2, 2, max_denominator=6), min_size=x[0].rank,
             max_size=x[0].rank),
    st.integers(0, 5), st.integers(-2, 2))))
def test_check_pair_T_matches_oracle(data):
    (torus, fT), x, y, k, e, where, bump = data
    r, n = torus.rank, torus.model.n
    # (d x, fT x + N(y)/k) lies on the complex
    u = Cochain(torus.gmodule(), 0, x).d()
    v = tuple(Fraction(a) + Fraction(b, k) for a, b in
              zip(fT.apply(x), torus.norm_matrix().apply(y)))
    assert _check_T(torus, fT, u, v) is None
    assert ref.check_pair_T(torus, fT, u, v) is None
    # a perturbed v, and a u changed at one entry (then usually not a
    # cocycle)
    v2 = tuple(a + b for a, b in zip(v, e))
    assert (outcome(_check_T, torus, fT, u, v2)
            == outcome(ref.check_pair_T, torus, fT, u, v2))
    vec = list(u.vec)
    vec[(where % n) * r + where % r] += bump
    u2 = Cochain(torus.gmodule(), 1, vec)
    assert (outcome(_check_T, torus, fT, u2, v)
            == outcome(ref.check_pair_T, torus, fT, u2, v))

