import os
import subprocess
import sys
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import toruscheck
from cyc_verify import conj, scaled
from toruscheck import qz
from toruscheck.qz import QZ, Cyc, cyclotomic_poly, cyc_div


def test_qz_basics():
    assert (QZ(1, 2) + QZ(1, 2)).is_zero()
    assert QZ(1, 3).order == 3
    assert 5 * QZ(1, 4) == QZ(1, 4)
    assert -QZ(1, 3) == QZ(2, 3)
    assert QZ(7, 3) == QZ(1, 3)


def test_cyclotomic_polys():
    assert list(cyclotomic_poly(1)) == [-1, 1]
    assert list(cyclotomic_poly(2)) == [1, 1]
    assert list(cyclotomic_poly(4)) == [1, 0, 1]
    assert list(cyclotomic_poly(6)) == [1, -1, 1]
    assert list(cyclotomic_poly(12)) == [1, 0, -1, 0, 1]


def test_cyc_root_sums():
    # 1 + zeta_3 + zeta_3^2 = 0
    s = sum((Cyc.root(QZ(k, 3)) for k in range(3)), Cyc.zero())
    assert s.is_zero()
    # zeta_3 + zeta_3^2 = -1
    assert Cyc.root(QZ(1, 3)) + Cyc.root(QZ(2, 3)) == Cyc.integer(-1)
    # cross-level equality: e(1/2) = -1
    assert Cyc.root(QZ(1, 2)) == Cyc.integer(-1)
    # e(1/6) - e(1/3) - ... relations at level 6 hold exactly
    assert Cyc.root(QZ(1, 6)) == Cyc.root(QZ(1, 3)) + Cyc.integer(1)
    # the same exponent pairs at two levels are two values
    assert Cyc.root(QZ(1, 2)) != Cyc.root(QZ(1, 3))
    assert Cyc.root(QZ(1, 4), Fraction(1, 2)) != Cyc.root(QZ(1, 3), Fraction(1, 2))


def test_cyc_ring_ops():
    a = Cyc.root(QZ(1, 4))  # i
    assert a * a == Cyc.integer(-1)
    assert conj(a) * a == Cyc.integer(1)
    assert (a + conj(a)).is_zero()
    b = scaled(Cyc.integer(4), Fraction(1, 2))
    assert b == Cyc.integer(2)


qz_values = st.builds(QZ, st.integers(-20, 20), st.integers(1, 12))
cyc_values = st.lists(
    st.tuples(qz_values, st.integers(-4, 4)), min_size=0, max_size=4,
).map(lambda ts: sum((Cyc.root(q, c) for q, c in ts), Cyc.zero()))


@settings(max_examples=80, deadline=None)
@given(qz_values, qz_values, qz_values)
def test_qz_group_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a + (-a)).is_zero()
    assert a.order * a == QZ(0)


@settings(max_examples=60, deadline=None)
@given(cyc_values, cyc_values, cyc_values)
def test_cyc_ring_laws(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert (x + x * -1).is_zero()
    assert conj(conj(x)) == x


@settings(max_examples=40, deadline=None)
@given(cyc_values, cyc_values)
def test_cyc_division_inverts_multiplication(x, y):
    if y.is_zero():
        return
    assert cyc_div(x * y, y) == x


def test_cyc_reduced_key_at_common_level():
    x = Cyc.root(QZ(1, 3)) + Cyc.root(QZ(2, 3))
    y = Cyc.integer(-1)
    assert x == y
    assert x.reduced_key(6) == y.reduced_key(6)


OPTIMIZED_CHECKS = """
import sys
from fractions import Fraction
from toruscheck import qz
from toruscheck.qz import QZ, Cyc, cyc_div, _polydiv_exact

if __debug__:
    sys.exit("asserts are still enabled")


def raises(exc, fn):
    try:
        fn()
    except exc:
        print("raised", exc.__name__)
    else:
        print("silent", exc.__name__)


raises(TypeError, lambda: QZ(1, 2) * Fraction(1, 2))
raises(TypeError, lambda: QZ(1, 2) * 1.5)
raises(ZeroDivisionError, lambda: QZ(1, 0))
raises(ZeroDivisionError, lambda: cyc_div(Cyc.integer(1), Cyc.zero()))
vanishing = Cyc.integer(1) + Cyc.root(QZ(1, 3)) + Cyc.root(QZ(2, 3))
raises(ZeroDivisionError, lambda: cyc_div(Cyc.integer(1), vanishing))
raises(ArithmeticError, lambda: _polydiv_exact([1, 0, 1], [1, 1]))
raises(ArithmeticError, lambda: _polydiv_exact([0, 1], [0, 2]))
qz.Cyc.as_rational = lambda self: None
raises(ArithmeticError, lambda: cyc_div(Cyc.integer(1), Cyc.integer(2)))
"""


def test_checks_raise_under_python_O():
    """The checks in qz raise exceptions, not assertions, so they still
    run when Python strips asserts."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(toruscheck.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_CHECKS],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 8 and all(l.startswith("raised") for l in lines), \
        proc.stdout


def _recurrence_rows(n):
    """x^k mod Phi_n for every k < n by x^(k+1) = x x^k, as dicts."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    rows, row = [], {0: 1}
    for _ in range(n):
        rows.append(row)
        nxt = {}
        for i, a in row.items():
            if i + 1 < deg:
                nxt[i + 1] = nxt.get(i + 1, 0) + a
            else:
                for j, c in enumerate(phi[:-1]):
                    nxt[j] = nxt.get(j, 0) - a * c
        row = {i: a for i, a in nxt.items() if a}
    return rows


def test_power_residue_rows_match_the_recurrence(empty_memos):
    """Each residue row, reduced through the odd squarefree level, is the
    row the recurrence at level n gives; a level's rows are built at its
    first residue call, as one memo entry read once per call, from the
    rows of its odd squarefree level, and stay the same object while
    their entry lives."""
    for n in list(range(1, 121)) + [360, 1155, 2310]:
        rows = _recurrence_rows(n)
        for k in range(n):
            want = [0] * (len(cyclotomic_poly(n)) - 1)
            for i, a in rows[k].items():
                want[i] = a
            assert qz.residue([(k, 1)], n) == want, (n, k)
    memo, odd = qz._level_rows.memo, qz._odd_level_rows.memo
    empty_memos(memo, odd)
    assert qz.residue([(13859, 2), (7, 0)], 13860)
    # 13860 = 6 * 2310 with 2310 = 2 * 1155: one row per power of x^6
    # below 2 * 1155
    assert list(memo) == [(13860,)] and list(odd) == [(1155,)]
    level = memo[13860,]
    assert level[:2] == (6, 6 * 480) and len(level[2]) == 2310
    qz.residue([(k, 1) for k in range(0, 13860, 7)], 13860)
    assert list(memo) == [(13860,)]
    assert qz._level_rows(13860) is level
