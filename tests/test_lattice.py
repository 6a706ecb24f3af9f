import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import toruscheck
from toruscheck.lattice import (
    IntMatrix,
    smith_normal_form,
    solve_integer,
    kernel_basis,
    hnf_image_basis,
    unimodular_inverse,
    FGAbelian,
    Subquotient,
)


def diag_entries(D):
    return [D.data[i][i] for i in range(min(D.rows, D.cols))]


def test_snf_identity():
    I = IntMatrix.identity(2)
    U, D, V = smith_normal_form(I)
    assert D == I
    assert U * I * V == D


def test_snf_spec_example():
    # oracle: row/column reduce [[2,4],[6,8]] by hand -> diag(2, 4)
    M = IntMatrix([[2, 4], [6, 8]])
    U, D, V = smith_normal_form(M)
    assert diag_entries(D) == [2, 4]
    assert U * M * V == D
    assert U.is_unimodular() and V.is_unimodular()


def test_snf_zero():
    M = IntMatrix.zero(2, 3)
    U, D, V = smith_normal_form(M)
    assert all(x == 0 for row in D.data for x in row)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_snf_random(r, c, data):
    entries = [[data.draw(st.integers(-30, 30)) for _ in range(c)] for _ in range(r)]
    M = IntMatrix(entries)
    U, D, V = smith_normal_form(M)
    assert U * M * V == D
    assert abs(U.det()) == 1
    assert abs(V.det()) == 1
    ds = diag_entries(D)
    for i in range(len(ds) - 1):
        if ds[i + 1] != 0:
            assert ds[i] != 0 and ds[i + 1] % ds[i] == 0
        # off-diagonal zero
    for i in range(D.rows):
        for j in range(D.cols):
            if i != j:
                assert D.data[i][j] == 0


def test_solve_identity():
    A = IntMatrix.identity(2)
    assert solve_integer(A, (3, -1)) == (3, -1)


def test_solve_parity_obstruction():
    assert solve_integer(IntMatrix([[2]]), (1,)) is None


def test_solve_spec_example():
    A = IntMatrix([[2, 4], [6, 8]])
    x = solve_integer(A, (2, 6))
    assert x is not None
    assert A.apply(x) == (2, 6)
    # direct substitution oracle: (1, 0) works; canonical answer must too
    assert A.apply((1, 0)) == (2, 6)


def test_apply_rejects_a_vector_of_the_wrong_length():
    A = IntMatrix([[2, 4], [6, 8]])
    for vec in ((1,), (1, 0, 0), ()):
        with pytest.raises(ValueError, match="for 2 columns"):
            A.apply(vec)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_solve_roundtrip_random(r, c, data):
    entries = [[data.draw(st.integers(-9, 9)) for _ in range(c)] for _ in range(r)]
    A = IntMatrix(entries)
    x0 = tuple(data.draw(st.integers(-5, 5)) for _ in range(c))
    b = A.apply(x0)
    x = solve_integer(A, b)
    assert x is not None
    assert A.apply(x) == b


def test_solve_unsolvable_has_snf_obstruction():
    # when solve says none, the SNF-transformed system must show a genuine
    # obstruction: some residue or a nonzero target past the rank
    random.seed(7)
    found = 0
    while found < 10:
        A = IntMatrix([[random.randint(-6, 6) for _ in range(3)] for _ in range(3)])
        b = tuple(random.randint(-9, 9) for _ in range(3))
        if solve_integer(A, b) is None:
            U, D, V = smith_normal_form(A)
            c = U.apply(b)
            bad = False
            for i in range(3):
                d = D.data[i][i]
                if d == 0:
                    bad = bad or c[i] != 0
                else:
                    bad = bad or c[i] % d != 0
            assert bad
            found += 1


def test_kernel_cokernel_examples():
    # A = [[2]] on Z: kernel 0, cokernel Z/2
    assert kernel_basis(IntMatrix([[2]])) == []
    G = FGAbelian(1, IntMatrix([[2]]))
    assert G.torsion == (2,) and G.free_rank == 0

    # A = 0 on Z^2: kernel Z^2, cokernel Z^2
    assert len(kernel_basis(IntMatrix.zero(2, 2))) == 2
    G = FGAbelian(2, IntMatrix.zero(2, 2))
    assert G.free_rank == 2 and G.torsion == ()

    # A = [[1,1],[1,1]]: SNF diag(1,0), kernel Z, cokernel Z
    A = IntMatrix([[1, 1], [1, 1]])
    assert len(kernel_basis(A)) == 1
    G = FGAbelian(2, A)
    assert G.free_rank == 1 and G.torsion == ()


def test_fgabelian_normal_forms():
    G = FGAbelian(2, IntMatrix([[2, 0], [0, 3]]))
    assert G.order == 6
    random.seed(1)
    for _ in range(50):
        x = tuple(random.randint(-9, 9) for _ in range(2))
        y = tuple(random.randint(-9, 9) for _ in range(2))
        s = tuple(a + b for a, b in zip(x, y))
        lifted = tuple(a + b for a, b in zip(G.lift(G.nf(x)), G.lift(G.nf(y))))
        assert G.nf(s) == G.nf(lifted)


def test_fgabelian_lift_roundtrip():
    G = FGAbelian(3, IntMatrix([[2, 0], [0, 4], [0, 0]]))
    for coords in G_coords(G):
        assert G.nf(G.lift(coords)) == coords
    # random relation matrices on 1-4 generators, random normal forms
    rng = random.Random(3)
    for _ in range(60):
        n, k = rng.randint(1, 4), rng.randint(0, 4)
        G = FGAbelian(n, IntMatrix([[rng.randint(-6, 6) for _ in range(k)]
                                    for _ in range(n)]))
        for _ in range(10):
            coords = tuple([rng.randrange(d) for d in G.torsion]
                           + [rng.randint(-9, 9)] * G.free_rank)
            assert G.nf(G.lift(coords)) == coords


def G_coords(G):
    ranges = [range(d) for d in G.torsion] + [range(-2, 3)] * G.free_rank
    return itertools.product(*ranges)


@st.composite
def unimodular_matrices(draw):
    """A product of 0-12 elementary matrices of size 1-6: row additions,
    row swaps and sign changes."""
    n = draw(st.integers(1, 6))
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 12))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(st.integers(-3, 3))
        if i == j:
            rows[i] = [-x for x in rows[i]]
        elif c == 0:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return IntMatrix(rows)


@settings(max_examples=100, deadline=None)
@given(unimodular_matrices())
def test_unimodular_inverse_random(M):
    inv = unimodular_inverse(M)
    assert inv * M == IntMatrix.identity(M.rows)
    assert M * inv == IntMatrix.identity(M.rows)


@pytest.mark.parametrize("rows", [
    [[0]], [[2]], [[1, 1], [1, 1]], [[1, 0], [0, 2]], [[0] * 3] * 3,
    [[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]]])
def test_unimodular_inverse_rejects_other_matrices(rows):
    with pytest.raises(ValueError, match="not unimodular"):
        unimodular_inverse(IntMatrix(rows))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_hnf_image_basis_spans_the_column_lattice(r, c, data):
    entries = [[data.draw(st.integers(-9, 9)) for _ in range(c)]
               for _ in range(r)]
    A = IntMatrix(entries)
    basis = hnf_image_basis(A)
    B = IntMatrix.from_columns(basis, r)
    # each lattice holds the other's generators, and the basis has rank
    # many vectors, so it is a basis of the column lattice of A
    assert all(solve_integer(B, col) is not None for col in A.columns())
    assert all(solve_integer(A, v) is not None for v in basis)
    _, D, _ = smith_normal_form(A)
    assert len(basis) == sum(1 for d in diag_entries(D) if d)


def test_subquotient_basic():
    # Z^2 / <2e1, 2e2> restricted to L = <e1, e2>, boundaries <2e1, 2e2>
    sq = Subquotient(2, [(1, 0), (0, 1)], [(2, 0), (0, 2)])
    assert sq.group.torsion == (2, 2)
    c = sq.classify((1, 1))
    assert c is not None
    rep = sq.representative(c)
    assert sq.classify(rep) == c


#: Under python -O: each input check of lattice on an input that fails it.
OPTIMIZED_CHECKS = """
import sys
from toruscheck.lattice import (FGAbelian, IntMatrix, Subquotient,
                                solve_integer, unimodular_inverse)

if __debug__:
    sys.exit("asserts are still enabled")


def attempt(label, make):
    try:
        make()
        print(label, "accepted")
    except ValueError as e:
        print(label, "rejected:", e)


A = IntMatrix([[2, 4], [6, 8]])
attempt("ragged", lambda: IntMatrix([[1, 2], [3]]))
attempt("no columns", lambda: IntMatrix.from_columns([]))
attempt("sum", lambda: A + IntMatrix.identity(3))
attempt("difference", lambda: A - IntMatrix([[1, 2]]))
attempt("product", lambda: A * IntMatrix([[1, 2]]))
attempt("solve", lambda: solve_integer(A, (1, 2, 3)))
attempt("inverse", lambda: unimodular_inverse(A))
attempt("relations", lambda: FGAbelian(3, A))
G = FGAbelian(2, IntMatrix([[2], [0]]))
attempt("lift", lambda: G.lift((1,)))
attempt("elements", lambda: G.elements())
attempt("boundary", lambda: Subquotient(2, [(2, 0), (0, 1)], [(1, 0)]))
"""


def test_lattice_checks_run_under_python_O():
    src = os.path.dirname(os.path.dirname(os.path.abspath(toruscheck.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_CHECKS],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "ragged rejected: ragged rows",
        "no columns rejected: need rows for an empty column list",
        "sum rejected: matrices of different shapes",
        "difference rejected: matrices of different shapes",
        "product rejected: 2 columns times 1 rows",
        "solve rejected: a right-hand side of length 3 for 2 rows",
        "inverse rejected: matrix is not unimodular",
        "relations rejected: 2 relation rows for 3 generators",
        "lift rejected: 1 coordinates for 2 invariants",
        "elements rejected: cannot list the elements of an infinite group",
        "boundary rejected: boundary vector outside the cycle lattice",
    ]
