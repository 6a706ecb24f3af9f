import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import toruscheck
from lattice_reference import ReferenceSubquotient, solve_dense
from toruscheck import checks, cohomology, suite, weil
from toruscheck.casefile import load_case_file
from toruscheck.cohomology import tate_group
from toruscheck.groups import GroupAction
from toruscheck.lattice import (
    IntMatrix,
    smith_normal_form,
    solve_integer,
    kernel_basis,
    unimodular_inverse,
    FGAbelian,
    Subquotient,
    block_diagonal,
    block_matrix,
)
from toruscheck.weil import LocalModel, TorusModel


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


def _unimodular(rng, n):
    """(M, M^-1) for a random unimodular n x n matrix M: a product of
    elementary row operations and sign flips, each undone on M^-1 by the
    inverse column operation."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in m]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            q = rng.randint(-2, 2)
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]
            for row in inv:
                row[j] -= q * row[i]
        if rng.random() < 0.3:
            m[i] = [-x for x in m[i]]
            for row in inv:
                row[i] = -row[i]
    return IntMatrix(m), IntMatrix(inv)


def _oracle_systems(rng):
    """(kind, A, L, diag) over seeded random matrices: tall, wide, square,
    rank deficient and zero, each A = L S R with L and R unimodular and S
    the rows x cols matrix with diag, entries drawn from 1, 2, 3 and 6,
    down its diagonal and zeros elsewhere."""
    shapes = [("tall", 6, 3, 3), ("wide", 3, 6, 3), ("square", 4, 4, 4),
              ("rank deficient", 5, 5, 2), ("rank deficient", 4, 7, 1),
              ("zero", 3, 4, 0)]
    for kind, rows, cols, rank in shapes:
        for _ in range(6):
            diag = [rng.choice((1, 2, 3, 6)) for _ in range(rank)]
            S = IntMatrix([[diag[i] if i == j and i < rank else 0
                            for j in range(cols)] for i in range(rows)])
            L, Linv = _unimodular(rng, rows)
            assert L * Linv == IntMatrix.identity(rows)
            yield kind, L * S * _unimodular(rng, cols)[0], L, diag


def _right_hand_sides(rng, L, diag):
    """(kind, b) with b = L c: A x = b is S y = c with y = R x, solvable
    exactly when s_i | c_i below the rank and c_i = 0 past it.  The kinds
    are solvable, failing on a residue (where some s_i > 1), nonzero past
    the rank (where the rank is below the row count), and one drawn at
    random."""
    rank = len(diag)
    solvable = [s * rng.randint(-4, 4) for s in diag] + [0] * (L.rows - rank)
    out = [("solvable", solvable)]
    for i, s in enumerate(diag):
        if s > 1:
            c = list(solvable)
            c[i] += rng.randint(1, s - 1)
            out.append(("residue", c))
            break
    if rank < L.rows:
        c = list(solvable)
        c[rng.randrange(rank, L.rows)] = rng.choice((-3, -1, 1, 2))
        out.append(("past the rank", c))
    out = [(kind, L.apply(c)) for kind, c in out]
    out.append(("random", tuple(rng.randint(-9, 9) for _ in range(L.rows))))
    return out


def test_solve_plan_matches_the_dense_solve():
    """solve_integer, which solves from the sparse plan of the SNF,
    returns the very tuple the dense U/D/V solve returns, or None in the
    same cases, on every kind of matrix and right-hand side."""
    rng = random.Random(21)
    seen = set()
    for kind, A, L, diag in _oracle_systems(rng):
        snf = smith_normal_form(A)
        for rhs, b in _right_hand_sides(rng, L, diag):
            want = solve_dense(snf, b)
            assert solve_integer(A, b) == want, (kind, rhs, A, b)
            if rhs == "solvable":
                assert want is not None and A.apply(want) == tuple(b)
            elif rhs != "random":
                assert want is None, (kind, rhs, A, b)
            seen.add((kind, rhs))
    assert {rhs for _, rhs in seen} == {"solvable", "residue",
                                        "past the rank", "random"}
    assert ("zero", "past the rank") in seen
    assert ("rank deficient", "residue") in seen


def test_solve_plan_matches_the_dense_solve_on_lift_systems(monkeypatch):
    """Every integer system weil solves in a swept suite case, the
    solve_lift systems of the suite templates among them, gets from the
    plan the tuple the dense solve gives, or None in the same cases."""
    solved = []

    def recording(A, b):
        x = solve_integer(A, b)
        solved.append((A, tuple(b), x))
        return x

    monkeypatch.setattr(weil, "solve_integer", recording)
    for case in checks.random_cases(random.Random(1), 12):
        assert checks.character_identity(case).ok
    systems = {A.data for A, _, _ in solved}
    assert len(systems) >= 10 and len(solved) >= 50
    # each right-hand side also moved by one in its first and last entry,
    # which the wide, low-rank lift systems mostly cannot meet
    unsolvable = 0
    for A, b, x in solved:
        snf = smith_normal_form(A)
        assert x == solve_dense(snf, b)
        for j in (0, len(b) - 1):
            moved = b[:j] + (b[j] + 1,) + b[j + 1:]
            want = solve_dense(snf, moved)
            assert solve_integer(A, moved) == want
            unsolvable += want is None
    assert any(A.cols > A.rows and x is not None for A, _, x in solved)
    assert unsolvable >= 50


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


#: Entries at most 334 and invariant factors 2, 6, 6, 6, but the transforms
#: of its SNF have entries up to about 1e11; inverting U through a second
#: SNF ran for minutes.
WIDE_TRANSFORMS = [[-94, -148, 332, -112], [-88, -130, 308, -100],
                   [-50, -68, 178, -56], [92, 104, -334, 98]]

TIMED_GROUP = """
import sys, time
from toruscheck.lattice import FGAbelian, IntMatrix
M = IntMatrix(%r)
start = time.perf_counter()
G = FGAbelian(4, M)
print(G.torsion, time.perf_counter() - start < 1.0)
""" % (WIDE_TRANSFORMS,)


def test_group_with_wide_transforms_inverts_quickly():
    """FGAbelian on WIDE_TRANSFORMS is built within a second (in a child
    process, so that a slow inverse cannot hang the suite), and its U^-1 is
    the exact inverse of its U."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(toruscheck.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", TIMED_GROUP],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == "(2, 6, 6, 6) True"
    G = FGAbelian(4, IntMatrix(WIDE_TRANSFORMS))
    assert max(abs(x) for row in G.U.data for x in row) > 10 ** 10
    assert G.Uinv * G.U == G.U * G.Uinv == IntMatrix.identity(4)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_subquotient_basis_spans_the_column_lattice(r, c, data):
    entries = [[data.draw(st.integers(-9, 9)) for _ in range(c)]
               for _ in range(r)]
    A = IntMatrix(entries)
    basis = Subquotient(r, A.columns(), []).L
    B = IntMatrix.from_columns(basis, r)
    # each lattice holds the other's generators, and the basis has rank
    # many vectors, so it is a basis of the column lattice of A
    assert all(solve_integer(B, col) is not None for col in A.columns())
    assert all(solve_integer(A, v) is not None for v in basis)
    _, D, _ = smith_normal_form(A)
    assert len(basis) == sum(1 for d in diag_entries(D) if d)


def _assert_same_presentation(sq, ref, probes):
    """sq and the reference construction ref agree on the basis, the
    group, classify of every probe and representative of the first 64
    normal forms (free coordinates from -2 to 2)."""
    assert sq.L == ref.L
    assert sq.group.torsion == ref.group.torsion
    assert sq.group.free_rank == ref.group.free_rank
    for v in probes:
        assert sq.classify(v) == ref.classify(v), v
    for coords in itertools.islice(G_coords(sq.group), 64):
        assert sq.representative(coords) == ref.representative(coords)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3), st.data())
def test_subquotient_matches_reference_on_random_presentations(g, k, m, data):
    """On small random presentations, Subquotient read off the SNF of its
    generators gives the basis, group, normal forms and representatives of
    the construction that factored its basis matrix a second time."""
    entry = st.integers(-6, 6)
    sub = [tuple(data.draw(entry) for _ in range(g)) for _ in range(k)]
    coeffs = st.lists(st.integers(-3, 3), min_size=k, max_size=k)
    bdry = [tuple(map(sum, zip((0,) * g, *(
        [c * x for x in v] for c, v in zip(data.draw(coeffs), sub)))))
        for _ in range(m)]
    sq, ref = Subquotient(g, sub, bdry), ReferenceSubquotient(g, sub, bdry)
    probes = sub + bdry + [tuple(data.draw(entry) for _ in range(g))
                           for _ in range(4)]
    _assert_same_presentation(sq, ref, probes)


def _tate_modules():
    """The Galois modules of both fixtures, of tests/galois6_case.json and
    of every suite template."""
    tests = os.path.dirname(os.path.abspath(__file__))
    paths = [os.path.join(os.path.dirname(tests), "fixtures", name)
             for name in ("norm_one_torus.json", "s3_component.json")]
    paths.append(os.path.join(tests, "galois6_case.json"))
    out = [load_case_file(path)[0].gmodule() for path in paths]
    return out + [TorusModel(LocalModel(n), GroupAction.cyclic(n, gmat),
                             comp).gmodule()
                  for n, gmat, comp in suite._templates()]


def test_subquotient_matches_reference_on_tate_groups(monkeypatch,
                                                    empty_memos):
    """Every Subquotient behind Tate degrees -1 to 2 of the fixtures, the
    order-6 case and the suite templates, built afresh, agrees with the
    reference construction on its generators, its boundaries, its basis,
    the unit vectors and its representatives."""
    built = []

    def recording(ambient_dim, sub_gens, bdry_gens):
        args = (ambient_dim, list(sub_gens), list(bdry_gens))
        sq = Subquotient(*args)
        built.append((args, sq))
        return sq

    modules = _tate_modules()
    assert len(modules) == 21
    monkeypatch.setattr(cohomology, "Subquotient", recording)
    empty_memos(cohomology.tate_group.memo)
    for gm in modules:
        for degree in (-1, 0, 1, 2):
            tate_group(gm, degree)
    assert len(built) == 4 * len({cohomology._module_key(gm)
                                  for gm in modules})
    for (g, sub, bdry), sq in built:
        units = [tuple(int(i == j) for j in range(g)) for i in range(g)]
        _assert_same_presentation(sq, ReferenceSubquotient(g, sub, bdry),
                                  sub + bdry + sq.L + units)


def test_subquotient_basic():
    # Z^2 / <2e1, 2e2> restricted to L = <e1, e2>, boundaries <2e1, 2e2>
    sq = Subquotient(2, [(1, 0), (0, 1)], [(2, 0), (0, 2)])
    assert sq.group.torsion == (2, 2)
    c = sq.classify((1, 1))
    assert c is not None
    rep = sq.representative(c)
    assert sq.classify(rep) == c


def test_block_matrix_places_each_block_at_its_offsets():
    """Entry (r, c) of block (i, j) lands at row r plus the heights of the
    block rows above and column c plus the widths of the block columns to
    the left; a 0 block is zero.  Row 0 and column 0 of each grid hold
    matrices, so every size is read from a block; widths may be 0."""
    rng = random.Random(5)
    for _ in range(100):
        heights = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        widths = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
        grid = [[IntMatrix([[rng.randint(-5, 5) for _ in range(w)]
                            for _ in range(h)])
                 if i == 0 or j == 0 or rng.random() < 0.5 else 0
                 for j, w in enumerate(widths)]
                for i, h in enumerate(heights)]
        M = block_matrix(grid)
        assert (M.rows, M.cols) == (sum(heights), sum(widths))
        for i, j in itertools.product(range(len(heights)), range(len(widths))):
            b = grid[i][j]
            for r, c in itertools.product(range(heights[i]), range(widths[j])):
                want = b.data[r][c] if isinstance(b, IntMatrix) else 0
                assert M.data[sum(heights[:i]) + r][sum(widths[:j]) + c] == want


def test_block_matrix_takes_no_width_from_a_matrix_without_rows():
    """A matrix with no rows reports 0 columns, whatever it stood for; the
    width of its block column comes from the other blocks."""
    no_rows = IntMatrix.zero(0, 3)
    assert no_rows.cols == 0
    M = block_matrix([[no_rows, 0], [IntMatrix.identity(2), IntMatrix([[5], [6]])]])
    assert M == IntMatrix([[1, 0, 5], [0, 1, 6]])
    # with no other block the width is the 0 the matrix reports
    assert block_matrix([[no_rows]]) == IntMatrix([])
    assert block_diagonal([IntMatrix.zero(2, 0), IntMatrix.zero(1, 0)]) \
        == IntMatrix([[], [], []])
    assert block_diagonal([]) == IntMatrix([])


#: Under python -O: each input check of lattice on an input that fails it.
OPTIMIZED_CHECKS = """
import sys
from toruscheck.lattice import (FGAbelian, IntMatrix, Subquotient,
                                block_matrix, solve_integer,
                                unimodular_inverse)

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
S = Subquotient(2, [(2, 0), (0, 1)], [(4, 0)])
attempt("classify", lambda: S.classify((2, 0, 0)))
attempt("det", lambda: IntMatrix([[1, 2]]).det())
I1, I2 = IntMatrix.identity(1), IntMatrix.identity(2)
attempt("grid", lambda: block_matrix([[I1], [I1, 0]]))
attempt("heights", lambda: block_matrix([[I1, I2]]))
attempt("widths", lambda: block_matrix([[I1], [I2]]))
attempt("zero row", lambda: block_matrix([[I1, 0], [0, 0]]))
attempt("zero column", lambda: block_matrix([[I1, 0], [I1, 0]]))
# SNF diag(2, 4): c = U b = (1, 3) fails d_0 | c_0
print("residue", solve_integer(A, (1, 0)))
# rank 1 of 2 rows: the second row of c = U b must be 0
B = IntMatrix([[2], [0]])
print("past the rank", solve_integer(B, (0, 1)))
# (1, 0) is outside L = 2Z x Z
print("outside", S.classify((1, 0)))
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
        "classify rejected: a right-hand side of length 3 for 2 rows",
        "det rejected: determinant of a non-square matrix",
        "grid rejected: block rows of different lengths",
        "heights rejected: blocks of sizes [1, 2] in one block row",
        "widths rejected: blocks of sizes [1, 2] in one block column",
        "zero row rejected: a block row of zeros only",
        "zero column rejected: a block column of zeros only",
        "residue None",
        "past the rank None",
        "outside None",
    ]
