"""Seeded generation of torus cases within documented bounds: lattice rank
at most 4, cyclic Galois group of order at most 6, component groups of
order at most 8 including the nonabelian one on six elements.

The generator draws from templates of commuting (Galois, component) action
pairs, then samples a cocycle class for z and a norm-zero dual value for
the parameter.  Everything is driven by a seeded Random instance so suites
are reproducible; `checks.suite` sweeps every case it draws in full."""

from __future__ import annotations

import itertools

from .lattice import IntMatrix, block_diagonal, memoized
from .qz import QZ
from .groups import FiniteGroup, GroupAction
from .cohomology import Cochain, tate_group
from .weil import LocalModel, TorusModel, Parameter


def _neg(n):
    return IntMatrix([[-1 if i == j else 0 for j in range(n)] for i in range(n)])


ROTATIONS = {
    2: IntMatrix([[-1]]),
    3: IntMatrix([[0, -1], [1, -1]]),
    4: IntMatrix([[0, -1], [1, 0]]),
    6: IntMatrix([[0, -1], [1, 1]]),
    # companion matrix of 1 + x + x^2 + x^3 + x^4 (order 5, rank 4)
    5: IntMatrix([[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]]),
}


def s3_action(extra_rank=0):
    """S3 acting by its rank-2 integral standard representation, extended
    trivially on extra coordinates."""
    S3 = FiniteGroup.symmetric(3)
    r = IntMatrix([[0, -1], [1, -1]])
    s = IntMatrix([[0, 1], [1, 0]])
    gen3 = next(g for g in range(6) if S3.element_order(g) == 3)
    gen2 = next(g for g in range(6) if S3.element_order(g) == 2)
    mats = {0: IntMatrix.identity(2), gen3: r, gen2: s}
    while len(mats) < 6:
        for a in list(mats):
            for b in list(mats):
                c = S3.mul(a, b)
                if c not in mats:
                    mats[c] = mats[a] * mats[b]
    pad = IntMatrix.identity(extra_rank)
    return GroupAction(S3, [block_diagonal([mats[g], pad]) for g in range(6)])


def _cyclic_action(group_order, matrix, rank):
    """Cyclic group of the given order acting through a matrix whose order
    divides it, padded to the target rank."""
    return GroupAction.cyclic(group_order, block_diagonal(
        [matrix, IntMatrix.identity(rank - matrix.rows)]))


def action_templates(rng):
    """Pairs (galois_action, comp_action) with commuting actions, drawn at
    random from the wired templates."""
    return rng.choice(_templates())


@memoized()
def _templates():
    """The wired (Galois order, Galois matrix, component action) templates,
    built and checked once per process.  Every case drawn from one shares
    its objects: IntMatrix and GroupAction are immutable, and a FiniteGroup
    only caches what it derives from its own table."""
    swap2 = IntMatrix([[0, 1], [1, 0]])
    choices = []

    def add(n, gmat, comp):
        choices.append((n, gmat, comp))

    # rank 1: Q by -1 or trivial, A by -1 / cyclic through -1
    add(2, _neg(1), _cyclic_action(2, _neg(1), 1))
    add(2, _neg(1), _cyclic_action(4, _neg(1), 1))
    add(2, IntMatrix.identity(1), _cyclic_action(2, _neg(1), 1))
    # rank 2: rotation lattices with A = Z/2 by -1
    for n in (3, 4, 6):
        add(n, ROTATIONS[n], _cyclic_action(2, _neg(2), 2))
    # rank 4: the order-5 rotation lattice with A = Z/2 by -1
    add(5, ROTATIONS[5], _cyclic_action(2, _neg(4), 4))
    # rank 2: Q swaps coordinates, A by -1 or the same swap
    add(2, swap2, _cyclic_action(2, _neg(2), 2))
    add(2, swap2, _cyclic_action(2, swap2, 2))
    # rank 2: S3 component group with Q by -1 or trivial
    choices.append((2, _neg(2), s3_action()))
    choices.append((2, IntMatrix.identity(2), s3_action()))
    # rank 1: a component group of order 8 acting through -1
    add(2, _neg(1), _cyclic_action(8, _neg(1), 1))
    # rank 2: Klein four group of sign-diagonal matrices, Q by -1
    K = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    klein_mats = [IntMatrix.identity(2), _neg(2),
                  IntMatrix([[1, 0], [0, -1]]), IntMatrix([[-1, 0], [0, 1]])]
    choices.append((2, _neg(2), GroupAction(K, klein_mats)))
    # rank 3: rotation + an extra coordinate, A = -1 on everything
    add(3, block_diagonal([ROTATIONS[3], IntMatrix.identity(1)]),
        _cyclic_action(2, _neg(3), 3))
    add(4, block_diagonal([ROTATIONS[4], _neg(1)]),
        _cyclic_action(2, _neg(3), 3))
    # rank 3: S3 on the first two coordinates, Q = Z/2 by -1 overall
    choices.append((2, _neg(3), s3_action(extra_rank=1)))
    # rank 4: two swapped planes: Q swaps the planes, A rotates both
    plane_swap = IntMatrix([[0, 0, 1, 0], [0, 0, 0, 1],
                            [1, 0, 0, 0], [0, 1, 0, 0]])
    rot4_diag = block_diagonal([ROTATIONS[4], ROTATIONS[4]])
    choices.append((2, plane_swap, GroupAction.cyclic(4, rot4_diag)))
    # rank 4: Q = Z/6 rotation block plus sign block, A = (Z/2)^2-ish cyclic
    add(6, block_diagonal([ROTATIONS[6], _neg(2)]),
        _cyclic_action(2, _neg(4), 4))
    return tuple(choices)


def draws(rng, lo, hi, count):
    """[rng.randint(lo, hi) for _ in range(count)] for a random.Random,
    drawn from the same stream.  randint(lo, hi) takes getrandbits(k), for
    k the bit length of the width hi - lo + 1, again while the value is at
    least the width, and adds lo (CPython's _randbelow_with_getrandbits);
    this does the same without randint's three calls per draw.  Raises
    ValueError for an empty range."""
    width = hi - lo + 1
    if width < 1:
        raise ValueError("empty range [%d, %d]" % (lo, hi))
    bits = rng.getrandbits
    k = width.bit_length()
    out = []
    for _ in range(count):
        x = bits(k)
        while x >= width:
            x = bits(k)
        out.append(lo + x)
    return out


def random_z(torus, rng):
    """A random cocycle: random class representative plus a random
    coboundary shift."""
    gm = torus.gmodule()
    H1 = tate_group(gm, 1)
    classes = list(H1.elements())
    coords = rng.choice(classes)
    z = H1.representative(coords)
    shift = tuple(draws(rng, -2, 2, torus.rank))
    dx = Cochain(gm, 0, shift).d()
    return z.add(dx)


def random_parameter(torus, rng):
    """A random unramified parameter: a norm-zero torsion dual value at the
    generator, sampled uniformly from the solutions at a random level."""
    r = torus.rank
    d = rng.choice([2, 3, 4])
    N = torus.norm_matrix().transpose()
    sols = []
    for combo in itertools.product(range(d), repeat=r):
        vec = N.apply(combo)
        if all(v % d == 0 for v in vec):
            sols.append(combo)
    combo = rng.choice(sols)
    return Parameter(torus, tuple(QZ(k, d) for k in combo))


def random_case_data(rng):
    """One random (torus, z, parameter) triple."""
    n, gmat, comp = action_templates(rng)
    model = LocalModel(n)
    gal = GroupAction.cyclic(n, gmat)
    torus = TorusModel(model, gal, comp)
    z = random_z(torus, rng)
    phi = random_parameter(torus, rng)
    return torus, z, phi


def invariant_vectors(torus):
    """Small integral Galois-invariant vectors to use as test points of the
    F-points model."""
    basis = torus.invariant_lattice()
    out = [(0,) * torus.rank]
    for b in basis:
        out.append(tuple(b))
    return out
