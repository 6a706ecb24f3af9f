"""Brute-force oracles for toruscheck.cohomology, kept as test-only
functions for tests/test_cohomology.py and tests/test_weil.py.

* ``enumerate_h_classes`` counts H^1 or H^2 of a finite module by listing
  every cochain table, against the integer-linear-system route;
* ``verify_exactness`` checks the long exact sequence at a HyperH1 node on
  generators;
* ``coinflation_pointwise`` evaluates coinflation by explicit fiber
  enumeration, against the support pushforward ``coinflation``;
* ``WeilZ`` is the model Weil group W = Z with the group law and action
  that ``FiniteSupportChain.boundary`` reads, which the package's
  ``ZDomain`` leaves out because no chain of the package over Z takes a
  boundary;
* ``boundary_by_terms`` and ``coinflation_by_terms`` are the chain maps as
  they were computed before they summed into a plain dict: one
  ``add_into`` per term, which drops a key as soon as its sum is zero
  (``add_into`` was a method of ``FiniteSupportChain`` until nothing in
  the package called it);
* ``is_normalized`` tests whether a cochain vanishes (modulo relations)
  whenever an argument is the identity.
"""

import itertools

from cochain_reference import from_table, table
from toruscheck.cohomology import (
    Cochain,
    CohomologyGroup,
    FiniteSupportChain,
    ZDomain,
    cocycle_sublattice,
    _rels,
    tuples,
)
from toruscheck.lattice import FGAbelian, IntMatrix, solve_integer


def quotient(gmod):
    """The coefficient module Z^ngens modulo its relations."""
    return FGAbelian(gmod.ngens, gmod.rels)


def is_normalized(x):
    if x.degree == 0:
        return True
    zero = (0,) * x.gmod.ngens
    for t, v in table(x).items():
        if 0 in t and tuple(v) != zero:
            if any(quotient(x.gmod).nf(v)):
                return False
    return True


def verify_exactness(H):
    """Exactness at the node H = H^1(T -> U) of the long sequence
    H^0(U) -> H^1(T -> U) -> H^1(T) -> H^1(U): the kernel of the map to
    H^1(T) equals the image of the invariants of U, and the composite into
    H^1(U) vanishes.  Checked on generators via integer solving."""
    cx = H.cx
    H1T = CohomologyGroup(cx.T, 1)
    H1U = CohomologyGroup(cx.U, 1)
    ngen = len(H.group.torsion) + H.group.free_rank

    def gen_coords(i):
        return tuple(1 if k == i else 0 for k in range(ngen))

    j_cols = []
    for i in range(ngen):
        z, c = H.representative(gen_coords(i))
        j_cols.append(H1T.classify(z))
        fz = from_table(cx.U, 1, {k: cx.f.apply(v)
                                  for k, v in table(z).items()})
        if any(H1U.classify(fz)):
            return False  # composite into H^1(U) must vanish
    # classes of (0, u) for a basis of the invariants of U
    rowsU = []
    ident = IntMatrix.identity(cx.U.ngens)
    for s in range(cx.U.group.order):
        rowsU.extend((cx.U.mats[s] - ident).data)
    inv_basis = cocycle_sublattice(IntMatrix(rowsU), _rels(cx.U, 1))
    z0 = Cochain.zero(cx.T, 1)
    from_h0 = [H.classify(z0, tuple(u)) for u in inv_basis]
    for cls in from_h0:
        z, _ = H.representative(cls)
        if any(H1T.classify(z)):
            return False  # image of H^0(U) must die in H^1(T)
    # kernel of j as a lattice in generator coefficients: J x = 0 modulo the
    # moduli of H^1(T) and of this group
    width = len(H1T.group.torsion) + H1T.group.free_rank
    if ngen == 0:
        return True
    if width == 0:
        kern = [gen_coords(i) for i in range(ngen)]
    else:
        J = IntMatrix([[j_cols[i][r] for i in range(ngen)]
                       for r in range(width)])
        moduli = []
        for r, d in enumerate(H1T.group.torsion):
            col = [0] * width
            col[r] = d
            moduli.append(tuple(col))
        kern = cocycle_sublattice(J, IntMatrix.from_columns(moduli, width))
    own_moduli = []
    for r, d in enumerate(H.group.torsion):
        col = [0] * ngen
        col[r] = d
        own_moduli.append(tuple(col))
    # every kernel generator must be a combination of H^0(U)-images
    span_cols = [list(g) for g in from_h0] + [list(c) for c in own_moduli]
    for v in kern:
        target = H.group.nf(H.group.lift(tuple(v)))
        if not span_cols:
            if any(target):
                return False
            continue
        A = IntMatrix.from_columns(span_cols, ngen)
        if solve_integer(A, target) is None:
            return False
    return True


def enumerate_h_classes(gmod, degree, limit=200000):
    """H^1 or H^2 of a *finite* coefficient module by enumeration: list
    every cochain table, keep the cocycles, and count classes as orbits
    under coboundary shifts.  Exponential; guarded by `limit` on the number
    of tables."""
    assert degree in (1, 2)
    fg = quotient(gmod)
    assert fg.free_rank == 0, "enumeration needs a finite module"
    elements = [fg.lift(c) for c in fg.elements()]
    keys = tuples(gmod.group, degree)
    if len(elements) ** len(keys) > limit:
        raise ValueError("enumeration space too large")

    def is_cocycle(values):
        x = from_table(gmod, degree, dict(zip(keys, values)))
        return all(not any(fg.nf(v)) for v in table(x.d()).values())

    cocycles = [values for values in itertools.product(elements,
                                                       repeat=len(keys))
                if is_cocycle(values)]
    cokeys = tuples(gmod.group, degree - 1)
    shifts = set()
    for lower in itertools.product(elements, repeat=len(cokeys)):
        x = from_table(gmod, degree - 1, dict(zip(cokeys, lower)))
        d = x.d()
        shifts.add(tuple(fg.nf(d(*k)) for k in keys))
    classes = set()
    for z in cocycles:
        canon = min(
            tuple(fg.nf(tuple(a + b for a, b in zip(v, fg.lift(s))))
                  for v, s in zip(z, shift))
            for shift in shifts)
        classes.add(canon)
    return len(classes)


def coinflation_pointwise(chain, fibers, target_domain, keys):
    """Evaluate coinflation at given keys by explicit fiber enumeration.

    `fibers` maps a target element to the finite list of its preimages; a
    missing or infinite fiber on the support is rejected."""
    out = FiniteSupportChain(target_domain, chain.degree, chain.rank)
    for key in keys:
        fib_lists = []
        for w in key:
            f = fibers(w)
            if f is None:
                raise ValueError("infinite fiber over %r" % (w,))
            fib_lists.append(list(f))
        total = (0,) * chain.rank
        for lifted in itertools.product(*fib_lists):
            total = tuple(a + b for a, b in zip(total, chain.support.get(
                lifted, (0,) * chain.rank)))
        add_into(out, key, total)
    return out


def add_into(chain, key, vec):
    """Add vec to the chain's value at key, dropping the key when the sum
    is zero."""
    key = tuple(key)
    cur = chain.support.get(key, (0,) * chain.rank)
    new = tuple(a + b for a, b in zip(cur, vec))
    if any(new):
        chain.support[key] = new
    elif key in chain.support:
        del chain.support[key]


class WeilZ(ZDomain):
    """A ZDomain whose chains take boundaries: W = Z under addition, w
    acting through sigma^(w mod n)."""

    def mul(self, a, b):
        return a + b

    def inv(self, a):
        return -a

    def act(self, w, vec):
        return self.mats[w % self.n].apply(vec)


def boundary_by_terms(chain):
    """The three-term alternating-sum homology differential, one add_into
    per term."""
    W = chain.domain
    n = chain.degree
    out = FiniteSupportChain(W, n - 1, chain.rank)
    for key, val in chain.support.items():
        x = key[0]
        add_into(out, key[1:], W.act(W.inv(x), val))
        sign = -1
        for i in range(1, n):
            merged = key[:i - 1] + (W.mul(key[i - 1], key[i]),) + key[i + 1:]
            add_into(out, merged, tuple(sign * a for a in val))
            sign = -sign
        add_into(out, key[:-1], tuple(sign * a for a in val))
    return out


def coinflation_by_terms(chain, projection, target_domain):
    """Coinflation as a pushforward of the support, one add_into per key."""
    out = FiniteSupportChain(target_domain, chain.degree, chain.rank)
    for key, val in chain.support.items():
        add_into(out, tuple(projection(w) for w in key), val)
    return out
