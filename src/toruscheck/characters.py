"""Exact character tables by Dixon's modular method, projective characters
of central extensions, column products and the twisted orthogonality
relation, and finite-group models of the induction lemmas the checks run
(corestriction of intertwiner cocycles, block-twisted traces).

A character table is computed over a prime field GF(p) with p = 1 mod the
group exponent (Dixon, with Schneider's echelonized eigenspaces and Galois
orbits, and each eigenvector projected out of the identity class);
eigenvalue multiplicities are lifted to honest cyclotomic integers, which
also give the table's exponent forms, and every orthogonality relation is
then re-verified exactly.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from functools import cmp_to_key
from math import gcd, isqrt, lcm
from operator import mul

from .groups import coset_section
from .lattice import Memo
from .qz import (QZ, Cyc, _cyc, _qz, cyc_div, cyc_from_pairs, exponent_forms,
                 residue)


# ---------------------------------------------------------------------------
# GF(p) linear algebra (small and boring on purpose)


def _is_prime(n):
    if n < 4:
        return n >= 2
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _find_prime(exponent, minimum):
    p = max(minimum, exponent + 1)
    p += (1 - p) % exponent  # p = 1 mod exponent
    while True:
        if p > 2 and _is_prime(p):
            return p
        p += exponent


def _primitive_root(p):
    fac = []
    m = p - 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            fac.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        fac.append(m)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            return g
    raise ValueError("no primitive root found")


def _rref(rows, m, p, reduced=True):
    """Row-reduce `rows` in place over GF(p), pivoting in the first m
    columns; returns the pivot columns.  With reduced=False only the rows
    below each pivot are cleared (row echelon form), which keeps a sparse
    matrix sparse."""
    n = len(rows)
    pivots = []
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, n) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(n) if reduced else range(r + 1, n):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return pivots


def _nullspace(A, p):
    """A basis of {x : A x = 0} over GF(p), one vector per free column c,
    with x[c] = 1 and 0 at the other free columns; the pivot entries come
    by back substitution from the row echelon form."""
    rows = [list(r) for r in A]
    m = len(rows[0]) if rows else 0
    pivots = _rref(rows, m, p, reduced=False)
    on = set(pivots)
    basis = []
    for fc in (c for c in range(m) if c not in on):
        v = [0] * m
        v[fc] = 1
        for row, pc in zip(reversed(rows[:len(pivots)]), reversed(pivots)):
            v[pc] = -sum(map(mul, row[pc + 1:], v[pc + 1:])) % p
        basis.append(v)
    return basis


def _charpoly(A, p):
    """Characteristic polynomial over GF(p), low degree first (Hessenberg)."""
    n = len(A)
    h = [list(r) for r in A]
    for c in range(n - 2):
        piv = next((i for i in range(c + 1, n) if h[i][c] % p), None)
        if piv is None:
            continue
        if piv != c + 1:
            h[c + 1], h[piv] = h[piv], h[c + 1]
            for r in range(n):
                h[r][c + 1], h[r][piv] = h[r][piv], h[r][c + 1]
        inv = pow(h[c + 1][c], p - 2, p)
        for i in range(c + 2, n):
            if h[i][c] % p:
                f = (h[i][c] * inv) % p
                h[i] = [(x - f * y) % p for x, y in zip(h[i], h[c + 1])]
                for r in range(n):
                    h[r][c + 1] = (h[r][c + 1] + f * h[r][i]) % p
    polys = [[1]]
    for k in range(1, n + 1):
        prev = polys[k - 1]
        term = [0] + prev
        term = [(term[i] - h[k - 1][k - 1] * (prev[i] if i < len(prev) else 0)) % p
                for i in range(len(term))]
        prod = 1
        for i in range(k - 1, 0, -1):
            prod = (prod * h[i][i - 1]) % p
            coeff = (h[i - 1][k - 1] * prod) % p
            if coeff:
                q = polys[i - 1]
                term = [(term[j] - coeff * (q[j] if j < len(q) else 0)) % p
                        for j in range(len(term))]
        polys.append(term)
    return polys[n]


def _poly_eval(poly, x, p):
    v = 0
    for c in reversed(poly):
        v = (v * x + c) % p
    return v


def _divide_root(poly, x, p):
    """(quotient, remainder) of poly by X - x over GF(p), low degree
    first (synthetic division); the remainder is poly(x)."""
    q = [0] * (len(poly) - 1)
    acc = 0
    for i in range(len(poly) - 1, 0, -1):
        acc = (acc * x + poly[i]) % p
        q[i - 1] = acc
    return q, (acc * x + poly[0]) % p


def _poly_roots(poly, p):
    """The distinct roots in GF(p), ascending, of poly: coefficients mod p,
    low degree first, the last one nonzero.

    Each root is divided out as often as it divides, so the scan stops
    once the quotient is constant, and a last linear factor, whose root
    lies above every root divided out, is solved directly.

    >>> _poly_roots([1, 0, 4, 2], 7)  # 2 (X - 1)^2 (X - 3) mod 7
    [1, 3]
    """
    roots = []
    x = 0
    while len(poly) > 2 and x < p:
        if _poly_eval(poly, x, p) == 0:
            roots.append(x)
            q, rem = _divide_root(poly, x, p)
            while rem == 0:
                poly = q
                q, rem = _divide_root(poly, x, p)
        x += 1
    if len(poly) == 2:
        roots.append(-poly[0] * pow(poly[1], p - 2, p) % p)
    return roots


def _echelon(vectors, m, p):
    """An echelon basis of the span of independent vectors of length m:
    (rows, pivots, rest), rows in reduced row echelon form over GF(p), so a
    vector v of the span is sum_j v[pivots[j]] rows[j]; rest pairs each
    other column c with the entries rows[j][c].

    >>> space = _echelon([[1, 2, 3], [0, 1, 1]], 3, 5)
    >>> space
    ([[1, 0, 1], [0, 1, 1]], [0, 1], [(2, [1, 1])])
    >>> _in_span([2, 3, 0], space, 5), _in_span([0, 0, 1], space, 5)
    (True, False)
    """
    rows = [list(v) for v in vectors]
    pivots = _rref(rows, m, p)
    rows = rows[:len(pivots)]
    on = set(pivots)
    rest = [(c, [row[c] for row in rows]) for c in range(m) if c not in on]
    return rows, pivots, rest


def _in_span(v, space, p):
    """Whether v is in the span of an echelon basis: v equals
    sum_j v[pivots[j]] rows[j], which holds at the pivot columns by
    construction, so only the other columns are compared."""
    _, pivots, rest = space
    coords = [v[c] for c in pivots]
    return all((sum(map(mul, coords, col)) - v[c]) % p == 0
               for c, col in rest)


def _class_matrix(G, cls, reps):
    """The class matrix (M)_{j,k} = #{(x, y) in cls x C_j : x y = rep_k},
    by columns: column k lists its nonzero (j, count)."""
    t, inv, index = G.table, G.inverse, G.class_index()
    cols = []
    for rep in reps:
        col = {}
        for x in cls:
            j = index[t[inv[x]][rep]]
            col[j] = col.get(j, 0) + 1
        cols.append(tuple(col.items()))
    return cols


def _apply(cols, v, p):
    """M v over GF(p) for a class matrix M given by columns."""
    out = [0] * len(cols)
    for col, x in zip(cols, v):
        if x:
            for j, a in col:
                out[j] += a * x
    return [y % p for y in out]


def _power_maps(G, exponent):
    """The power maps of G other than the identity, one per distinct map:
    (l, pi) with pi[k] the class of g_k^l for g_k the first element of
    class k, and l the least exponent prime to `exponent` giving that map.
    Each permutes the classes and keeps their sizes; a group whose
    characters are all rational has none.

    >>> from toruscheck.groups import FiniteGroup
    >>> _power_maps(FiniteGroup.cyclic(5), 5)
    [(2, (0, 2, 4, 1, 3)), (3, (0, 3, 1, 4, 2)), (4, (0, 4, 3, 2, 1))]
    >>> _power_maps(FiniteGroup.symmetric(4), 12)
    []
    """
    index = G.class_index()
    powers = [G._cyclic_powers(cls[0]) for cls in G.conjugacy_classes()]
    seen = {tuple(range(len(powers)))}
    maps = []
    for l in range(2, exponent):
        if gcd(l, exponent) == 1:
            pi = tuple(index[row[l % len(row)]] for row in powers)
            if pi not in seen:
                seen.add(pi)
                maps.append((l, pi))
    return maps


def _normalized(v, p):
    """v scaled to 1 at the identity class, as a tuple."""
    if v[0] % p == 0:
        raise ValueError("eigenvector vanishes at the identity")
    inv0 = pow(v[0], p - 2, p)
    return tuple(x * inv0 % p for x in v)


def _eigenvectors(G, p, maps):
    """The common eigenvectors over GF(p) of the class matrices of G, each
    scaled to 1 at the identity class: one per irreducible character chi,
    whose entry k is |C_k| chi(g_k) / chi(1) mod p.

    Dixon's split, with Schneider's refinements, by projection.  Column
    orthogonality gives sum_chi chi(1)^2 w_chi = |G| e_0, and p > 2|G|, so
    the identity class e_0 has a nonzero part on every eigenvector.  Each
    eigenspace S still to split is kept as an echelon basis with one such
    vector v_S, and the full space carries e_0.  The class matrices split
    in order of decreasing element order (the identity class matrix splits
    nothing and is skipped).  For a class matrix M, its restriction T to S
    is read off the images M b_i at the pivots; an image outside S raises
    ValueError, and a space on which T is a scalar lambda I is kept.  With
    sf the product of (X - mu) over the distinct roots of T's
    characteristic polynomial, u = (sf / (X - lambda))(M) v_S is nonzero
    exactly on the eigenvectors in S with M-eigenvalue lambda; it is summed
    from v_S, M v_S, M^2 v_S, ... with the sparse M, and a u that vanishes
    raises ValueError.  For a simple root u is the eigenvector, checked by
    M w = lambda w; for a repeated one the eigenspace is the nullspace of
    T - lambda, carrying u.  A space of dimension 1 is an eigenvector
    found.  When one is found, each w o pi_l over the power maps is the
    eigenvector of a Galois conjugate chi^(l); it takes the place of a
    projection when its eigenvalue w[pi_l(K)] is a simple root, it lies in
    the space, and M w' = lambda w'."""
    classes = G.conjugacy_classes()
    reps = [cls[0] for cls in classes]
    r = len(classes)
    orders = [G.element_order(g) for g in reps]
    found = {}  # the eigenvectors, in the order they are found
    pending = set()  # conjugates of found eigenvectors, not yet placed
    by_value = {}  # the pending conjugates by their eigenvalue at class K
    spaces = []  # (echelon basis, v_S) for each space still to split
    K = 0  # the class whose matrix splits the spaces

    def place(basis, v):
        """Keep the span of basis, carrying v, or find its one vector."""
        if len(basis) != 1:
            if basis:
                spaces.append((_echelon(basis, r, p), v))
            return
        w = _normalized(basis[0], p)
        found[w] = None
        for _, pi in maps:
            u = tuple(w[k] for k in pi)
            if u not in found and u not in pending:
                pending.add(u)
                by_value.setdefault(u[K], []).append(u)

    place([[int(i == j) for i in range(r)] for j in range(r)],
          [1] + [0] * (r - 1))
    for K in sorted(range(1, r), key=lambda k: (-orders[k], k)):
        if not spaces:
            break
        M = _class_matrix(G, classes[K], reps)
        by_value = {}
        for u in pending:
            by_value.setdefault(u[K], []).append(u)
        split, spaces = spaces, []
        for space, v in split:
            rows, pivots, _ = space
            d = len(rows)
            images = [_apply(M, b, p) for b in rows]
            if not all(_in_span(x, space, p) for x in images):
                raise ValueError("class matrix must preserve the space")
            T = [[x[c] for x in images] for c in pivots]
            lam = T[0][0]
            if all(x == (lam if i == j else 0)
                   for i, row in enumerate(T) for j, x in enumerate(row)):
                # T = lambda I: M splits nothing here, and the space is
                # already in echelon form
                spaces.append((space, v))
                continue
            poly = _charpoly(T, p)
            slope = [i * c % p for i, c in enumerate(poly)][1:]
            roots = _poly_roots(poly, p)
            sf = [1]
            for mu in roots:
                sf = [(a - mu * b) % p for a, b in zip([0] + sf, sf + [0])]
            krylov = None  # the columns of v, M v, ..., M^(len(roots)-1) v
            for lam in roots:
                simple = _poly_eval(slope, lam, p) != 0
                if simple:
                    w = next((u for u in by_value.get(lam, ())
                              if u in pending and _in_span(u, space, p)
                              and _apply(M, u, p)
                              == [lam * x % p for x in u]), None)
                    if w is not None:
                        pending.discard(w)
                        found[w] = None
                        continue
                if krylov is None:
                    powers = [v]
                    for _ in range(len(roots) - 1):
                        powers.append(_apply(M, powers[-1], p))
                    krylov = list(zip(*powers))
                q, _ = _divide_root(sf, lam, p)
                u = [sum(map(mul, q, col)) % p for col in krylov]
                if not any(u):
                    raise ValueError("projection vanishes on an eigenspace")
                if simple:
                    if _apply(M, u, p) != [lam * x % p for x in u]:
                        raise ValueError("projection is not an eigenvector")
                    place([u], None)
                    continue
                Tm = [[(T[i][j] - (lam if i == j else 0)) % p
                       for j in range(d)] for i in range(d)]
                cols = list(zip(*rows))
                place([[sum(map(mul, col, nv)) % p for col in cols]
                       for nv in _nullspace(Tm, p)], u)
    if spaces or len(found) != r:
        raise ValueError("eigenspace splitting incomplete")
    return list(found)


# ---------------------------------------------------------------------------
# character tables


class CharacterTable:
    """Exact character table: chars[i][k] is the Cyc value of the i-th
    irreducible on the k-th conjugacy class; dims[i] = chars[i][0]."""

    MAX_ORDER = 400

    def __init__(self, group, chars, dims, forms=None):
        self.group = group
        self.classes = group.conjugacy_classes()
        self.class_index = group.class_index()
        self.chars = chars
        self.dims = dims
        # irr_with_central_char answers, by (generator index, m, psi1)
        self.central = {}
        # column_product pairs, by (tuple(sel), k1, k2) with k1 <= k2
        self.products = {}
        # twisted_orthogonality left sides (lhs, vanishes), by the same key
        self.lhs = {}
        # exponent_forms(chars), when the builder of the table knows them
        self._forms = forms

    def value(self, i, g):
        return self.chars[i][self.class_index[g]]

    @property
    def nchars(self):
        return len(self.chars)

    def exponent_forms(self):
        """qz.exponent_forms of the rows, computed once per table."""
        if self._forms is None:
            self._forms = exponent_forms(self.chars)
        return self._forms

    def verify(self):
        """Check the table exactly and return True, or raise ValueError.

        Checked: one row per class and one value per class in each row, the
        sum of the squared dims is |G|, the rows are orthonormal and the
        squared values at the identity sum to |G|.  The values are read as
        the table's exponent forms, so each Gram entry
        sum_k |C_k| chi_i(k) conj chi_j(k) is a cyclic convolution of ints,
        compared with |G| D^2 delta_ij after one reduction mod Phi_n."""
        G = self.group
        r = len(self.classes)
        if len(self.chars) != r or len(self.dims) != r \
                or any(len(row) != r for row in self.chars):
            raise ValueError("table shape: expected %d characters with "
                             "%d values each" % (r, r))
        if sum(d * d for d in self.dims) != G.order:
            raise ValueError("sum of dim^2 fails")
        n, D, rows = self.exponent_forms()
        sizes = [len(cls) for cls in self.classes]
        # chi_j(k) conjugated (k -> -k mod n) and weighted by |C_k|
        conj = [[[(-k % n, c * s) for k, c in vals]
                 for vals, s in zip(row, sizes)] for row in rows]

        def agrees(vec, value):
            """Whether the exponent vector vec sums to the integer value."""
            if not any(vec[1:]):
                return vec[0] == value
            acc = residue(enumerate(vec), n)
            return acc[0] == value and not any(acc[1:])

        for i, row_i in enumerate(rows):
            for j in range(i, r):
                vec = [0] * n
                for vals, cvals in zip(row_i, conj[j]):
                    for a, c in vals:
                        for b, d in cvals:
                            vec[(a + b) % n] += c * d
                if not agrees(vec, G.order * D * D if i == j else 0):
                    raise ValueError("row orthogonality fails at (%d, %d)"
                                     % (i, j))
        vec = [0] * n
        for row in rows:
            for a, c in row[0]:
                for b, d in row[0]:
                    vec[(a + b) % n] += c * d
        if not agrees(vec, G.order * D * D):
            raise ValueError("column orthogonality fails")
        return True


def character_table(group):
    """Dixon's method: split class-matrix eigenspaces over GF(p) with
    p = 1 mod exp(G), then lift eigenvalue multiplicities to cyclotomics,
    once per Galois orbit of characters and of classes.  The integer
    multiplicities give the table's exponent forms as well, so verify()
    reads them without taking the values apart again."""
    G = group
    if G.order > CharacterTable.MAX_ORDER:
        raise ValueError("group order %d exceeds the configured bound %d"
                         % (G.order, CharacterTable.MAX_ORDER))
    classes = G.conjugacy_classes()
    index = G.class_index()
    r = len(classes)
    reps = [cls[0] for cls in classes]
    orders = [G.element_order(g) for g in reps]
    exponent = 1
    for o in orders:
        exponent = lcm(exponent, o)
    p = _find_prime(exponent, 2 * G.order + 1)
    omega = pow(_primitive_root(p), (p - 1) // exponent, p)
    maps = _power_maps(G, exponent)
    vectors = _eigenvectors(G, p, maps)

    # chi(g^l) = sigma_l(chi(g)) for l prime to the exponent, so class
    # pi_l(k) carries the values of class k with e(j/h) moved to e(jl/h):
    # source[c] = (k, l) with c = pi_l(k), k the first class of its orbit.
    source = [None] * r
    for k in range(r):
        if source[k] is None:
            source[k] = (k, 1)
            for l, pi in maps:
                if source[pi[k]] is None:
                    source[pi[k]] = (k, l)
    inv_class = [index[G.inv(g)] for g in reps]
    csize_inv = [pow(len(c), p - 2, p) for c in classes]
    # The multiplicity of e(j/h) in chi(g), h the order of g, is
    # h^-1 sum_l chi(g^l) omega_h^(-j l) mod p.  chi(g^l) depends only on
    # the class of g^l, so each class's row of h sums over the l with g^l
    # in it is computed once and shared by every character; only the first
    # class of each orbit needs one.
    lifts = []
    for k in range(r):
        if source[k] != (k, 1):
            continue
        h = orders[k]
        wh = pow(omega, exponent // h, p)
        wpow = [1] * h
        for t in range(1, h):
            wpow[t] = wpow[t - 1] * wh % p
        hinv = pow(h, p - 2, p)
        sums = {}
        for l, g in enumerate(G._cyclic_powers(reps[k])):
            row = sums.setdefault(index[g], [0] * h)
            for j in range(h):
                row[j] += wpow[-j * l % h]
        lifts.append((k, h, [(c, [x * hinv % p for x in row])
                             for c, row in sums.items()]))
    level = exponent if exponent % 2 == 0 else 2 * exponent

    def row_of(mults, l):
        """The values of chi^(l) and its nonzero multiplicities (j, m) at
        each class, from chi's at the first class of each class orbit."""
        values = []
        row_pairs = []
        for c, (k, lc) in enumerate(source):
            h = orders[c]
            pairs = mults[k]
            scale = lc * l % h
            if scale != 1:
                pairs = sorted((j * scale % h, x) for j, x in pairs)
            values.append(_cyc({_qz(j, h): x for j, x in pairs}))
            row_pairs.append(pairs)
        return values, row_pairs

    position = {w: i for i, w in enumerate(vectors)}
    chars = [None] * r
    dims = [None] * r
    pairs = [None] * r
    for i, w in enumerate(vectors):
        if chars[i] is not None:
            continue
        s = 0
        for k in range(r):
            s = (s + w[k] * w[inv_class[k]] * csize_inv[k]) % p
        d2 = (G.order * pow(s, p - 2, p)) % p
        dim = next((dd for dd in range(1, isqrt(G.order) + 1)
                    if (dd * dd - d2) % p == 0), None)
        if dim is None:
            raise ValueError("no degree squares to |G| / sum |chi|^2")
        chi_p = [(dim * w[k] * csize_inv[k]) % p for k in range(r)]
        mults = {}
        for k, h, lift in lifts:
            acc = [0] * h
            for c, row in lift:
                x = chi_p[c]
                if x:
                    acc = [a + x * b for a, b in zip(acc, row)]
            m = [a % p for a in acc]
            if max(m) > dim:
                raise ValueError("multiplicity lift out of range")
            mults[k] = [(j, x) for j, x in enumerate(m) if x]
        # chi and its Galois conjugates chi^(l), whose eigenvectors are
        # w o pi_l; the conjugates' multiplicities are chi's, permuted
        for l, j in [(1, i)] + [(l, position.get(tuple(w[k] for k in pi)))
                                for l, pi in maps]:
            if j is None:
                raise ValueError("Galois conjugate eigenvector missing "
                                 "from the table")
            if chars[j] is None:
                chars[j], pairs[j] = row_of(mults, l)
                dims[j] = dim

    keys = {}

    def key(i, c):
        """The residue of chi_i at class c mod Phi_level with trailing zeros
        dropped, built once per (row, class): the multiplicities are ints,
        so this is Cyc.reduced_key(level) without its level and with ints
        in place of Fractions."""
        res = keys.get((i, c))
        if res is None:
            step = level // orders[c]
            res = residue([(j * step, x) for j, x in pairs[i][c]], level)
            while res and res[-1] == 0:
                res.pop()
            keys[i, c] = res
        return res

    def compare(i, j):
        """Rows by dims, then by their residue keys class by class.  Equal
        multiplicities give equal values, so a key is built only at the
        classes where the multiplicities differ."""
        if dims[i] != dims[j]:
            return -1 if dims[i] < dims[j] else 1
        for c, (p_i, p_j) in enumerate(zip(pairs[i], pairs[j])):
            if p_i != p_j:
                k_i, k_j = key(i, c), key(j, c)
                if k_i != k_j:
                    return -1 if k_i < k_j else 1
        return 0

    order = sorted(range(r), key=cmp_to_key(compare))
    # exponent_forms(chars) read off the multiplicities: e(j/h) has order
    # h / gcd(j, h), so the level n is their lcm, D = 1, and e(j/h) is
    # e(k/n) with k = j n / h
    n = lcm(1, *(orders[c] // gcd(j, orders[c])
                 for row in pairs for c, cp in enumerate(row) for j, _ in cp))
    forms = [[[(j * n // orders[c], x) for j, x in cp]
              for c, cp in enumerate(pairs[i])] for i in order]
    table = CharacterTable(G, [chars[i] for i in order],
                           [dims[i] for i in order], (n, 1, forms))
    table.verify()
    return table


class TableCache:
    """Keyed cache of character tables, kept in a Memo: concurrent reads,
    and a miss built and inserted under the lock, once per key."""

    def __init__(self):
        self._tables = Memo()
        self._lock = threading.Lock()

    @staticmethod
    def key(group):
        """SHA-256 of the group's full table, computed once per group."""
        if group.table_key is None:
            group.table_key = hashlib.sha256(
                repr(group.table).encode()).hexdigest()
        return group.table_key

    def get_or_compute(self, group):
        k = self.key(group)
        t = self._tables.get(k)
        if t is None:
            with self._lock:
                t = self._tables.get_or_compute(k, self._miss, k, group)
        return t

    def _miss(self, key, group):
        """The table of a group whose key is not in the cache."""
        return character_table(group)


TABLE_CACHE = TableCache()


# ---------------------------------------------------------------------------
# projective characters of central extensions


def psi_value(ext, psi1, e):
    """psi applied to the central part of a central element e, where psi
    sends the generator 1/m of mu_m to psi1."""
    z, a = ext.parts(e)
    if a:
        raise ValueError("element not central")
    k = z.num * ext.m // z.den
    return k * psi1


def is_psi_centralizing(ext, psi1, e):
    """Whether psi vanishes on every central commutator x e x^-1 e^-1.  The
    commutators are the y e^-1 for y in the class of e.  A commutator
    k*|A| + 0 is the central element k/m, where psi takes the value
    k * psi1."""
    G = ext.group
    t, einv = G.table, G.inverse[e]
    n = ext.base.order
    for y in G.class_of(e):
        k, ac = divmod(t[y][einv], n)
        if ac == 0 and k * psi1.num % psi1.den:
            return False
    return True


def irr_with_central_char(ext, psi1, cache=None):
    """Character-table indices of the irreducibles of the extension group
    whose central character sends the generator of mu_m to e(psi1).

    A psi whose order does not divide m cannot occur on mu_m at all, so the
    answer is the empty set (central character divisibility).  Answers are
    kept on the table by (generator index, m, psi1): extensions with one
    Cayley table share it."""
    table = (cache or TABLE_CACHE).get_or_compute(ext.group)
    if ext.m % psi1.den:
        return table, []
    gen = ext.generator
    key = (gen, ext.m, psi1)
    out = table.central.get(key)
    if out is None:
        out = table.central[key] = [
            i for i in range(table.nchars)
            if table.value(i, gen) == table.chars[i][0] * Cyc.root(psi1)]
    return table, out


def alpha_regular_class_count(ext):
    """Number of alpha-regular classes of the base group: a is regular when
    alpha(a, b) = alpha(b, a) for every b in the centralizer of a."""
    A, c = ext.base, ext.alpha.ints
    count = 0
    for cls in A.conjugacy_classes():
        a = cls[0]
        if all(c[a][b] == c[b][a] for b in A.centralizer(a)):
            count += 1
    return count


def column_product(table, sel, k1, k2):
    """sum over i in sel of chi_i(class k1) chi_i(class k2), from the
    table's exponent forms: sparse (k, c) pairs at the table's level L,
    times the forms' denominator D squared, zeros dropped.  The pairs are
    kept on the table (`products`), once per selection and unordered pair
    of classes."""
    key = (tuple(sel), k1, k2) if k1 <= k2 else (tuple(sel), k2, k1)
    pairs = table.products.get(key)
    if pairs is None:
        L, _, forms = table.exponent_forms()
        acc = [0] * L
        for i in sel:
            row = forms[i]
            for a, c in row[k1]:
                for b, d in row[k2]:
                    acc[(a + b) % L] += c * d
        pairs = table.products[key] = [(k, c) for k, c in enumerate(acc) if c]
    return pairs


def twisted_orthogonality(ext, psi1, e, e2, cache=None):
    """Both sides of the twisted orthogonality relation over Irr(E, psi):

        sum_tau chi_tau(e) chi_tau(e2) = |Z_A(e-bar)| psi(e e2)  if e e2 central
                                       = 0    if e-bar^-1 not conjugate to e2-bar

    Returns (lhs, rhs, verdict); rhs and verdict are None outside the two
    covered branches.  Raises ValueError when e is not psi-centralizing.
    The left side, a Cyc, and whether it is zero (its column product pairs
    are zero mod Phi_n) are kept on the table (`lhs`) under column_product's
    key, so a sweep builds them once per pair of classes."""
    if not is_psi_centralizing(ext, psi1, e):
        raise ValueError("element is not psi-centralizing; lemma inapplicable")
    table, sel = irr_with_central_char(ext, psi1, cache)
    k1, k2 = table.class_index[e], table.class_index[e2]
    key = (tuple(sel), k1, k2) if k1 <= k2 else (tuple(sel), k2, k1)
    side = table.lhs.get(key)
    if side is None:
        n, D, _ = table.exponent_forms()
        pairs = column_product(table, sel, k1, k2)
        side = table.lhs[key] = (cyc_from_pairs(pairs, n, D * D),
                                 not any(residue(pairs, n)))
    lhs, vanishes = side
    A = ext.base
    prod = ext.group.mul(e, e2)
    # the A-parts a of the elements k |A| + a
    ac, ebar, e2bar = prod % A.order, e % A.order, e2 % A.order
    if ac == 0:
        rhs = Cyc.root(psi_value(ext, psi1, prod)) * len(A.centralizer(ebar))
        return lhs, rhs, lhs == rhs
    index = A.class_index()
    if index[A.inv(ebar)] != index[e2bar]:
        return lhs, Cyc.zero(), vanishes
    return lhs, None, None


# ---------------------------------------------------------------------------
# corestriction of intertwiner cocycles (finite model)


class CycMatrix:
    """Small matrix over exact cyclotomic numbers."""

    def __init__(self, rows):
        self.rows = [[v if isinstance(v, Cyc) else Cyc.integer(v) for v in r]
                     for r in rows]
        self.n = len(self.rows)
        self.m = len(self.rows[0])

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def mul(self, other):
        if self.m != other.n:
            raise ValueError("%d columns times %d rows" % (self.m, other.n))
        return CycMatrix(
            [[sum((self.rows[i][k] * other.rows[k][j]
                   for k in range(self.m)), Cyc.zero())
              for j in range(other.m)]
             for i in range(self.n)])

    def eq(self, other):
        return (self.n, self.m) == (other.n, other.m) and all(
            self.rows[i][j] == other.rows[i][j]
            for i in range(self.n) for j in range(self.m))


def _scalar_ratio(lhs, rhs):
    """The scalar c with lhs = c * rhs.  Raises ValueError when there is
    none."""
    if (lhs.n, lhs.m) != (rhs.n, rhs.m):
        raise ValueError("matrices are not proportional")
    pairs = [(x, y) for xs, ys in zip(lhs.rows, rhs.rows)
             for x, y in zip(xs, ys)]
    for x, y in pairs:
        if not y.is_zero():
            c = cyc_div(x, y)
            if any(a != c * b for a, b in pairs):
                raise ValueError("matrices are not proportional")
            return c
    raise ValueError("zero matrix in scalar extraction")


class InducedIntertwinerData:
    """Finite model of the induction-lemma data: a group J with an action of
    A by automorphisms, twist elements g_a in J, a representation pi of J by
    CycMatrices, and intertwiners pi~_a satisfying

        pi(g_a a(g) g_a^-1) pi~_a = pi~_a pi(g)   for all g in J.
    """

    def __init__(self, J, A, act, g, pi, piT):
        self.J = J
        self.A = A
        self.act = act          # act[a][j] = a(j)
        self.g = g              # g[a] in J
        self.pi = pi            # pi[j] = CycMatrix
        self.piT = piT          # piT[a] = CycMatrix
        for a in range(A.order):
            for j in range(J.order):
                lhs = pi[J.mul(J.mul(g[a], act[a][j]), J.inv(g[a]))].mul(piT[a])
                if not lhs.eq(piT[a].mul(pi[j])):
                    raise ValueError("intertwiner equation fails at (%d, %d)"
                                     % (a, j))

    def alpha(self, a1, a2):
        """alpha(a1, a2): the scalar with
        pi~_a1 pi~_a2 = alpha * pi(h) pi~_{a1 a2},  h the J-part defect."""
        A, J = self.A, self.J
        prod_j = J.mul(self.g[a1], self.act[a1][self.g[a2]])
        a12 = A.mul(a1, a2)
        h = J.mul(prod_j, J.inv(self.g[a12]))
        lhs = self.piT[a1].mul(self.piT[a2])
        rhs = self.pi[h].mul(self.piT[a12])
        return _scalar_ratio(lhs, rhs)


def _tensor_operator(maps, dim, k):
    """Operator on the k-fold tensor space with output factor ci taken from
    input factor src_ci through the matrix M_ci; maps = [(src, M), ...]."""
    size = dim ** k
    zero = Cyc.zero()
    rows = [[zero] * size for _ in range(size)]
    for out_idx in itertools.product(range(dim), repeat=k):
        for in_idx in itertools.product(range(dim), repeat=k):
            val = Cyc.integer(1)
            ok = True
            for ci in range(k):
                src, M = maps[ci]
                v = M.rows[out_idx[ci]][in_idx[src]]
                if v.is_zero():
                    ok = False
                    break
                val = val * v
            if ok:
                r = sum(out_idx[i] * dim ** i for i in range(k))
                c = sum(in_idx[i] * dim ** i for i in range(k))
                rows[r][c] = rows[r][c] + val
    return CycMatrix(rows)


def induced_cocycle_check(data, B, A_elems, section):
    """Corestriction lemma in the finite model: build the induced
    intertwiners on the B-side, extract their 2-cocycle beta, and compare it
    entrywise with the cochain corestriction of alpha.

    Returns (beta, cores, equal) with beta and cores tables of Cyc scalars.
    """
    J = data.J
    sec = dict(section)
    cosets, coset_of, r_of = coset_section(B, A_elems, sec)
    coset_list = list(cosets)
    coset_pos = {cs: i for i, cs in enumerate(coset_list)}
    k = len(coset_list)
    dim = data.pi[0].n

    def h_b(b):
        """h_b per coset: h_b(s(c)) = g_{r(s(c) b)}."""
        return [data.g[r_of(B.mul(sec[cs], b))] for cs in coset_list]

    def tilde_H(b):
        """pi~_H(h_b x| b): output factor at c from input factor at the
        block of s(c) b through pi~_{r(s(c) b)}."""
        maps = []
        for cs in coset_list:
            sb = B.mul(sec[cs], b)
            maps.append((coset_pos[coset_of[sb]], data.piT[r_of(sb)]))
        return _tensor_operator(maps, dim, k)

    def pi_H(hvals):
        maps = [(ci, data.pi[hvals[ci]]) for ci in range(k)]
        return _tensor_operator(maps, dim, k)

    tilde_cache = {b: tilde_H(b) for b in range(B.order)}
    hb_cache = {b: h_b(b) for b in range(B.order)}
    alpha = {}      # data.alpha per pair of A, at its first use
    beta = {}
    cores = {}
    for b1 in range(B.order):
        hv1 = hb_cache[b1]
        for b2 in range(B.order):
            hv2 = hb_cache[b2]
            b12 = B.mul(b1, b2)
            hv12 = hb_cache[b12]
            lhs = tilde_cache[b1].mul(tilde_cache[b2])
            # J-part of the product: (h_b1 . b1 h_b2)(s(c)); the value of
            # b1 h_b2 at s(c) is r(s(c) b1) applied to h_b2(s(c) b1)
            hextra = []
            for ci, cs in enumerate(coset_list):
                sb = B.mul(sec[cs], b1)
                cj = coset_pos[coset_of[sb]]
                aa = r_of(sb)
                hp = J.mul(hv1[ci], data.act[aa][hv2[cj]])
                hextra.append(J.mul(hp, J.inv(hv12[ci])))
            rhs = pi_H(hextra).mul(tilde_cache[b12])
            beta[(b1, b2)] = _scalar_ratio(lhs, rhs)
            prod = Cyc.integer(1)
            for cs in coset_list:
                sb1 = B.mul(sec[cs], b1)
                a_first = r_of(sb1)
                key = (a_first, r_of(B.mul(sec[coset_of[sb1]], b2)))
                value = alpha.get(key)
                if value is None:
                    value = alpha[key] = data.alpha(*key)
                prod = prod * value
            cores[(b1, b2)] = prod
    equal = all(beta[key] == cores[key] for key in beta)
    return beta, cores, equal


def block_twisted_trace(phis, T):
    """Both sides of the block-twisted trace identity: the trace of
    (Phi_0 (x) ... (x) Phi_{n-1}) composed with the cyclic-shift-then-T
    operator versus tr(Phi_0 ... Phi_{n-1} T), for integer matrices.  The
    products are taken on the rows of each matrix's data, read once.

    Returns (lhs, rhs, equal)."""
    n = len(phis)
    dim = phis[0].rows
    if any(not m.rows == m.cols == dim for m in [*phis, T]):
        raise ValueError("dimension mismatch")
    datas = [m.data for m in phis]
    t_cols = list(zip(*T.data))

    def times(rows, cols):
        return [[sum(map(mul, row, col)) for col in cols] for row in rows]

    last = times(datas[n - 1], t_cols)
    lhs = 0
    for idx in itertools.product(range(dim), repeat=n):
        term = 1
        for kk in range(n - 1):
            term *= datas[kk][idx[kk]][idx[kk + 1]]
            if term == 0:
                break
        if term:
            lhs += term * last[idx[n - 1]][idx[0]]
    prod = datas[0]
    for m in datas[1:]:
        prod = times(prod, list(zip(*m)))
    # the trace of prod T: row i of prod against column i of T
    rhs = sum(sum(map(mul, row, col)) for row, col in zip(prod, t_cols))
    return lhs, rhs, lhs == rhs
