"""Exact character tables by Dixon's modular method, projective characters
of central extensions, the twisted orthogonality relation, Frobenius
induction, and finite-group models of the extension and induction lemmas
(canonical tensor extensions, Mackey multiplicity transfer, corestriction
of intertwiner cocycles, block-twisted traces).

A character table is computed over a prime field GF(p) with p = 1 mod the
group exponent; eigenvalue multiplicities are lifted to honest cyclotomic
integers and every orthogonality relation is then re-verified exactly.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from fractions import Fraction
from math import isqrt, lcm
from operator import mul

from .groups import Cocycle2, coset_section
from .qz import (QZ, Cyc, cyc_sum, cyc_div, cyc_from_vector, exponent_form,
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
    raise AssertionError("no primitive root found")


def _mat_mul(A, B, p):
    """A B over GF(p), reading only the nonzero entries of A (a class
    matrix is sparse)."""
    m = len(B[0])
    out = []
    for row in A:
        acc = [0] * m
        for a, brow in zip(row, B):
            if a:
                acc = [x + a * y for x, y in zip(acc, brow)]
        out.append([x % p for x in acc])
    return out


def _rref(rows, m, p):
    """Row-reduce `rows` in place over GF(p), pivoting in the first m
    columns; returns the pivot columns."""
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
        for i in range(n):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return pivots


def _nullspace(A, p):
    rows = [list(r) for r in A]
    m = len(rows[0]) if rows else 0
    pivots = _rref(rows, m, p)
    basis = []
    for fc in (c for c in range(m) if c not in pivots):
        v = [0] * m
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-rows[i][fc]) % p
        basis.append(v)
    return basis


def _solve_modp(A, B, p):
    """X with A X = B over GF(p), for an r x m matrix A and an r x k matrix
    B of right-hand sides, by one row reduction of [A | B]; free unknowns
    are 0.  None when some column of B is outside the column space of A.

    >>> _solve_modp([[1, 0], [0, 2], [1, 1]], [[1, 3], [4, 2], [3, 4]], 5)
    [[1, 3], [2, 1]]
    >>> _solve_modp([[1], [1]], [[1, 1], [1, 2]], 5) is None
    True
    """
    m = len(A[0]) if A else 0
    k = len(B[0]) if B else 0
    rows = [list(a) + list(b) for a, b in zip(A, B)]
    pivots = _rref(rows, m, p)
    for row in rows[len(pivots):]:
        if any(x % p for x in row[m:]):
            return None
    X = [[0] * k for _ in range(m)]
    for row, pc in zip(rows, pivots):
        X[pc] = row[m:]
    return X


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


def _poly_roots(poly, p):
    roots = []
    for x in range(p):
        v = 0
        for c in reversed(poly):
            v = (v * x + c) % p
        if v == 0:
            roots.append(x)
    return roots


# ---------------------------------------------------------------------------
# character tables


class CharacterTable:
    """Exact character table: chars[i][k] is the Cyc value of the i-th
    irreducible on the k-th conjugacy class; dims[i] = chars[i][0]."""

    MAX_ORDER = 400

    def __init__(self, group, chars, dims):
        self.group = group
        self.classes = group.conjugacy_classes()
        self.class_index = {}
        for ci, cls in enumerate(self.classes):
            for g in cls:
                self.class_index[g] = ci
        self.chars = chars
        self.dims = dims
        # irr_with_central_char answers, by (generator index, m, psi1)
        self.central = {}
        self._forms = None

    def value(self, i, g):
        return self.chars[i][self.class_index[g]]

    @property
    def nchars(self):
        return len(self.chars)

    def exponent_forms(self):
        """(n, D, rows): every value in integers, computed once per table.
        n is the lcm of the values' levels and D the lcm of their coefficient
        denominators; rows[i][k] holds the (e, c) pairs with c * e(e/n) the
        terms of D * chars[i][k], 0 <= e < n."""
        if self._forms is None:
            n = 1
            for row in self.chars:
                for v in row:
                    n = lcm(n, v.level())
            forms = [[exponent_form(v.terms, n) for v in row]
                     for row in self.chars]
            D = 1
            for row in forms:
                for _, den in row:
                    D = lcm(D, den)
            self._forms = (n, D, [
                [[(k, c * (D // den)) for k, c in pairs] for pairs, den in row]
                for row in forms])
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
    p = 1 mod exp(G), then lift eigenvalue multiplicities to cyclotomics."""
    G = group
    if G.order > CharacterTable.MAX_ORDER:
        raise ValueError("group order %d exceeds the configured bound %d"
                         % (G.order, CharacterTable.MAX_ORDER))
    classes = G.conjugacy_classes()
    r = len(classes)
    reps = [cls[0] for cls in classes]
    class_index = {}
    for ci, cls in enumerate(classes):
        for g in cls:
            class_index[g] = ci
    orders = [G.element_order(g) for g in reps]
    exponent = 1
    for o in orders:
        exponent = lcm(exponent, o)
    p = _find_prime(exponent, 2 * G.order + 1)
    omega = pow(_primitive_root(p), (p - 1) // exponent, p)

    # class matrices (M_i)_{j,k} = #{(x, y) in C_i x C_j : x y = rep_k}
    mats = []
    for i in range(r):
        M = [[0] * r for _ in range(r)]
        for x in classes[i]:
            xi = G.inv(x)
            for k in range(r):
                M[class_index[G.mul(xi, reps[k])]][k] += 1
        mats.append(M)

    spaces = [[tuple(1 if i == j else 0 for i in range(r)) for j in range(r)]]
    for M in mats:
        if all(len(b) == 1 for b in spaces):
            break
        regrouped = []
        for basis in spaces:
            if len(basis) == 1:
                regrouped.append(basis)
                continue
            d = len(basis)
            S = [list(col) for col in zip(*basis)]  # r x d
            # M S = S T: T is M restricted to the space in the basis S
            T = _solve_modp(S, _mat_mul(M, S, p), p)
            if T is None:
                raise ValueError("class matrix must preserve the space")
            for lam in sorted(set(_poly_roots(_charpoly(T, p), p))):
                Tm = [[(T[i][j] - (lam if i == j else 0)) % p
                       for j in range(d)] for i in range(d)]
                sub = []
                for nv in _nullspace(Tm, p):
                    sub.append(tuple(sum(map(mul, row, nv)) % p for row in S))
                if sub:
                    regrouped.append(sub)
        spaces = regrouped
    if len(spaces) != r or any(len(b) != 1 for b in spaces):
        raise ValueError("eigenspace splitting incomplete")

    inv_class = [class_index[G.inv(g)] for g in reps]
    csize_inv = [pow(len(c), p - 2, p) for c in classes]
    # The multiplicity of e(j/h) in chi(g), h the order of g, is
    # h^-1 sum_l chi(g^l) omega_h^(-j l) mod p.  chi(g^l) depends only on
    # the class of g^l, so each class's row of h sums over the l with g^l
    # in it is computed once and shared by every character.
    lifts = []
    for k in range(r):
        h = orders[k]
        wh = pow(omega, exponent // h, p)
        wpow = [1] * h
        for t in range(1, h):
            wpow[t] = wpow[t - 1] * wh % p
        hinv = pow(h, p - 2, p)
        sums = {}
        for l, g in enumerate(G._cyclic_powers(reps[k])):
            row = sums.setdefault(class_index[g], [0] * h)
            for j in range(h):
                row[j] += wpow[-j * l % h]
        lifts.append((h, [(c, [x * hinv % p for x in row])
                          for c, row in sums.items()]))
    level = exponent if exponent % 2 == 0 else 2 * exponent
    chars = []
    dims = []
    keys = []
    for (vec,) in spaces:
        v0 = vec[class_index[0]]
        if v0 % p == 0:
            raise ValueError("eigenvector vanishes at the identity")
        inv0 = pow(v0, p - 2, p)
        w = [(x * inv0) % p for x in vec]
        s = 0
        for k in range(r):
            s = (s + w[k] * w[inv_class[k]] * csize_inv[k]) % p
        d2 = (G.order * pow(s, p - 2, p)) % p
        dim = next((dd for dd in range(1, isqrt(G.order) + 1)
                    if (dd * dd - d2) % p == 0), None)
        if dim is None:
            raise ValueError("no degree squares to |G| / sum |chi|^2")
        chi_p = [(dim * w[k] * csize_inv[k]) % p for k in range(r)]
        values = []
        key = []
        for h, lift in lifts:
            acc = [0] * h
            for c, row in lift:
                x = chi_p[c]
                if x:
                    acc = [a + x * b for a, b in zip(acc, row)]
            step = level // h
            terms = {}
            pairs = []
            for j, m in enumerate(acc):
                m %= p
                if m > dim:
                    raise ValueError("multiplicity lift out of range")
                if m:
                    terms[QZ(j, h)] = m
                    pairs.append((j * step, m))
            values.append(Cyc(terms))
            # the residue mod Phi_level with trailing zeros dropped: the
            # multiplicities are ints, so this is Cyc.reduced_key(level)
            # without its level and with ints in place of Fractions
            res = residue(pairs, level)
            while res and res[-1] == 0:
                res.pop()
            key.append(res)
        chars.append(values)
        dims.append(dim)
        keys.append(key)

    order = sorted(range(r), key=lambda i: (dims[i], keys[i]))
    table = CharacterTable(G, [chars[i] for i in order],
                           [dims[i] for i in order])
    table.verify()
    return table


class TableCache:
    """Keyed cache of character tables: concurrent reads, exclusive insert."""

    def __init__(self):
        self._tables = {}
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
        if t is not None:
            return t
        t = character_table(group)
        with self._lock:
            self._tables.setdefault(k, t)
        return self._tables[k]


TABLE_CACHE = TableCache()


# ---------------------------------------------------------------------------
# projective characters of central extensions


def psi_value(ext, psi1, e):
    """psi applied to the central part of a central element e, where psi
    sends the generator 1/m of mu_m to psi1."""
    z, a = ext.parts(e)
    assert a == 0, "element not central"
    k = z.num * ext.m // z.den
    return k * psi1


def is_psi_centralizing(ext, psi1, e):
    """Whether psi vanishes on every central commutator x e x^-1 e^-1.  A
    commutator k*|A| + 0 is the central element k/m, where psi takes the
    value k * psi1."""
    t, inv = ext.group.table, ext.group.inverse
    n = ext.base.order
    te = t[e]
    for x, tx in enumerate(t):
        k, ac = divmod(t[tx[e]][inv[te[x]]], n)
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
    if not (ext.m * psi1).is_zero():
        return table, []
    gen = ext.element(QZ(1, ext.m), 0)
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


def twisted_orthogonality(ext, psi1, e, e2, cache=None):
    """Both sides of the twisted orthogonality relation over Irr(E, psi):

        sum_tau chi_tau(e) chi_tau(e2) = |Z_A(e-bar)| psi(e e2)  if e e2 central
                                       = 0    if e-bar^-1 not conjugate to e2-bar

    Returns (lhs, rhs, verdict); rhs and verdict are None outside the two
    covered branches.  Raises ValueError when e is not psi-centralizing."""
    if not is_psi_centralizing(ext, psi1, e):
        raise ValueError("element is not psi-centralizing; lemma inapplicable")
    table, sel = irr_with_central_char(ext, psi1, cache)
    # the left side as one group-ring sum of the table's exponent forms
    n, D, rows = table.exponent_forms()
    k1, k2 = table.class_index[e], table.class_index[e2]
    vec = [0] * n
    for i in sel:
        row = rows[i]
        for a, c in row[k1]:
            for b, d in row[k2]:
                vec[(a + b) % n] += c * d
    lhs = cyc_from_vector(vec, D * D)
    E = ext.group
    prod = E.mul(e, e2)
    _, ac = ext.parts(prod)
    ebar = ext.parts(e)[1]
    e2bar = ext.parts(e2)[1]
    A = ext.base
    if ac == 0:
        rhs = Cyc.root(psi_value(ext, psi1, prod)) * len(A.centralizer(ebar))
        return lhs, rhs, lhs == rhs
    if A.class_of(A.inv(ebar)) != A.class_of(e2bar):
        rhs = Cyc.zero()
        return lhs, rhs, lhs == rhs
    return lhs, None, None


def frobenius_induced_value(group, sub_elems, values, g):
    """|H|^-1 sum_{x in G, x^-1 g x in H} f(x^-1 g x)."""
    H = set(sub_elems)
    total = Cyc.zero()
    for x in range(group.order):
        y = group.mul(group.mul(group.inv(x), g), x)
        if y in H:
            total = total + values[y]
    return total * Fraction(1, len(sub_elems))


# ---------------------------------------------------------------------------
# canonical tensor extension (one-dimensional model)


def canonical_tensor_extension(big, sub_elems, x_char, twist=None):
    """The canonical linear character of H~ x_A H~ attached to an invariant
    one-dimensional character x of H: on pairs (e1, e2) in the same H-coset

        value = (x(h1) + w(c)) - (x(h2) + w(c)) = x(h1) - x(h2),

    manifestly independent of the scalar intertwiner choice w (`twist`),
    which is exposed so independence can be demonstrated by recomputation.
    Raises ValueError when x is not invariant."""
    H = set(sub_elems)
    for e in range(big.order):
        for h in sub_elems:
            if x_char[big.conj(big.inv(e), h)] != x_char[h]:
                raise ValueError("character is not invariant under the big group")
    cosets = big.right_cosets(sub_elems)
    section = {cs: cs[0] for cs in cosets}
    coset_of = {}
    for cs in cosets:
        for g in cs:
            coset_of[g] = cs
    twist = twist or {cs: QZ(0) for cs in cosets}

    def value(e1, e2):
        cs = coset_of[e1]
        if coset_of[e2] != cs:
            raise ValueError("pair not in the fiber product")
        s = section[cs]
        h1 = big.mul(e1, big.inv(s))
        h2 = big.mul(e2, big.inv(s))
        assert h1 in H and h2 in H
        return (x_char[h1] + twist[cs]) - (x_char[h2] + twist[cs])

    return value


# ---------------------------------------------------------------------------
# Mackey multiplicity transfer (matched extensions over the same A)


def _class_in_h2(alpha, m):
    """The class of alpha in H^2 of its group with coefficients in mu_m,
    for m a multiple of alpha's level."""
    from .cohomology import GModule, Cochain, tate_group
    from .lattice import IntMatrix

    A, s = alpha.group, m // alpha.m
    gm = GModule.finite(A, (m,), [IntMatrix.identity(1)] * A.order)
    x = Cochain(gm, 2, {(a, b): (s * v,) for a, row in enumerate(alpha.ints)
                        for b, v in enumerate(row)})
    return tate_group(gm, 2).classify(x)


def _section_by_quotient(big, quot):
    sec = {}
    for e in range(big.order):
        a = quot[e]
        if a not in sec:
            sec[a] = e
    return sec


def _obstruction_cocycle(big, quot, stab_group, stab_elems, x, w):
    """2-cocycle of the stabilizer from the section and intertwiner scalars:
    alpha(a, b) = x(s_a s_b s_ab^-1) + w(a) + w(b) - w(ab).  Raises
    ValueError unless that is a normalized cocycle (w(1) = 0)."""
    sec = _section_by_quotient(big, quot)
    vals = {}
    for i, a in enumerate(stab_elems):
        for j, b in enumerate(stab_elems):
            ab = stab_elems[stab_group.mul(i, j)]
            h = big.mul(big.mul(sec[a], sec[b]), big.inv(sec[ab]))
            vals[(i, j)] = (x[h] + w[a] + w[b]) - w[ab]
    return Cocycle2(stab_group, vals)


def mackey_multiplicity_transfer(data, cache=None):
    """Finite model of the induced-correspondence lemma for two extensions
    of one component group A over matched invariant characters.

    data keys: big1, big2 (FiniteGroup extensions), sub1, sub2 (subgroup
    element lists), quot1, quot2 (lists: element -> A index), A, and
    orbits: a list of dicts with stab (subgroup list of A covering the
    stabilizer A_x), x1, x2 (invariant QZ-characters of sub_i), w1, w2
    (scalar intertwiner choices A_x -> QZ).

    Returns (correspondence, table1, table2, over1, over2).  Raises
    ValueError when the projective obstruction classes of a matched orbit
    disagree (the lemma's hypothesis)."""
    big1, big2 = data["big1"], data["big2"]
    sub1, sub2 = data["sub1"], data["sub2"]
    quot1, quot2 = data["quot1"], data["quot2"]
    A = data["A"]
    cache = cache or TABLE_CACHE
    t1 = cache.get_or_compute(big1)
    t2 = cache.get_or_compute(big2)

    fiber = [(e1, e2) for e1 in range(big1.order) for e2 in range(big2.order)
             if quot1[e1] == quot2[e2]]
    xt_values = {pair: Cyc.zero() for pair in fiber}
    for orbit in data["orbits"]:
        stab_elems = list(orbit["stab"])
        stab_group, _ = A.subgroup_as_group(stab_elems)
        x1, x2 = orbit["x1"], orbit["x2"]
        w1, w2 = orbit["w1"], orbit["w2"]
        o1 = _obstruction_cocycle(big1, quot1, stab_group, stab_elems, x1, w1)
        o2 = _obstruction_cocycle(big2, quot2, stab_group, stab_elems, x2, w2)
        m = lcm(o1.m, o2.m)
        c1 = _class_in_h2(o1, m)
        c2 = _class_in_h2(o2, m)
        if c1 != c2:
            raise ValueError("projective obstruction classes disagree")
        sec1 = _section_by_quotient(big1, quot1)
        sec2 = _section_by_quotient(big2, quot2)
        stab_set = set(stab_elems)
        small = [(e1, e2) for (e1, e2) in fiber if quot1[e1] in stab_set]
        small_set = set(small)

        def xt(e1, e2):
            a = quot1[e1]
            h1 = big1.mul(e1, big1.inv(sec1[a]))
            h2 = big2.mul(e2, big2.inv(sec2[a]))
            return Cyc.root((x1[h1] + w1[a]) - (x2[h2] + w2[a]))

        for (g1, g2) in fiber:
            total = Cyc.zero()
            for (c1e, c2e) in fiber:
                y1 = big1.conj(big1.inv(c1e), g1)
                y2 = big2.conj(big2.inv(c2e), g2)
                if (y1, y2) in small_set:
                    total = total + xt(y1, y2)
            xt_values[(g1, g2)] = xt_values[(g1, g2)] \
                + total * Fraction(1, len(small))

    def irr_over(table, big, sub, xs):
        out = []
        for i in range(table.nchars):
            for x in xs:
                total = cyc_sum(Cyc.root(-x[h]) * table.value(i, h)
                                for h in sub)
                if (total * Fraction(1, len(sub))).as_rational():
                    out.append(i)
                    break
        return out

    over1 = irr_over(t1, big1, sub1, [o["x1"] for o in data["orbits"]])
    over2 = irr_over(t2, big2, sub2, [o["x2"] for o in data["orbits"]])

    mult = {}
    for i in over1:
        for j in over2:
            total = Cyc.zero()
            for (e1, e2) in fiber:
                total = total + (xt_values[(e1, e2)]
                                 * t1.value(i, e1).conj() * t2.value(j, e2))
            m = (total * Fraction(1, len(fiber))).as_rational()
            assert m is not None and m.denominator == 1 and m >= 0, \
                "multiplicity must be a nonnegative integer"
            assert m <= 1, "multiplicity exceeds 1"
            mult[(i, j)] = int(m)
    corr = {}
    for i in over1:
        hits = [j for j in over2 if mult[(i, j)] == 1]
        assert len(hits) == 1, "correspondence is not a bijection"
        corr[i] = hits[0]
    assert len(set(corr.values())) == len(over1) == len(over2)
    return corr, t1, t2, over1, over2


def restriction_multiplicity(table_big, big, sub_group, sub_elems, i, table_sub, j):
    """Multiplicity of the j-th irreducible of the subgroup in the
    restriction of the i-th irreducible of the big group."""
    total = Cyc.zero()
    for si, g in enumerate(sub_elems):
        total = total + table_big.value(i, g) * table_sub.value(j, si).conj()
    m = (total * Fraction(1, len(sub_elems))).as_rational()
    assert m is not None and m.denominator == 1 and m >= 0
    return int(m)


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

    @classmethod
    def scalar(cls, c, n):
        z = Cyc.zero()
        return cls([[c if i == j else z for j in range(n)] for i in range(n)])

    def mul(self, other):
        assert self.m == other.n
        return CycMatrix(
            [[cyc_sum(self.rows[i][k] * other.rows[k][j]
                      for k in range(self.m)) for j in range(other.m)]
             for i in range(self.n)])

    def eq(self, other):
        return (self.n, self.m) == (other.n, other.m) and all(
            self.rows[i][j] == other.rows[i][j]
            for i in range(self.n) for j in range(self.m))


def _scalar_ratio(lhs, rhs):
    """The scalar c with lhs = c * rhs, asserted to exist."""
    for i in range(lhs.n):
        for j in range(lhs.m):
            if not rhs.rows[i][j].is_zero():
                c = cyc_div(lhs.rows[i][j], rhs.rows[i][j])
                assert lhs.eq(CycMatrix.scalar(c, lhs.n).mul(rhs)), \
                    "matrices are not proportional"
                return c
    raise AssertionError("zero matrix in scalar extraction")


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
                a_second = r_of(B.mul(sec[coset_of[sb1]], b2))
                prod = prod * data.alpha(a_first, a_second)
            cores[(b1, b2)] = prod
    equal = all(beta[key] == cores[key] for key in beta)
    return beta, cores, equal


def twisted_classes(J, theta):
    """Orbits of J acting on itself by g . d = g d theta(g)^-1."""
    seen = set()
    classes = []
    for d in range(J.order):
        if d in seen:
            continue
        orbit = set()
        frontier = {d}
        while frontier:
            x = frontier.pop()
            if x in orbit:
                continue
            orbit.add(x)
            for g in range(J.order):
                y = J.mul(J.mul(g, x), J.inv(theta[g]))
                if y not in orbit:
                    frontier.add(y)
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    return classes


def block_rotation_class_bijection(J, theta, n):
    """The multiplication map from block tuples to the group induces a
    bijection from rotation-twisted classes of J^n to theta-twisted classes
    of J, with inverse d -> (d, 1, ..., 1).

    Returns (ok, class_count).  Checked by exhausting both orbit sets, so
    it only suits small groups and small n."""
    size = J.order ** n

    def decode(i):
        out = []
        for _ in range(n):
            i, r = divmod(i, J.order)
            out.append(r)
        return tuple(out)

    def encode(t):
        i = 0
        for x in reversed(t):
            i = i * J.order + x
        return i

    def mul_tuple(a, b):
        return tuple(J.mul(x, y) for x, y in zip(a, b))

    def big_theta(t):
        return t[1:] + (theta[t[0]],)

    # twisted classes of the product under the rotate-then-theta automorphism
    seen = set()
    big_classes = []
    for i in range(size):
        if i in seen:
            continue
        orbit = set()
        frontier = {i}
        while frontier:
            x = frontier.pop()
            if x in orbit:
                continue
            orbit.add(x)
            xt = decode(x)
            for g in range(size):
                gt = decode(g)
                inv_tg = tuple(J.inv(v) for v in big_theta(gt))
                y = encode(mul_tuple(mul_tuple(gt, xt), inv_tg))
                if y not in orbit:
                    frontier.add(y)
        seen |= orbit
        big_classes.append(orbit)
    small_classes = twisted_classes(J, theta)
    if len(big_classes) != len(small_classes):
        return False, len(small_classes)
    class_of = {}
    for ci, cls in enumerate(small_classes):
        for d in cls:
            class_of[d] = ci
    hit = set()
    for orbit in big_classes:
        images = set()
        for i in orbit:
            t = decode(i)
            prod = t[0]
            for x in t[1:]:
                prod = J.mul(prod, x)
            images.add(class_of[prod])
        if len(images) != 1:
            return False, len(small_classes)
        hit.add(images.pop())
    ok = hit == set(range(len(small_classes)))
    # the inverse relation: multiplying the one-block inclusion back
    for d in range(J.order):
        t = (d,) + (0,) * (n - 1)
        prod = t[0]
        for x in t[1:]:
            prod = J.mul(prod, x)
        ok = ok and prod == d
    return ok, len(small_classes)


def block_twisted_trace(phis, T):
    """Both sides of the block-twisted trace identity: the trace of
    (Phi_0 (x) ... (x) Phi_{n-1}) composed with the cyclic-shift-then-T
    operator versus tr(Phi_0 ... Phi_{n-1} T), for integer matrices.

    Returns (lhs, rhs, equal)."""
    n = len(phis)
    dim = phis[0].rows
    for m in phis:
        assert m.rows == m.cols == dim, "dimension mismatch"
    assert T.rows == T.cols == dim, "dimension mismatch"
    last = phis[n - 1] * T
    lhs = 0
    for idx in itertools.product(range(dim), repeat=n):
        term = 1
        for kk in range(n - 1):
            term *= phis[kk].data[idx[kk]][idx[kk + 1]]
            if term == 0:
                break
        if term:
            lhs += term * last.data[idx[n - 1]][idx[0]]
    prod = phis[0]
    for m in phis[1:]:
        prod = prod * m
    prod = prod * T
    rhs = sum(prod.data[i][i] for i in range(dim))
    return lhs, rhs, lhs == rhs
