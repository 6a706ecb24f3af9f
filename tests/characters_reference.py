"""The character-table construction of an earlier toruscheck, kept as an
oracle: Dixon's method with one nullspace per eigenvalue, one row reduction
of [S | M S] per class matrix and space, and one multiplicity lift per
character.  Tests compare the dims, the row order and every value's terms
of `toruscheck.characters.character_table` against it.

The GF(p) helpers and `character_table` below are that version's code,
unchanged, so the oracle does not move when the package's helpers do.
"""

from __future__ import annotations

from math import isqrt, lcm
from operator import mul

from toruscheck.characters import CharacterTable
from toruscheck.qz import QZ, Cyc, residue


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
