"""Q/Z (roots of unity written additively) and exact cyclotomic numbers.

A QZ value q stands for the root of unity exp(2*pi*i*q).  It is stored as a
pair of Python ints ``num/den`` in lowest terms with ``0 <= num < den``, so
the group law, equality and hashing need nothing beyond integer arithmetic
and ``math.gcd``.

A Cyc value is a formal Q-linear combination of roots of unity, stored in
ints and in lowest terms: its level ``n`` (the least common order of its
roots), its least common denominator ``den`` and the dict ``pairs = {k: c}``
of nonzero coefficients, for the sum of (c / den) e(k/n), 0 <= k < n.  So
equal formal sums are stored equally.  Reports serialize this formal sum
verbatim, so it is never rewritten into a canonical basis.  Equality is
decided exactly by reduction modulo the cyclotomic polynomial of a common
level n: each e(k/n) is replaced by its row in a cached table of
x^k mod Phi_n.  Phi_n is monic, so the reduction stays in the integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .lattice import memoized

_new = object.__new__


def _qz(num, den):
    """QZ(num/den) for ints 0 <= num < den, without the argument checks of
    QZ.__init__."""
    g = gcd(num, den)
    q = _new(QZ)
    q.num = num // g
    q.den = den // g
    return q


class QZ:
    """A rational number reduced modulo 1, kept in lowest terms in [0, 1).

    >>> QZ(1, 2) + QZ(1, 2)
    QZ(0)
    >>> QZ(5, 4)
    QZ(1/4)
    >>> QZ(1, 3).order
    3
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if isinstance(num, QZ):
            self.num, self.den = num.num, num.den
            return
        if type(num) is not int or type(den) is not int:
            f = Fraction(num, den)
            num, den = f.numerator, f.denominator
        elif den == 0:
            raise ZeroDivisionError("QZ(%d, 0)" % num)
        elif den < 0:
            num, den = -num, -den
        num %= den
        g = gcd(num, den)
        self.num = num // g
        self.den = den // g

    @property
    def order(self):
        return self.den

    def __add__(self, other):
        if type(other) is not QZ:
            other = QZ(other)
        d, e = self.den, other.den
        if d == e:
            n = self.num + other.num
            return _qz(n - d if n >= d else n, d)
        m = lcm(d, e)
        return _qz((self.num * (m // d) + other.num * (m // e)) % m, m)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not QZ:
            other = QZ(other)
        return self + (-other)

    def __neg__(self):
        if self.num == 0:
            return self
        return _qz(self.den - self.num, self.den)

    def __mul__(self, k):
        if not isinstance(k, int):
            raise TypeError("QZ only scales by integers, not %r" % (k,))
        return _qz(self.num * k % self.den, self.den)

    __rmul__ = __mul__

    def is_zero(self):
        return self.num == 0

    def __eq__(self, other):
        if isinstance(other, QZ):
            return self.num == other.num and self.den == other.den
        if isinstance(other, int):
            return self.num == 0
        return False

    def __hash__(self):
        return self.num * 1000003 ^ self.den

    def __repr__(self):
        if self.den == 1:
            return "QZ(%d)" % self.num
        return "QZ(%d/%d)" % (self.num, self.den)


def qz_ints(values):
    """A vector of QZ values in integers: (nums, den) with den the lcm of
    the orders and nums[i] / den the canonical lift of values[i].

    >>> qz_ints((QZ(1, 2), QZ(1, 3), QZ(0)))
    ([3, 2, 0], 6)
    """
    den = 1
    for q in values:
        if den % q.den:
            den = lcm(den, q.den)
    return [q.num * (den // q.den) for q in values], den


def qz_tuple(nums, den):
    """The QZ values nums[i] / den mod 1, for ints nums and den >= 1.

    >>> qz_tuple([3, -2, 6], 6)
    (QZ(1/2), QZ(2/3), QZ(0))
    """
    return tuple(_qz(x % den, den) for x in nums)


@memoized()
def cyclotomic_poly(n):
    """Coefficients (low degree first) of the n-th cyclotomic polynomial.
    For squarefree n: exact division of x^n - 1 by the lower Phi_d.
    Otherwise Phi_n(x) = Phi_r(x^(n/r)), with r the product of the primes
    dividing n."""
    if n < 1:
        raise ValueError("cyclotomic_poly needs n >= 1, got %r" % (n,))
    r = _radical(n)
    if r < n:
        phi, step = cyclotomic_poly(r), n // r
        poly = [0] * ((len(phi) - 1) * step + 1)
        poly[::step] = phi
        return tuple(poly)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _polydiv_exact(poly, cyclotomic_poly(d))
    return tuple(poly)


def _radical(n):
    """The product of the primes dividing n >= 1."""
    r, rest, p = 1, n, 2
    while p * p <= rest:
        if rest % p == 0:
            r *= p
            while rest % p == 0:
                rest //= p
        p += 1
    return r * rest


def _polydiv_exact(num, den):
    """Exact division of integer polynomials (low degree first)."""
    num = list(num)
    den = list(den)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        q, r = divmod(c, den[-1])
        if r:
            raise ArithmeticError("polynomial division is not exact")
        out[k] = q
        for i, d in enumerate(den):
            num[k + i] -= q * d
    if any(num):
        raise ArithmeticError("polynomial division leaves a remainder")
    return out


@memoized()
def _level(n):
    """The reduction of level n to an odd squarefree level s, as (m, even,
    s, deg): n = m r with r the radical of n, s = r / 2 if r is even (even
    true) and r otherwise, and deg the degree of Phi_n."""
    r = _radical(n)
    even = r % 2 == 0
    s = r // 2 if even else r
    return n // r, even, s, (n // r) * (len(cyclotomic_poly(s)) - 1)


@memoized()
def _power_residue(n, k):
    """x^k mod Phi_n as sparse (index, coefficient) pairs, built when a
    residue call first reads it.  With (m, even, s) from _level(n),
    Phi_n(x) = Phi_r(x^m), and Phi_r(y) = +-Phi_s(-y) when r = 2s, so with
    k = q m + j and y = x^m, x^k = x^j y^q reduces to row q mod s of the
    odd level s, its i-th entry moved to x^(m i + j) and multiplied by
    (-1)^(q + i) when r is even."""
    m, even, s, _ = _level(n)
    q, j = divmod(k, m)
    row = _odd_level_rows(s)[q % s]
    if even:
        return tuple((m * i + j, -a if (q + i) % 2 else a) for i, a in row)
    return tuple((m * i + j, a) for i, a in row)


@memoized()
def _odd_level_rows(n):
    """Row k (for k in range(n)) is x^k mod Phi_n as sparse (index,
    coefficient) pairs, built by x^(k+1) = x x^k.  Phi_n is monic, so every
    coefficient is an integer."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    # x^deg = -(phi_0 + phi_1 x + ... + phi_(deg-1) x^(deg-1))
    tail = [(i, c) for i, c in enumerate(phi[:-1]) if c]
    row = {0: 1}
    rows = []
    for _ in range(n):
        rows.append(tuple(row.items()))
        nxt = {}
        for i, a in row.items():
            if i + 1 < deg:
                nxt[i + 1] = nxt.get(i + 1, 0) + a
            else:
                for j, c in tail:
                    nxt[j] = nxt.get(j, 0) - a * c
        row = {i: a for i, a in nxt.items() if a}
    return tuple(rows)


def exponent_forms(rows):
    """Rows of Cyc values at one level and over one denominator: (n, D,
    forms) with n the lcm of the values' levels, D the lcm of their
    denominators, and forms[i][k] the stored pairs of rows[i][k] rescaled,
    the (e, c) with c * e(e/n) the terms of D * rows[i][k], 0 <= e < n.

    >>> exponent_forms([[Cyc.root(QZ(1, 2), Fraction(1, 3))], [Cyc.integer(2)]])
    (2, 3, [[[(1, 1)]], [[(0, 6)]]])
    """
    n = lcm(1, *(v.n for row in rows for v in row))
    D = lcm(1, *(v.den for row in rows for v in row))
    return n, D, [[[(k * (n // v.n), c * (D // v.den))
                    for k, c in v.pairs.items()] for v in row]
                  for row in rows]


def residue(pairs, n):
    """Integer coefficients of  sum c * x^k  mod Phi_n, x = e(1/n), in the
    power basis 1, x, ..., x^(deg - 1), from (k, c) pairs with 0 <= k < n.
    The sum is zero iff every coefficient is.

    >>> residue([(0, 1), (1, 1), (2, 1)], 3)  # 1 + x + x^2 = Phi_3
    [0, 0]
    >>> residue([(3, 1)], 4)                  # x^3 = -x mod x^2 + 1
    [0, -1]
    """
    acc = [0] * _level(n)[3]
    for k, c in pairs:
        if c:
            for i, a in _power_residue(n, k):
                acc[i] += a * c
    return acc


def convolve(vec, pairs):
    """The product of  sum_k vec[k] x^k  and  sum c x^k  over the (k, c)
    pairs, in Z[x]/(x^n - 1) with n = len(vec): the group-ring product of
    two exponent vectors at level n, as a new list.

    >>> convolve([1, 2, 0], [(1, 1), (2, -1)])  # (1 + 2x)(x - x^2)
    [-2, 1, 1]
    """
    n = len(vec)
    out = [0] * n
    for k, c in pairs:
        k %= n
        out = [o + c * x for o, x in zip(out, vec[n - k:] + vec[:n - k])]
    return out


def _lowest(n, den, pairs):
    """(n, den, {k: c}) of the sum of (c / den) e(k/n) over (k, c) pairs,
    each k at most once with 0 <= k < n, in lowest terms: zero coefficients
    dropped, then n divided by its gcd with the exponents (the subgroup of
    Q/Z the roots generate is cyclic, so that is the least common order)
    and den by its gcd with the coefficients."""
    pairs = {k: c for k, c in pairs if c}
    if not pairs:
        return 1, 1, pairs
    g = gcd(n, *pairs)
    if g > 1:
        n //= g
        pairs = {k // g: c for k, c in pairs.items()}
    g = gcd(den, *pairs.values()) if den > 1 else 1
    if g > 1:
        den //= g
        pairs = {k: c // g for k, c in pairs.items()}
    return n, den, pairs


def _sum(x, y, sign):
    """x + sign * y at the lcm of the levels and of the denominators."""
    n, den = lcm(x.n, y.n), lcm(x.den, y.den)
    s, f = n // x.n, den // x.den
    acc = {k * s: c * f for k, c in x.pairs.items()}
    get = acc.get
    s, f = n // y.n, sign * (den // y.den)
    for k, c in y.pairs.items():
        k *= s
        acc[k] = get(k, 0) + c * f
    return Cyc.from_pairs(acc.items(), n, den)


class Cyc:
    """Exact cyclotomic number: a formal sum  sum_k  (c_k / den) e(k/n),
    stored in lowest terms as its level n, its denominator den and the
    dict pairs = {k: c_k} of nonzero ints, and compared via reduction mod
    the cyclotomic polynomial.

    >>> Cyc.root(QZ(1, 3)) + Cyc.root(QZ(2, 3)) == Cyc.integer(-1)
    True
    >>> v = Cyc({QZ(1, 2): Fraction(1, 2), QZ(1, 3): 2})
    >>> v.n, v.den, v.pairs
    (6, 2, {3: 1, 2: 4})
    """

    __slots__ = ("n", "den", "pairs")

    def __init__(self, terms=None):
        """The sum of c * e(q) over a {q: c} dict, q a QZ or anything QZ
        reads and c an int or a rational."""
        roots = [(QZ(q), Fraction(c)) for q, c in (terms or {}).items()]
        n = lcm(1, *(q.den for q, _ in roots))
        den = lcm(1, *(c.denominator for _, c in roots))
        acc = {}
        for q, c in roots:
            k = q.num * (n // q.den)
            acc[k] = acc.get(k, 0) + c.numerator * (den // c.denominator)
        self.n, self.den, self.pairs = _lowest(n, den, acc.items())

    @classmethod
    def from_pairs(cls, pairs, n, den=1):
        """The sum of (c / den) e(k/n) over (k, c) pairs of ints, each k at
        most once with 0 <= k < n, and den >= 1; zero coefficients are
        dropped, and no QZ is built.

        >>> Cyc.from_pairs([(1, 2), (3, -1)], 4, 2)
        Cyc(e(1/4) + -1/2*e(3/4))
        >>> Cyc.from_pairs(enumerate([1, 0, 0, 0, 2, 0]), 6)
        Cyc(1 + 2*e(2/3))
        """
        v = _new(cls)
        v.n, v.den, v.pairs = _lowest(n, den, pairs)
        return v

    @classmethod
    def zero(cls):
        return cls.from_pairs((), 1)

    @classmethod
    def integer(cls, m):
        return cls.from_pairs(((0, m),), 1)

    @classmethod
    def root(cls, q, coeff=1):
        if type(q) is not QZ:
            q = QZ(q)
        c = coeff if type(coeff) is int else Fraction(coeff)
        return cls.from_pairs(((q.num, c.numerator),), q.den, c.denominator)

    def __add__(self, other):
        return _sum(self, other, 1)

    def __sub__(self, other):
        return _sum(self, other, -1)

    def __mul__(self, other):
        if type(other) is int:
            return Cyc.from_pairs([(k, c * other) for k, c in
                                   self.pairs.items()], self.n, self.den)
        if not isinstance(other, Cyc):
            return NotImplemented
        n = lcm(self.n, other.n)
        s, t = n // self.n, n // other.n
        right = [(k * t, c) for k, c in other.pairs.items()]
        acc = {}
        get = acc.get
        for k1, c1 in self.pairs.items():
            k1 *= s
            for k2, c2 in right:
                k = (k1 + k2) % n
                acc[k] = get(k, 0) + c1 * c2
        return Cyc.from_pairs(acc.items(), n, self.den * other.den)

    __rmul__ = __mul__

    def is_zero(self):
        return not self.pairs or not any(residue(self.pairs.items(), self.n))

    def __eq__(self, other):
        """Equal stored forms are equal values; otherwise the difference is
        reduced mod Phi_n at the common level n, in one residue call."""
        if isinstance(other, (int, Fraction)):
            other = Cyc.from_pairs(((0, other.numerator),), 1,
                                   other.denominator)
        elif not isinstance(other, Cyc):
            return NotImplemented
        if self.n == other.n and self.den == other.den \
                and self.pairs == other.pairs:
            return True
        n, den = lcm(self.n, other.n), lcm(self.den, other.den)
        s, f = n // self.n, den // self.den
        t, g = n // other.n, -(den // other.den)
        return not any(residue(
            [(k * s, c * f) for k, c in self.pairs.items()]
            + [(k * t, c * g) for k, c in other.pairs.items()], n))

    # values are compared by exact reduction, not hashed
    __hash__ = None

    def reduced_key(self, n=None):
        """Canonical form relative to a level n, a multiple of the level
        (residue mod Phi_n).  Two values compare equal iff their keys at a
        common level agree."""
        n = n or self.n
        if n % self.n:
            raise ValueError("level %d is not a multiple of the level %d"
                             % (n, self.n))
        s = n // self.n
        acc = residue([(k * s, c) for k, c in self.pairs.items()], n)
        while acc and acc[-1] == 0:
            acc.pop()
        return (n, tuple(Fraction(a, self.den) for a in acc))

    def as_rational(self):
        """The value as a Fraction if it is rational, else None.  Rationality
        is read off the power-basis representation mod Phi_n."""
        acc = residue(self.pairs.items(), self.n)
        if any(acc[1:]):
            return None
        return Fraction(acc[0], self.den)

    def reduced_terms(self):
        """The terms as (d, j, a, b) for (a / b) e(j/d), the root j/d and the
        coefficient a/b each in lowest terms (b >= 1), sorted by (d, j)."""
        n, den = self.n, self.den
        out = []
        for k, c in self.pairs.items():
            g, h = gcd(k, n), gcd(c, den)
            out.append((n // g, k // g, c // h, den // h))
        out.sort()
        return out

    def __repr__(self):
        bits = []
        for d, j, a, b in self.reduced_terms():
            c = "%d" % a if b == 1 else "%d/%d" % (a, b)
            bits.append(c if j == 0 else "e(%d/%d)" % (j, d) if c == "1"
                        else "%s*e(%d/%d)" % (c, j, d))
        return "Cyc(%s)" % (" + ".join(bits) or "0")


def cyc_div(num, den):
    """Exact division num/den of cyclotomic numbers (den nonzero), via the
    field norm: multiply by all nontrivial Galois conjugates of den, then
    divide by the rational norm.  The products run as convolutions of
    exponent vectors."""
    if den.is_zero():
        raise ZeroDivisionError("cyclotomic division by zero")
    m, d = den.n, den.den
    n = lcm(num.n, m)
    pairs = list(den.pairs.items())
    # conj is d^count times the product of the conjugates e(q) -> e(kq), k
    # a unit mod n other than 1: each relabels the exponents of d * den,
    # so the product stays at den's level m
    conj = [1] + [0] * (m - 1)
    count = 0
    for k in range(2, n + 1):
        if gcd(k, n) == 1:
            conj = convolve(conj, [(j * k % m, c) for j, c in pairs])
            count += 1
    q = Cyc.from_pairs(enumerate(convolve(conj, pairs)), m,
                       d ** (count + 1)).as_rational()
    if q is None or q == 0:
        raise ArithmeticError("norm must be a nonzero rational")
    # num * conj / (d^count q), with q = a/b and the denominator kept positive
    s = n // num.n
    npairs = [(k * s, c) for k, c in num.pairs.items()]
    a, b = q.numerator, q.denominator
    if a < 0:
        a, b = -a, -b
    lifted = [0] * n
    lifted[::n // m] = conj
    return Cyc.from_pairs(enumerate([x * b for x in convolve(lifted, npairs)]),
                          n, num.den * d ** count * a)
