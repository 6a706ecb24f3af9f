"""Q/Z (roots of unity written additively) and exact cyclotomic numbers.

A QZ value q stands for the root of unity exp(2*pi*i*q).  It is stored as a
pair of Python ints ``num/den`` in lowest terms with ``0 <= num < den``, so
the group law, equality and hashing need nothing beyond integer arithmetic
and ``math.gcd``.

A Cyc value is a formal Q-linear combination of such roots, kept as the dict
``terms: {QZ: coefficient}`` exactly as it was built (reports serialize this
formal sum verbatim, so it is never rewritten into a canonical basis).
Coefficients are ints when they are integral and Fractions otherwise.
Equality is decided exactly by reduction modulo the cyclotomic polynomial of
the common level n: after scaling by the lcm of the coefficient denominators
the sum is integral, and each e(k/n) is replaced by its row in a cached table
of x^k mod Phi_n.  Phi_n is monic, so the reduction stays in the integers.
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

    @property
    def frac(self):
        """The canonical lift in [0, 1) as a Fraction."""
        return Fraction(self.num, self.den)

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

    def sort_key(self):
        return (self.den, self.num)


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


def exponent_form(terms, n):
    """A formal sum {QZ: coefficient} at level n, in integers: (pairs, den)
    with den the lcm of the coefficient denominators and pairs the (k, c)
    with c * e(k/n) the terms scaled by den, 0 <= k < n, c an int.  n must
    be a multiple of the order of every root.

    >>> exponent_form({QZ(1, 2): Fraction(1, 2), QZ(1, 3): 2}, 6)
    ([(3, 1), (2, 4)], 2)
    """
    den = 1
    for c in terms.values():
        if type(c) is not int:
            den = lcm(den, c.denominator)
    pairs = []
    for q, c in terms.items():
        step, r = divmod(n, q.den)
        if r:
            raise ValueError("level %d is not a multiple of the order %d"
                             % (n, q.den))
        if den != 1:
            c = c.numerator * (den // c.denominator)
        pairs.append((q.num * step, c))
    return pairs, den


def exponent_forms(rows):
    """Rows of Cyc values in integers: (n, D, forms) with n the lcm of the
    values' levels, D the lcm of their coefficient denominators, and
    forms[i][k] the (e, c) pairs with c * e(e/n) the terms of D * rows[i][k],
    0 <= e < n.

    >>> exponent_forms([[Cyc.root(QZ(1, 2), Fraction(1, 3))], [Cyc.integer(2)]])
    (2, 3, [[[(1, 1)]], [[(0, 6)]]])
    """
    rows = [list(row) for row in rows]
    n = lcm(1, *(v.level() for row in rows for v in row))
    forms = [[exponent_form(v.terms, n) for v in row] for row in rows]
    D = lcm(1, *(den for row in forms for _, den in row))
    return n, D, [[[(k, c * (D // den)) for k, c in pairs]
                   for pairs, den in row] for row in forms]


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


def convolve(vec, pairs, acc=None):
    """The product of  sum_k vec[k] x^k  and  sum c x^k  over the (k, c)
    pairs, in Z[x]/(x^n - 1) with n = len(vec): the group-ring product of
    two exponent vectors at level n.  With acc (a list of length n) the
    product is added to acc, returned as a new list.

    >>> convolve([1, 2, 0], [(1, 1), (2, -1)])  # (1 + 2x)(x - x^2)
    [-2, 1, 1]
    >>> convolve([1, 2, 0], [(0, 1)], [5, 0, 0])
    [6, 2, 0]
    """
    n = len(vec)
    out = [0] * n if acc is None else acc
    for k, c in pairs:
        k %= n
        out = [o + c * x for o, x in zip(out, vec[n - k:] + vec[:n - k])]
    return out


def cyc_from_vector(vec, den=1):
    """The Cyc  sum_k (vec[k] / den) e(k/n)  with n = len(vec), from an int
    list indexed by exponent at level n and one common denominator den >= 1.

    Its terms are this element of the group ring Q[Q/Z] with the zero
    coefficients dropped, so they equal the terms that adding and
    multiplying the same roots as Cyc values gives, in any order.

    >>> cyc_from_vector([0, 2, 0, -1], 2)
    Cyc(e(1/4) + -1/2*e(3/4))
    >>> cyc_from_vector([1, 0, 0, 0, 2, 0], 1)
    Cyc(1 + 2*e(2/3))
    """
    return cyc_from_pairs(enumerate(vec), len(vec), den)


def cyc_from_pairs(pairs, n, den=1):
    """cyc_from_vector from the (k, c) pairs of the vector's entries, each k
    at most once: the Cyc  sum (c / den) e(k/n), zero coefficients dropped.

    >>> cyc_from_pairs([(1, 2), (3, -1)], 4, 2)
    Cyc(e(1/4) + -1/2*e(3/4))
    """
    terms = {}
    for k, c in pairs:
        if c:
            if den != 1:
                g = gcd(c, den)
                c = c // g if g == den else Fraction(c // g, den // g)
            terms[_qz(k, n)] = c
    return _cyc(terms)


def _coeff(c):
    """A coefficient as an int when integral, else as a Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _add_into(terms, pairs):
    """Add (root, coefficient) pairs into a clean terms dict in place,
    dropping roots whose coefficient cancels."""
    get = terms.get
    for q, c in pairs:
        s = get(q)
        if s is None:
            terms[q] = c
            continue
        s += c
        if s:
            terms[q] = s if type(s) is int else _coeff(s)
        else:
            del terms[q]
    return terms


def _cyc(terms):
    """A Cyc from terms already clean: distinct QZ keys, nonzero
    coefficients, integral ones as ints."""
    v = _new(Cyc)
    v.terms = terms
    return v


class Cyc:
    """Exact cyclotomic number: a formal sum  sum_q  c_q * e(q)  with q in
    Q/Z and c_q rational, compared via reduction mod the cyclotomic
    polynomial.

    >>> Cyc.root(QZ(1, 3)) + Cyc.root(QZ(2, 3)) == Cyc.integer(-1)
    True
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for q, c in (terms or {}).items():
            q = QZ(q)
            c = _coeff(c)
            if c:
                clean[q] = clean.get(q, 0) + c
        self.terms = {q: _coeff(c) for q, c in clean.items() if c}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def integer(cls, n):
        return cls({QZ(0): n})

    @classmethod
    def rational(cls, r):
        return cls({QZ(0): r})

    @classmethod
    def root(cls, q, coeff=1):
        return cls({QZ(q): coeff})

    def __add__(self, other):
        return _cyc(_add_into(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return _cyc(_add_into(dict(self.terms),
                              ((q, -c) for q, c in other.terms.items())))

    def __neg__(self):
        return _cyc({q: -c for q, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            out = {q: c * other for q, c in self.terms.items()}
        else:
            out = {}
            get = out.get
            for q1, c1 in self.terms.items():
                for q2, c2 in other.terms.items():
                    q = q1 + q2
                    out[q] = get(q, 0) + c1 * c2
        return _cyc({q: c if type(c) is int else _coeff(c)
                     for q, c in out.items() if c})

    __rmul__ = __mul__

    def conj(self):
        """Complex conjugate: e(q) -> e(-q)."""
        return _cyc({-q: c for q, c in self.terms.items()})

    def level(self):
        n = 1
        for q in self.terms:
            d = q.den
            if n % d:
                n = lcm(n, d)
        return n

    def _residue(self, n):
        """(acc, den) with acc the integer coefficients of den * self mod
        Phi_n in the power basis 1, x, ..., x^(deg - 1), x = e(1/n); den is
        the lcm of the coefficient denominators and n a multiple of the
        level."""
        pairs, den = exponent_form(self.terms, n)
        return residue(pairs, n), den

    def is_zero(self):
        if not self.terms:
            return True
        acc, _ = self._residue(self.level())
        return not any(acc)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyc.rational(other)
        if not isinstance(other, Cyc):
            return NotImplemented
        return (self - other).is_zero()

    # values are compared by exact reduction, not hashed
    __hash__ = None

    def reduced_key(self, n=None):
        """Canonical form relative to a level n (residue mod Phi_n).  Two
        values compare equal iff their keys at a common level agree."""
        n = n or self.level()
        acc, den = self._residue(n)
        while acc and acc[-1] == 0:
            acc.pop()
        return (n, tuple(Fraction(a, den) for a in acc))

    def as_rational(self):
        """The value as a Fraction if it is rational, else None.  Rationality
        is read off the power-basis representation mod Phi_n."""
        acc, den = self._residue(self.level())
        if any(acc[1:]):
            return None
        return Fraction(acc[0], den)

    def __repr__(self):
        if not self.terms:
            return "Cyc(0)"
        bits = []
        for q in sorted(self.terms, key=QZ.sort_key):
            c = self.terms[q]
            if q.is_zero():
                bits.append(str(c))
            elif c == 1:
                bits.append("e(%s)" % q.frac)
            else:
                bits.append("%s*e(%s)" % (c, q.frac))
        return "Cyc(%s)" % " + ".join(bits)


def cyc_div(num, den):
    """Exact division num/den of cyclotomic numbers (den nonzero), via the
    field norm: multiply by all nontrivial Galois conjugates of den, then
    divide by the rational norm.  The products run as convolutions of
    exponent vectors."""
    if den.is_zero():
        raise ZeroDivisionError("cyclotomic division by zero")
    m = den.level()
    n = lcm(num.level(), m)
    pairs, d = exponent_form(den.terms, m)
    # conj is d^count times the product of the conjugates e(q) -> e(kq), k
    # a unit mod n other than 1: each relabels the exponents of d * den,
    # so the product stays at den's level m
    conj = [1] + [0] * (m - 1)
    count = 0
    for k in range(2, n + 1):
        if gcd(k, n) == 1:
            conj = convolve(conj, [(j * k % m, c) for j, c in pairs])
            count += 1
    q = cyc_from_vector(convolve(conj, pairs), d ** (count + 1)).as_rational()
    if q is None or q == 0:
        raise ArithmeticError("norm must be a nonzero rational")
    # num * conj / (d^count q), with q = a/b and the denominator kept positive
    npairs, nd = exponent_form(num.terms, n)
    a, b = q.numerator, q.denominator
    if a < 0:
        a, b = -a, -b
    lifted = [0] * n
    lifted[::n // m] = conj
    return cyc_from_vector([x * b for x in convolve(lifted, npairs)],
                           nd * d ** count * a)
