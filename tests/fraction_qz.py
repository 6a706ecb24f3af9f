"""Reference implementation for differential tests: the original
Fraction-backed QZ and Cyc, kept verbatim apart from the ``num``/``den``
properties that let ``casefile.encode_qz`` read an oracle QZ, from
``encode_cyc``, the report encoding of a formal sum as ``casefile`` wrote
it when ``Cyc`` stored these terms, and from
``cyc_div``, which takes the norm of the denominator as one product with the
product of its conjugates instead of a second running product (the norm is
read only as a value; the conjugate product's terms are compared with
``toruscheck.qz.cyc_div``'s, so it stays unreduced).

Nothing in the package imports this module.  test_qz_oracle.py checks
``toruscheck.qz`` against it operation by operation.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


class QZ:
    __slots__ = ("frac",)

    def __init__(self, num, den=1):
        if isinstance(num, QZ):
            f = num.frac
        else:
            f = Fraction(num, den)
        self.frac = f - (f.numerator // f.denominator)  # reduce into [0,1)

    @property
    def num(self):
        return self.frac.numerator

    @property
    def den(self):
        return self.frac.denominator

    @property
    def order(self):
        return self.frac.denominator

    def __add__(self, other):
        return QZ(self.frac + QZ(other).frac)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return QZ(self.frac - QZ(other).frac)

    def __neg__(self):
        return QZ(-self.frac)

    def __mul__(self, k):
        assert isinstance(k, int), "QZ only scales by integers"
        return QZ(self.frac * k)

    __rmul__ = __mul__

    def is_zero(self):
        return self.frac == 0

    def __eq__(self, other):
        if isinstance(other, int):
            return self.frac == Fraction(other % 1)
        return isinstance(other, QZ) and self.frac == other.frac

    def __hash__(self):
        return hash(self.frac)

    def __repr__(self):
        return "QZ(%s)" % self.frac

    def sort_key(self):
        return (self.frac.denominator, self.frac.numerator)


@lru_cache(maxsize=None)
def cyclotomic_poly(n):
    assert n >= 1
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _polydiv_exact(poly, cyclotomic_poly(d))
    return tuple(poly)


def _polydiv_exact(num, den):
    num = list(num)
    den = list(den)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        assert c % den[-1] == 0
        q = c // den[-1]
        out[k] = q
        for i, d in enumerate(den):
            num[k + i] -= q * d
    assert all(c == 0 for c in num)
    return out


class Cyc:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for q, c in (terms or {}).items():
            q = QZ(q)
            c = Fraction(c)
            if c:
                clean[q] = clean.get(q, Fraction(0)) + c
        self.terms = {q: c for q, c in clean.items() if c}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def integer(cls, n):
        return cls({QZ(0): Fraction(n)})

    @classmethod
    def rational(cls, r):
        return cls({QZ(0): Fraction(r)})

    @classmethod
    def root(cls, q, coeff=1):
        return cls({QZ(q): Fraction(coeff)})

    def __add__(self, other):
        out = dict(self.terms)
        for q, c in other.terms.items():
            out[q] = out.get(q, Fraction(0)) + c
        return Cyc(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for q, c in other.terms.items():
            out[q] = out.get(q, Fraction(0)) - c
        return Cyc(out)

    def __neg__(self):
        return Cyc({q: -c for q, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyc({q: c * other for q, c in self.terms.items()})
        out = {}
        for q1, c1 in self.terms.items():
            for q2, c2 in other.terms.items():
                q = q1 + q2
                out[q] = out.get(q, Fraction(0)) + c1 * c2
        return Cyc(out)

    __rmul__ = __mul__

    def conj(self):
        return Cyc({-q: c for q, c in self.terms.items()})

    def scale_root(self, q):
        return Cyc({p + QZ(q): c for p, c in self.terms.items()})

    def level(self):
        n = 1
        for q in self.terms:
            n = lcm(n, q.order)
        return n

    def _coeff_vector(self, n):
        v = [Fraction(0)] * n
        for q, c in self.terms.items():
            k = q.frac * n
            assert k.denominator == 1
            v[int(k) % n] += c
        return v

    def is_zero(self):
        if not self.terms:
            return True
        n = self.level()
        v = self._coeff_vector(n)
        phi = list(cyclotomic_poly(n))
        rem = _polyrem(v, phi)
        return all(c == 0 for c in rem)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyc.rational(other)
        if not isinstance(other, Cyc):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def reduced_key(self, n=None):
        n = n or self.level()
        v = self._coeff_vector(n)
        rem = _polyrem(v, list(cyclotomic_poly(n)))
        while rem and rem[-1] == 0:
            rem.pop()
        return (n, tuple(rem))

    def as_rational(self):
        n = self.level()
        v = self._coeff_vector(n)
        rem = _polyrem(v, list(cyclotomic_poly(n)))
        if all(c == 0 for c in rem[1:]):
            return rem[0] if rem else Fraction(0)
        return None

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


def encode_cyc(v):
    """["j/d", "a/b"] for each term (a / b) e(j/d), sorted by the root's
    sort_key."""
    return [["%d/%d" % (q.num, q.den), "%d/%d" % (c.numerator, c.denominator)]
            for q, c in sorted(v.terms.items(), key=lambda t: t[0].sort_key())]


def _polyrem(num, den):
    num = [Fraction(c) for c in num]
    dn = len(den) - 1
    lead = Fraction(den[-1])
    for k in range(len(num) - 1 - dn, -1, -1):
        c = num[k + dn] / lead
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    return num[:dn]


def cyc_div(num, den):
    assert not den.is_zero(), "division by zero"
    n = lcm(num.level(), den.level())

    def galois(v, k):
        return Cyc({QZ(q.frac * k): c for q, c in v.terms.items()})

    conj_prod = Cyc.integer(1)
    for k in range(2, n + 1):
        if gcd(k, n) == 1:
            conj_prod = conj_prod * galois(den, k)
    q = (den * conj_prod).as_rational()
    assert q is not None and q != 0, "norm must be a nonzero rational"
    return (num * conj_prod) * (Fraction(1) / q)
