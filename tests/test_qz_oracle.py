"""Differential tests: toruscheck.qz against the Fraction-backed reference in
fraction_qz.py.  Formal sums are compared byte for byte, not only by value,
since reports serialize them verbatim: ``casefile.encode_cyc`` against the
reference's own encoding of its terms, and the stored form against the one
``Cyc(terms)`` builds from those terms, since equal formal sums are stored
equally.

Each example draws one level L <= 60 and builds every value from roots whose
orders divide L, so sums mix several orders but stay at a level the
reference can reduce quickly.
"""

from fractions import Fraction
from math import lcm
from operator import add

from hypothesis import given, settings, strategies as st

import fraction_qz as ref
from cyc_verify import conj, scaled, stored
from toruscheck.casefile import encode_cyc, encode_qz
from toruscheck.qz import QZ, Cyc, convolve, cyc_div


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def prime_factors(n):
    return [p for p in range(2, n + 1) if n % p == 0
            and all(p % k for k in range(2, p))]


levels = st.integers(1, 60)
coeffs = st.one_of(st.integers(-4, 4),
                   st.fractions(min_value=-3, max_value=3, max_denominator=6))


def encode_or_none(q):
    return None if q is None else encode_qz(q)


@st.composite
def qz_pair(draw, level):
    d = draw(st.sampled_from(divisors(level)))
    k = draw(st.integers(-2 * level, 2 * level))
    return QZ(k, d), ref.QZ(k, d)


@st.composite
def cyc_pair(draw, level):
    """The same formal sum built with both implementations: a few roots of
    orders dividing the level (negative exponents, fractional coefficients)
    and, sometimes, a multiple of a shifted sum of all p-th roots of unity,
    which is zero without cancelling term by term."""
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        d = draw(st.sampled_from(divisors(level)))
        terms.append((draw(st.integers(-2 * level, 2 * level)), d,
                      draw(coeffs)))
    primes = prime_factors(level)
    if primes and draw(st.booleans()):
        p = draw(st.sampled_from(primes))
        shift = draw(st.integers(-level, level))
        c = draw(coeffs)
        terms.extend((j * (level // p) + shift, level, c) for j in range(p))
    new = sum((Cyc.root(QZ(k, d), c) for k, d, c in terms), Cyc.zero())
    old = ref.Cyc.zero()
    for k, d, c in terms:
        old = old + ref.Cyc.root(ref.QZ(k, d), c)
    return new, old


def same(new, old):
    """new has old's encoding and repr, and stores what Cyc(terms) of
    old's terms stores: equal formal sums are stored equally."""
    assert encode_cyc(new) == ref.encode_cyc(old)
    assert repr(new) == repr(old)
    assert stored(new) == stored(Cyc({q.frac: c for q, c in old.terms.items()}))


@st.composite
def level_and(draw, *makers):
    level = draw(levels)
    return (level,) + tuple(draw(m(level)) for m in makers)


@settings(max_examples=150, deadline=None)
@given(level_and(qz_pair, qz_pair), st.integers(-70, 70))
def test_qz_matches_reference(data, m):
    _, (a, ra), (b, rb) = data
    for new, old in ((a + b, ra + rb), (a - b, ra - rb), (-a, -ra),
                     (a * m, ra * m), (m * a, m * ra), (a + m, ra + m)):
        assert encode_qz(new) == encode_qz(old)
        assert repr(new) == repr(old)
        assert (new.den, new.num) == old.sort_key()
        assert new.order == old.order and Fraction(new.num, new.den) == old.frac
    assert (a == b) == (ra == rb)
    assert a != m  # a QZ equals no int
    assert a.is_zero() == ra.is_zero()
    assert QZ(ra.frac) == a == QZ(a) == QZ(a.num + m * a.den, a.den)


@settings(max_examples=120, deadline=None)
@given(level_and(cyc_pair, cyc_pair, qz_pair), st.integers(-5, 5),
       st.fractions(min_value=-2, max_value=2, max_denominator=7))
def test_cyc_ring_ops_match_reference(data, k, r):
    _, (x, rx), (y, ry), (q, rq) = data
    same(x, rx)
    same(x + y, rx + ry)
    same(x + y * -1, rx - ry)
    same(x + x * -1, rx - rx)
    same(x * -1, -rx)
    same(x * y, rx * ry)
    same(x * k, rx * k)
    same(k * x, k * rx)
    same(scaled(x, r), rx * r)
    same(conj(x), rx.conj())
    same(x * Cyc.root(q), rx.scale_root(rq))
    assert x.n == rx.level()


@settings(max_examples=100, deadline=None)
@given(level_and(cyc_pair, cyc_pair), st.integers(-3, 3),
       st.fractions(min_value=-2, max_value=2, max_denominator=5))
def test_cyc_predicates_match_reference(data, k, r):
    level, (x, rx), (y, ry) = data
    assert x.is_zero() == rx.is_zero()
    assert (x + y * -1).is_zero() == (rx - ry).is_zero()
    assert (x == y) == (rx == ry)
    assert (x == Cyc.integer(k)) == (rx == k)
    assert (x == scaled(Cyc.integer(1), r)) == (rx == ref.Cyc.rational(r))
    for n in (None, level, 2 * level):
        key, rkey = x.reduced_key(n), rx.reduced_key(n)
        assert key == rkey
        assert all(type(v) is Fraction for v in key[1])
    assert x.as_rational() == rx.as_rational()
    assert type(x.as_rational()) is type(rx.as_rational())


@settings(max_examples=100, deadline=None)
@given(levels.flatmap(lambda n: st.lists(st.tuples(
    st.integers(-2 * n, 2 * n), st.sampled_from(divisors(n)),
    st.one_of(st.just(0), coeffs)), max_size=6)))
def test_cyc_constructor_matches_reference(entries):
    # Fraction keys that differ by an integer merge into one root
    terms = {Fraction(k, d): c for k, d, c in entries}
    same(Cyc(terms), ref.Cyc(terms))


# levels up to 30 only: the reference multiplies phi(L) Galois conjugates in
# Fractions, which takes most of a second per division near L = 60
@settings(max_examples=40, deadline=None)
@given(st.integers(1, 30).flatmap(
    lambda n: st.tuples(cyc_pair(n), cyc_pair(n))))
def test_cyc_div_matches_reference(pairs):
    (x, rx), (y, ry) = pairs
    if ry.is_zero():
        return
    same(cyc_div(x, y), ref.cyc_div(rx, ry))
    same(cyc_div(x * y, y), ref.cyc_div(rx * ry, ry))


@st.composite
def exponent_terms(draw, level):
    return [(draw(st.integers(-2 * level, 2 * level)), draw(coeffs))
            for _ in range(draw(st.integers(0, 4)))]


@st.composite
def products(draw):
    """A level n and a few (x, y, k) standing for x * y * e(k/n), with x and
    y lists of (exponent, coefficient) terms; sometimes the first product
    appears again negated, so the whole sum cancels term by term."""
    n = draw(st.integers(1, 60))
    out = [(draw(exponent_terms(n)), draw(exponent_terms(n)),
            draw(st.integers(-n, n))) for _ in range(draw(st.integers(0, 4)))]
    if out and draw(st.booleans()):
        x, y, k = out[0]
        out.append((x, [(j, -c) for j, c in y], k))
    return n, out


@settings(max_examples=150, deadline=None)
@given(products(), st.integers(1, 12), st.integers(1, 4))
def test_cyc_from_pairs_matches_repeated_arithmetic(data, m, w):
    """One accumulator over a common denominator, read by Cyc.from_pairs at
    the level n and at its multiple w n and by Cyc(terms), against repeated
    Cyc +, * and multiplication by a root (and the reference's
    scale_root): sum x * y * e(k/n) / m.  All four store the same (n, den,
    pairs), and each encodes as the reference does."""
    n, prods = data
    new, old = Cyc.zero(), ref.Cyc.zero()
    for x, y, k in prods:
        nx = sum((Cyc.root(QZ(j, n), c) for j, c in x), Cyc.zero())
        ny = sum((Cyc.root(QZ(j, n), c) for j, c in y), Cyc.zero())
        new = new + nx * ny * Cyc.root(QZ(k, n))
        ox, oy = ref.Cyc.zero(), ref.Cyc.zero()
        for j, c in x:
            ox = ox + ref.Cyc.root(ref.QZ(j, n), c)
        for j, c in y:
            oy = oy + ref.Cyc.root(ref.QZ(j, n), c)
        old = old + (ox * oy).scale_root(ref.QZ(k, n))
    new, old = scaled(new, Fraction(1, m)), old * Fraction(1, m)
    D = lcm(*(Fraction(c).denominator for x, y, _ in prods for _, c in x + y))
    acc = [0] * n
    for x, y, k in prods:
        vx = [0] * n
        for j, c in x:
            vx[j % n] += int(c * D)
        acc = list(map(add, acc, convolve(
            vx, [(j + k, int(c * D)) for j, c in y])))
    got = Cyc.from_pairs(enumerate(acc), n, D * D * m)
    wide = Cyc.from_pairs([(k * w, c) for k, c in enumerate(acc)], n * w,
                          D * D * m)
    terms = Cyc({QZ(k, n): Fraction(c, D * D * m) for k, c in enumerate(acc)})
    for v in (got, new, wide, terms):
        same(v, old)
    assert stored(got) == stored(new) == stored(wide) == stored(terms)
