"""Exact arithmetic: quadratic extensions, polynomials, partial fractions."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmgeo.algebra import (
    _TRIAL_BOUND,
    IrregularInfinityError,
    NonFuchsianError,
    Poly,
    QuadExt,
    RatFunc,
    _divide_linear,
    field_inv,
    partial_fractions,
    rational_sqrt,
    sqrt_decompose,
)

fractions = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
quads = st.builds(QuadExt, fractions, fractions, st.just(5))


# -- square roots ------------------------------------------------------------


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(0)) == 0


def test_sqrt_decompose():
    # sqrt(18/25) = (3/5) sqrt(2)
    assert sqrt_decompose(Fraction(18, 25)) == (Fraction(3, 5), 2)
    b, d = sqrt_decompose(Fraction(49, 9))
    assert (b, d) == (Fraction(7, 3), 1)


def test_sqrt_decompose_above_the_trial_bound():
    """Trial division stops at _TRIAL_BOUND: a square cofactor is still found
    whole, a prime square times another large prime stays in d, and two such
    radicands refuse to mix instead of adding wrongly."""
    p, q = 10007, 10009  # primes above the bound
    assert p > _TRIAL_BOUND and q > _TRIAL_BOUND
    assert sqrt_decompose(Fraction(2 * p * p)) == (p, 2)
    assert sqrt_decompose(Fraction((p * q) ** 2, 9)) == (Fraction(p * q, 3), 1)
    assert sqrt_decompose(Fraction(p * p * q)) == (1, p * p * q)
    x, y = QuadExt(0, 1, p * p * q), QuadExt(0, p, q)  # equal reals
    assert float(x) == pytest.approx(float(y), rel=1e-15)
    with pytest.raises(ValueError, match="mixed discriminants"):
        x - y
    # 1 + 3/10^16: a 16-digit numerator and denominator
    assert sqrt_decompose(1 + Fraction(3, 10**16)) == (Fraction(1, 10**8), 10**16 + 3)


# -- quadratic field elements -------------------------------------------------


def test_quadext_perfect_square_collapses():
    x = QuadExt(1, 2, 4)  # 1 + 2*sqrt(4) = 5
    assert x.is_rational and x.to_fraction() == 5


@given(quads, quads)
@settings(max_examples=200, deadline=None)
def test_quadext_ring_axioms(x, y):
    assert x + y == y + x
    assert x * y == y * x
    assert x - y == -(y - x)
    assert (x + y) * (x - y) == x * x - y * y


@given(quads)
@settings(max_examples=200, deadline=None)
def test_quadext_inverse_and_float(x):
    if x:
        assert x * x.inverse() == QuadExt(1, 0, x.D)
        assert field_inv(x) * x == 1
    approx = float(x.a) + (float(x.b) * math.sqrt(x.D) if x.D else 0.0)
    assert math.isclose(float(x), approx, rel_tol=1e-12, abs_tol=1e-12)


@given(quads)
@settings(max_examples=200, deadline=None)
def test_quadext_sign_matches_float(x):
    f = float(x)
    if abs(f) > 1e-9:  # avoid float-noise on near-zero values
        assert x.sign() == (1 if f > 0 else -1)


@given(st.sampled_from([2, 3, 5, 115]), fractions, fractions, fractions, fractions)
@settings(max_examples=200, deadline=None)
def test_quadext_arithmetic_results_are_normalised(D, a, b, c, d):
    """Arithmetic skips the constructor's normalisation; its results still
    equal what the constructor makes of the same parts."""
    x, y = QuadExt(a, b, D), QuadExt(c, d, D)
    results = [x + y, x - y, x * y, -x, x.conjugate()]
    if y:
        results.append(x / y)
    for z in results:
        ref = QuadExt(z.a, z.b, D)
        assert (z.a, z.b, z.D) == (ref.a, ref.b, ref.D)
        assert (z.D is None) == (z.b == 0)
        assert type(z.a) is Fraction and type(z.b) is Fraction


def test_quadext_conjugate_norm():
    x = QuadExt(3, 2, 5)
    assert x * x.conjugate() == QuadExt(x.norm(), 0, 5)
    assert x.norm() == 9 - 4 * 5


def test_quadext_mixed_field_arithmetic():
    # a rational-valued element joins any extension
    r = QuadExt(Fraction(1, 2), 0, None)
    x = QuadExt(0, 1, 3)
    assert r + x == QuadExt(Fraction(1, 2), 1, 3)
    assert Fraction(2) * x == QuadExt(0, 2, 3)
    with pytest.raises(ValueError):
        _ = QuadExt(0, 1, 2) + QuadExt(0, 1, 3)


# -- polynomials ---------------------------------------------------------------


def test_poly_basic_ops():
    p = Poly([1, 2, 3])  # 1 + 2x + 3x^2
    q = Poly([0, 1])  # x
    assert (p * q)[3] == 3
    assert p(2) == 17
    assert p.derivative() == Poly([2, 6])
    assert Poly.monomial(3, 5) == Poly([0, 0, 0, 5])


def test_poly_divmod_and_gcd():
    a = Poly.from_roots([1, 2, 3])
    b = Poly.from_roots([2, 3, 4])
    g = a.gcd(b)
    assert g.monic() == Poly.from_roots([2, 3])
    q, r = divmod(a, Poly.from_roots([1]))
    assert r.is_zero() and q == Poly.from_roots([2, 3])
    with pytest.raises(ValueError):
        a.exact_div(Poly.from_roots([5]))


@given(
    st.lists(fractions, max_size=5),
    st.lists(fractions, min_size=1, max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_poly_divmod_identity(ac, bc):
    a, b = Poly(ac), Poly(bc)
    if b.is_zero():
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero() or r.degree < b.degree


@given(st.lists(fractions, min_size=1, max_size=6), fractions, fractions)
@settings(max_examples=150, deadline=None)
def test_divide_linear_is_divmod(cs, a, b):
    """Synthetic division by z - a equals divmod by Poly([-a, 1]), for
    rational and quadratic a."""
    p = Poly(cs)
    for root in (a, QuadExt(a, b, 3)):
        if p.is_zero():
            continue
        q, rem = divmod(p, Poly([-root, 1]))
        got_q, got_rem = _divide_linear(p, root)
        assert got_q == q and got_rem == rem[0] == p(root)


def test_poly_quadext_coefficients():
    s5 = QuadExt(0, 1, 5)
    p = Poly.from_roots([s5, -s5])  # x^2 - 5
    assert p == Poly([QuadExt(-5, 0, 5), QuadExt(0, 0, 5), QuadExt(1, 0, 5)])
    assert p(3) == 4


def test_poly_negative_power_raises():
    """A polynomial ring has no inverses: a negative exponent is refused at
    once instead of squaring the base forever."""
    with pytest.raises(ValueError, match="nonnegative"):
        Poly([1, 1]) ** -1
    assert Poly([1, 1]) ** 0 == Poly.one()


# -- integer rows against the per-coefficient reference --------------------------
#
# The loops below are the per-coefficient Fraction/QuadExt arithmetic that Poly
# ran before it computed on integer rows; the tests hold every rewritten
# operation to them, coefficient by coefficient.


def _ref_add(p, q):
    n = max(len(p.coeffs), len(q.coeffs))
    return Poly([p[k] + q[k] for k in range(n)])


def _ref_neg(p):
    return Poly([-c for c in p.coeffs])


def _ref_mul(p, q):
    if p.is_zero() or q.is_zero():
        return Poly()
    out = [Fraction(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        if not a:
            continue
        for j, b in enumerate(q.coeffs):
            out[i + j] = out[i + j] + a * b
    return Poly(out)


def _ref_divmod(p, q):
    quo = [Fraction(0)] * max(0, p.degree - q.degree + 1)
    rem = list(p.coeffs)
    inv_lc = field_inv(q.leading())
    d = q.degree
    while len(rem) - 1 >= d and any(rem):
        while rem and not rem[-1]:
            rem.pop()
        if len(rem) - 1 < d:
            break
        k = len(rem) - 1 - d
        c = rem[-1] * inv_lc
        quo[k] = c
        for j, b in enumerate(q.coeffs):
            rem[k + j] = rem[k + j] - c * b
        rem.pop()
    return Poly(quo), Poly(rem)


def _ref_derivative(p):
    return Poly([k * c for k, c in enumerate(p.coeffs)][1:])


def _ref_call(p, x):
    out = 0
    for c in reversed(p.coeffs):
        out = out * x + (float(c) if isinstance(x, (float, complex)) else c)
    return out


def _ref_divide_linear(p, a):
    acc = p.coeffs[-1]
    quo = [acc]
    for c in reversed(p.coeffs[:-1]):
        acc = c + a * acc
        quo.append(acc)
    rem = quo.pop()
    return Poly(reversed(quo)), rem


def _ref_monic(p):
    inv = field_inv(p.leading())
    return Poly([c * inv for c in p.coeffs])


def _ref_gcd(p, q):
    a, b = p, q
    while not b.is_zero():
        a, b = b, _ref_divmod(a, b)[1]
    return _ref_monic(a) if not a.is_zero() else a


def _ref_reduce(num, den):
    """RatFunc's lowest terms with a monic denominator, by the reference."""
    g = _ref_gcd(num, den)
    if g.degree > 0:
        num, den = _ref_divmod(num, g)[0], _ref_divmod(den, g)[0]
    inv = field_inv(den.leading())
    return _ref_mul(num, Poly([inv])), _ref_mul(den, Poly([inv]))


def _ref_from_roots(roots):
    p = Poly.one()
    for a in roots:
        p = _ref_mul(p, Poly([-a, 1]))
    return p


def _outcome(f):
    try:
        return f()
    except ValueError:
        return ValueError


def _canonical(p):
    """Coefficients are Fractions, or QuadExt with a nonzero sqrt(D) part."""
    return all(type(c) is Fraction or c.b for c in p.coeffs)


def _agree(got, want):
    if isinstance(want, Poly):
        # equal also as rows, which ``want + 0`` reads afresh from the
        # reference's coefficients; a polynomial over two fields has none
        same_rows = _spans_two_fields(want) or got == want + 0
        return got.coeffs == want.coeffs and _canonical(got) and same_rows
    if isinstance(want, tuple):
        return all(_agree(g, w) for g, w in zip(got, want, strict=True))
    return got == want and type(got) is type(want) if isinstance(want, float) else got == want


def _check(new, ref, two_fields: bool, exact: bool = True):
    """``new`` equals ``ref`` coefficient by coefficient, and raises
    ValueError wherever ``ref`` does.  With ``exact`` it raises nowhere else;
    otherwise it may also refuse operands over two distinct quadratic fields,
    which the reference combined only where no intermediate value happened to
    meet both."""
    want, got = _outcome(ref), _outcome(new)
    if want is ValueError or got is ValueError:
        assert got is ValueError
        assert want is ValueError or (two_fields and not exact)
        return
    assert _agree(got, want), (got, want)


# rationals with small, large and negative parts, and elements a + b*sqrt(D)
# of Q(sqrt(2)) and Q(sqrt(3)) with b = 0 among them; a QuadExt over
# D = (7/5)^2 collapses to a rational one, as the poles of the NVE at
# (n, eps) = (5, 1/5) do
_rationals = st.one_of(
    fractions,
    st.fractions(min_value=-(10**12), max_value=10**12, max_denominator=10**15),
    st.just(Fraction(0)),
)
_discs = st.sampled_from([None, 2, 3, Fraction(49, 25)])


@st.composite
def _field_polys(draw):
    """Polynomials over one of the fields, trailing zeros allowed."""
    D = draw(_discs)
    if D is None:
        elem = _rationals
    else:
        elem = st.one_of(
            _rationals,
            st.builds(QuadExt, _rationals, _rationals, st.just(D)),
            st.builds(QuadExt, _rationals, st.just(0), st.just(D)),
        )
    cs = draw(st.lists(elem, max_size=6)) + [0] * draw(st.integers(0, 2))
    return Poly(cs)


def _spans_two_fields(*values):
    discs = set()
    for v in values:
        cs = v.coeffs if isinstance(v, Poly) else (v,)
        discs |= {c.D for c in cs if isinstance(c, QuadExt) and c.b}
    return len(discs) > 1


@given(_field_polys(), _field_polys())
@settings(max_examples=150, deadline=None)
def test_poly_ring_operations_match_reference(p, q):
    """+, -, *, negation, the derivative and products with a scalar, with
    the same ValueError cases as the reference when the operands lie over
    distinct fields."""
    two = _spans_two_fields(p, q)
    _check(lambda: p + q, lambda: _ref_add(p, q), two)
    _check(lambda: p - q, lambda: _ref_add(p, _ref_neg(q)), two)
    _check(lambda: p * q, lambda: _ref_mul(p, q), two)
    _check(lambda: -p, lambda: _ref_neg(p), False)
    _check(lambda: p.derivative(), lambda: _ref_derivative(p), False)
    # results compare by their rows: equal exactly when their coefficients are
    assert (p + 0 == q * 1) == (p.coeffs == q.coeffs)
    assert (p + 0 == p * Fraction(1, 2)) == p.is_zero()
    c = q.coeffs[0] if q.coeffs else Fraction(3, 7)
    _check(lambda: c * p, lambda: _ref_mul(Poly([c]), p), _spans_two_fields(p, c))
    _check(lambda: p - c, lambda: _ref_add(p, _ref_neg(Poly([c]))), _spans_two_fields(p, c))


@given(_field_polys(), _field_polys())
@settings(max_examples=150, deadline=None)
def test_poly_division_and_gcd_match_reference(p, q):
    """divmod, exact division, the monic gcd and RatFunc's reduction; over two
    distinct fields the rows refuse at least wherever the reference does."""
    if q.is_zero():
        return
    two = _spans_two_fields(p, q)
    _check(lambda: divmod(p, q), lambda: _ref_divmod(p, q), two, exact=False)
    _check(lambda: (p * q).exact_div(q), lambda: p, two, exact=False)
    _check(lambda: p.gcd(q), lambda: _ref_gcd(p, q), two, exact=False)
    _check(lambda: q.monic(), lambda: _ref_monic(q), False)
    if not p.is_zero():
        _check(
            lambda: (lambda f: (f.num, f.den))(RatFunc(p, q)),
            lambda: _ref_reduce(p, q),
            two,
            exact=False,
        )


@given(
    _field_polys(),
    st.one_of(
        _rationals,
        st.builds(QuadExt, _rationals, _rationals, st.sampled_from([2, 3, Fraction(49, 25)])),
        st.floats(min_value=-4, max_value=4),
    ),
)
@settings(max_examples=150, deadline=None)
def test_poly_evaluation_and_synthetic_division_match_reference(p, x):
    """Evaluation at Fraction, QuadExt and float points, and synthetic
    division by z - x, of the polynomial and of a product (whose
    coefficients come back from the rows)."""
    for f in (p, p * p + p):
        two = _spans_two_fields(f, x)
        _check(lambda: f(x), lambda: _ref_call(f, x), two, exact=False)
        if not f.is_zero() and not isinstance(x, float):
            _check(
                lambda: _divide_linear(f, x), lambda: _ref_divide_linear(f, x), two, exact=False
            )


@given(
    st.builds(QuadExt, _rationals, _rationals, st.sampled_from([2, 3, 5, Fraction(49, 25)])),
    st.lists(_rationals, max_size=3),
)
@settings(max_examples=100, deadline=None)
def test_poly_from_roots_over_a_conjugate_pair(a, rest):
    """The product over a conjugate pair and rational roots has rational
    coefficients, which now come back as Fractions."""
    roots = [a, *rest, a.conjugate()]
    got = Poly.from_roots(roots)
    assert got.coeffs == _ref_from_roots(roots).coeffs
    assert all(type(c) is Fraction for c in got.coeffs)


def _sparse_over(D):
    """Polynomials over Q(sqrt(D)) whose irrational coefficients sit at a few
    degrees, so that two of them often do not meet."""
    elem = st.one_of(
        st.just(Fraction(0)),
        fractions,
        st.builds(QuadExt, fractions, fractions.filter(bool), st.just(D)),
    )
    return st.lists(elem, max_size=5).map(Poly)


@given(_sparse_over(2), _sparse_over(3), st.booleans())
@settings(max_examples=200, deadline=None)
def test_poly_operations_over_two_fields_raise_like_the_reference(p, q, swap):
    """Operands over Q(sqrt(2)) and Q(sqrt(3)): +, - and * raise ValueError
    exactly where the reference does; division, the gcd, evaluation and
    synthetic division raise wherever it does, and otherwise agree."""
    if swap:
        p, q = q, p
    two = _spans_two_fields(p, q)
    _check(lambda: p + q, lambda: _ref_add(p, q), two)
    _check(lambda: p - q, lambda: _ref_add(p, _ref_neg(q)), two)
    _check(lambda: p * q, lambda: _ref_mul(p, q), two)
    if not q.is_zero():
        _check(lambda: divmod(p, q), lambda: _ref_divmod(p, q), two, exact=False)
        _check(lambda: p.gcd(q), lambda: _ref_gcd(p, q), two, exact=False)
    for x in (q.coeffs[-1:] if q.coeffs else ()):
        two_x = _spans_two_fields(p, x)
        _check(lambda: p(x), lambda: _ref_call(p, x), two_x, exact=False)
        if not p.is_zero():
            _check(
                lambda: _divide_linear(p, x), lambda: _ref_divide_linear(p, x), two_x, exact=False
            )


def test_poly_mixed_discriminants_raise_like_the_reference():
    """Fixed cases: a sum refuses only where both operands are irrational at
    one degree; a product refuses whenever both have a sqrt part."""
    s2, s3 = QuadExt(0, 1, 2), QuadExt(0, 1, 3)
    p, q = Poly([s2, 1]), Poly([1, s3])
    total = p + q  # sqrt(2) at degree 0, sqrt(3) at degree 1: no clash
    assert total.coeffs == (1 + s2, 1 + s3)
    with pytest.raises(ValueError, match="mixed discriminants"):
        p + Poly([s3])
    with pytest.raises(ValueError, match="mixed discriminants"):
        p * q
    with pytest.raises(ValueError, match="mixed discriminants"):
        total * 2  # a polynomial over two fields has no rows
    assert p * Poly([QuadExt(5, 0, 3)]) == Poly([5 * s2, 5])
    # equality reads the whole rows: denominator, sqrt part and discriminant
    assert Poly([s2]) * 1 != Poly([s3]) * 1
    assert Poly([1 + s2]) * 1 != Poly([1]) * 1
    assert Poly([1, 2]) * 1 != Poly([Fraction(1, 2), 1]) * 1


# -- real roots -----------------------------------------------------------------


def _root_layer_cases(count=300):
    """(p, a, b, roots) with p = g * prod (x - r)^k: g a random integer
    polynomial of degree 0 to 4 whose np.roots lie at least 1e-4 apart, and
    each r a rational root, one to three times over, some placed at a or b.
    ``roots`` are p's distinct real roots: the r exactly, g's from np.roots.
    A case where np.roots cannot tell a root from r, a or b is skipped."""
    rng = random.Random(35)
    cases = []
    while len(cases) < count:
        g = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]
        if not g[-1]:
            continue
        z = np.roots(g[::-1])
        if len(z) > 1 and np.min(np.abs(z[:, None] - z[None, :]) + np.eye(len(z))) < 1e-4:
            continue
        a = Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3)))
        b = a + Fraction(rng.randint(0, 24), rng.choice((1, 2, 4)))
        pool = [a, b, Fraction(rng.randint(-12, 12), rng.choice((1, 5, 7)))]
        known = rng.sample(pool, rng.randint(0, 3))
        p = Poly(g)
        for r in known:
            p = p * Poly([-r, 1]) ** rng.randint(1, 3)
        roots = set(known)
        for x in (float(x.real) for x in z if abs(x.imag) < 1e-9):
            near = [r for r in (*known, a, b) if abs(x - r) < 1e-6]
            if not near:
                roots.add(x)
            elif not (near[0] in known and Poly(g)(near[0]) == 0):
                break
        else:
            cases.append((p, a, b, sorted(roots)))
    return cases


def test_real_roots_match_numpy():
    """Counts and isolating intervals of distinct real roots in (a, b]
    against np.roots, on random integer polynomials with repeated rational
    roots, roots at a and at b, constants and linear factors."""
    cases = _root_layer_cases()
    degrees = {p.degree for p, *_ in cases}
    assert {0, 1} <= degrees and max(degrees) >= 8
    at_end = repeated = 0
    for p, a, b, roots in cases:
        inside = [r for r in roots if a < r <= b]
        at_end += b in roots or a in roots
        repeated += p.degree > len(roots) + 1
        assert p.count_roots(a, b) == len(inside)
        assert p.count_roots(-40, 40) == len(roots)  # every root lies within 40
        intervals = p.real_roots(a, b)
        assert len(intervals) == len(inside)
        for (lo, hi), r in zip(intervals, inside):
            assert a <= lo < r <= hi <= b
        assert all(hi <= lo for (_, hi), (lo, _) in zip(intervals, intervals[1:]))
    assert at_end > 50 and repeated > 50


def test_real_roots_at_the_ends_and_degenerate_polynomials():
    """(a, b] is open at a and closed at b, for simple and repeated roots;
    constants have no roots, the zero polynomial and irrational
    coefficients are refused, and float ends are read exactly."""
    half = Fraction(1, 2)
    assert Poly([3]).count_roots(-5, 5) == 0 and Poly([-2]).real_roots(-1, 1) == []
    line = Poly([-1, 2])  # root 1/2
    assert line.count_roots(half, 1) == 0 and line.real_roots(half, 1) == []
    assert line.count_roots(0, half) == 1 and line.real_roots(0, half) == [(0, half)]
    q = Poly.from_roots([1, 1, 1, -1, -1, 0])
    assert q.count_roots(-1, 1) == 2 and q.count_roots(-2, 1) == 3
    assert q.count_roots(-1, 0) == 1 and q.count_roots(0, 1) == 1 and q.count_roots(1, 1) == 0
    assert q.real_roots(-1, 1) == [(-1, 0), (0, 1)]
    assert q.real_roots(-2, 2) == [(-2, -1), (-1, 0), (0, 2)]
    assert Poly([-1, 10]).count_roots(0.1, 1) == 0  # the float 0.1 lies above 1/10
    with pytest.raises(ValueError, match="nonzero polynomial with rational coefficients"):
        Poly().count_roots(0, 1)
    with pytest.raises(ValueError, match="nonzero polynomial with rational coefficients"):
        Poly([QuadExt(0, 1, 2), 1]).real_roots(-2, 2)


def test_squarefree_keeps_each_root_once():
    p = Poly.from_roots([2, 2, 2, Fraction(-1, 3), 5, 5]) * 7
    assert p.squarefree().monic() == Poly.from_roots([2, Fraction(-1, 3), 5])
    assert Poly([4]).squarefree().degree == 0


# -- rational functions ---------------------------------------------------------


def test_ratfunc_reduction():
    f = RatFunc(Poly([0, 2, 2]), Poly([0, 0, 4]))  # (2x + 2x^2)/(4x^2)
    assert f == RatFunc(Poly([1, 1]), Poly([0, 2]))
    assert f.den.leading() == 1  # monic denominator normal form


def test_ratfunc_derivative():
    f = RatFunc(Poly([1]), Poly([0, 1]))  # 1/x
    assert f.derivative() == RatFunc(Poly([-1]), Poly([0, 0, 1]))
    g = RatFunc(Poly([0, 0, 1]))  # x^2
    assert (f * g).derivative() == RatFunc(Poly([1]))


@given(st.lists(fractions, min_size=1, max_size=4), st.lists(fractions, min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_ratfunc_field_ops(nc, dc):
    num, den = Poly(nc), Poly(dc)
    if num.is_zero() or den.is_zero():
        return
    f = RatFunc(num, den)
    assert f / f == RatFunc(Poly([1]))
    assert f - f == RatFunc.zero()
    assert (f + 1) * (f - 1) == f * f - 1


# -- partial fractions ------------------------------------------------------------


def test_partial_fractions_round_trip():
    # f = 2/(z-1)^2 + 3/(z-1) - 3/(z+2)
    a, b = Fraction(1), Fraction(-2)
    f = (
        RatFunc(Poly([2]), Poly.from_roots([a, a]))
        + RatFunc(Poly([3]), Poly.from_roots([a]))
        - RatFunc(Poly([3]), Poly.from_roots([b]))
    )
    pf = partial_fractions(f, [a, b])
    assert pf.betas == (2, 0)
    assert pf.deltas == (3, -3)
    assert pf.beta_inf == 2 + 3 * a - 3 * b  # coefficient of 1/z^2 at infinity


def test_partial_fractions_quadext_poles():
    s2 = QuadExt(0, 1, 2)
    f = RatFunc(Poly([QuadExt(1, 0, 2)]), Poly.from_roots([s2, -s2]))
    pf = partial_fractions(f, [s2, -s2])
    # 1/(z^2-2) = (1/(2 sqrt 2))/(z - sqrt 2) - (1/(2 sqrt 2))/(z + sqrt 2)
    assert pf.deltas[0] == QuadExt(0, Fraction(1, 4), 2)
    assert pf.deltas[1] == -pf.deltas[0]
    assert pf.beta_inf == 1


def _pole_terms(coeffs, a):
    """sum c_k / (z - a)^k for the coefficients c_1, c_2, ..."""
    f = RatFunc.zero()
    for k, c in enumerate(coeffs, 1):
        f = f + RatFunc(Poly([c]), Poly.from_roots([a] * k))
    return f


@settings(max_examples=40, deadline=None)
@given(quads, quads, fractions, fractions, st.booleans())
def test_partial_fractions_conjugate_pair_over_q(beta, delta, u, r, pair_first):
    """A rational f with poles at a = u + sqrt(5) and its conjugate: the
    second pole of the pair, expanded by conjugating the first one's
    values, gets the conjugate expansion, in either order of the pair."""
    a = QuadExt(u, 1, 5)
    f = (
        _pole_terms([delta, beta], a)
        + _pole_terms([delta.conjugate(), beta.conjugate()], a.conjugate())
        + _pole_terms([-(delta + delta.conjugate())], r)
    )
    assert all(
        not isinstance(c, QuadExt) or c.is_rational for c in f.num.coeffs + f.den.coeffs
    )
    poles = [a, r, a.conjugate()] if pair_first else [a.conjugate(), r, a]
    pf = partial_fractions(f, poles)
    expected = {
        a: (beta, delta),
        a.conjugate(): (beta.conjugate(), delta.conjugate()),
        r: (0, -(delta + delta.conjugate())),
    }
    assert [(b, d) for b, d in zip(pf.betas, pf.deltas)] == [expected[p] for p in poles]


def test_partial_fractions_rejects_high_order_pole():
    f = RatFunc(Poly([1]), Poly.from_roots([0, 0, 0]))
    with pytest.raises(NonFuchsianError):
        partial_fractions(f, [Fraction(0)])


def test_partial_fractions_rejects_undeclared_pole():
    f = RatFunc(Poly([1]), Poly.from_roots([0, 1]))
    with pytest.raises(NonFuchsianError):
        partial_fractions(f, [Fraction(0)])


def test_partial_fractions_rejects_bad_poles_over_a_quadratic_field():
    """The synthetic-division checks with a conjugate pole pair declared: a
    third-order pole, and a rational denominator root outside the poles."""
    s2 = QuadExt(0, 1, 2)
    pair = Poly.from_roots([s2, -s2])  # z^2 - 2, rational coefficients
    f = RatFunc(Poly([1]), pair**3)
    with pytest.raises(NonFuchsianError, match="pole of order 3"):
        partial_fractions(f, [s2, -s2])
    f = RatFunc(Poly([1]), pair * Poly.from_roots([Fraction(1, 3)]))
    with pytest.raises(NonFuchsianError, match="outside the declared poles"):
        partial_fractions(f, [Fraction(-1), s2, -s2])


def test_partial_fractions_rejects_improper():
    f = RatFunc(Poly([0, 0, 1]), Poly.from_roots([0]))
    with pytest.raises(NonFuchsianError):
        partial_fractions(f, [Fraction(0)])


def test_partial_fractions_rejects_nonzero_residue_sum():
    f = RatFunc(Poly([1]), Poly.from_roots([0]))  # 1/z alone
    with pytest.raises(IrregularInfinityError):
        partial_fractions(f, [Fraction(0)])


# -- partial fractions against the per-coefficient reference ------------------------


def _ref_partial_fractions(f, poles):
    """partial_fractions as it was on Fraction/QuadExt coefficients: the twin
    test over every coefficient, one-coefficient Polys for the scalars, and
    the conjugate twin's cofactors conjugated coefficient by coefficient."""
    from harmgeo.algebra import PartialFractions, _conjugate, _key

    poles = list(poles)
    if len(set(map(_key, poles))) != len(poles):
        raise ValueError("poles must be distinct")
    if f.num.degree >= f.den.degree:
        raise NonFuchsianError("not proper at infinity")
    twin = {}
    if not any(isinstance(c, QuadExt) and c.b for c in f.num.coeffs + f.den.coeffs):
        index = {_key(a): i for i, a in enumerate(poles)}
        for i, a in enumerate(poles):
            j = index.get(_key(_conjugate(a)), i)
            if j < i:
                twin[i] = j
    mults = []
    terms = []
    recon = Poly()
    for i, a in enumerate(poles):
        if i in twin:
            m = mults[twin[i]]
            beta, d, q, q1 = terms[twin[i]]
            beta, d = _conjugate(beta), _conjugate(d)
            q, q1 = (Poly([_conjugate(c) for c in p.coeffs]) for p in (q, q1))
        else:
            quotients = [f.den]
            quo, qa = _divide_linear(f.den, a)
            while not qa:
                quotients.append(quo)
                quo, qa = _divide_linear(quo, a)
            m = len(quotients) - 1
            if m > 2:
                raise NonFuchsianError(f"pole of order {m} at {a}")
            q1, q = quotients[min(m, 1)], quotients[m]
            beta = d = Fraction(0)
            if m == 1:
                d = f.num(a) * field_inv(qa)
            elif m == 2:
                beta = f.num(a) * field_inv(qa)
                d = (f.num.derivative()(a) * qa - f.num(a) * q.derivative()(a)) * field_inv(
                    qa * qa
                )
        mults.append(m)
        terms.append((beta, d, q, q1))
        if m:
            recon = recon + (d * q if m == 1 else beta * q + d * q1)
    if sum(mults) < f.den.degree:
        raise NonFuchsianError("denominator root outside the declared poles")
    betas = [t[0] for t in terms]
    deltas = [t[1] for t in terms]
    sum_delta = sum(deltas, Fraction(0))
    if sum_delta:
        raise IrregularInfinityError(f"residues sum to {sum_delta}, not zero")
    if recon != f.num:
        raise NonFuchsianError("partial-fraction reconstruction mismatch")
    beta_inf = sum((b + d * a for a, b, d in zip(poles, betas, deltas)), Fraction(0))
    return PartialFractions(tuple(poles), tuple(betas), tuple(deltas), beta_inf)


def _pf_outcome(fn, f, poles):
    """The expansion with the type of every value, or the error raised."""
    try:
        pf = fn(f, poles)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    values = pf.betas + pf.deltas + (pf.beta_inf,)
    return pf.poles, [(type(x), x) for x in values]


_small = st.fractions(min_value=-4, max_value=4, max_denominator=4)
_nonzero = _small.filter(bool)
_FAILURES = (None, "order 3", "undeclared", "improper", "residue sum")


_in_q5 = st.builds(QuadExt, _small, _small, st.just(5))
_nonzero_in_q5 = st.builds(QuadExt, _nonzero, _small, st.just(5))


@st.composite
def _pf_cases(draw):
    """(f, declared poles): simple and double poles, rational ones and, with
    f over Q, conjugate pairs u +- v*sqrt(5), or with f over Q(sqrt(5)),
    single poles there with coefficients there; extra declared points that
    are no poles; the declared poles in any order; and one of four faults or
    none."""
    over_q = draw(st.booleans())
    fault = draw(st.sampled_from(_FAILURES))
    points = draw(st.lists(_small, max_size=3, unique=True))
    irrational = [QuadExt(u, v, 5) for u, v in draw(
        st.lists(st.tuples(_small, _nonzero), max_size=2, unique=True)
    )]
    poles = [(a, draw(st.integers(1, 2))) for a in points + irrational]
    if fault == "order 3" and poles:
        k = draw(st.integers(0, len(poles) - 1))
        poles[k] = (poles[k][0], 3)
    f, declared = RatFunc.zero(), []
    for a, m in poles:
        # f over Q: rational coefficients at a rational pole, conjugate ones
        # at a conjugate pair
        pair = over_q and isinstance(a, QuadExt)
        rational = over_q and not pair
        cs = [draw(_small if rational else _in_q5) for _ in range(m - 1)]
        cs.append(draw(_nonzero if rational else _nonzero_in_q5))
        for k, c in enumerate(cs, 1):
            f = f + RatFunc(Poly([c]), Poly.from_roots([a] * k))
            if pair:
                f = f + RatFunc(Poly([c.conjugate()]), Poly.from_roots([a.conjugate()] * k))
        declared += [a, a.conjugate()] if pair else [a]
    # a simple pole at r0 brings the residues to sum zero, or not
    total = _residue_sum(f)
    if fault == "residue sum":
        total = total + draw(_nonzero)
    if total:
        r0 = draw(_small.filter(lambda x: x not in points))
        f = f + RatFunc(Poly([-total]), Poly([-r0, 1]))
        declared.append(r0)
    if fault == "undeclared" and declared:
        declared.pop(draw(st.integers(0, len(declared) - 1)))
    if fault == "improper":
        f = f + RatFunc(Poly([draw(_nonzero), draw(_small)]))
    declared += [x for x in draw(st.lists(_small, max_size=2)) if x not in declared]
    return f, draw(st.permutations(declared))


def _residue_sum(f):
    """The sum of the residues of a proper f: the coefficient of 1/z at
    infinity."""
    num, den = f.num, f.den
    if not num or num.degree != den.degree - 1:
        return Fraction(0)
    return num.leading() * field_inv(den.leading())


@given(_pf_cases())
@settings(max_examples=200, deadline=None)
def test_partial_fractions_match_reference(case):
    f, poles = case
    assert _pf_outcome(partial_fractions, f, poles) == _pf_outcome(
        _ref_partial_fractions, f, poles
    )


def test_partial_fractions_fault_cases_all_occur():
    """The oracle's cases reach each of the four faults, and conjugate pairs
    over Q that expand."""
    from hypothesis import Phase, find

    quick = settings(phases=[Phase.generate], database=None, max_examples=2000)

    def outcome(case):
        return _pf_outcome(partial_fractions, *case)

    for match in ("pole of order 3", "outside the declared", "not proper", "residues sum"):
        find(_pf_cases(), lambda case, match=match: match in str(outcome(case)), settings=quick)
    find(
        _pf_cases(),
        lambda case: any(isinstance(a, QuadExt) and a.b for a in case[1])
        and case[0].den._int_rows()[2] is None
        and not isinstance(outcome(case)[0], type),
        settings=quick,
    )


def test_reconstruction_catches_a_broken_twin_cofactor(monkeypatch):
    """The conjugate twin's cofactors are never read back except through the
    reconstruction identity, which must then refuse the expansion."""
    from harmgeo import algebra

    s5 = QuadExt(0, 1, 5)
    f = RatFunc(Poly([1]), Poly.from_roots([s5, -s5])) + RatFunc(
        Poly([QuadExt(1, 0, 5)]), Poly.from_roots([s5, s5, -s5, -s5])
    )
    assert partial_fractions(f, [s5, -s5]).deltas[0]
    monkeypatch.setattr(algebra, "_conjugate_poly", lambda p: p)
    with pytest.raises(NonFuchsianError, match="reconstruction mismatch"):
        partial_fractions(f, [s5, -s5])
