"""Exact arithmetic: quadratic field extensions, dense polynomials, rational
functions and partial fractions.

Rationals are plain :class:`fractions.Fraction`.  Everything built on top is
immutable, and all operations are exact; floats never enter except through the
explicit ``__float__`` conversions.

A :class:`Poly` computes on integer rows over one common denominator: its
coefficients are (A[k] + B[k]*sqrt(D))/L with integer rows A, B and an integer
L > 0, B and D absent when they are all rational.  A product is then one
integer convolution, a sum one scaled row addition, division a
pseudo-division that scales by the divisor's leading coefficient, the gcd
Euclid's algorithm on primitive rows, and evaluation and synthetic division
one integer Horner scheme, where the per-coefficient Fraction arithmetic
would normalise every intermediate by a gcd (von zur Gathen and Gerhard,
*Modern Computer Algebra*, 3rd ed., section 6.2; Knuth, TAOCP vol. 2,
section 4.6.1).  A result keeps only its rows, in lowest terms; its
Fraction/QuadExt coefficients are built from them once, when first read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

_ZERO = Fraction(0)
FieldElement = Union[Fraction, "QuadExt"]


class NonFuchsianError(ValueError):
    """A pole of order > 2, or a pole outside the declared pole set."""


class IrregularInfinityError(ValueError):
    """The residues do not sum to zero, so infinity is an irregular point."""


def rational_sqrt(x) -> Fraction | None:
    """Exact square root of a non-negative rational, or None if irrational."""
    x = Fraction(x)
    if x < 0:
        return None
    pn = math.isqrt(x.numerator)
    pd = math.isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


# trial division stops at this prime bound: a squarefree part may keep the
# square of a larger prime, which costs exactness of D but never a value
_TRIAL_BOUND = 10**4


def _squarefree(n: int) -> tuple[int, int]:
    """n = s^2 * d; returns (s, d).  d is squarefree except for square
    factors of primes above _TRIAL_BOUND: trial division runs up to that
    bound, and the cofactor left over counts as a square only when it is a
    perfect square as a whole."""
    if n <= 0:
        raise ValueError("positive integer required")
    s, d = 1, 1
    p = 2
    while p * p <= n and p <= _TRIAL_BOUND:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    root = math.isqrt(n)
    if root * root == n:
        return s * root, d
    return s, d * n


def sqrt_decompose(x) -> tuple[Fraction, int]:
    """Write sqrt(x) = q * sqrt(d) with q rational and d >= 1 squarefree
    except for square factors of primes above _TRIAL_BOUND.  d == 1 exactly
    when x is the square of a rational."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return Fraction(0), 1
    # sqrt(p/q) = sqrt(p*q)/q
    s, d = _squarefree(x.numerator * x.denominator)
    return Fraction(s, x.denominator), d


class QuadExt:
    """Element a + b*sqrt(D) of a real quadratic extension of Q.

    D is normalized by :func:`sqrt_decompose` to an integer >= 2 that is
    squarefree except for square factors of primes above _TRIAL_BOUND.
    Elements with b == 0 carry D = None and mix freely with any
    discriminant; mixing two elements with distinct concrete discriminants
    raises ValueError, also when the two differ only by such a square, so a
    D left unreduced can refuse a sum but never give a wrong one.
    """

    __slots__ = ("a", "b", "D")

    def __init__(self, a, b=0, D=None):
        a, b = Fraction(a), Fraction(b)
        if b != 0:
            if D is None:
                raise ValueError("discriminant required when b != 0")
            q, d = sqrt_decompose(D)
            if d == 1:  # perfect square: collapse to a rational value
                a, b, D = a + b * q, Fraction(0), None
            else:
                b, D = b * q, d
        else:
            D = None
        self.a, self.b, self.D = a, b, D

    @classmethod
    def _raw(cls, a: Fraction, b: Fraction, D: int | None) -> "QuadExt":
        """Element from parts that are already normal: Fractions a and b and
        a squarefree D, dropped when b == 0.  Arithmetic builds its results
        here, since their D comes from normalised operands."""
        x = object.__new__(cls)
        x.a, x.b, x.D = a, b, (D if b else None)
        return x

    # -- helpers -----------------------------------------------------------
    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def to_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self} is irrational")
        return self.a

    def _join(self, other: "QuadExt") -> int | None:
        return _join_disc(self.D, other.D)

    @classmethod
    def _coerce(cls, x):
        if isinstance(x, QuadExt):
            return x
        if isinstance(x, (int, Fraction)):
            return cls._raw(Fraction(x), _ZERO, None)
        return None

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt._raw(self.a + o.a, self.b + o.b, self._join(o))

    __radd__ = __add__

    def __neg__(self):
        return QuadExt._raw(-self.a, -self.b, self.D)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        D = self._join(o)
        d = D if D is not None else 0
        return QuadExt._raw(self.a * o.a + self.b * o.b * d, self.a * o.b + self.b * o.a, D)

    __rmul__ = __mul__

    def conjugate(self) -> "QuadExt":
        return QuadExt._raw(self.a, -self.b, self.D)

    def norm(self) -> Fraction:
        return self.a * self.a - self.b * self.b * (self.D or 0)

    def inverse(self) -> "QuadExt":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero or degenerate element")
        return QuadExt._raw(self.a / n, -self.b / n, self.D)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = QuadExt(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparisons -------------------------------------------------------
    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.b == 0 and o.b == 0:
            return self.a == o.a
        return self.a == o.a and self.b == o.b and self.D == o.D

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.D))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def sign(self) -> int:
        """Exact sign of the real number a + b*sqrt(D)."""
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        sa = 1 if self.a > 0 else -1
        sb = 1 if self.b > 0 else -1
        if sa == sb:
            return sa
        return sa if self.a * self.a > self.b * self.b * self.D else sb

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.D or 0)

    def __repr__(self):
        if self.b == 0:
            return f"QuadExt({self.a})"
        return f"QuadExt({self.a}, {self.b}, D={self.D})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        return f"{self.a} + {self.b}*sqrt({self.D})"


def field_inv(x: FieldElement) -> FieldElement:
    if isinstance(x, QuadExt):
        return x.inverse()
    return Fraction(1) / x


def _join_disc(D1: int | None, D2: int | None) -> int | None:
    """The discriminant two operands share, None standing for Q; two distinct
    concrete discriminants raise ValueError."""
    if D1 is None or D1 == D2:
        return D2
    if D2 is None:
        return D1
    raise ValueError(f"mixed discriminants {D1} and {D2}")


# -- integer rows -------------------------------------------------------------
#
# coeffs[k] = (A[k] + B[k]*sqrt(D))/L with integers A[k], B[k] and L > 0, and
# B and D None when every coefficient is rational.  Rows in lowest terms (L
# the least common denominator of the coefficients' parts, no trailing zeros)
# are unique, so equal polynomials have equal rows.  Rows are shared between
# polynomials, and the helpers below never modify a row they are given.


def _rows_of(coeffs: tuple) -> tuple:
    """(L, A, B, D) for the coefficients, L their least common denominator.
    Coefficients with sqrt parts over two discriminants raise ValueError."""
    D = None
    for c in coeffs:
        if isinstance(c, QuadExt) and c.b:
            D = _join_disc(D, c.D)
    if D is None:
        fs = [c.a if isinstance(c, QuadExt) else c for c in coeffs]
        L = math.lcm(*(f.denominator for f in fs))
        return L, [f.numerator * (L // f.denominator) for f in fs], None, None
    parts = [(c.a, c.b) if isinstance(c, QuadExt) else (c, _ZERO) for c in coeffs]
    L = math.lcm(*(q.denominator for ab in parts for q in ab))
    return (
        L,
        [a.numerator * (L // a.denominator) for a, _ in parts],
        [b.numerator * (L // b.denominator) for _, b in parts],
        D,
    )


def _field(a: int, b: int, den: int, D: int | None) -> FieldElement:
    """(a + b*sqrt(D))/den for den > 0: a Fraction when b == 0."""
    if b:
        return QuadExt._raw(Fraction(a, den), Fraction(b, den), D)
    return Fraction(a, den)


def _poly(L: int, A: list, B: list | None = None, D: int | None = None) -> "Poly":
    """The Poly (A + B*sqrt(D))/L for integer rows and a nonzero integer L,
    its rows brought to lowest terms; its coefficients are built when first
    read."""
    if B is None or not any(B):
        B = D = None
    n = len(A)
    if B is None:
        while n and not A[n - 1]:
            n -= 1
        A = A[:n] if n < len(A) else A
        g = math.gcd(L, *A)
    else:
        B = B + [0] * (n - len(B)) if len(B) < n else B
        while not (A[n - 1] or B[n - 1]):
            n -= 1
        A, B = A[:n], B[:n]
        g = math.gcd(L, *A, *B)
    if L < 0:
        g = -g
    if g != 1:
        L //= g
        A = [x // g for x in A]
        if B is not None:
            B = [x // g for x in B]
    p = object.__new__(Poly)
    p._coeffs, p._rows = None, (L, A, B, D)
    return p


def _lin(X: list, a: int, Y: list, b: int) -> list:
    """The integer row a*X + b*Y."""
    if len(X) < len(Y):
        X, a, Y, b = Y, b, X, a
    out = [a * x for x in X] if a != 1 else list(X)
    out[: len(Y)] = [u + b * y for u, y in zip(out, Y)]
    return out


def _conv(X: list, Y: list) -> list:
    """The coefficients of the product of two integer polynomials."""
    if not X or not Y:
        return []
    if len(X) < len(Y):
        X, Y = Y, X
    m = len(X)
    out = [0] * (m + len(Y) - 1)
    for j, y in enumerate(Y):
        if y:
            out[j : j + m] = [u + y * x for u, x in zip(out[j : j + m], X)]
    return out


def _times(A1: list, B1, A2: list, B2, D: int | None) -> tuple:
    """(A1 + B1*sqrt(D)) * (A2 + B2*sqrt(D)) on integer rows, a None B
    standing for a zero sqrt part."""
    A = _conv(A1, A2)
    if B1 is None:
        return A, (None if B2 is None else _conv(A1, B2))
    if B2 is None:
        return A, _conv(B1, A2)
    return _lin(A, 1, _conv(B1, B2), D), _lin(_conv(A1, B2), 1, _conv(B1, A2), 1)


def _rational_lead(A: list, B, D: int | None) -> tuple:
    """(u, w, A', B') with A' + B'*sqrt(D) = (u + w*sqrt(D))*(A + B*sqrt(D))
    and a rational integer leading coefficient: u + w*sqrt(D) is 1, or the
    conjugate of an irrational leading coefficient."""
    if B is None or not B[-1]:
        return 1, 0, A, B
    u, w = A[-1], -B[-1]
    return (u, w, *_times([u], [w], A, B, D))


def _pseudo_divmod(A: list, B, C: list, E, D: int | None) -> tuple:
    """(m, Q, QB, R, RB) with m*(A + B*sqrt(D)) = (Q + QB*sqrt(D))*(C + E*sqrt(D))
    + (R + RB*sqrt(D)), m > 0 and R of lower degree than C, for integer rows
    whose divisor has an integer leading coefficient l = C[-1] (E[-1] == 0).
    Each step scales the remainder by l/gcd(l, its leading coefficient)
    only, and m is the product of those factors."""
    dc, l = len(C) - 1, C[-1]
    irrational = B is not None or E is not None
    R = list(A)
    nq = max(len(R) - dc, 0)
    Q, QB, RB, E0 = [0] * nq, None, None, None
    if irrational:
        QB = [0] * nq
        RB = list(B) if B is not None else [0] * len(A)
        E0 = E if E is not None else [0] * len(C)
    m = 1
    for j in range(nq - 1, -1, -1):
        ta, tb = R.pop(), (RB.pop() if irrational else 0)
        if not (ta or tb):
            continue
        g = math.gcd(ta, tb, l)
        if l < 0:
            g = -g
        f, ta, tb = l // g, ta // g, tb // g
        if f != 1:
            m *= f
            R, Q = [f * x for x in R], [f * x for x in Q]
            if irrational:
                RB, QB = [f * x for x in RB], [f * x for x in QB]
        top = j + dc
        Q[j] = ta
        if irrational:
            QB[j], tbD = tb, tb * D
            R[j:top] = [x - ta * c - tbD * e for x, c, e in zip(R[j:top], C, E0)]
            RB[j:top] = [x - ta * e - tb * c for x, c, e in zip(RB[j:top], C, E0)]
        else:
            R[j:top] = [x - ta * c for x, c in zip(R[j:top], C)]
    return m, Q, QB, R, RB


def _primitive(A: list, B) -> tuple:
    """The rows without trailing zeros, divided by their integer content."""
    n = len(A)
    while n and not (A[n - 1] or (B is not None and B[n - 1])):
        n -= 1
    A = A[:n]
    if B is not None:
        B = B[:n] if any(B[:n]) else None
    g = math.gcd(*A, *(B or ()))
    if g > 1:
        A = [x // g for x in A]
        B = None if B is None else [x // g for x in B]
    return A, B


def _monic(A: list, B, D: int | None) -> "Poly":
    """The monic multiple of the nonzero polynomial A + B*sqrt(D)."""
    _, _, A, B = _rational_lead(A, B, D)
    return _poly(A[-1], A, B, D)


def _split(x) -> tuple:
    """(s, t, v, E) with x = (s + t*sqrt(E))/v, v > 0, and E None when x is
    rational."""
    if isinstance(x, QuadExt):
        a, b, E = x.a, x.b, x.D
    else:
        a, b, E = Fraction(x), _ZERO, None
    v = math.lcm(a.denominator, b.denominator)
    return a.numerator * (v // a.denominator), b.numerator * (v // b.denominator), v, E


def _horner(rows: tuple, x) -> tuple:
    """Synthetic division of the nonzero polynomial with ``rows``, of degree
    n, by z - x, x = (s + t*sqrt(E))/v.  With h_n = c_n, h_k = c_k + x*h_(k+1)
    (so h_0 = p(x) and the quotient is sum h_k z^(k-1)), returns
    ([H_n, ..., H_0], v, F) with H_k = (P_k, Q_k) the integer parts of
    h_k*L*v^(n-k) = P_k + Q_k*sqrt(F), F the discriminant of the result."""
    L, A, B, D = rows
    s, t, v, E = _split(x)
    F = _join_disc(D, E)
    tF = t * (F or 0)
    P, Q, w = A[-1], (B[-1] if B else 0), 1
    H = [(P, Q)]
    for k in range(len(A) - 2, -1, -1):
        w *= v
        P, Q = A[k] * w + s * P + tF * Q, (B[k] * w if B else 0) + t * P + s * Q
        H.append((P, Q))
    return H, v, F


class Poly:
    """Dense univariate polynomial, coefficients lowest degree first.

    Coefficients are Fractions or QuadExt elements, freely mixed as long as
    their sqrt parts share one discriminant.  The ring operations, division,
    the derivative, exact evaluation and the gcd run on the polynomial's
    integer rows over one common denominator, (A + B*sqrt(D))/L, built on
    first use and kept.  A result holds only its rows; its ``coeffs`` are
    built from them once, when first read, as Fractions, or QuadExt where
    the sqrt(D) part is nonzero.

    Operands with sqrt parts over two distinct discriminants raise
    ValueError, except a sum or difference whose operands are never both
    irrational at one degree: like QuadExt addition coefficient by
    coefficient, that one returns a polynomial over two fields.  Such a
    polynomial has no rows, and every operation that needs them raises
    ValueError.
    """

    __slots__ = ("_coeffs", "_rows")

    def __init__(self, coeffs: Iterable[FieldElement] = ()):
        cs = [c if isinstance(c, QuadExt) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self._coeffs = tuple(cs)
        self._rows = None

    @property
    def coeffs(self) -> tuple:
        """The coefficients, lowest degree first, without trailing zeros."""
        if self._coeffs is None:
            L, A, B, D = self._rows
            if B is None:
                self._coeffs = tuple([Fraction(a, L) for a in A])
            else:
                self._coeffs = tuple([_field(a, b, L, D) for a, b in zip(A, B)])
        return self._coeffs

    def _int_rows(self) -> tuple:
        """(L, A, B, D) with coeffs[k] = (A[k] + B[k]*sqrt(D))/L."""
        if self._rows is None:
            self._rows = _rows_of(self.coeffs)
        return self._rows

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def one(cls) -> "Poly":
        return cls([1])

    @classmethod
    def monomial(cls, k: int, c: FieldElement = Fraction(1)) -> "Poly":
        return cls([0] * k + [c])

    @classmethod
    def from_roots(cls, roots: Sequence[FieldElement]) -> "Poly":
        p = cls.one()
        for a in roots:
            p = p * cls([-a, 1])
        return p

    # -- structure ---------------------------------------------------------
    @property
    def degree(self) -> int:
        cs = self._coeffs
        return len(self._rows[1] if cs is None else cs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return self.degree < 0

    def __bool__(self):
        return self.degree >= 0

    def __getitem__(self, k: int) -> FieldElement:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def leading(self) -> FieldElement:
        if self.is_zero():
            raise ValueError("zero polynomial")
        return self.coeffs[-1]

    def map_coeffs(self, f) -> "Poly":
        return Poly([f(c) for c in self.coeffs])

    # -- ring operations ----------------------------------------------------
    def _sum(self, other: "Poly", sign: int) -> "Poly":
        """self + sign*other."""
        L1, A1, B1, D1 = self._int_rows()
        L2, A2, B2, D2 = other._int_rows()
        L = math.lcm(L1, L2)
        f1, f2 = L // L1, sign * (L // L2)
        A = _lin(A1, f1, A2, f2)
        if B1 is None or B2 is None or D1 == D2:
            B = None if B1 is None and B2 is None else _lin(B1 or [], f1, B2 or [], f2)
            return _poly(L, A, B, D1 or D2)
        # two fields: as with QuadExt addition coefficient by coefficient,
        # only a degree irrational in both operands refuses
        if any(x and y for x, y in zip(B1, B2)):
            raise ValueError(f"mixed discriminants {D1} and {D2}")
        B1, B2 = [f1 * x for x in B1], [f2 * x for x in B2]
        return Poly(
            _field(a, b1 or b2, L, D1 if b1 else D2)
            for a, b1, b2 in itertools.zip_longest(A, B1, B2, fillvalue=0)
        )

    def __add__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        L, A, B, D = self._int_rows()
        return _poly(L, [-x for x in A], None if B is None else [-x for x in B], D)

    def __sub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self._sum(other, -1)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return other._sum(self, -1)

    def __mul__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly()
        L1, A1, B1, D1 = self._int_rows()
        L2, A2, B2, D2 = other._int_rows()
        D = _join_disc(D1, D2)
        return _poly(L1 * L2, *_times(A1, B1, A2, B2, D), D)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError(f"exponent {k} must be nonnegative: Poly is a ring")
        out, base = Poly.one(), self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __divmod__(self, other: "Poly"):
        other = _as_poly(other)
        if other is None or other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        L1, A, B, D1 = self._int_rows()
        L2, C, E, D2 = other._int_rows()
        D = _join_disc(D1, D2)
        # self = (A + B*sqrt(D))/L1 and other = (C + E*sqrt(D))/L2; with
        # (u + w*sqrt(D))*(C + E*sqrt(D)) = C' + E'*sqrt(D) of integer lead,
        # m*(A + B*sqrt(D)) = Q'*(C' + E'*sqrt(D)) + R' gives the quotient
        # Q'*(u + w*sqrt(D))*L2/(m*L1) and the remainder R'/(m*L1)
        u, w, C, E = _rational_lead(C, E, D)
        m, Q, QB, R, RB = _pseudo_divmod(A, B, C, E, D)
        Q, QB = _times(Q, QB, [u * L2], [w * L2] if w else None, D)
        return _poly(m * L1, Q, QB, D), _poly(m * L1, R, RB, D)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def __eq__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        if self._rows is not None and other._rows is not None:
            return self._rows == other._rows
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- calculus / evaluation ----------------------------------------------
    def derivative(self) -> "Poly":
        L, A, B, D = self._int_rows()
        dA = [k * x for k, x in enumerate(A)][1:]
        return _poly(L, dA, None if B is None else [k * x for k, x in enumerate(B)][1:], D)

    def __call__(self, x):
        """The value at x: exact at a rational or QuadExt x, by Horner's rule
        in floating point at a float or complex x."""
        if isinstance(x, (float, complex)):
            out = 0
            for c in reversed(self.coeffs):
                out = out * x + float(c)
            return out
        if self.is_zero():
            return _ZERO
        rows = self._int_rows()
        H, v, F = _horner(rows, x)
        return _field(*H[-1], rows[0] * v**self.degree, F)

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ValueError("zero polynomial")
        _, A, B, D = self._int_rows()
        return _monic(A, B, D)

    def gcd(self, other: "Poly") -> "Poly":
        """The monic gcd, by Euclid's algorithm on primitive integer rows:
        every remainder is a pseudo-remainder divided by its content, which
        changes it by a nonzero factor only."""
        _, A, B, D1 = self._int_rows()
        _, C, E, D2 = _as_poly(other)._int_rows()
        D = _join_disc(D1, D2)
        while C:
            _, _, C, E = _rational_lead(C, E, D)
            *_, R, RB = _pseudo_divmod(A, B, C, E, D)
            (A, B), (C, E) = (C, E), _primitive(R, RB)
        return _monic(A, B, D) if A else Poly()

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c:
                terms.append(f"({c})*z^{k}" if k else f"({c})")
        return "Poly(" + " + ".join(terms) + ")"


def _as_poly(x):
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction, QuadExt)):
        return Poly([x])
    return None


class RatFunc:
    """Quotient of two polynomials, kept in lowest terms with monic
    denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=Poly([1])):
        num, den = _as_poly(num), _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = Poly(), Poly.one()
            return
        g = num.gcd(den)
        if g.degree > 0:
            num, den = num.exact_div(g), den.exact_div(g)
        lc_inv = field_inv(den.leading())
        self.num, self.den = num * lc_inv, den * lc_inv

    @classmethod
    def zero(cls):
        return cls(Poly())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        o = _as_ratfunc(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        o = _as_ratfunc(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = _as_ratfunc(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_ratfunc(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = _as_ratfunc(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if k < 0:
            return (RatFunc(1) / self) ** (-k)
        out = RatFunc(Poly.one())
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def derivative(self) -> "RatFunc":
        return RatFunc(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __call__(self, x):
        return self.num(x) / self.den(x)

    def __eq__(self, other):
        o = _as_ratfunc(other)
        if o is None:
            return NotImplemented
        return (self.num * o.den - o.num * self.den).is_zero()

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"


def _as_ratfunc(x):
    if isinstance(x, RatFunc):
        return x
    p = _as_poly(x)
    return None if p is None else RatFunc(p)


@dataclass(frozen=True)
class PartialFractions:
    """Double-pole expansion sum(beta/(z-a)^2) + sum(delta/(z-a)) of a proper
    rational function with poles of order at most two."""

    poles: tuple
    betas: tuple
    deltas: tuple
    beta_inf: FieldElement


def partial_fractions(f: RatFunc, poles: Sequence[FieldElement]) -> PartialFractions:
    """Exact expansion of ``f`` over the given (distinct) poles.

    Raises NonFuchsianError for a pole of order > 2 or a denominator root
    outside ``poles``, and IrregularInfinityError when the simple residues do
    not sum to zero.
    """
    poles = list(poles)
    if len(set(map(_key, poles))) != len(poles):
        raise ValueError("poles must be distinct")
    if f.num.degree >= f.den.degree:
        raise NonFuchsianError("not proper at infinity")

    # with f over Q, the later pole of a conjugate pair takes the earlier
    # one's multiplicity, cofactors and values, conjugated: twin[i] = j < i
    twin = {}
    if not any(isinstance(c, QuadExt) and c.b for c in f.num.coeffs + f.den.coeffs):
        index = {_key(a): i for i, a in enumerate(poles)}
        for i, a in enumerate(poles):
            j = index.get(_key(_conjugate(a)), i)
            if j < i:
                twin[i] = j

    # f.den must factor into the declared poles, each of order m <= 2; then
    # f.den = prod (z - a)^m, and the expansion equals f exactly when the sum
    # of beta*den/(z - a)^2 + delta*den/(z - a) over the poles is f.num
    mults = []
    terms = []  # (beta, delta, den/(z - a)^m, den/(z - a)) per pole
    recon = Poly()
    for i, a in enumerate(poles):
        if i in twin:
            m = mults[twin[i]]
            beta, d, q, q1 = terms[twin[i]]
            beta, d = _conjugate(beta), _conjugate(d)
            q, q1 = q.map_coeffs(_conjugate), q1.map_coeffs(_conjugate)
        else:
            # the multiplicity and the cofactors den/(z - a)^k, k = 1..m; the
            # last remainder is q(a) for q = den/(z - a)^m
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
                # delta = d/dz [num/q] at a
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


def _divide_linear(p: Poly, a: FieldElement) -> tuple[Poly, FieldElement]:
    """(q, p(a)) with p = (z - a)*q + p(a), by synthetic (Horner) division
    of a nonzero p on its integer rows."""
    rows = p._int_rows()
    H, v, F = _horner(rows, a)
    n = len(H) - 1
    rem = _field(*H.pop(), rows[0] * v**n, F)
    # H = [H_n, ..., H_1]: h_k = H_k/(L*v^(n-k)) is q's coefficient of
    # z^(k-1), so over L*v^(n-1) its numerator is H_k*v^(k-1)
    QA, QB, vk = [], [], 1
    for P, Q in reversed(H):
        QA.append(P * vk)
        QB.append(Q * vk)
        vk *= v
    return _poly(rows[0] * (vk // v if n else 1), QA, QB, F), rem


def _conjugate(x: FieldElement) -> FieldElement:
    return x.conjugate() if isinstance(x, QuadExt) else x


def _key(x: FieldElement):
    if isinstance(x, QuadExt):
        return (x.a, x.b, x.D)
    return (Fraction(x), Fraction(0), None)
