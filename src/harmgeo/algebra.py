"""Exact arithmetic: quadratic field extensions, dense polynomials, rational
functions and partial fractions.

Rationals are plain :class:`fractions.Fraction`.  Everything built on top is
immutable, and all operations are exact; floats never enter except through the
explicit ``__float__`` conversions.
"""

from __future__ import annotations

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
        if self.D is None:
            return other.D
        if other.D is None or other.D == self.D:
            return self.D
        raise ValueError(f"mixed discriminants {self.D} and {other.D}")

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


class Poly:
    """Dense univariate polynomial, coefficients lowest degree first.

    Coefficients are Fractions or QuadExt elements (freely mixed; QuadExt
    coercion happens lazily through the field operators).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[FieldElement] = ()):
        cs = [c if isinstance(c, QuadExt) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

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
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __getitem__(self, k: int) -> FieldElement:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def leading(self) -> FieldElement:
        if not self.coeffs:
            raise ValueError("zero polynomial")
        return self.coeffs[-1]

    def map_coeffs(self, f) -> "Poly":
        return Poly([f(c) for c in self.coeffs])

    # -- ring operations ----------------------------------------------------
    def __add__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[k] + other[k] for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
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
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        rem = list(self.coeffs)
        inv_lc = field_inv(other.leading())
        d = other.degree
        while len(rem) - 1 >= d and any(rem):
            while rem and not rem[-1]:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            c = rem[-1] * inv_lc
            q[k] = c
            for j, b in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - c * b
            rem.pop()
        return Poly(q), Poly(rem)

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
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- calculus / evaluation ----------------------------------------------
    def derivative(self) -> "Poly":
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + (float(c) if isinstance(x, (float, complex)) else c)
        return out

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ValueError("zero polynomial")
        inv = field_inv(self.leading())
        return Poly([c * inv for c in self.coeffs])

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, _as_poly(other)
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

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
    of a nonzero p."""
    acc = p.coeffs[-1]
    quo = [acc]
    for c in reversed(p.coeffs[:-1]):
        acc = c + a * acc
        quo.append(acc)
    rem = quo.pop()
    return Poly(reversed(quo)), rem


def _conjugate(x: FieldElement) -> FieldElement:
    return x.conjugate() if isinstance(x, QuadExt) else x


def _key(x: FieldElement):
    if isinstance(x, QuadExt):
        return (x.a, x.b, x.D)
    return (Fraction(x), Fraction(0), None)
