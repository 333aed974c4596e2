"""Exact symbolic layer for harmonic-surface metric data.

Works in the commutative ring Q[u, v, c, s] subject to v^2 = 1 - u^2 and
s^2 = 1 - c^2, where

    u = sin(theta),  v = cos(theta),  c = cos(n*phi),  s = sin(n*phi).

Every smooth expression built from a sectoral surface r = 1 + eps*u^n*c and
its derivatives lives in (the fraction field of) this ring, so metric
components, Christoffel symbols and their derivatives can be manipulated with
no floating point at all.  The deformation eps is baked into the coefficients
as an exact Fraction; the harmonic order n drives d/dphi.

Nothing in the package imports this module: the exact NVE and the Lemma-1
polynomial come from closed forms on the equator (``nve``, ``geodesic``).
It stays for two readers.  ``tests/test_trigring.py`` uses
:func:`sectoral_metric` and :func:`sectoral_christoffels` as the exact
oracle for ``kernels.christoffel``, and the benchmark's tracer
(``perfbench/tracing.py``) patches ``sectoral_christoffels`` by name.
"""

from __future__ import annotations

from fractions import Fraction

# monomial key: exponents (u, v, c, s) with v, s kept in {0, 1}
Key = tuple[int, int, int, int]


class TrigPoly:
    __slots__ = ("terms",)

    def __init__(self, terms: dict[Key, Fraction] | None = None):
        self.terms = {}
        if terms:
            for k, co in terms.items():
                if co:
                    self._accumulate(k, Fraction(co))

    def _accumulate(self, key: Key, coeff: Fraction):
        """Add coeff * monomial, reducing v^2 -> 1-u^2 and s^2 -> 1-c^2."""
        iu, jv, kc, ls = key
        if jv >= 2:
            self._accumulate((iu, jv - 2, kc, ls), coeff)
            self._accumulate((iu + 2, jv - 2, kc, ls), -coeff)
            return
        if ls >= 2:
            self._accumulate((iu, jv, kc, ls - 2), coeff)
            self._accumulate((iu, jv, kc + 2, ls - 2), -coeff)
            return
        new = self.terms.get(key, Fraction(0)) + coeff
        if new:
            self.terms[key] = new
        else:
            self.terms.pop(key, None)

    # -- constructors --------------------------------------------------------
    @classmethod
    def const(cls, x) -> "TrigPoly":
        return cls({(0, 0, 0, 0): Fraction(x)})

    @classmethod
    def gen(cls, name: str) -> "TrigPoly":
        idx = {"u": 0, "v": 1, "c": 2, "s": 3}[name]
        key = [0, 0, 0, 0]
        key[idx] = 1
        return cls({tuple(key): Fraction(1)})

    # -- ring operations -----------------------------------------------------
    def __add__(self, other):
        other = _as_trig(other)
        out = TrigPoly()
        out.terms = dict(self.terms)
        for k, co in other.terms.items():
            out._accumulate(k, co)
        return out

    __radd__ = __add__

    def __neg__(self):
        out = TrigPoly()
        out.terms = {k: -co for k, co in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-_as_trig(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_trig(other)
        out = TrigPoly()
        for (a1, b1, c1, d1), x in self.terms.items():
            for (a2, b2, c2, d2), y in other.terms.items():
                out._accumulate((a1 + a2, b1 + b2, c1 + c2, d1 + d2), x * y)
        return out

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError(f"exponent {k} must be nonnegative: TrigPoly is a ring")
        out = TrigPoly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return not (self - other)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- derivations ----------------------------------------------------------
    def diff_theta(self) -> "TrigPoly":
        """d/dtheta with u' = v, v' = -u."""
        out = TrigPoly()
        for (iu, jv, kc, ls), co in self.terms.items():
            if iu:
                out._accumulate((iu - 1, jv + 1, kc, ls), iu * co)
            if jv:
                out._accumulate((iu + 1, jv - 1, kc, ls), -jv * co)
        return out

    def diff_phi(self, n: int) -> "TrigPoly":
        """d/dphi with c' = -n s, s' = n c."""
        out = TrigPoly()
        for (iu, jv, kc, ls), co in self.terms.items():
            if kc:
                out._accumulate((iu, jv, kc - 1, ls + 1), -n * kc * co)
            if ls:
                out._accumulate((iu, jv, kc + 1, ls - 1), n * ls * co)
        return out

    def eval(self, u, v, c, s):
        """Numeric (or exact) evaluation."""
        tot = 0
        for (iu, jv, kc, ls), co in self.terms.items():
            tot += co * u**iu * v**jv * c**kc * s**ls
        return tot

    def __repr__(self):
        if not self.terms:
            return "TrigPoly(0)"
        bits = []
        for key in sorted(self.terms):
            co = self.terms[key]
            mono = "".join(
                f"{nm}^{e}" for nm, e in zip("uvcs", key) if e
            )
            bits.append(f"({co}){mono}")
        return "TrigPoly(" + " + ".join(bits) + ")"


def _as_trig(x) -> TrigPoly:
    if isinstance(x, TrigPoly):
        return x
    return TrigPoly.const(x)


class TrigFrac:
    """Formal quotient of two TrigPoly values (no cancellation attempted)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        self.num = _as_trig(num)
        self.den = _as_trig(den if den is not None else 1)
        if not self.den:
            raise ZeroDivisionError("zero denominator")

    def __add__(self, other):
        o = _as_frac(other)
        return TrigFrac(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return TrigFrac(-self.num, self.den)

    def __sub__(self, other):
        return self + (-_as_frac(other))

    def __mul__(self, other):
        o = _as_frac(other)
        return TrigFrac(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_frac(other)
        if not o.num:
            raise ZeroDivisionError
        return TrigFrac(self.num * o.den, self.den * o.num)

    def diff_theta(self) -> "TrigFrac":
        return TrigFrac(
            self.num.diff_theta() * self.den - self.num * self.den.diff_theta(),
            self.den * self.den,
        )

    def diff_phi(self, n: int) -> "TrigFrac":
        return TrigFrac(
            self.num.diff_phi(n) * self.den - self.num * self.den.diff_phi(n),
            self.den * self.den,
        )

    def __repr__(self):
        return f"TrigFrac({self.num!r}, {self.den!r})"


def _as_frac(x) -> TrigFrac:
    if isinstance(x, TrigFrac):
        return x
    return TrigFrac(x)


def sectoral_metric(n: int, eps: Fraction):
    """Exact metric components of r = 1 + eps*sin^n(theta)*cos(n*phi).

    Returns (g, det, r) where g is the 2x2 symmetric matrix of TrigPoly
    entries indexed [theta, phi] and det = det(g).
    """
    eps = Fraction(eps)
    u, v, c, s = (TrigPoly.gen(x) for x in "uvcs")
    r = TrigPoly.const(1) + eps * u**n * c
    r_t = r.diff_theta()
    r_p = r.diff_phi(n)
    g_tt = r_t * r_t + r * r
    g_tp = r_t * r_p
    g_pp = r_p * r_p + r * r * u * u
    det = g_tt * g_pp - g_tp * g_tp
    return ((g_tt, g_tp), (g_tp, g_pp)), det, r


def sectoral_christoffels(n: int, eps: Fraction) -> dict[str, TrigFrac]:
    """All six Christoffel symbols of a sectoral surface, exactly.

    Keys: 'ttt', 'ttp', 'tpp', 'ptt', 'ptp', 'ppp' where the first letter is
    the upper index and t/p stand for theta/phi.
    """
    g, det, _ = sectoral_metric(n, eps)
    (g_tt, g_tp), (_, g_pp) = g

    def d(poly, axis):
        return poly.diff_theta() if axis == 0 else poly.diff_phi(n)

    comp = [[g_tt, g_tp], [g_tp, g_pp]]
    # inverse metric times det: adj[0][0]=g_pp, adj[0][1]=-g_tp, adj[1][1]=g_tt
    adj = [[g_pp, -g_tp], [-g_tp, g_tt]]
    half = Fraction(1, 2)
    names = {0: "t", 1: "p"}
    out = {}
    for a in range(2):
        for b in range(2):
            for cidx in range(b, 2):
                num = TrigPoly()
                for dd in range(2):
                    num = num + adj[a][dd] * (
                        d(comp[b][dd], cidx) + d(comp[cidx][dd], b) - d(comp[b][cidx], dd)
                    )
                out[names[a] + names[b] + names[cidx]] = TrigFrac(half * num, det)
    return out
