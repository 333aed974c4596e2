"""Kovacic's algorithm for xi'' = r(z) xi with r rational and Fuchsian.

Given the double-pole data (beta_j, delta_j, beta_inf) of r, the algorithm
decides whether the equation has Liouvillian solutions, by hunting for a
solution xi = exp(int omega) whose logarithmic derivative omega is algebraic
of degree 1 (case 1), 2 (case 2) or 4/6/12 (case 3) over the rationals.

Each case reduces to finitely many *candidates*: a choice of residue
c = N/2 + k*sqrt(1+4*beta), k = -N/2..N/2, at every singular point (one
rule for every N, :func:`_exponents`) together with a non-negative integer
degree d, and for each candidate a polynomial P of degree d that must
satisfy a linear differential identity.  A candidate carries the residues
of theta = sum c_j/(z - a_j) for every N; Kovacic's integers e = 2c
(N = 2) and f = 12c/N (N >= 4) survive only as its labels.  P enters that
identity linearly, so every search is an exact linear solve over the
coefficient field; a found P is certified by an independent residual
identity before the equation is declared solvable.
Before that solve, the system is reduced modulo a large prime, and a rank
argument there can prove that it has no solution (``modular_rejection``).

Every candidate examined is recorded in a ledger, so a negative answer is a
finite, checkable case analysis and not just a failure to find something.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, lcm
from typing import Optional, Sequence

from .algebra import (
    FieldElement,
    Poly,
    QuadExt,
    RatFunc,
    _divide_linear,
    _key,
    field_inv,
    sqrt_decompose,
)
from .nve import equatorial_exponents

CASE_ORDERS = {1: (1,), 2: (2,), 3: (4, 6, 12)}
ALL_N = (1, 2, 4, 6, 12)


# ---------------------------------------------------------------------------
# problem statement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FuchsianODE:
    """xi'' = r xi with regular singular points only.

    ``betas``/``deltas`` are the coefficients of (z-a)^-2 and (z-a)^-1 in the
    expansion of r at each pole; ``beta_inf`` is the z^-2 coefficient at
    infinity.  The betas and beta_inf must be rational (real quadratic local
    exponents are still produced when 1+4*beta is not a perfect square).
    """

    r: RatFunc
    poles: tuple
    betas: tuple
    deltas: tuple
    beta_inf: Fraction

    @classmethod
    def from_nve(cls, data) -> "FuchsianODE":
        return cls(
            r=data.r,
            poles=tuple(data.poles),
            betas=tuple(_require_rational(b, "beta") for b in data.betas),
            deltas=tuple(data.deltas),
            beta_inf=_require_rational(data.beta_inf, "beta_inf"),
        )

    @classmethod
    def from_ratfunc(cls, r: RatFunc, poles: Sequence[FieldElement]) -> "FuchsianODE":
        from .algebra import partial_fractions

        pf = partial_fractions(r, poles)
        return cls(
            r=r,
            poles=tuple(pf.poles),
            betas=tuple(_require_rational(b, "beta") for b in pf.betas),
            deltas=tuple(pf.deltas),
            beta_inf=_require_rational(pf.beta_inf, "beta_inf"),
        )

    @cached_property
    def _descent_parts(self) -> tuple[Poly, tuple, Poly]:
        """S = prod(z - a), the cofactors S/(z - a_j) and R2 = S^2*r: the
        parts of every descent that no candidate changes."""
        # a conjugate pole pair leaves S with rational QuadExt coefficients:
        # as Fractions they make R2 one exact division over Q
        S = Poly(
            c.a if isinstance(c, QuadExt) and c.is_rational else c
            for c in Poly.from_roots(self.poles).coeffs
        )
        cofactors = tuple(_divide_linear(S, a)[0] for a in self.poles)
        # r's denominator divides S^2 when every pole is at most double
        R2 = (S * S).exact_div(self.r.den) * self.r.num
        return S, cofactors, R2

    @cached_property
    def _cofactor_images(self) -> "_CofactorImages":
        """The cofactors as integer rows and their images mod each prime the
        rejection has used, for every candidate."""
        return _CofactorImages(*self._descent_parts)


@dataclass(frozen=True)
class LocalExponents:
    """What the candidates read of xi'' = r xi: ``betas``, ``deltas`` and
    ``beta_inf`` as in :class:`FuchsianODE`.  A delta_j is read only where
    beta_j = 0, and then only whether it is zero."""

    betas: tuple
    deltas: tuple
    beta_inf: Fraction


def _require_rational(x, what: str) -> Fraction:
    if isinstance(x, QuadExt):
        if not x.is_rational:
            raise NotImplementedError(f"irrational {what} not supported: {x}")
        return x.a
    return Fraction(x)


# ---------------------------------------------------------------------------
# candidates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Candidate:
    """One exponent selection: N (algebraic degree of omega), the residues
    c_j of theta = sum c_j/(z - a_j), one per pole (``exps``), the exponent
    c_inf at infinity (``exp_inf``) and the degree d = c_inf - sum c_j of the
    auxiliary polynomial.  ``labels`` is a human-readable transcript of the
    selection: the sign choices for N = 1, Kovacic's integers otherwise
    (e = 2c for N = 2, f = 12c/N for N >= 4)."""

    N: int
    d: int
    exps: tuple
    exp_inf: object
    labels: tuple


# Kovacic's integer for a residue c is _SCALE[N]*c: e = 2c, f = 12c/N
_SCALE = {2: 2, 4: 3, 6: 2, 12: 1}


@lru_cache(maxsize=1024)
def _exponents(beta: Fraction, delta, N: int, at_pole: bool) -> tuple:
    """A singular point's choices of residue c = N/2 + k*sqrt(1+4*beta),
    k = -N/2, ..., N/2 (Ulmer & Weil, J. Symb. Comp. 22 (1996) 179).

    N = 1: the values for k = +1/2 and -1/2, which may be irrational.
    N >= 2: the integral values of _SCALE[N]*c, sorted and distinct.  A pole
    with beta = 0 has the one residue c = N if delta != 0, else 0.
    Cached: the census asks for the same few betas at every order n.
    """
    if at_pole and beta == 0:
        c = N if delta else 0
        return (Fraction(c),) * 2 if N == 1 else (_SCALE[N] * c,)
    t = 1 + 4 * Fraction(beta)
    s = None
    if t >= 0:
        q, D = sqrt_decompose(t)
        s = q if D == 1 else QuadExt(0, q, D)
    if N == 1:
        if s is None:
            where = "(beta < -1/4)" if at_pole else "at infinity"
            raise NotImplementedError(f"complex local exponents {where}")
        half = Fraction(1, 2)
        return tuple(half + k * s for k in (half, -half))
    # _SCALE[N]*c = x0 + k*p/q, an integer where q divides k*p
    x0 = _SCALE[N] * N // 2
    if not isinstance(s, Fraction):  # complex or irrational: only k = 0
        return (x0,)
    step = _SCALE[N] * s
    p, q = step.numerator, step.denominator
    return tuple(sorted({x0 + k * p // q for k in range(-N // 2, N // 2 + 1) if k * p % q == 0}))


def _split(x) -> tuple[Fraction, dict]:
    """x = a + b*sqrt(D) as (a, {D: b}), with {} for a rational x."""
    if isinstance(x, QuadExt):
        return x.a, ({x.D: x.b} if x.b else {})
    return Fraction(x), {}


def _add_irrational(acc: dict, x: dict) -> dict:
    """Sum of two {D: b} parts, with no zero b kept."""
    if not x:
        return acc
    out = dict(acc)
    for D, b in x.items():
        b = out.pop(D, 0) + b
        if b:
            out[D] = b
    return out


def case1_candidates(ode: FuchsianODE | LocalExponents) -> list[Candidate]:
    """All formal +/- exponent selections with a non-negative integer degree.

    Coincident exponent values (a pole with beta = 0 contributes the same
    value for both signs) are still enumerated per sign; this formal count is
    what the candidate-census table reports.  The sums over the poles are
    accumulated pole by pole, in the order of itertools.product, so each
    partial selection is summed once.  As in :func:`_integer_candidates`, a
    partial selection whose rational part plus the least rational parts of
    the poles still to choose exceeds the largest at infinity is dropped:
    every completion would have d < 0.
    """
    per_pole = [
        [(lab, c, *_split(c)) for lab, c in zip("+-", _exponents(b, dl, 1, True))]
        for b, dl in zip(ode.betas, ode.deltas)
    ]
    inf_opts = [
        (lab, c, *_split(c))
        for lab, c in zip("+-", _exponents(ode.beta_inf, None, 1, False))
    ]
    # least rational part of the poles from j on, for j = 0 .. len(per_pole)
    least = [Fraction(0)] * (len(per_pole) + 1)
    for j in range(len(per_pole) - 1, -1, -1):
        least[j] = least[j + 1] + min(o[2] for o in per_pole[j])
    top = max(o[2] for o in inf_opts)
    # (labels, residues, rational part, {D: b}) of every partial selection
    partial = [((), (), Fraction(0), {})]
    for j, opts in enumerate(per_pole):
        bound = top - least[j + 1]
        partial = [
            (labs + (lab,), cs + (c,), total, _add_irrational(irr, c_irr))
            for labs, cs, rat, irr in partial
            for lab, c, c_rat, c_irr in opts
            if (total := rat + c_rat) <= bound
        ]
    out = []
    for labs, cs, rat, irr in partial:
        for lab_inf, c_inf, inf_rat, inf_irr in inf_opts:
            d = inf_rat - rat
            if d.denominator != 1 or d < 0 or irr != inf_irr:
                continue
            out.append(
                Candidate(N=1, d=int(d), exps=cs, exp_inf=c_inf, labels=labs + (lab_inf,))
            )
    return out


def _integer_candidates(ode: FuchsianODE | LocalExponents, N: int) -> list[Candidate]:
    """Selections of Kovacic's integers x_j = _SCALE[N]*c_j for N in
    {2, 4, 6, 12}, with d = (x_inf - sum x_j)/_SCALE[N] a non-negative
    integer.

    For N = 2, selections where every chosen integer is even are excluded:
    such a selection would already have been captured by an N = 1 candidate.

    Selections are built one pole at a time, in the order of
    itertools.product over the poles' sets.  A partial selection is dropped
    as soon as its sum plus the least integers of the poles still to choose
    exceeds max(set_inf): every completion then has x_inf - sum x_j < 0 for
    every x_inf, so d < 0 and it is no candidate.  The survivors, and so the
    candidates, come out in product order.

    The same bound is why sectoral equators of large order n have no
    candidates at all.  There sqrt(1 + 4*beta_inf) = (n + 2)/n, so
    c_inf = N/2 + k + 2k/n with |k| <= N/2, while every finite residue lies
    in Z/2.  d = c_inf - sum c_j is an integer only where n divides 4k, which
    for n > 24 leaves k = 0 alone.  With k = 0, c_inf = N/2, and
    sum c_j >= N: the residue at z = -1 is N, those at +-eps are at least
    N/4 each, those at rho+- at least -N/4 each.  So d <= -N/2 < 0 for
    every N here and every n > 24.  (For N = 1 the finite residues lie in
    Z/4 and c_inf = 1/2 +- (1/2 + 1/n), so d is an integer only where n
    divides 4.)  Below that the enumeration decides: only n = 1..6, 10 and
    12 have candidates.
    """
    scale = _SCALE[N]
    sets = [_exponents(b, dl, N, True) for b, dl in zip(ode.betas, ode.deltas)]
    set_inf = _exponents(ode.beta_inf, None, N, False)
    residue = {x: Fraction(x, scale) for xs in (*sets, set_inf) for x in xs}
    # least sum of the poles from j on, for j = 0 .. len(sets)
    least = [0] * (len(sets) + 1)
    for j in range(len(sets) - 1, -1, -1):
        least[j] = least[j + 1] + min(sets[j])
    top = max(set_inf)
    # (selection, its sum, whether every chosen integer is even)
    partial = [((), 0, True)]
    for j, xs in enumerate(sets):
        bound = top - least[j + 1]
        partial = [
            (combo + (x,), total + x, even and x % 2 == 0)
            for combo, total, even in partial
            for x in xs
            if total + x <= bound
        ]
    out = []
    for combo, total, even in partial:
        all_even = N == 2 and even
        for x_inf in set_inf:
            num = x_inf - total
            if num < 0 or num % scale or (all_even and x_inf % 2 == 0):
                continue
            out.append(
                Candidate(
                    N=N,
                    d=num // scale,
                    exps=tuple(residue[x] for x in combo),
                    exp_inf=residue[x_inf],
                    labels=tuple(map(str, combo)) + (str(x_inf),),
                )
            )
    return out


def candidates_for(ode: FuchsianODE | LocalExponents, N: int) -> list[Candidate]:
    """The candidates of algebraic degree N, one of :data:`ALL_N`."""
    if N == 1:
        return case1_candidates(ode)
    if N not in _SCALE:
        raise ValueError(f"N must be one of {ALL_N}, not {N}")
    return _integer_candidates(ode, N)


# ---------------------------------------------------------------------------
# searches
# ---------------------------------------------------------------------------
#
# Every N shares one linear recursion.  With S = prod(z - a) over the poles,
# T = S*theta and R2 = S^2*r, the descent from P_N = -P ends in a polynomial
# P_-1 that is linear in P and vanishes exactly when P solves the search.
# For N = 1 and 2 it equals (-1)^N * S^(N+1) * L_N(P), where L_N is the
# classical second- or third-order auxiliary operator; for N >= 4 it is
# Kovacic's case-3 recursion.  The columns of every search are therefore the
# descents of the monomials z^0 .. z^(d-1), and the target that of -z^d.


def _theta(poles, coeffs) -> RatFunc:
    th = RatFunc.zero()
    for a, c in zip(poles, coeffs):
        if c:
            th = th + RatFunc(Poly([c]), Poly([-a, 1]))
    return th


def _clear(f: RatFunc, m: Poly) -> Poly:
    """f * m, which must be a polynomial."""
    g = RatFunc(m) * f
    if not g.is_polynomial():
        raise ValueError("common denominator did not clear the expression")
    return g.num * field_inv(g.den.leading())


def _descent_polys(ode: FuchsianODE, coeffs) -> tuple[Poly, Poly, Poly]:
    """(S, T, R2) = (prod(z - a), S*theta, S^2*r) for theta with residues
    ``coeffs``; only T = sum c_j * S/(z - a_j) depends on the candidate."""
    S, cofactors, R2 = ode._descent_parts
    terms = [(c, cofactor.coeffs) for c, cofactor in zip(coeffs, cofactors) if c]
    T = Poly(sum((c * cs[k] for c, cs in terms), Fraction(0)) for k in range(S.degree))
    return S, T, R2


def _case3_descend(N: int, S, T, R2, P) -> list:
    """Run the downward recursion P_N = -P, ...; returns [P_N, ..., P_-1].

    The polynomials are exact :class:`Poly` values or their truncated Taylor
    series modulo a prime (:class:`_JetModP`): the recursion uses ring
    operations and the derivative only."""
    seq = [-P]
    Sp = S.derivative()
    for i in range(N, -1, -1):
        Pi = seq[-1]
        nxt = -(S * Pi.derivative()) + ((N - i) * Sp - T) * Pi
        if i < N:
            nxt = nxt - ((N - i) * (i + 1)) * R2 * seq[-2]
        seq.append(nxt)
    return seq


def _solve_linear(columns: list[Poly], rhs: Poly) -> Optional[list]:
    """Solve sum x_i * columns[i] = rhs exactly, coefficient by coefficient.

    Returns one solution (the system is generically overdetermined) or None.
    """
    nrows = max([c.degree for c in columns] + [rhs.degree]) + 1
    ncols = len(columns)
    rows = [[col[k] for col in columns] + [rhs[k]] for k in range(max(nrows, 1))]

    pivots = []
    rank_row = 0
    for col in range(ncols):
        piv = None
        for rr in range(rank_row, len(rows)):
            if rows[rr][col]:
                piv = rr
                break
        if piv is None:
            continue
        rows[rank_row], rows[piv] = rows[piv], rows[rank_row]
        inv = field_inv(rows[rank_row][col])
        rows[rank_row] = [x * inv for x in rows[rank_row]]
        for rr in range(len(rows)):
            if rr != rank_row and rows[rr][col]:
                fac = rows[rr][col]
                rows[rr] = [x - fac * y for x, y in zip(rows[rr], rows[rank_row])]
        pivots.append(col)
        rank_row += 1
        if rank_row == len(rows):
            break
    # consistency: remaining rows must have zero rhs
    for rr in range(rank_row, len(rows)):
        if rows[rr][ncols]:
            return None
    sol = [Fraction(0)] * ncols
    for rr, col in enumerate(pivots):
        sol[col] = rows[rr][ncols]
    return sol


def _descent_solve(N: int, d: int, S: Poly, T: Poly, R2: Poly) -> Optional[Poly]:
    """The monic P of degree d whose descent ends in zero, or None."""
    cols = [_case3_descend(N, S, T, R2, Poly.monomial(i))[-1] for i in range(d)]
    target = -_case3_descend(N, S, T, R2, Poly.monomial(d))[-1]
    sol = _solve_linear(cols, target)
    if sol is None:
        return None
    return Poly(list(sol) + [Fraction(1)])


@dataclass
class Solution:
    """Certified output of a successful search."""

    N: int
    d: int
    theta: RatFunc
    P: Poly
    omega: Optional[RatFunc] = None  # N = 1: xi = exp(int omega)
    phi: Optional[RatFunc] = None  # N = 2: omega^2 - phi*omega + psi = 0
    psi: Optional[RatFunc] = None
    minpoly: Optional[tuple] = None  # N >= 4: coefficients of omega^0..omega^N


# ---------------------------------------------------------------------------
# certified modular rejection
# ---------------------------------------------------------------------------
#
# Let p be a prime dividing no denominator of the parts a, b of the
# coefficients a + b*sqrt(D) of S, T and R2, with D a square mod p, s^2 = D.
# Then a + b*sqrt(D) -> a + b*s (mod p) is a ring homomorphism on those
# coefficients and commutes with the descent.  Minors commute with it too,
# so the rank of the reduced system [A_p | b_p] is at most the exact rank of
# [A | b].  When the d + 1 reduced columns are independent, the exact
# augmented matrix has rank d + 1 while A has only d columns, so the exact
# system is inconsistent: the candidate is rejected by a proof.
#
# The columns are not reduced whole.  The descents of t^k = (z - z0)^k,
# k = 0..d, span the same space as those of z^0..z^d (the change of basis is
# unitriangular), and only their Taylor coefficients 0..d at z0 are kept.
# Taking those coefficients is a linear map, so a dependency among the
# columns would be one among their images: if the (d+1) x (d+1) matrix of
# images is nonsingular, the columns are independent and the proof above
# stands.  A singular one proves nothing, and the candidate goes to the
# exact solve; z0 only changes how often that happens.  Coefficients 0..j
# of P_(i-1) need those of P_i to j + 1 (one derivative) and of P_(i+1)
# to j, so the descent runs on jets (:class:`_JetModP`): S, T and R2 are
# shifted to z0 at order N + d + 2 and P_N = -t^k starts there, every sum
# and product keeps the lower order, and P_-1 ends at order d + 1.
#
# T is not built exactly either (:func:`_jets_mod_prime`).  The cofactors
# S/(z - a_j) are kept as integer rows over one denominator, so T's
# denominators and its sqrt(D) part, which the prime rule reads, come from
# integer dot products with the residues, and the rule is unchanged.  The
# homomorphism is linear and commutes with the Taylor shift, so T's jet is
# the residues' images dotted with the cofactors' shifted images, cached per
# equation and prime beside those of S and R2.  Where p divides the common
# denominator, or S and R2 are not rational, the exact T is reduced instead.

# primes = 3 (mod 4), so that a square root mod p is a single power
_PRIMES = (
    2**61 - 1,
    2**61 - 45,
    2**61 - 229,
    2**61 - 465,
    2**61 - 829,
    2**61 - 985,
    2**61 - 1153,
    2**61 - 1281,
)

# the jets' centre z0.  At a root of S mod p the descent degenerates and
# most candidates go unproved (to the exact solve); no rational pole u/v
# with |u|, |v| < 2^29 but 2^31 - 1 itself reduces to it mod p.
_Z0 = 2**31 - 1


class _JetModP:
    """Truncated Taylor series at a point z0 over F_p: the coefficients of
    t^0 .. t^(order-1), t = z - z0, with the ring operations
    :func:`_case3_descend` uses.  Coefficients past the stored ones are
    zero.  A sum or product is known only to the lower of its operands'
    orders, and a derivative to one order less.  Coefficients are integers
    standing for their residues: products of two jets reduce them mod p;
    sums, integer multiples and derivatives leave them as they come."""

    __slots__ = ("c", "order", "p")

    def __init__(self, coeffs: list, order: int, p: int):
        # no more than ``order`` coefficients
        self.c, self.order, self.p = coeffs, order, p

    def __add__(self, other: "_JetModP") -> "_JetModP":
        n = min(self.order, other.order)
        a, b = self.c[:n], other.c[:n]
        if len(a) < len(b):
            a, b = b, a
        return _JetModP([x + y for x, y in zip(a, b)] + a[len(b):], n, self.p)

    def __neg__(self) -> "_JetModP":
        return _JetModP([-x for x in self.c], self.order, self.p)

    def __sub__(self, other: "_JetModP") -> "_JetModP":
        return self + (-other)

    def __mul__(self, other) -> "_JetModP":
        p = self.p
        if isinstance(other, int):
            return _JetModP([x * other for x in self.c], self.order, p)
        n = min(self.order, other.order)
        a, b = self.c[:n], other.c[:n]
        if len(a) < len(b):
            a, b = b, a
        out = [0] * min(n, len(a) + len(b) - 1)
        m = len(a)
        for j, y in enumerate(b):  # the shorter operand: S, T or R2
            if y:
                out[j : j + m] = [u + y * v for u, v in zip(out[j : j + m], a)]
        return _JetModP([x % p for x in out], n, p)

    __rmul__ = __mul__

    def derivative(self) -> "_JetModP":
        c = self.c
        return _JetModP([k * c[k] for k in range(1, len(c))], max(self.order - 1, 0), self.p)


def _taylor_shift(coeffs: list[int], z0: int, p: int) -> list[int]:
    """The coefficients of f(z0 + t) mod p, given those of f(z)."""
    out: list[int] = []
    for c in reversed(coeffs):  # Horner: out <- out*(z0 + t) + c
        out = [(z0 * x + y) % p for x, y in zip(out + [0], [c] + out)]
    return out


def _parts(x: FieldElement) -> tuple[Fraction, Fraction]:
    """(a, b) with x = a + b*sqrt(D)."""
    if isinstance(x, QuadExt):
        return x.a, x.b
    return Fraction(x), Fraction(0)


@lru_cache(maxsize=256)
def _sqrt_mod(D: int, p: int) -> Optional[int]:
    """A square root of D mod p (p = 3 mod 4), or None if D is no square."""
    s = pow(D, (p + 1) // 4, p)
    return s if (s * s - D) % p == 0 else None


def _reduce_mod_prime(polys: Sequence[Poly]) -> Optional[tuple[int, list]]:
    """The first listed prime at which every coefficient has an image, with
    the coefficient lists of the polynomials' images; None when no listed
    prime qualifies."""
    # at most one discriminant: field arithmetic refuses to mix two
    discs = {c.D for poly in polys for c in poly.coeffs if isinstance(c, QuadExt) and c.b}
    parts = [[_parts(c) for c in poly.coeffs] for poly in polys]
    dens = {q.denominator for coeffs in parts for ab in coeffs for q in ab}
    for p in _PRIMES:
        if any(den % p == 0 for den in dens):
            continue
        s = 0
        if discs:
            (D,) = discs
            s = _sqrt_mod(D, p)
            if s is None:
                continue  # D is not a square mod p
        inv = {den: pow(den, -1, p) for den in dens}
        images = [
            [(a.numerator * inv[a.denominator] + b.numerator * inv[b.denominator] * s) % p
             for a, b in coeffs]
            for coeffs in parts
        ]
        return p, images
    return None


def _independent_mod(vectors: list[list[int]], p: int) -> bool:
    """Whether the vectors of integers, read mod p, are linearly independent
    over F_p."""
    width = max(map(len, vectors), default=0)
    pivots: list[tuple[int, list[int]]] = []  # (position, vector with 1 there)
    for v in vectors:
        v = [x % p for x in v] + [0] * (width - len(v))
        for pos, w in pivots:
            if v[pos]:
                f = v[pos]
                v = [(x - f * y) % p for x, y in zip(v, w)]
        pos = next((k for k, x in enumerate(v) if x), None)
        if pos is None:
            return False
        inv = pow(v[pos], -1, p)
        pivots.append((pos, [x * inv % p for x in v]))
    return True


def _exact_jets(ode: FuchsianODE, cand: Candidate, order: int) -> Optional[tuple]:
    """(p, S, T, R2) as jets of ``order`` at _Z0 mod p, with p chosen by
    :func:`_reduce_mod_prime` from the exact S, T and R2; None when no listed
    prime qualifies."""
    reduced = _reduce_mod_prime(_descent_polys(ode, cand.exps))
    if reduced is None:
        return None
    p, images = reduced
    return (p, *(_JetModP(_taylor_shift(c, _Z0, p)[:order], order, p) for c in images))


def _rational_image(poly: Poly, p: int) -> list[int]:
    """The coefficients mod p of a polynomial over Q."""
    return [(a.numerator * pow(a.denominator, -1, p)) % p for a, _ in map(_parts, poly.coeffs)]


class _CofactorImages:
    """What the rejection reads of an equation, whatever the candidate.

    The cofactors S/(z - a_j) are kept as integer rows over one common
    denominator L: S/(z - a_j) = (A_j + B_j*sqrt(D))/L, with D None when
    every cofactor is rational.  ``at(p)`` gives, once per prime, the
    images mod p of S and R2 and of A_j/L and B_j/L, each shifted to _Z0."""

    def __init__(self, S: Poly, cofactors: tuple, R2: Poly):
        parts = [[_parts(c) for c in cf.coeffs] for cf in cofactors]
        discs = {c.D for cf in cofactors for c in cf.coeffs if isinstance(c, QuadExt) and c.b}
        self.D = next(iter(discs), None)  # Poly.from_roots admits one at most
        self.L = L = lcm(*(q.denominator for row in parts for ab in row for q in ab))
        self.rows = [
            ([a.numerator * (L // a.denominator) for a, _ in row],
             [b.numerator * (L // b.denominator) for _, b in row])
            for row in parts
        ]
        self.width = S.degree
        sr = [_parts(c) for poly in (S, R2) for c in poly.coeffs]
        # with sqrt(D) in S or R2 the prime rule is left to the exact path
        self.rational_sr = not any(b for _, b in sr)
        self.sr_den = lcm(*(a.denominator for a, _ in sr))
        self.S, self.R2 = S, R2
        self._at: dict = {}

    def at(self, p: int) -> tuple:
        """(S, R2, X, Y), the Taylor coefficients at _Z0 of the images mod p
        of S, R2 and, per pole j, of A_j/L and B_j/L ([] for B_j = 0)."""
        if p not in self._at:
            inv = pow(self.L, -1, p)

            def shifted(row):
                return _taylor_shift([x * inv % p for x in row], _Z0, p) if any(row) else []

            self._at[p] = (
                _taylor_shift(_rational_image(self.S, p), _Z0, p),
                _taylor_shift(_rational_image(self.R2, p), _Z0, p),
                [shifted(A) for A, _ in self.rows],
                [shifted(B) for _, B in self.rows],
            )
        return self._at[p]


def _jets_mod_prime(ode: FuchsianODE, cand: Candidate, order: int) -> Optional[tuple]:
    """(p, S, T, R2) as jets of ``order`` at _Z0 mod the first listed prime
    at which S, T and R2 have images, or None when no listed prime
    qualifies: :func:`_exact_jets`, without building T exactly.

    With the residues c_j = (u_j + v_j*sqrt(D))/M over one denominator,
    T*M*L = sum_j (u_j + v_j*sqrt(D))*(A_j + B_j*sqrt(D)) = P + Q*sqrt(D),
    with integer P and Q.  Where p divides neither M*L nor a denominator
    of S and R2, it divides no denominator of T, and T has a sqrt(D) part
    exactly where Q != 0, which integer dot products decide: the prime rule
    is the exact one.  T's image is then a dot product of the residues'
    images with the cached shifted cofactor images.  Where p divides M*L,
    or S and R2 are not rational, or the residues' discriminant differs
    from the cofactors', the exact T is reduced instead."""
    im = ode._cofactor_images
    res = [_parts(c) for c in cand.exps]
    discs = {c.D for c in cand.exps if isinstance(c, QuadExt) and c.b}
    if im.D is not None:
        discs.add(im.D)
    if not im.rational_sr or len(discs) > 1:
        return _exact_jets(ode, cand, order)
    D = next(iter(discs), 0)
    M = lcm(*(q.denominator for ab in res for q in ab))
    uv = [(a.numerator * (M // a.denominator), b.numerator * (M // b.denominator)) for a, b in res]
    irrational = bool(D) and any(
        sum(u * B[k] + v * A[k] for (u, v), (A, B) in zip(uv, im.rows) if u or v)
        for k in range(im.width)
    )
    for p in _PRIMES:
        if (M * im.L) % p == 0:
            return _exact_jets(ode, cand, order)
        if im.sr_den % p == 0:
            continue
        s = 0
        if irrational:
            s = _sqrt_mod(D, p)
            if s is None:
                continue  # D is not a square mod p
        S, R2, X, Y = im.at(p)
        # T*M's image: sum_j (u_j + v_j*s)*X_j + (u_j*s + v_j*D)*Y_j, which is
        # P's alone when Q = 0, whatever s
        Tm = [0] * min(order, im.width)
        for (u, v), x, y in zip(uv, X, Y):
            a, b = u + v * s, u * s + v * D
            if a:
                Tm = [t + a * c for t, c in zip(Tm, x)]
            if b and y:
                Tm = [t + b * c for t, c in zip(Tm, y)]
        inv = pow(M, -1, p)
        T = [t * inv % p for t in Tm]
        return (p, *(_JetModP(c[:order], order, p) for c in (S, T, R2)))
    return None


def modular_rejection(ode: FuchsianODE, cand: Candidate) -> Optional[int]:
    """A prime p certifying that ``cand`` has no solution, or None.

    The descents of t^0 .. t^d, t = z - z0, are reduced modulo p and cut to
    their Taylor coefficients 0..d at z0; when those d + 1 vectors are
    linearly independent over F_p, no combination of the first d descents
    equals minus the last, over F_p or over Q(sqrt(D)).  None means "not
    proved", and the candidate needs the exact search.
    """
    order = cand.N + cand.d + 2
    jets = _jets_mod_prime(ode, cand, order)
    if jets is None:
        return None
    p, S, T, R2 = jets
    residuals = [
        _case3_descend(cand.N, S, T, R2, _JetModP([0] * k + [1], order, p))[-1].c
        for k in range(cand.d + 1)
    ]
    return p if _independent_mod(residuals, p) else None


def search_for(ode: FuchsianODE, cand: Candidate) -> Optional[Solution]:
    """Search one candidate: rejected at once when :func:`modular_rejection`
    proves it has no solution, else the monic P of degree d whose descent
    ends in zero is solved for exactly.

    The solution carries, for N = 1, omega = theta + P'/P with
    omega' + omega^2 = r; for N = 2, phi = theta + P'/P and
    psi = phi'/2 + phi^2/2 - r with omega^2 - phi*omega + psi = 0; for
    N >= 4, the coefficients S^i P_i / (N-i)! of omega's minimal polynomial.
    """
    if modular_rejection(ode, cand) is not None:
        return None
    N, d = cand.N, cand.d
    theta = _theta(ode.poles, cand.exps)
    S, T, R2 = _descent_polys(ode, cand.exps)
    P = _descent_solve(N, d, S, T, R2)
    if P is None:
        return None
    if N == 1:
        omega = theta + RatFunc(P.derivative()) / RatFunc(P)
        return Solution(N=1, d=d, theta=theta, P=P, omega=omega)
    if N == 2:
        half = Fraction(1, 2)
        phi = theta + RatFunc(P.derivative()) / RatFunc(P)
        psi = half * phi.derivative() + half * phi * phi - ode.r
        return Solution(N=2, d=d, theta=theta, P=P, phi=phi, psi=psi)
    seq = _case3_descend(N, S, T, R2, P)  # seq[0] = P_N ... seq[N] = P_0
    minpoly = tuple(
        RatFunc(Poly([Fraction(1, factorial(N - i))]) * S**i * seq[N - i])
        for i in range(N + 1)
    )
    return Solution(N=N, d=d, theta=theta, P=P, minpoly=minpoly)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def verify_solution(ode: FuchsianODE, sol: Solution) -> bool:
    """Independent residual check of a claimed solution.

    N=1: the logarithmic derivative satisfies the Riccati equation
         omega' + omega^2 = r.
    N=2: with phi = omega + conj(omega) and psi = omega*conj(omega), both
         Riccati copies combine into psi' + phi*psi - phi*r = 0 (together
         with psi = phi'/2 + phi^2/2 - r, which defines psi).
    N>=4: the recursion residual is recomputed from scratch and the minimal
         polynomial must have a nonzero leading coefficient.
    """
    if sol.N == 1:
        res = sol.omega.derivative() + sol.omega * sol.omega - ode.r
        return res.is_zero()
    if sol.N == 2:
        res = sol.psi.derivative() + sol.phi * sol.psi - sol.phi * ode.r
        return res.is_zero()
    N = sol.N
    S = Poly.from_roots(ode.poles)
    T = _clear(sol.theta, S)
    R2 = _clear(ode.r, S * S)
    seq = _case3_descend(N, S, T, R2, sol.P)
    return seq[-1].is_zero() and bool(sol.minpoly[-1])


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LedgerEntry:
    N: int
    d: int
    labels: tuple
    multiplicity: int
    searched: bool
    success: bool


@dataclass
class KovacicResult:
    solvable: bool
    solution: Optional[Solution]
    ledger: list = field(default_factory=list)

    @property
    def verdict(self) -> str:
        return "Solvable" if self.solvable else "Unsolvable"


def run_kovacic(ode: FuchsianODE) -> KovacicResult:
    """Try every candidate in order of increasing algebraic degree; stop at
    the first certified solution.  The ledger records every candidate with
    its search outcome (unsearched ones, after a success, included)."""
    ledger: list[LedgerEntry] = []
    winner: Optional[Solution] = None
    for orders in CASE_ORDERS.values():
        for N in orders:
            groups: dict = {}
            for cand in candidates_for(ode, N):
                key = (cand.d, tuple(map(_key, cand.exps)), _key(cand.exp_inf))
                if key in groups:
                    groups[key][1] += 1
                else:
                    groups[key] = [cand, 1]
            for cand, mult in sorted(
                groups.values(), key=lambda g: (g[0].d, g[0].labels)
            ):
                if winner is not None:
                    ledger.append(
                        LedgerEntry(N, cand.d, cand.labels, mult, False, False)
                    )
                    continue
                sol = search_for(ode, cand)
                ok = sol is not None and verify_solution(ode, sol)
                ledger.append(LedgerEntry(N, cand.d, cand.labels, mult, True, ok))
                if ok:
                    winner = sol
        if winner is not None:
            break
    return KovacicResult(solvable=winner is not None, solution=winner, ledger=ledger)


# ---------------------------------------------------------------------------
# candidate census table
# ---------------------------------------------------------------------------


def candidate_census(ode: FuchsianODE | LocalExponents) -> dict[int, dict[int, int]]:
    """Count candidates by degree d for every algebraic degree N.

    N=1 counts formal sign selections (coincident values counted per sign);
    N>=2 counts distinct integer-set selections.
    """
    out: dict[int, dict[int, int]] = {}
    for N in ALL_N:
        counts: dict[int, int] = {}
        for cand in candidates_for(ode, N):
            counts[cand.d] = counts.get(cand.d, 0) + 1
        out[N] = dict(sorted(counts.items()))
    return out


def census_for_order(n: int) -> dict[int, dict[int, int]]:
    """Census for the equatorial variational equation of a sectoral surface,
    from its closed-form exponents (:func:`nve.equatorial_exponents`), which
    depend on n alone; every exact derivation checks them."""
    betas, beta_inf = equatorial_exponents(n)
    # the only delta read is the one at z = -1, where beta = 0, and
    # appendix_delta1 says it is nonzero
    deltas = tuple(Fraction(b == 0) for b in betas)
    return candidate_census(LocalExponents(betas, deltas, beta_inf))


def census_cell(counts: dict[int, int]) -> str:
    if not counts:
        return "-"
    return ",".join(f"{d}({c})" for d, c in sorted(counts.items()))


def census_table(orders=range(2, 13)) -> dict[int, dict[int, dict[int, int]]]:
    """:func:`census_for_order` for every n in ``orders``, which must not be
    empty."""
    table = {n: census_for_order(n) for n in orders}
    if not table:
        raise ValueError(f"the range of orders must be non-empty, not {orders}")
    return table


def census_text(table: dict) -> str:
    """Aligned text table of candidate counts d(count) per harmonic order."""
    header = ["n"] + [f"N={N}" for N in ALL_N]
    rows = [header]
    for n, census in table.items():
        rows.append([str(n)] + [census_cell(census[N]) for N in ALL_N])
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for k, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if k == 0:
            lines.append("-" * len(lines[0]))
    return "\n".join(lines) + "\n"


def census_json(table: dict) -> str:
    import json  # only the writers need it, so the import of the module skips it

    data = {
        str(n): {str(N): counts for N, counts in census.items()}
        for n, census in table.items()
    }
    return json.dumps(data, indent=2)


def census_table_text(orders=range(2, 13)) -> str:
    """:func:`census_text` of :func:`census_table`."""
    return census_text(census_table(orders))


def census_table_json(orders=range(2, 13)) -> str:
    """:func:`census_json` of :func:`census_table`."""
    return census_json(census_table(orders))


def result_to_json(res: KovacicResult) -> str:
    import json

    out = {
        "verdict": res.verdict,
        "solution": None,
        "ledger": [
            {
                "N": e.N,
                "d": e.d,
                "selection": list(e.labels),
                "multiplicity": e.multiplicity,
                "searched": e.searched,
                "success": e.success,
            }
            for e in res.ledger
        ],
    }
    if res.solution is not None:
        s = res.solution
        out["solution"] = {
            "N": s.N,
            "d": s.d,
            "P": [str(c) for c in s.P.coeffs],
            "omega": _rf_str(s.omega),
            "phi": _rf_str(s.phi),
            "psi": _rf_str(s.psi),
            "minpoly": [_rf_str(c) for c in s.minpoly] if s.minpoly else None,
        }
    return json.dumps(out, indent=2)


def _rf_str(f: Optional[RatFunc]) -> Optional[dict]:
    if f is None:
        return None
    return {
        "num": [str(c) for c in f.num.coeffs],
        "den": [str(c) for c in f.den.coeffs],
    }
