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
from math import factorial, gcd, lcm
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
        # a conjugate pole pair leaves S rational, so R2 is one exact
        # division over Q
        S = Poly.from_roots(self.poles)
        cofactors = tuple(_divide_linear(S, a)[0] for a in self.poles)
        # r's denominator divides S^2 when every pole is at most double
        R2 = (S * S).exact_div(self.r.den) * self.r.num
        return S, cofactors, R2

    @cached_property
    def _descent_images(self) -> "_DescentImages":
        """S, R2 and the cofactors as the rejection reads them, with the
        images of S and R2 mod each prime it has used, for every candidate."""
        return _DescentImages(*self._descent_parts)


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


def _options(beta: Fraction, delta, N: int, at_pole: bool) -> list:
    """A singular point's choices as (label, residue c, key, {D: b}).  The
    key is what the degree sums, {D: b} the irrational part of c it leaves
    out.  N = 1: the sign as label, c's rational part as key.  N >= 2:
    Kovacic's integer x = _SCALE[N]*c as label and key, and {}."""
    xs = _exponents(beta, delta, N, at_pole)
    if N == 1:
        return [(lab, c, *_split(c)) for lab, c in zip("+-", xs)]
    return [(str(x), Fraction(x, _SCALE[N]), x, {}) for x in xs]


def _selections(N: int, points: list, at_inf: list) -> list[Candidate]:
    """Every choice of one option (:func:`_options`) per singular point with
    d = (key_inf - sum key_j)/scale a non-negative integer, scale = _SCALE[N]
    (1 for N = 1), and the irrational parts of sum c_j and c_inf equal.

    N = 1 counts formal sign selections: a pole with beta = 0 contributes the
    same residue for both signs and is still enumerated per sign; this
    formal count is what the candidate-census table reports.  For N = 2,
    selections where every chosen integer is even are excluded: such a
    selection would already have been captured by an N = 1 candidate.

    Selections are built one point at a time, in the order of
    itertools.product over the points' options, so each partial selection is
    summed once.  A partial selection is dropped as soon as its key sum plus
    the least keys of the points still to choose exceeds the largest key at
    infinity: every completion then has key_inf - sum key_j < 0, so d < 0
    and it is no candidate.  The survivors, and so the candidates, come out
    in product order.

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
    scale = _SCALE.get(N, 1)
    # least key sum of the points from j on, for j = 0 .. len(points)
    least = [0] * (len(points) + 1)
    for j in range(len(points) - 1, -1, -1):
        least[j] = least[j + 1] + min(o[2] for o in points[j])
    top = max(o[2] for o in at_inf)
    # (labels, residues, key sum, {D: b} sum, whether every key is even)
    partial = [((), (), 0, {}, True)]
    for j, opts in enumerate(points):
        bound = top - least[j + 1]
        partial = [
            (labs + (lab,), cs + (c,), total, _add_irrational(irr, c_irr), even and key % 2 == 0)
            for labs, cs, keys, irr, even in partial
            for lab, c, key, c_irr in opts
            if (total := keys + key) <= bound
        ]
    out = []
    for labs, cs, keys, irr, even in partial:
        all_even = N == 2 and even
        for lab, c, key, c_irr in at_inf:
            num = key - keys
            if num < 0 or num % scale or c_irr != irr or (all_even and key % 2 == 0):
                continue
            out.append(
                Candidate(N=N, d=int(num // scale), exps=cs, exp_inf=c, labels=labs + (lab,))
            )
    return out


def candidates_for(ode: FuchsianODE | LocalExponents, N: int) -> list[Candidate]:
    """The candidates of algebraic degree N, one of :data:`ALL_N`."""
    if N != 1 and N not in _SCALE:
        raise ValueError(f"N must be one of {ALL_N}, not {N}")
    points = [_options(b, dl, N, True) for b, dl in zip(ode.betas, ode.deltas)]
    return _selections(N, points, _options(ode.beta_inf, None, N, False))


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

    P_(i-1) = -S P_i' + ((N - i) S' - T) P_i - (N - i)(i + 1) R2 P_(i+1).
    This is the exact route, on :class:`Poly` (the solve, the minimal
    polynomial and the verification); the rejection mod p runs the same
    recursion fused on integer jets (:func:`_descend_mod`).  Only ring
    operations and the derivative are used."""
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
# to j, so the descent runs on jets (:func:`_descend_mod`): S, T and R2 are
# shifted to z0 at order N + d + 2 and P_N = -t^k starts there, each step's
# order is one less than the last's, and P_-1 ends at order d + 1.  A step
# is one fused pass: its three multipliers -S, (N - i) S' - T and
# -(N - i)(i + 1) R2 are reduced once per candidate and shared by the d + 1
# columns, and each column's accumulator is reduced mod p once per step.
#
# T is not built over Q(sqrt(D)) either (:func:`_jets_mod_prime`).  The
# cofactors S/(z - a_j) are kept as integer rows over one denominator, so
# T's coefficients come from integer dot products with the residues, brought
# to lowest terms: the prime rule reads the exact T's common denominator and
# sqrt(D) parts, for every prime.  The images of S and R2, shifted to z0, are
# cached per equation and prime; T's are shifted per candidate.

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


def _descend_mod(N: int, d: int, S: list, T: list, R2: list, p: int) -> list[list[int]]:
    """Coefficients 0..d at _Z0 of P_-1 mod p in the descents of P = t^k,
    k = 0..d, from those of S, T and R2 mod p: :func:`_case3_descend` as one
    fused pass per step, each step's order one less than the last's."""
    order = N + d + 2
    width = max(len(S), len(T), len(R2))
    S, T, R2 = (c + [0] * (width + 1 - len(c)) for c in (S, T, R2))
    steps = []  # per step i = N..0, the coefficients of -S, (N-i)S' - T, -(N-i)(i+1)R2
    for i in range(N, -1, -1):
        f, g = N - i, -(N - i) * (i + 1)
        steps.append([
            (-S[j] % p, (f * (j + 1) * S[j + 1] - T[j]) % p, g * R2[j] % p)
            for j in range(min(width, order - f - 1))
        ])
    out = []
    for k in range(d + 1):
        P, prev = [0] * k + [-1] + [0] * (order - k - 1), [0] * order  # P_N, P_(N+1)
        for mult in steps:
            m = len(P) - 1
            dP = [b * P[b] for b in range(1, m + 1)]
            acc = [0] * m
            for j, (s, a, r) in enumerate(mult):
                acc[j:] = [u + s * x + a * y + r * z for u, x, y, z in zip(acc[j:], dP, P, prev)]
            prev, P = P, [x % p for x in acc]
        out.append(P)
    return out


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


def _image(L: int, A: list, B: Optional[list], p: int, s: int) -> list[int]:
    """The images mod p of the coefficients (A[k] + B[k]*sqrt(D))/L, B None
    when they are rational, with s^2 = D mod p; p does not divide L."""
    inv = pow(L, -1, p)
    if B is None:
        return [a * inv % p for a in A]
    return [(a + b * s) * inv % p for a, b in zip(A, B)]


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


class _DescentImages:
    """What the rejection reads of an equation, whatever the candidate.

    S, R2 and the cofactors S/(z - a_j) are read as the integer rows of
    :class:`Poly`, (A + B*sqrt(D))/L with L the least common denominator of
    the coefficients' parts; the cofactors are brought to one common
    denominator L: S/(z - a_j) = (A_j + B_j*sqrt(D))/L.  ``D`` is the
    equation's one discriminant, None when all of it is rational.  ``at(p)``
    gives, once per prime, the Taylor coefficients at _Z0 of the images mod p
    of S and R2, or None where p divides one of their denominators or D,
    which they need, is no square mod p."""

    def __init__(self, S: Poly, cofactors: tuple, R2: Poly):
        sr = [poly._int_rows() for poly in (S, R2)]
        self.sr = [r[:3] for r in sr]
        self.sr_irrational = any(B is not None for _, _, B in self.sr)
        rows = [cf._int_rows() for cf in cofactors]
        self.L = L = lcm(*(r[0] for r in rows))
        self.rows = [
            ([a * (L // l) for a in A], [b * (L // l) for b in B] if B else [0] * len(A))
            for l, A, B, _ in rows
        ]
        self.irrational_rows = [any(B) for _, B in self.rows]
        discs = {r[3] for r in (*sr, *rows)} - {None}
        self.D = next(iter(discs), None)  # Poly.from_roots admits one at most
        self.width = S.degree
        self._at: dict = {}

    def at(self, p: int) -> Optional[tuple]:
        """(S, R2) shifted to _Z0 mod p, or None where p does not serve."""
        if p not in self._at:
            s = _sqrt_mod(self.D, p) if self.sr_irrational else 0
            usable = s is not None and all(L % p for L, _, _ in self.sr)
            self._at[p] = (
                tuple(_taylor_shift(_image(*r, p, s), _Z0, p) for r in self.sr) if usable else None
            )
        return self._at[p]


def _jets_mod_prime(ode: FuchsianODE, cand: Candidate, order: int) -> Optional[tuple]:
    """(p, S, T, R2): the first listed prime at which S, T and R2 have
    images, and their Taylor coefficients 0 .. order-1 at _Z0 mod p as lists
    of integers; None when no listed prime qualifies.

    T is not built over Q(sqrt(D)).  With the residues
    c_j = (u_j + v_j*sqrt(D))/M over one denominator,
    T*M*L = sum_j (u_j + v_j*sqrt(D))*(A_j + B_j*sqrt(D)) = P + Q*sqrt(D),
    where P = sum_j u_j*A_j + v_j*B_j*D and Q = sum_j u_j*B_j + v_j*A_j are
    integer dot products.  Brought to lowest terms, (P + Q*sqrt(D))/(M*L) is
    the exact T over its least common denominator, so the prime rule reads
    the same denominators and the same sqrt(D) parts.  A residue in one field
    and S, R2 or a cofactor it multiplies in another raise ValueError, as
    exact arithmetic does."""
    im = ode._descent_images
    discs = {c.D for c in cand.exps if isinstance(c, QuadExt) and c.b}
    if im.sr_irrational or any(c and irr for c, irr in zip(cand.exps, im.irrational_rows)):
        discs.add(im.D)
    if len(discs) > 1:
        raise ValueError("mixed discriminants " + " and ".join(map(str, sorted(discs))))
    D = next(iter(discs), 0)
    res = [_parts(c) for c in cand.exps]
    M = lcm(*(q.denominator for ab in res for q in ab))
    terms = [
        (a.numerator * (M // a.denominator), b.numerator * (M // b.denominator), A, B)
        for (a, b), (A, B) in zip(res, im.rows)
        if a or b
    ]
    den = M * im.L
    P = [sum(u * A[k] + v * B[k] * D for u, v, A, B in terms) for k in range(im.width)]
    Q = [sum(u * B[k] + v * A[k] for u, v, A, B in terms) for k in range(im.width)]
    g = gcd(den, *P, *Q)
    den, P, Q = den // g, [x // g for x in P], [y // g for y in Q]
    irrational = any(Q)
    for p in _PRIMES:
        sr = im.at(p)
        s = _sqrt_mod(D, p) if irrational else 0
        if sr is None or s is None or den % p == 0:
            continue
        Tp = _taylor_shift(_image(den, P, Q if irrational else None, p, s), _Z0, p)
        return (p, *(c[:order] for c in (sr[0], Tp, sr[1])))
    return None


def modular_rejection(ode: FuchsianODE, cand: Candidate) -> Optional[int]:
    """A prime p certifying that ``cand`` has no solution, or None.

    The descents of t^0 .. t^d, t = z - z0, are reduced modulo p and cut to
    their Taylor coefficients 0..d at z0; when those d + 1 vectors are
    linearly independent over F_p, no combination of the first d descents
    equals minus the last, over F_p or over Q(sqrt(D)).  None means "not
    proved", and the candidate needs the exact search.
    """
    jets = _jets_mod_prime(ode, cand, cand.N + cand.d + 2)
    if jets is None:
        return None
    p, S, T, R2 = jets
    return p if _independent_mod(_descend_mod(cand.N, cand.d, S, T, R2, p), p) else None


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
