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

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from math import factorial, lcm
from typing import Optional, Sequence

from .algebra import (
    FieldElement,
    Poly,
    QuadExt,
    RatFunc,
    _divide_linear,
    _FrozenRecord,
    _join_disc,
    _poly,
    _Record,
    _split as _int_parts,
    field_inv,
    sqrt_decompose,
)
from .nve import equatorial_exponents

CASE_ORDERS = {1: (1,), 2: (2,), 3: (4, 6, 12)}
ALL_N = (1, 2, 4, 6, 12)


# ---------------------------------------------------------------------------
# problem statement
# ---------------------------------------------------------------------------


class FuchsianODE(_FrozenRecord):
    """xi'' = r xi with regular singular points only.

    ``betas``/``deltas`` are the coefficients of (z-a)^-2 and (z-a)^-1 in the
    expansion of r at each pole; ``beta_inf`` is the z^-2 coefficient at
    infinity.  The betas and beta_inf must be rational (real quadratic local
    exponents are still produced when 1+4*beta is not a perfect square).
    """

    _fields = ("r", "poles", "betas", "deltas", "beta_inf")

    def __init__(self, r: RatFunc, poles: tuple, betas: tuple, deltas: tuple,
                 beta_inf: Fraction):
        self.__dict__.update(r=r, poles=poles, betas=betas, deltas=deltas, beta_inf=beta_inf)

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
    def _descent_parts(self) -> tuple:
        """(S, R2, L, cofactors): S = prod(z - a), R2 = S^2*r and the
        cofactors S/(z - a_j) = (A_j + B_j*sqrt(D))/L as integer rows
        (A_j, B_j, D_j) over one denominator L, B_j zero-filled and D_j None
        where S/(z - a_j) is rational.  They are the parts of every descent
        that no candidate changes, and :func:`_descent_polys` forms T from
        them for the rejection and the exact solve alike."""
        # a conjugate pole pair leaves S rational, so R2 is one exact
        # division over Q
        S = Poly.from_roots(self.poles)
        # r's denominator divides S^2 when every pole is at most double
        R2 = (S * S).exact_div(self.r.den) * self.r.num
        rows = [_divide_linear(S, a)[0]._int_rows() for a in self.poles]
        L = lcm(*(r[0] for r in rows))
        cofactors = tuple(
            ([a * (L // l) for a in A], [b * (L // l) for b in B] if B else [0] * len(A), D)
            for l, A, B, D in rows
        )
        return S, R2, L, cofactors


class LocalExponents(namedtuple("LocalExponents", "betas deltas beta_inf")):
    """What the candidates read of xi'' = r xi: ``betas``, ``deltas`` and
    ``beta_inf`` as in :class:`FuchsianODE`.  A delta_j is read only where
    beta_j = 0, and then only whether it is zero."""

    __slots__ = ()


def _require_rational(x, what: str) -> Fraction:
    if isinstance(x, QuadExt):
        if not x.is_rational:
            raise NotImplementedError(f"irrational {what} not supported: {x}")
        return x.a
    return Fraction(x)


# ---------------------------------------------------------------------------
# candidates
# ---------------------------------------------------------------------------


class Candidate(_FrozenRecord):
    """One exponent selection: N (algebraic degree of omega), the residues
    c_j of theta = sum c_j/(z - a_j), one per pole (``exps``), the exponent
    c_inf at infinity (``exp_inf``) and the degree d = c_inf - sum c_j of the
    auxiliary polynomial.  ``labels`` is a human-readable transcript of the
    selection: the sign choices for N = 1, Kovacic's integers otherwise
    (e = 2c for N = 2, f = 12c/N for N >= 4).  Two candidates of one
    equation and N have equal residues exactly when their ``group`` is
    equal; ``==`` and ``repr`` leave ``group`` out."""

    _fields = ("N", "d", "exps", "exp_inf", "labels")

    def __init__(self, N: int, d: int, exps: tuple, exp_inf, labels: tuple, group: tuple = ()):
        self.__dict__.update(N=N, d=d, exps=exps, exp_inf=exp_inf, labels=labels, group=group)


# Kovacic's integer for a residue c is _SCALE[N]*c: e = 2c, f = 12c/N
_SCALE = {2: 2, 4: 3, 6: 2, 12: 1}


def _exponents(beta: Fraction, delta, N: int, at_pole: bool) -> tuple:
    """A singular point's choices of residue c = N/2 + k*sqrt(1+4*beta),
    k = -N/2, ..., N/2 (Ulmer & Weil, J. Symb. Comp. 22 (1996) 179).

    N = 1: the values for k = +1/2 and -1/2, which may be irrational.
    N >= 2: the integral values of _SCALE[N]*c, sorted and distinct.  A pole
    with beta = 0 has the one residue c = N if delta != 0, else 0.
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


@lru_cache(maxsize=1024)
def _options(beta: Fraction, delta: bool, N: int, at_pole: bool) -> tuple:
    """A singular point's choices as records (label, residue c, key,
    {D: b}, group), never modified.  The key is what the degree sums, {D: b}
    the irrational part of c it leaves out, group the index of the first
    choice with c's value.  N = 1: the sign as label, c's rational part as
    key.  N >= 2: Kovacic's integer x = _SCALE[N]*c as label and key, and {}.
    ``delta`` is whether delta != 0 at a pole with beta = 0 (False anywhere
    else), all the choices read of it, so the cache holds one entry per
    local exponent and N, whatever the deltas."""
    xs = _exponents(beta, delta, N, at_pole)
    if N == 1:
        return tuple((lab, c, *_split(c), xs.index(c)) for lab, c in zip("+-", xs))
    return tuple((str(x), Fraction(x, _SCALE[N]), x, {}, i) for i, x in enumerate(xs))


def _finite_points(ode: FuchsianODE | LocalExponents) -> tuple:
    """(beta_j, whether delta_j != 0 at beta_j = 0) per pole (:func:`_options`)."""
    return tuple((b, b == 0 and bool(dl)) for b, dl in zip(ode.betas, ode.deltas))


def _selections(N: int, points: list, at_inf: Sequence):
    """Every choice of one option (:func:`_options`) per singular point with
    d = (key_inf - sum key_j)/scale a non-negative integer, scale = _SCALE[N]
    (1 for N = 1), and the irrational parts of sum c_j and c_inf equal.
    Yields (d, the indices of the options chosen at the points, the index of
    the one in ``at_inf``), which may hold the options of several equations
    with these finite points (:func:`_census`).

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
    every N here and every n > 24.  (For N = 1 the residue at z = -1 is 1
    and those at +-eps and rho+- are each 1/4 mod 1/2, so sum c_j lies in
    Z/2, while c_inf = 1/2 +- (1/2 + 1/n); d is an integer only where n
    divides 2.)  Below that the enumeration decides: only n = 1..6, 10 and
    12 have candidates.
    """
    scale = _SCALE.get(N, 1)
    # least key sum of the points from j on, for j = 0 .. len(points)
    least = [0] * (len(points) + 1)
    for j in range(len(points) - 1, -1, -1):
        least[j] = least[j + 1] + min(o[2] for o in points[j])
    top = max(o[2] for o in at_inf)
    # (option indices, key sum, {D: b} sum, whether every key is even)
    partial = [((), 0, {}, True)]
    for j, opts in enumerate(points):
        bound = top - least[j + 1]
        partial = [
            (idx + (i,), total, _add_irrational(irr, o[3]), even and o[2] % 2 == 0)
            for idx, keys, irr, even in partial
            for i, o in enumerate(opts)
            if (total := keys + o[2]) <= bound
        ]
    for idx, keys, irr, even in partial:
        all_even = N == 2 and even
        for j, (_, _, key, c_irr, _) in enumerate(at_inf):
            num = key - keys
            if num < 0 or num % scale or c_irr != irr or (all_even and key % 2 == 0):
                continue
            yield num // scale, idx, j


def candidates_for(ode: FuchsianODE | LocalExponents, N: int) -> list[Candidate]:
    """The candidates of algebraic degree N, one of :data:`ALL_N`."""
    if N != 1 and N not in _SCALE:
        raise ValueError(f"N must be one of {ALL_N}, not {N}")
    points = [_options(b, dl, N, True) for b, dl in _finite_points(ode)]
    at_inf = _options(ode.beta_inf, False, N, False)
    out = []
    for d, idx, j in _selections(N, points, at_inf):
        labs, cs, _, _, group = zip(*map(tuple.__getitem__, points, idx), at_inf[j])
        out.append(Candidate(N, d, cs[:-1], cs[-1], labs, group))
    return out


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
    """theta = sum c_j/(z - a_j) pole by pole (:func:`search_for` takes T/S)."""
    terms = (RatFunc(Poly([c]), Poly([-a, 1])) for a, c in zip(poles, coeffs) if c)
    return sum(terms, RatFunc.zero())


def _clear(f: RatFunc, m: Poly) -> Poly:
    """f * m, which must be a polynomial."""
    g = RatFunc(m) * f
    if not g.is_polynomial():
        raise ValueError("common denominator did not clear the expression")
    return g.num * field_inv(g.den.leading())


def _one_discriminant(discs) -> Optional[int]:
    """The one discriminant among ``discs``, None standing for Q; two
    distinct ones raise ValueError."""
    return reduce(_join_disc, sorted(set(discs) - {None}), None)


def _descent_polys(ode: FuchsianODE, coeffs) -> tuple[Poly, Poly, Poly]:
    """(S, T, R2) = (prod(z - a), S*theta, S^2*r) for theta with residues
    ``coeffs``, the one construction of T that the rejection and the exact
    solve read; only T = sum c_j * S/(z - a_j) depends on the candidate.

    With the residues c_j = (u_j + v_j*sqrt(D))/M over one denominator and
    the cofactor rows of :attr:`FuchsianODE._descent_parts`,
    T*M*L = sum_j (u_j + v_j*sqrt(D))*(A_j + B_j*sqrt(D)) = P + Q*sqrt(D),
    where P = sum_j u_j*A_j + v_j*B_j*D and Q = sum_j u_j*B_j + v_j*A_j are
    integer dot products; T is the Poly on those rows, in lowest terms.  A
    residue in one field and a cofactor it multiplies in another raise
    ValueError, as exact arithmetic does."""
    S, R2, L, cofactors = ode._descent_parts
    # each nonzero residue c = (a + b*sqrt(E))/w beside its cofactor's row
    terms = [(_int_parts(c), row) for c, row in zip(coeffs, cofactors) if c]
    fields = [E for (_, b, _, E), _ in terms if b] + [row[2] for _, row in terms]
    D = _one_discriminant(fields) or 0
    M = lcm(*(w for (_, _, w, _), _ in terms))
    P = Q = [0] * S.degree
    for (a, b, w, _), (A, B, _) in terms:
        u, v = a * (M // w), b * (M // w)
        P = [x + u * y + v * D * z for x, y, z in zip(P, A, B)]
        Q = [x + u * z + v * y for x, y, z in zip(Q, A, B)]
    return S, _poly(M * L, P, Q, D), R2


def _case3_descend(N: int, S, T, R2, P) -> list:
    """Run the downward recursion P_N = -P, ...; returns [P_N, ..., P_-1].

    P_(i-1) = -S P_i' + ((N - i) S' - T) P_i - (N - i)(i + 1) R2 P_(i+1).
    This is the exact route, on :class:`Poly` (the solve, the minimal
    polynomial and the verification); the rejection mod p runs the same
    recursion fused on the top coefficients (:func:`_descend_mod`).  Only ring
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


class Solution(_Record):
    """Certified output of a successful search.  N = 1: xi = exp(int omega).
    N = 2: omega^2 - phi*omega + psi = 0.  N >= 4: ``minpoly`` holds the
    coefficients of omega^0..omega^N."""

    _fields = ("N", "d", "theta", "P", "omega", "phi", "psi", "minpoly")

    def __init__(self, N: int, d: int, theta: RatFunc, P: Poly, omega: Optional[RatFunc] = None,
                 phi: Optional[RatFunc] = None, psi: Optional[RatFunc] = None,
                 minpoly: Optional[tuple] = None):
        self.N, self.d, self.theta, self.P = N, d, theta, P
        self.omega, self.phi, self.psi, self.minpoly = omega, phi, psi, minpoly


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
# The columns are not reduced whole: only their top coefficients are kept.
# With s = deg S (S is monic), deg T <= s - 1 and, where r = O(z^-2) at
# infinity, deg R2 <= 2s - 2, so the descent of a P of degree at most d has
# deg P_i <= d_i = d + (N - i)(s - 1).  Read each polynomial X down from its
# degree bound, X[j] its coefficient at the bound minus j.  Then the top K
# coefficients of a product need only the top K of its factors,
# (XY)[m] = sum_(j<=m) X[j] Y[m - j], and P_i'[l] = (d_i - l) P_i[l], so the
# descents of z^0..z^d run on vectors of one fixed length K
# (:func:`_descend_mod`):
#   P_(i-1)[m] = sum_(j<=m) (-S[j] (d_i - m + j) + (N - i) S'[j] - T[j]) P_i[m - j]
#                - (N - i)(i + 1) sum_(j<=m) R2[j] P_(i+1)[m - j].
# Taking those coefficients is a linear map, so a dependency among the
# columns would be one among their images: if the d + 1 vectors are
# independent mod p, so are the columns, and the proof above stands.
# Dependent ones prove nothing, and the candidate goes to the exact solve.
# K = d + 3.  The top coefficient of every column is zero (z^k, k < d, has
# lower degree, and for z^d the exponent at infinity is a root of the
# indicial equation there), so d + 2 is the least K that can prove anything;
# one more proves the systems that d + 2 leaves.  Where R2 exceeds its bound
# (r not O(z^-2) at infinity) the top coefficients are not those of the
# descent, and no candidate of that equation is proved.  A step is one fused
# pass: its three multipliers -S, (N - i) S' - T and -(N - i)(i + 1) R2 are
# reduced once per candidate and shared by the d + 1 columns, and each
# column's accumulator is reduced mod p once per step.
#
# S, T and R2 are the exact polynomials of :func:`_descent_polys`, which
# forms T from the cofactor rows by integer dot products; the rejection reads
# their integer rows, so the prime rule sees each one's least common
# denominator and sqrt(D) part, and the exact solve gets the same T.

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


def _descend_mod(N: int, d: int, S: list, T: list, R2: list, p: int) -> list[list[int]]:
    """The top d + 3 coefficients mod p of P_-1 in the descents of P = z^k,
    k = 0..d: :func:`_case3_descend` as one fused pass per step on vectors
    of fixed length.  S, T and R2 are given mod p top coefficient first,
    from their degree bounds s = len(S) - 1, s - 1 and 2s - 2.

    The descent of z^k has degree at most k + (N - i)(s - 1) at step i, so
    it runs on that bound and k + 3 coefficients, and d - k zeros in front
    make them the top d + 3 at the bound for z^d."""
    s, K = len(S) - 1, d + 3
    width = min(K, max(len(S), len(T), len(R2)))
    S, T, R2 = (c[:K] + [0] * (K - len(c)) for c in (S, T, R2))
    # per step i = N-1..0: (N-i)(s-1), and the coefficients of -S, (N-i)S' - T
    # and -(N-i)(i+1)R2
    steps = []
    for i in range(N - 1, -1, -1):
        f, g = N - i, -(N - i) * (i + 1)
        mult = [(-S[j] % p, (f * (s - j) * S[j] - T[j]) % p, g * R2[j] % p) for j in range(width)]
        steps.append((f * (s - 1), mult))
    out = []
    for k in range(d + 1):
        n = k + 3
        # the first step in closed form: P_N = -z^k gives P_(N-1) = k S z^(k-1) + T z^k
        prev, P = [-1] + [0] * (n - 1), [(k * x + y) % p for x, y in zip(S, T[:n])]
        for e, mult in steps:
            dP = [(k + e - l) * x for l, x in enumerate(P)]
            acc = [0] * n
            for j, (a, b, c) in enumerate(mult[:n]):
                acc[j:] = [u + a * x + b * y + c * z for u, x, y, z in zip(acc[j:], dP, P, prev)]
            prev, P = P, [x % p for x in acc]
        out.append([0] * (d - k) + P)
    return out


def _top(coeffs: list, bound: int) -> list:
    """The coefficients at degrees bound, bound - 1, ..., 0 of the polynomial
    with coefficients ``coeffs``, lowest first, of degree at most bound."""
    return [0] * (bound + 1 - len(coeffs)) + coeffs[::-1]


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


def _jets_mod_prime(ode: FuchsianODE, cand: Candidate) -> Optional[tuple]:
    """(p, S, T, R2): the first listed prime at which S, T and R2 of
    :func:`_descent_polys` have images, and those images as lists of
    integers, top coefficient first from the degree bounds s, s - 1 and
    2s - 2; None when no listed prime qualifies or deg R2 > 2s - 2 (r is not
    O(z^-2) at infinity).

    The images are read off the polynomials' integer rows,
    (A + B*sqrt(D))/L in lowest terms, so p qualifies where it divides none
    of the three L and D is a square mod p wherever one of them has a
    sqrt(D) part.  S, T and R2 over two fields raise ValueError."""
    polys = _descent_polys(ode, cand.exps)
    rows = [poly._int_rows() for poly in polys]
    D = _one_discriminant(r[3] for r in rows)
    s = polys[0].degree
    bounds = (s, s - 1, 2 * s - 2)
    if polys[2].degree > bounds[2]:
        return None
    for p in _PRIMES:
        root = _sqrt_mod(D, p) if D else 0
        if root is None or any(r[0] % p == 0 for r in rows):
            continue
        return p, *(_top(_image(L, A, B, p, root), b) for (L, A, B, _), b in zip(rows, bounds))
    return None


def modular_rejection(ode: FuchsianODE, cand: Candidate) -> Optional[int]:
    """A prime p certifying that ``cand`` has no solution, or None.

    The descents of z^0 .. z^d are reduced modulo p and cut to their top
    d + 3 coefficients, read down from the degree bound of P_-1; when those
    d + 1 vectors are linearly independent over F_p, no combination of the
    first d descents equals minus the last, over F_p or over Q(sqrt(D)).
    None means "not proved", and the candidate needs the exact search.
    """
    jets = _jets_mod_prime(ode, cand)
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
    S, T, R2 = _descent_polys(ode, cand.exps)
    theta = RatFunc(T, S)
    P = _descent_solve(N, d, S, T, R2)
    if P is None:
        return None
    if N <= 2:
        phi = theta + RatFunc(P.derivative(), P)
        if N == 1:
            return Solution(N=1, d=d, theta=theta, P=P, omega=phi)
        half = Fraction(1, 2)
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


class LedgerEntry(namedtuple("LedgerEntry", "N d labels multiplicity searched success")):
    __slots__ = ()


class KovacicResult(_Record):
    _fields = ("solvable", "solution", "ledger")

    def __init__(self, solvable: bool, solution: Optional[Solution], ledger: Optional[list] = None):
        self.solvable, self.solution = solvable, solution
        self.ledger = [] if ledger is None else ledger

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
                groups.setdefault(cand.group, [cand, 0])[1] += 1
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
    """Count candidates by degree d for every algebraic degree N.  N=1 counts
    formal sign selections (coincident values counted per sign); N>=2 counts
    distinct integer-set selections."""
    return _census([ode])[0]


def _census(odes: list) -> list[dict[int, dict[int, int]]]:
    """:func:`candidate_census` of each equation.  Per N, the equations with
    the same finite points share one enumeration, pruned by the largest key
    at infinity among them, and each closes it with its own options there.
    The selections are counted by d; no :class:`Candidate` is built."""
    shared: dict = {}  # finite points -> indices of the equations with them
    for i, ode in enumerate(odes):
        shared.setdefault(_finite_points(ode), []).append(i)
    out: list[dict] = [{} for _ in odes]
    for N in ALL_N:
        for finite, members in shared.items():
            at_inf = {i: _options(odes[i].beta_inf, False, N, False) for i in members}
            owner = [i for i in members for _ in at_inf[i]]
            counts: dict = {i: {} for i in members}
            points = [_options(b, dl, N, True) for b, dl in finite]
            for d, _, j in _selections(N, points, sum(at_inf.values(), ())):
                counts[owner[j]][d] = counts[owner[j]].get(d, 0) + 1
            for i in members:
                out[i][N] = dict(sorted(counts[i].items()))
    return out


def census_for_order(n: int) -> dict[int, dict[int, int]]:
    """Census for the equatorial variational equation of a sectoral surface:
    the one-order case of :func:`census_table`."""
    return census_table([n])[n]


def census_cell(counts: dict[int, int]) -> str:
    return ",".join(f"{d}({c})" for d, c in sorted(counts.items())) or "-"


def census_table(orders=range(2, 13)) -> dict[int, dict[int, dict[int, int]]]:
    """The census of the sectoral equator of every order n in ``orders``,
    which must not be empty, from its closed-form exponents
    (:func:`nve.equatorial_exponents`), which every exact derivation checks.
    All n >= 2 have the same finite points and share one enumeration."""
    exps = {}
    for n in orders:
        betas, beta_inf = equatorial_exponents(n)
        # the one delta read, at z = -1 where beta = 0, is nonzero (appendix_delta1)
        exps[n] = LocalExponents(betas, tuple(Fraction(b == 0) for b in betas), beta_inf)
    if not exps:
        raise ValueError(f"the range of orders must be non-empty, not {orders}")
    return dict(zip(exps, _census(list(exps.values()))))


def census_text(table: dict) -> str:
    """Aligned text table of candidate counts d(count) per harmonic order."""
    rows = [["n"] + [f"N={N}" for N in ALL_N]]
    rows += [[str(n)] + [census_cell(census[N]) for N in ALL_N] for n, census in table.items()]
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    lines.insert(1, "-" * len(lines[0]))
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
