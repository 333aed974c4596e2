"""Liouvillian-solvability decision procedure: candidates, searches, census."""

import hashlib
import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmgeo import kovacic
from harmgeo.algebra import Poly, QuadExt, RatFunc, _key, sqrt_decompose
from harmgeo.kovacic import (
    ALL_N,
    FuchsianODE,
    LocalExponents,
    _case3_descend,
    _clear,
    _descent_polys,
    _independent_mod,
    _solve_linear,
    _theta,
    candidate_census,
    candidates_for,
    census_cell,
    census_for_order,
    modular_rejection,
    result_to_json,
    run_kovacic,
    verify_solution,
)
from harmgeo.nve import equatorial_exponents, equatorial_nve


def _pole_term(coeff, a, order=1):
    lin = Poly([-a, Fraction(1)])
    return RatFunc(Poly([coeff]), lin**order)


def hypergeometric_r(lam, mu, nu) -> RatFunc:
    """Standard form of the hypergeometric equation with exponent differences
    lam, mu, nu at z = 0, 1, infinity."""
    b0 = (lam * lam - 1) * Fraction(1, 4)
    b1 = (mu * mu - 1) * Fraction(1, 4)
    c = (1 + nu * nu - lam * lam - mu * mu) * Fraction(1, 4)
    return (
        _pole_term(b0, Fraction(0), 2)
        + _pole_term(b1, Fraction(1), 2)
        + _pole_term(c, Fraction(1))
        - _pole_term(c, Fraction(0))
    )


def hypergeometric_ode(lam, mu, nu) -> FuchsianODE:
    return FuchsianODE.from_ratfunc(
        hypergeometric_r(lam, mu, nu), [Fraction(0), Fraction(1)]
    )


# -- elementary solvable / unsolvable equations --------------------------------


def test_power_solution_found_exactly():
    # xi'' = 2 z^-2 xi has xi = z^2; expect omega = 2/z with empty remainder
    ode = FuchsianODE.from_ratfunc(_pole_term(Fraction(2), Fraction(0), 2), [Fraction(0)])
    res = run_kovacic(ode)
    assert res.verdict == "Solvable"
    assert res.solution.N == 1 and res.solution.d == 0
    assert res.solution.omega == RatFunc(Poly([2]), Poly([0, 1]))


def test_irrational_power_solved_over_quadratic_extension():
    # xi'' = (1/5) z^-2 xi has xi = z^c with c = (1 + 3/sqrt(5))/2; the
    # logarithmic derivative c/z lives in Q(sqrt(5))(z) and case 1 finds it
    ode = FuchsianODE.from_ratfunc(
        _pole_term(Fraction(1, 5), Fraction(0), 2), [Fraction(0)]
    )
    res = run_kovacic(ode)
    assert res.solvable and res.solution.N == 1
    c = res.solution.omega.num[0]
    assert isinstance(c, QuadExt) and c.D == 5
    # c solves the indicial equation c(c-1) = 1/5
    assert c * (c - 1) == QuadExt(Fraction(1, 5), 0, 5)


@pytest.mark.parametrize(
    "exponents,expected_N",
    [
        ((Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)), 2),  # dihedral
        ((Fraction(1, 2), Fraction(1, 3), Fraction(1, 3)), 4),  # tetrahedral
        ((Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)), 6),  # octahedral
        ((Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)), 12),  # icosahedral
    ],
)
def test_schwarz_list_hypergeometrics_solvable(exponents, expected_N):
    res = run_kovacic(hypergeometric_ode(*exponents))
    assert res.solvable
    assert res.solution.N == expected_N
    # every reported success in the ledger is a verified one
    assert any(e.success for e in res.ledger)


def test_generic_hypergeometric_unsolvable():
    res = run_kovacic(
        hypergeometric_ode(Fraction(1, 7), Fraction(1, 7), Fraction(1, 7))
    )
    assert res.verdict == "Unsolvable"
    assert res.solution is None
    assert res.ledger == []  # no admissible candidates at all


def test_verification_rejects_tampered_solution():
    ode = FuchsianODE.from_ratfunc(_pole_term(Fraction(2), Fraction(0), 2), [Fraction(0)])
    sol = run_kovacic(ode).solution
    assert verify_solution(ode, sol)
    sol.omega = sol.omega + RatFunc(Poly([1]))
    assert not verify_solution(ode, sol)


def test_minpoly_reported_for_higher_degree():
    res = run_kovacic(
        hypergeometric_ode(Fraction(1, 2), Fraction(1, 3), Fraction(1, 3))
    )
    sol = res.solution
    assert sol.minpoly is not None and len(sol.minpoly) == sol.N + 1
    lead = sol.minpoly[-1]
    # leading coefficient is (up to sign) the N-th power of the pole product
    assert lead == -RatFunc(Poly.from_roots([0, 1]) ** sol.N)


# -- equatorial variational equations -------------------------------------------


@pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(1, 3)])
def test_order_one_solvable_with_known_first_integral(eps):
    """For n = 1 the equation is solvable in case 1 with degree-zero P; the
    logarithmic derivative has residues (1, 3/4, 3/4, -1/4) at the poles
    (-1, eps, -eps, -(1+eps^2)/2)."""
    ode = FuchsianODE.from_nve(equatorial_nve(1, eps))
    res = run_kovacic(ode)
    assert res.solvable and res.solution.N == 1 and res.solution.d == 0
    rho = -Fraction(1 + eps * eps, 2)
    expected = (
        _pole_term(Fraction(1), Fraction(-1))
        + _pole_term(Fraction(3, 4), eps)
        + _pole_term(Fraction(3, 4), -eps)
        - _pole_term(Fraction(1, 4), rho)
    )
    assert res.solution.omega == expected
    assert res.solution.P == Poly([1])


def test_order_two_unsolvable_with_full_ledger():
    res = run_kovacic(FuchsianODE.from_nve(equatorial_nve(2, Fraction(1, 2))))
    assert res.verdict == "Unsolvable"
    assert all(e.searched and not e.success for e in res.ledger)
    # candidate multiplicities must add up to the census totals
    census = candidate_census(FuchsianODE.from_nve(equatorial_nve(2, Fraction(1, 2))))
    total = sum(c for counts in census.values() for c in counts.values())
    assert sum(e.multiplicity for e in res.ledger) == total


# -- candidate census -------------------------------------------------------------


def test_census_counts_for_order_two():
    census = census_for_order(2)
    assert census[1] == {0: 4}
    assert census[2] == {0: 3, 1: 1}
    assert census[4] == {0: 4, 1: 2, 2: 1}
    assert census[6] == {0: 21, 1: 10, 2: 3, 3: 1}
    assert census[12] == {0: 31, 1: 20, 2: 13, 3: 8, 4: 4, 5: 2, 6: 1}


def test_census_counts_for_prime_orders_mostly_empty():
    for n in (7, 8, 9, 11):
        census = census_for_order(n)
        assert all(not counts for counts in census.values()), n


def test_no_sectoral_candidates_from_order_13_to_24():
    """Stage A of the all-n argument: the k = 0 bound in _selections'
    docstring clears every n > 24; the orders 13..24 are cleared here by
    enumeration, for every N."""
    for n in range(13, 25):
        census = census_for_order(n)
        assert all(not counts for counts in census.values()), n


def test_census_matches_derived_equation():
    """The closed-form census equals the census of the derived equation."""
    for n in range(2, 7):
        for eps in (Fraction(1, 10), Fraction(2, 5)):
            ode = FuchsianODE.from_nve(equatorial_nve(n, eps))
            assert candidate_census(ode) == census_for_order(n), (n, eps)


def test_census_tables_refuse_empty_range():
    for table in (kovacic.census_table_text, kovacic.census_table_json):
        with pytest.raises(ValueError, match="must be non-empty"):
            table(range(5, 4))


def test_census_cell_formatting():
    assert census_cell({}) == "-"
    assert census_cell({1: 2, 0: 3}) == "0(3),1(2)"


def test_case1_counts_formal_sign_tuples():
    """The pole with vanishing double-pole coefficient contributes the same
    residue for both signs; candidates are still counted once per sign."""
    ode = FuchsianODE.from_nve(equatorial_nve(2, Fraction(1, 10)))
    assert ode.betas[0] == 0 and ode.deltas[0] != 0
    cands = candidates_for(ode, 1)
    assert len(cands) == 4
    labels = {c.labels for c in cands}
    assert len(labels) == 4  # distinguished by sign labels, not values
    assert {c.exps[0] for c in cands} == {1}  # residue N at beta = 0, delta != 0


def test_candidates_rejects_bad_order():
    ode = FuchsianODE.from_nve(equatorial_nve(2, Fraction(1, 10)))
    for N in (0, 3, 5):
        with pytest.raises(ValueError, match="N must be one of"):
            candidates_for(ode, N)


# -- candidates against reference copies of the per-case generators ----------------
#
# Kovacic's formulation case by case (J. Symb. Comp. 2 (1986) 3): the integer
# sets e in 2 + {0, +-2s} and f in 6 + {12k s/N}, with s = sqrt(1 + 4 beta),
# and one loop per case over them; the residues are read back as e/2 and N f/12.


def _ref_sqrt_1p4b(beta):
    t = 1 + 4 * Fraction(beta)
    if t < 0:
        return None
    q, d = sqrt_decompose(t)
    return q if d == 1 else QuadExt(0, q, d)


def _ref_int_set(center, step_values):
    vals = set()
    for v in step_values:
        x = center + v
        if isinstance(x, Fraction):
            if x.denominator != 1:
                continue
            x = int(x)
        vals.add(x)
    return sorted(vals)


def _ref_e_set(beta, delta=None, at_inf=False):
    if beta == 0:
        if at_inf:
            return [0, 2, 4]
        return [4] if delta else [0]
    s = _ref_sqrt_1p4b(beta)
    if s is None or isinstance(s, QuadExt):
        return [2]
    return _ref_int_set(2, [Fraction(0), 2 * s, -2 * s])


def _ref_f_set(beta, N, delta=None, at_inf=False):
    if beta == 0 and not at_inf:
        return [12] if delta else [0]
    s = _ref_sqrt_1p4b(beta)
    if s is None or isinstance(s, QuadExt):
        return [6]
    steps = [Fraction(12 * e, N) * s for e in range(-N // 2, N // 2 + 1)]
    return _ref_int_set(6, steps)


def _ref_case2(ex):
    sets = [_ref_e_set(b, d) for b, d in zip(ex.betas, ex.deltas)]
    set_inf = _ref_e_set(ex.beta_inf, at_inf=True)
    out = []
    for combo in product(*sets):
        for e_inf in set_inf:
            if all(e % 2 == 0 for e in combo) and e_inf % 2 == 0:
                continue
            num = e_inf - sum(combo)
            if num < 0 or num % 2:
                continue
            labels = tuple(str(e) for e in combo) + (str(e_inf),)
            residues = tuple(Fraction(e, 2) for e in combo)
            out.append((2, num // 2, labels, residues, Fraction(e_inf, 2)))
    return out


def _ref_case3(ex, N):
    sets = [_ref_f_set(b, N, d) for b, d in zip(ex.betas, ex.deltas)]
    set_inf = _ref_f_set(ex.beta_inf, N, at_inf=True)
    out = []
    for combo in product(*sets):
        for f_inf in set_inf:
            num = N * (f_inf - sum(combo))
            if num < 0 or num % 12:
                continue
            labels = tuple(str(f) for f in combo) + (str(f_inf),)
            residues = tuple(Fraction(N * f, 12) for f in combo)
            out.append((N, num // 12, labels, residues, Fraction(N * f_inf, 12)))
    return out


def _assert_matches_reference(ex):
    for N in (2, 4, 6, 12):
        got = [(c.N, c.d, c.labels, c.exps, c.exp_inf) for c in candidates_for(ex, N)]
        want = _ref_case2(ex) if N == 2 else _ref_case3(ex, N)
        assert got == want, N
        assert all(isinstance(x, Fraction) for c in got for x in c[3] + (c[4],)), N


# the equator of the tesseral surface (l, m) has the finite-pole data of
# sectoral order m and its own beta_inf: (m, beta_inf) by (l, m)
TESSERAL = {
    "l3m1": (1, Fraction(285, 16)),
    "l4m2": (2, Fraction(17, 4)),
    "l5m3": (3, Fraction(22, 9)),
    "l6m2": (2, Fraction(39, 4)),
}


def _equatorial_exponents(n, beta_inf=None):
    betas, b_inf = equatorial_exponents(n)
    deltas = tuple(Fraction(b == 0) for b in betas)
    return LocalExponents(betas, deltas, b_inf if beta_inf is None else beta_inf)


_square_beta = st.fractions(min_value=0, max_value=12, max_denominator=12).map(
    lambda t: (t * t - 1) / 4
)
_beta = st.one_of(
    st.just(Fraction(0)),
    _square_beta,  # 1 + 4 beta a rational square
    st.fractions(min_value=Fraction(-1, 4), max_value=40, max_denominator=16),
    st.fractions(min_value=-3, max_value=Fraction(-1, 4), max_denominator=16),
    st.sampled_from([beta_inf for _, beta_inf in TESSERAL.values()]),
)
# up to three poles, each with its beta and delta in {0, 1}, and beta_inf
_exponent_data = st.builds(
    lambda poles, beta_inf: LocalExponents(
        tuple(b for b, _ in poles), tuple(d for _, d in poles), beta_inf
    ),
    st.lists(st.tuples(_beta, st.sampled_from([Fraction(0), Fraction(1)])), max_size=3),
    _beta,
)


@given(_exponent_data)
@settings(max_examples=300, deadline=None)
def test_integer_candidates_match_reference(ex):
    _assert_matches_reference(ex)


@given(_exponent_data)
@settings(max_examples=100, deadline=None)
def test_case1_residues_solve_the_indicial_equation(ex):
    """Every N = 1 residue c satisfies c(c - 1) = beta, and d = c_inf - sum c."""
    betas = ex.betas + (ex.beta_inf,)
    if min(betas) < Fraction(-1, 4):
        with pytest.raises(NotImplementedError, match="complex local exponents"):
            candidates_for(ex, 1)
        return
    for cand in candidates_for(ex, 1):
        for c, beta in zip(cand.exps + (cand.exp_inf,), betas):
            assert c * (c - 1) == beta, cand
        assert cand.exp_inf - sum(cand.exps, Fraction(0)) == cand.d, cand


@pytest.mark.parametrize("n", range(1, 41))
def test_equatorial_candidates_match_reference(n):
    _assert_matches_reference(_equatorial_exponents(n))


@pytest.mark.parametrize("m,beta_inf", TESSERAL.values(), ids=TESSERAL)
def test_tesseral_candidates_match_reference(m, beta_inf):
    _assert_matches_reference(_equatorial_exponents(m, beta_inf))


# -- case 1 against a reference copy of the per-selection sums -------------------


class _RefExpSum:
    """Exact sum of quadratic irrationals grouped by discriminant."""

    def __init__(self):
        self.rat = Fraction(0)
        self.irr = {}

    def add(self, x, sign=1):
        if isinstance(x, QuadExt):
            self.rat += sign * x.a
            if x.b:
                new = self.irr.get(x.D, Fraction(0)) + sign * x.b
                if new:
                    self.irr[x.D] = new
                else:
                    self.irr.pop(x.D, None)
        else:
            self.rat += sign * Fraction(x)

    def as_nonneg_int(self):
        if self.irr or self.rat.denominator != 1 or self.rat < 0:
            return None
        return int(self.rat)


def _ref_case1(ex):
    """Every sign selection summed afresh."""
    per_pole = [
        tuple(zip("+-", kovacic._exponents(b, dl, 1, True)))
        for b, dl in zip(ex.betas, ex.deltas)
    ]
    inf_opts = tuple(zip("+-", kovacic._exponents(ex.beta_inf, None, 1, False)))
    out = []
    for combo in product(*per_pole):
        for lab_inf, a_inf in inf_opts:
            acc = _RefExpSum()
            acc.add(a_inf)
            for _, a in combo:
                acc.add(a, -1)
            d = acc.as_nonneg_int()
            if d is not None:
                labels = tuple(lab for lab, _ in combo) + (lab_inf,)
                out.append((1, d, labels, tuple(a for _, a in combo), a_inf))
    return out


def _random_case1_exponents(rng):
    """0-5 poles; each beta zero, with 1 + 4 beta a rational square, or with
    it irrational from a few discriminants, so that sums can cancel."""

    def beta():
        kind = rng.randrange(3)
        if kind == 0:
            return Fraction(0)
        if kind == 1:
            t = Fraction(rng.randrange(0, 25), rng.randrange(1, 5))
            return (t * t - 1) / 4
        q = Fraction(rng.randrange(1, 4), rng.randrange(1, 3))
        return (q * q * rng.choice((2, 3, 8, 12)) - 1) / 4

    k = rng.randrange(6)
    return LocalExponents(
        tuple(beta() for _ in range(k)),
        tuple(Fraction(rng.randrange(2)) for _ in range(k)),
        beta(),
    )


def _assert_case1_matches_reference(ex):
    got = [(c.N, c.d, c.labels, c.exps, c.exp_inf) for c in candidates_for(ex, 1)]
    assert got == _ref_case1(ex)


@pytest.mark.parametrize("seed", range(4))
def test_case1_candidates_match_reference(seed):
    rng = random.Random(seed)
    for _ in range(150):
        _assert_case1_matches_reference(_random_case1_exponents(rng))


# the equations of the benchmark's `kovacic` workload
_BENCHMARK_INPUTS = [
    (1, Fraction(1, 3)),
    (4, Fraction(1, 10)),
    (5, Fraction(1, 5)),
    (5, Fraction(1, 10)),
    (7, Fraction(1, 10)),
    (12, Fraction(1, 2)),
]


@pytest.mark.parametrize("n,eps", _BENCHMARK_INPUTS, ids=str)
def test_derived_candidates_match_reference(n, eps):
    """The pruned enumerations give the brute-force candidates, in order, on
    the benchmark's derived equations too, whose deltas are neither 0 nor 1."""
    ex = FuchsianODE.from_nve(equatorial_nve(n, eps))
    _assert_matches_reference(ex)
    _assert_case1_matches_reference(ex)


def test_all_even_selection_left_to_case_1():
    """e = 4 at a pole with beta = 0 and e_inf = 4 at beta_inf = 0 give d = 0
    with every integer even: N = 2 drops the selection, which is the square
    of N = 1's (c, c_inf) = (1, 1).  No equatorial equation meets this rule."""
    ex = LocalExponents((Fraction(0),), (Fraction(1),), Fraction(0))
    _assert_matches_reference(ex)
    assert candidates_for(ex, 2) == []
    assert [(c.d, c.exps, c.exp_inf) for c in candidates_for(ex, 1)] == [(0, (1,), 1)] * 2


def test_equatorial_case1_candidates_match_reference():
    for n in range(1, 41):
        _assert_case1_matches_reference(_equatorial_exponents(n))
    for m, beta_inf in TESSERAL.values():
        _assert_case1_matches_reference(_equatorial_exponents(m, beta_inf))


def test_result_json_shape():
    import json

    res = run_kovacic(FuchsianODE.from_nve(equatorial_nve(1, Fraction(1, 3))))
    blob = json.loads(result_to_json(res))
    assert blob["verdict"] == "Solvable"
    assert blob["solution"]["N"] == 1
    assert isinstance(blob["ledger"], list) and blob["ledger"]


# leading 16 hex digits of the sha256 of result_to_json, as the per-case
# candidate generators wrote it: the benchmark's six Kovacic inputs, and
# (2, 1/10) and (3, 1/10)
RESULT_JSON_SHA256 = {
    (1, Fraction(1, 3)): "894d674799ca1656",
    (4, Fraction(1, 10)): "5cd24453f9e32d14",
    (5, Fraction(1, 5)): "ff8c1c82ff8807ef",
    (5, Fraction(1, 10)): "ff8c1c82ff8807ef",
    (7, Fraction(1, 10)): "f3f8065559cd4a02",
    (12, Fraction(1, 2)): "2867c0038cd2cb85",
    (2, Fraction(1, 10)): "370aa1023c24447e",
    (3, Fraction(1, 10)): "af6312d436380e35",
}


@pytest.mark.parametrize("n,eps", RESULT_JSON_SHA256, ids=lambda x: str(x))
def test_result_json_is_pinned(n, eps):
    blob = result_to_json(run_kovacic(FuchsianODE.from_nve(equatorial_nve(n, eps))))
    assert hashlib.sha256(blob.encode()).hexdigest()[:16] == RESULT_JSON_SHA256[n, eps]


# -- one descent for every N, and its certified reduction mod p ---------------------


def _classical_operator(N, theta, r):
    """Coefficient list of L_1 = D^2 + 2 theta D + (theta' + theta^2 - r) or
    L_2 = D^3 + 3 theta D^2 + (3 theta^2 + 3 theta' - 4 r) D
          + (theta'' + 3 theta theta' + theta^3 - 4 r theta - 2 r'),
    lowest derivative first."""
    th1 = theta.derivative()
    if N == 1:
        return [th1 + theta * theta - r, 2 * theta, RatFunc(1)]
    a0 = th1.derivative() + 3 * theta * th1 + theta**3 - 4 * r * theta - 2 * r.derivative()
    return [a0, 3 * theta * theta + 3 * th1 - 4 * r, 3 * theta, RatFunc(1)]


@pytest.mark.parametrize(
    "ode",
    [
        FuchsianODE.from_nve(equatorial_nve(3, Fraction(1, 4))),
        hypergeometric_ode(Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)),
    ],
    ids=["equatorial-n3", "dihedral"],
)
@pytest.mark.parametrize("N", [1, 2])
def test_descent_is_scaled_classical_operator(ode, N):
    """_case3_descend(N, S, S theta, S^2 r, z^k)[-1] = (-1)^N S^(N+1) L_N(z^k)
    for theta with simple poles at the singular points (any residues)."""
    coeffs = [Fraction(k + 1, k + 3) for k in range(len(ode.poles))]
    theta = _theta(ode.poles, coeffs)
    S = Poly.from_roots(ode.poles)
    T = RatFunc(S) * theta
    R2 = RatFunc(S * S) * ode.r
    assert T.is_polynomial() and R2.is_polynomial()
    assert _descent_polys(ode, coeffs) == (S, T.num, R2.num)
    scale = (-1) ** N * RatFunc(S ** (N + 1))
    ops = [scale * a for a in _classical_operator(N, theta, ode.r)]
    for k in range(3):
        derivs = [Poly.monomial(k)]
        while len(derivs) < len(ops):
            derivs.append(derivs[-1].derivative())
        expected = sum((a * RatFunc(dk) for a, dk in zip(ops, derivs)), RatFunc.zero())
        assert RatFunc(_case3_descend(N, S, T.num, R2.num, Poly.monomial(k))[-1]) == expected, k


@pytest.mark.parametrize(
    "n,eps", [(1, Fraction(1, 3)), (3, Fraction(1, 10)), (4, Fraction(1, 10))]
)
def test_shared_descent_parts_match_from_scratch(n, eps):
    """S and R2, built once per equation, and T, summed from the shared
    cofactors, equal their from-scratch values for every candidate."""
    ode = FuchsianODE.from_nve(equatorial_nve(n, eps))
    S = Poly.from_roots(ode.poles)
    R2 = _clear(ode.r, S * S)
    cands = _distinct_candidates(ode)
    assert cands
    for cand in cands:
        T = _clear(_theta(ode.poles, cand.exps), S)
        assert _descent_polys(ode, cand.exps) == (S, T, R2), cand


def test_interleaved_runs_match_fresh_runs():
    """Parts cached on one equation never leak into another."""

    def ode(n, eps):
        return FuchsianODE.from_nve(equatorial_nve(n, eps))

    a, b = ode(3, Fraction(1, 10)), ode(1, Fraction(1, 3))
    runs = [run_kovacic(x) for x in (a, b, a)]
    fresh = [run_kovacic(x) for x in (ode(3, Fraction(1, 10)), ode(1, Fraction(1, 3)))]
    assert [r.ledger for r in runs] == [fresh[0].ledger, fresh[1].ledger, fresh[0].ledger]
    assert runs[1].solution.omega == fresh[1].solution.omega


def test_independence_mod_p():
    p = kovacic._PRIMES[0]
    assert _independent_mod([[1], [0, 1], [3, 0, 2]], p)
    # the third vector is the sum of the first two; lengths differ because
    # trailing zero coefficients are dropped
    assert not _independent_mod([[1, 2, 3], [0, 1, 1], [1, 3, 4]], p)
    assert not _independent_mod([[1], [0, 1], [1, 1]], p)
    assert not _independent_mod([[2, 4], [p - 1, p - 2]], p)  # -1/2 times the first
    assert not _independent_mod([[]], p)


def _distinct_candidates(ode):
    seen = {}
    for N in ALL_N:
        for cand in candidates_for(ode, N):
            seen.setdefault((N, cand.d, cand.labels), cand)
    return list(seen.values())


@pytest.mark.parametrize("n", [4, 5, 12])
def test_modular_rejection_is_a_certificate(n):
    """Every candidate of these unsolvable equations is rejected mod p, and
    the exact system over Q(sqrt(D)) is indeed inconsistent.  For n = 4 only
    the systems over Q(sqrt(115)) are solved exactly: its rational N = 12
    systems take seconds each."""
    ode = FuchsianODE.from_nve(equatorial_nve(n, Fraction(1, 10)))
    res = run_kovacic(ode)
    assert res.verdict == "Unsolvable" and all(e.searched for e in res.ledger)
    cands = _distinct_candidates(ode)
    if n == 4:
        cands = [c for c in cands if _over_quadratic_field(ode, c)]
    assert cands
    for cand in cands:
        assert modular_rejection(ode, cand) in kovacic._PRIMES, cand
        S, T, R2 = _descent_polys(ode, cand.exps)
        cols = [_case3_descend(cand.N, S, T, R2, Poly.monomial(i))[-1] for i in range(cand.d)]
        target = -_case3_descend(cand.N, S, T, R2, Poly.monomial(cand.d))[-1]
        assert _solve_linear(cols, target) is None, cand


@pytest.mark.parametrize(
    "ode",
    [
        FuchsianODE.from_nve(equatorial_nve(1, Fraction(1, 10))),
        hypergeometric_ode(Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)),
        hypergeometric_ode(Fraction(1, 2), Fraction(1, 3), Fraction(1, 3)),
        hypergeometric_ode(Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)),
        hypergeometric_ode(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)),
    ],
    ids=["n1-witness", "dihedral", "tetrahedral", "octahedral", "icosahedral"],
)
def test_solvable_candidate_never_rejected(ode):
    res = run_kovacic(ode)
    assert res.solvable
    won = next(e for e in res.ledger if e.success)
    cand = next(c for c in candidates_for(ode, won.N) if c.labels == won.labels)
    assert modular_rejection(ode, cand) is None


def _over_quadratic_field(ode, cand):
    polys = _descent_polys(ode, cand.exps)
    return any(isinstance(c, QuadExt) and c.b for poly in polys for c in poly.coeffs)


def _assert_exact_fallback(monkeypatch, ode, prime, cands):
    """With ``prime`` as the only listed prime, none of ``cands`` (each
    rejected mod p by default) is rejected, and the result does not change."""
    assert cands and all(modular_rejection(ode, c) for c in cands)
    before = run_kovacic(ode)
    monkeypatch.setattr(kovacic, "_PRIMES", (prime,))
    assert all(modular_rejection(ode, c) is None for c in cands)
    after = run_kovacic(ode)
    assert (after.verdict, after.ledger) == (before.verdict, before.ledger)


def test_nonresidue_prime_falls_back_to_exact_search(monkeypatch):
    # candidates giving conjugate poles different residues have systems over
    # Q(sqrt(115)); Euler's criterion picks a listed prime modulo which 115
    # is not a square
    ode = FuchsianODE.from_nve(equatorial_nve(4, Fraction(1, 10)))
    prime = next(p for p in kovacic._PRIMES if pow(115, (p - 1) // 2, p) != 1)
    cands = [c for c in _distinct_candidates(ode) if _over_quadratic_field(ode, c)]
    _assert_exact_fallback(monkeypatch, ode, prime, cands)


def test_denominator_prime_falls_back_to_exact_search(monkeypatch):
    # the poles (1 +- sqrt(31))/24 put 3 into the denominators of S
    ode = FuchsianODE.from_nve(equatorial_nve(5, Fraction(1, 10)))
    _assert_exact_fallback(monkeypatch, ode, 3, _distinct_candidates(ode))


# -- the jet rejection against the full-column one it replaced ----------------


class _PolyModP:
    """Whole polynomial over F_p, lowest degree first: the ring the
    rejection descended in before it kept Taylor jets."""

    __slots__ = ("c", "p")

    def __init__(self, coeffs, p):
        c = [x % p for x in coeffs]
        while c and not c[-1]:
            c.pop()
        self.c, self.p = c, p

    def __add__(self, other):
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        return _PolyModP([x + y for x, y in zip(a, b)] + a[len(b):], self.p)

    def __neg__(self):
        return _PolyModP([-x for x in self.c], self.p)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return _PolyModP([x * other for x in self.c], self.p)
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        out = [0] * max(len(a) + len(b) - 1, 0)
        m = len(a)
        for j, y in enumerate(b):  # the whole product, one pass per coefficient of b
            out[j : j + m] = [u + y * v for u, v in zip(out[j : j + m], a)]
        return _PolyModP(out, self.p)

    __rmul__ = __mul__

    def derivative(self):
        return _PolyModP([k * x for k, x in enumerate(self.c)][1:], self.p)


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


def _jet_descents(N, d, S, T, R2, p):
    """The reference for kovacic._descend_mod: _case3_descend on jets of
    order N + d + 2 for P = t^0 .. t^d, each last term read mod p and padded
    to its d + 1 coefficients."""
    order = N + d + 2
    S, T, R2 = (_JetModP(c[:order], order, p) for c in (S, T, R2))
    out = []
    for k in range(d + 1):
        last = _case3_descend(N, S, T, R2, _JetModP([0] * k + [1], order, p))[-1]
        assert last.order == d + 1
        out.append([x % p for x in last.c] + [0] * (d + 1 - len(last.c)))
    return out


def _random_jet(rng, p, length):
    """``length`` coefficients mod p, about a third of them zero, ending in a
    run of zeros half the time."""
    c = [0 if rng.random() < 0.3 else rng.randrange(p) for _ in range(length)]
    if length and rng.random() < 0.5:
        cut = rng.randrange(length)
        c[cut:] = [0] * (length - cut)
    return c


@pytest.mark.parametrize("p", [kovacic._PRIMES[0], 7], ids=["p61", "p7"])
@pytest.mark.parametrize("N", [1, 2, 4, 6, 12])
def test_fused_descent_matches_jet_ring(N, p):
    """The fused kernel's residual vectors equal, entry for entry, those of
    _case3_descend on jets, for d = 0..12 and seeded random S, T and R2 of
    up to N + d + 4 coefficients: zero and trailing-zero coefficients, T
    empty (all residues 0), R2 longer or shorter than S."""
    rng = random.Random(1000 * N + p % 1000)
    for d in range(13):
        order = N + d + 2
        for trial in range(4):
            S = _random_jet(rng, p, rng.randrange(1, order + 3))
            T = [] if trial == 0 else _random_jet(rng, p, rng.randrange(order + 3))
            R2 = _random_jet(rng, p, rng.randrange(order + 3))
            fused = kovacic._descend_mod(N, d, S, T, R2, p)
            assert fused == _jet_descents(N, d, S, T, R2, p), (N, d, trial)


def _exact_images(ode, cand):
    """The first listed prime dividing no denominator of the parts of the
    exact S, T and R2 from _descent_polys (with D a square mod p where one
    has a sqrt(D) part), and their coefficients' images mod p; None when no
    listed prime qualifies."""
    polys = _descent_polys(ode, cand.exps)
    discs = {c.D for poly in polys for c in poly.coeffs if isinstance(c, QuadExt) and c.b}
    parts = [
        [(c.a, c.b) if isinstance(c, QuadExt) else (Fraction(c), Fraction(0)) for c in poly.coeffs]
        for poly in polys
    ]
    dens = {q.denominator for coeffs in parts for ab in coeffs for q in ab}
    for p in kovacic._PRIMES:
        if any(den % p == 0 for den in dens):
            continue
        s = 0
        if discs:
            (D,) = discs
            s = pow(D, (p + 1) // 4, p)
            if (s * s - D) % p:
                continue
        return p, [
            [(a.numerator * pow(a.denominator, -1, p) + b.numerator * pow(b.denominator, -1, p) * s) % p
             for a, b in coeffs]
            for coeffs in parts
        ]
    return None


def _full_column_rejection(ode, cand):
    """The rejection as it was: the prime of :func:`_exact_images`, then the
    whole descents of z^0 .. z^d mod p, independent or not."""
    exact = _exact_images(ode, cand)
    if exact is None:
        return None
    p, images = exact
    S, T, R2 = (_PolyModP(c, p) for c in images)
    residuals = [
        _case3_descend(cand.N, S, T, R2, _PolyModP([0] * k + [1], p))[-1].c
        for k in range(cand.d + 1)
    ]
    return p if _independent_mod(residuals, p) else None


def _searched_systems(ode):
    """One candidate per distinct system, grouped as run_kovacic groups
    them."""
    seen = {}
    for N in ALL_N:
        for cand in candidates_for(ode, N):
            key = (N, cand.d, tuple(map(_key, cand.exps)), _key(cand.exp_inf))
            seen.setdefault(key, cand)
    return list(seen.values())


def _rejection_mismatches(systems):
    return [
        (ode, cand)
        for ode, cand in systems
        if modular_rejection(ode, cand) != _full_column_rejection(ode, cand)
    ]


# n = 1..12 at eps = 1/10, then the perfbench `kovacic` inputs not among them
_REJECTION_INPUTS = [(n, Fraction(1, 10)) for n in range(1, 13)] + [
    (1, Fraction(1, 3)),
    (5, Fraction(1, 5)),
    (12, Fraction(1, 2)),
]


@pytest.mark.parametrize("n,eps", _REJECTION_INPUTS, ids=lambda x: str(x))
def test_jet_rejection_matches_full_columns(n, eps):
    """Same decision and same prime as the whole-column rejection on every
    distinct system of n = 1..12 at eps = 1/10 and of the benchmark inputs."""
    ode = FuchsianODE.from_nve(equatorial_nve(n, eps))
    systems = [(ode, cand) for cand in _searched_systems(ode)]
    assert _rejection_mismatches(systems) == []


def test_jet_comparison_covers_every_degree():
    """The systems compared above: over 700, with N = 12 up to d = 12."""
    systems = [
        cand
        for n, eps in _REJECTION_INPUTS
        for cand in _searched_systems(FuchsianODE.from_nve(equatorial_nve(n, eps)))
    ]
    assert len(systems) > 700
    assert max(c.d for c in systems if c.N == 12) == 12


# -- T's image from the cofactor rows against the exact T ----------------------


def _conjugate_pole_ode(D):
    """beta = 1/4 at the poles +-sqrt(D) and beta_inf = 2: its case-1
    residues 1/2 +- sqrt(2)/2 lie in Q(sqrt(2)), its cofactors z +- sqrt(D)
    in Q(sqrt(D))."""
    a = QuadExt(0, 1, D)
    quarter = Fraction(1, 4)
    r = _pole_term(quarter, a, 2) + _pole_term(quarter, -a, 2)
    r = r + RatFunc(Poly([Fraction(3, 2)]), Poly([-D, 0, 1]))
    return FuchsianODE.from_ratfunc(r, [a, -a])


def _rational_pole_ode():
    """beta = 1/4 at the poles 0 and 1 and beta_inf = 2: case-1 residues in
    Q(sqrt(2)) with rational cofactors."""
    quarter, delta = Fraction(1, 4), Fraction(3, 2)
    r = _pole_term(quarter, Fraction(0), 2) + _pole_term(quarter, Fraction(1), 2)
    r = r - _pole_term(delta, Fraction(0)) + _pole_term(delta, Fraction(1))
    return FuchsianODE.from_ratfunc(r, [Fraction(0), Fraction(1)])


def _thirds_ode():
    """beta = -2/9 at the poles 0 and 3, so residues in thirds, while R2 = -2
    and S = z(z - 3) have no 3 in a denominator: 3 divides M*L, the
    denominator T's coefficients are built over, yet the reduced T may have
    an image mod 3."""
    beta, delta = Fraction(-2, 9), Fraction(-4, 27)
    r = _pole_term(beta, Fraction(0), 2) + _pole_term(beta, Fraction(3), 2)
    r = r + _pole_term(delta, Fraction(0)) - _pole_term(delta, Fraction(3))
    return FuchsianODE.from_ratfunc(r, [Fraction(0), Fraction(3)])


def _pole_at_sqrt2_ode():
    """xi'' = 2 (z - sqrt(2))^-2 xi, whose S = z - sqrt(2) is irrational."""
    a = QuadExt(0, 1, 2)
    return FuchsianODE.from_ratfunc(_pole_term(Fraction(2), a, 2), [a])


def _zero_residues_at_sqrt3_ode():
    """xi'' = (1/4) z^-2 xi, read with extra singular points +-sqrt(3) where
    beta = delta = 0: the residues there are 0, so T = c_0 (z^2 - 3) lies in
    Q(sqrt(2)) although the other cofactors z (z -+ sqrt(3)) do not."""
    a = QuadExt(0, 1, 3)
    r = _pole_term(Fraction(1, 4), Fraction(0), 2)
    return FuchsianODE.from_ratfunc(r, [Fraction(0), a, -a])


_ORACLE_ODES = {
    "sqrt2-at-0-1": _rational_pole_ode,
    "sqrt2-at-+-sqrt2": lambda: _conjugate_pole_ode(2),
    "thirds-at-0-3": _thirds_ode,
    "pole-at-sqrt2": _pole_at_sqrt2_ode,
    "sqrt2-at-0-beside-+-sqrt3": _zero_residues_at_sqrt3_ode,
}

# the inputs above that have candidates (n = 7, 8, 9 and 11 have none), and
# the equations just built
_JET_ORACLE_INPUTS = [(n, eps) for n, eps in _REJECTION_INPUTS if n not in (7, 8, 9, 11)] + list(
    _ORACLE_ODES
)

# primes = 3 (mod 4), small enough to divide the denominators
_SMALL_PRIMES = (3, 7, 11, 19, 23, 31, 43, 47)


def _oracle_ode(key):
    if key in _ORACLE_ODES:
        return _ORACLE_ODES[key]()
    return FuchsianODE.from_nve(equatorial_nve(*key))


def _normal_jets(jets, order):
    """(p, [coefficients mod p without trailing zeros]) of the (p, S, T, R2)
    jets, or None; each jet has at most ``order`` coefficients."""
    if jets is None:
        return None
    p, *parts = jets
    out = []
    for jet in parts:
        assert len(jet) <= order
        c = [x % p for x in jet]
        while c and not c[-1]:
            c.pop()
        out.append(c)
    return p, out


def _jets_both_ways(ode, cand):
    """The (p, S, T, R2) jets from the cofactor rows, and those of the exact
    T that _descent_polys sums, reduced by :func:`_exact_images` and shifted
    to the rejection's centre."""
    order = cand.N + cand.d + 2
    exact = _exact_images(ode, cand)
    if exact is not None:
        p, images = exact
        exact = (p, *(kovacic._taylor_shift(c, kovacic._Z0, p)[:order] for c in images))
    return _normal_jets(kovacic._jets_mod_prime(ode, cand, order), order), _normal_jets(exact, order)


@pytest.mark.parametrize("key", _JET_ORACLE_INPUTS, ids=str)
def test_cofactor_jets_match_exact_T(monkeypatch, key):
    """Same prime and the same jets of S, T and R2 as reducing the exact T,
    for every distinct system, and modular_rejection certifies with that
    prime or not at all: with the listed primes, and with small primes,
    which divide the denominators of some S, T or R2."""
    ode = _oracle_ode(key)
    cands = _searched_systems(ode)
    assert cands
    for primes in (kovacic._PRIMES, _SMALL_PRIMES):
        monkeypatch.setattr(kovacic, "_PRIMES", primes)
        for cand in cands:
            fast, exact = _jets_both_ways(ode, cand)
            assert fast == exact, (primes, cand)
            assert modular_rejection(ode, cand) in (None, exact and exact[0]), (primes, cand)


def _paired_poles_ode():
    """beta = -2/9 at the poles 0, 3, 1 and 4 and beta_inf = 2, with
    R2 = S^2 r integral.  The poles meet in pairs mod 3, so where the
    residues (in thirds) at 0 and 3 agree, T keeps a 3 in a denominator that
    S and R2 lack."""
    poles = [Fraction(x) for x in (0, 3, 1, 4)]
    R2 = Poly([-32, 32, -8, -24, 38, -16, 2])
    return FuchsianODE.from_ratfunc(RatFunc(R2, Poly.from_roots(poles) ** 2), poles)


def test_prime_dividing_only_T_is_skipped(monkeypatch):
    """Modulo 3, S and R2 have images, and so has T for four of the six
    N = 1 candidates: those take 3, the other two pass over it to 7, as the
    exact rule does."""
    ode = _paired_poles_ode()
    assert ode.betas == (Fraction(-2, 9),) * 4 and ode.beta_inf == 2
    monkeypatch.setattr(kovacic, "_PRIMES", _SMALL_PRIMES)
    primes = []
    for cand in candidates_for(ode, 1):
        fast, exact = _jets_both_ways(ode, cand)
        assert fast == exact, cand
        primes.append(fast[0])
    assert sorted(primes) == [3, 3, 3, 3, 7, 7]


def test_cofactor_jets_cover_irrational_residues():
    """The oracle above meets case-1 residues in Q(sqrt(2)), over rational
    and over conjugate poles, and T with and without a sqrt(2) part."""
    irrational_T = set()
    for ode in (_rational_pole_ode(), _conjugate_pole_ode(2)):
        cands = candidates_for(ode, 1)
        assert cands and all(isinstance(c, QuadExt) and c.b for cand in cands for c in cand.exps)
        for cand in cands:
            T = _descent_polys(ode, cand.exps)[1]
            irrational_T.add(any(isinstance(c, QuadExt) and c.b for c in T.coeffs))
    assert irrational_T == {True, False}


def test_mixed_discriminants_take_the_exact_path():
    """Residues in Q(sqrt(2)) against cofactors in Q(sqrt(3)): the rejection
    refuses the mix as the exact T does."""
    ode = _conjugate_pole_ode(3)
    cand = candidates_for(ode, 1)[0]
    with pytest.raises(ValueError, match="mixed discriminants"):
        _descent_polys(ode, cand.exps)
    with pytest.raises(ValueError, match="mixed discriminants"):
        modular_rejection(ode, cand)


def _faulty_descend(fault):
    """A copy of kovacic._descend_mod with one fault: each step kept at its
    predecessor's order (coefficients past the known ones read as 0), the
    derivatives S' and P_i' without their index factor, or the R2 term
    without its (i + 1) factor; ``fault`` None gives the faithful copy."""
    index = (lambda b: 1) if fault == "derivative-without-index" else (lambda b: b)

    def descend(N, d, S, T, R2, p):
        order = N + d + 2
        drop = fault != "product-keeps-longer-order"
        width = max(len(S), len(T), len(R2))
        S, T, R2 = (c + [0] * (width + 1 - len(c)) for c in (S, T, R2))
        steps = []
        for i in range(N, -1, -1):
            f = N - i
            g = -f if fault == "r2-without-index-factor" else -f * (i + 1)
            steps.append([
                (-S[j] % p, (f * index(j + 1) * S[j + 1] - T[j]) % p, g * R2[j] % p)
                for j in range(min(width, order - drop * (f + 1)))
            ])
        out = []
        for k in range(d + 1):
            P, prev = [0] * k + [-1] + [0] * (order - k - 1), [0] * order
            for mult in steps:
                m = len(P) - drop
                dP = [index(b) * x for b, x in enumerate(P[1:] + [0], 1)][:m]
                acc = [0] * m
                for j, (s, a, r) in enumerate(mult):
                    acc[j:] = [u + s * x + a * y + r * z for u, x, y, z in zip(acc[j:], dP, P, prev)]
                prev, P = P, [x % p for x in acc]
            out.append(P)
        return out

    return descend


_FAULTS = ["product-keeps-longer-order", "derivative-without-index", "r2-without-index-factor"]


def _witness_systems():
    """The candidate systems of the n = 1 witness (N = 1) and of the
    dihedral solution (N = 2), none of which the full columns reject."""
    return [
        (ode, cand)
        for ode, N in (
            (FuchsianODE.from_nve(equatorial_nve(1, Fraction(1, 10))), 1),
            (hypergeometric_ode(Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)), 2),
        )
        for cand in candidates_for(ode, N)
    ]


def test_faithful_kernel_copy_matches():
    """The copy the mutants below are made from is the kernel itself, entry
    for entry, on seeded random jets."""
    rng = random.Random(25)
    p = kovacic._PRIMES[0]
    copy = _faulty_descend(None)
    for N in ALL_N:
        for d in range(6):
            S, T, R2 = (_random_jet(rng, p, rng.randrange(1, N + d + 5)) for _ in range(3))
            assert copy(N, d, S, T, R2, p) == kovacic._descend_mod(N, d, S, T, R2, p), (N, d)


@pytest.mark.parametrize("fault", _FAULTS)
def test_jet_comparison_catches_broken_jets(monkeypatch, fault):
    """Each broken kernel rejects a system the full columns keep: the n = 1
    witness's (N = 1) or the dihedral solution's (N = 2)."""
    systems = _witness_systems()
    assert _rejection_mismatches(systems) == []
    monkeypatch.setattr(kovacic, "_descend_mod", _faulty_descend(fault))
    assert _rejection_mismatches(systems)


def test_high_degree_sectoral_candidates_rejected():
    """n = 2, eps = 1/10 at N = 12 has candidates up to d = 6, the largest
    sectoral jets; each d = 4..6 system is rejected mod p."""
    ode = FuchsianODE.from_nve(equatorial_nve(2, Fraction(1, 10)))
    cands = [c for c in _searched_systems(ode) if c.N == 12 and c.d >= 4]
    assert {c.d for c in cands} == {4, 5, 6}
    assert all(modular_rejection(ode, c) in kovacic._PRIMES for c in cands)


def test_taylor_shift_matches_binomial_expansion():
    """Coefficient k of f(z0 + t) is sum_j C(j, k) c_j z0^(j - k)."""
    p = kovacic._PRIMES[0]
    f, z0 = [3, -1, 0, 5, p + 2], 2**40 + 7
    expected = [
        sum(comb(j, k) * c * z0 ** (j - k) for j, c in enumerate(f) if j >= k) % p
        for k in range(len(f))
    ]
    assert kovacic._taylor_shift(f, z0, p) == expected


# Stage B of the all-eps argument: with eps = 2u/(1 - (n^2 - 1) u^2) every
# pole, S, T and R2 lies over Q(u), so a minor found nonzero mod p at one u0
# is a nonzero rational function of u.  u0 = 1/(n + 3) makes every pole
# rational; the distinct systems per n are those the ledger lists.
_STAGE_B_SYSTEMS = {2: 127, 3: 34, 4: 27, 5: 3, 6: 10, 10: 1, 12: 5}


def test_stage_b_systems_all_rejected_mod_p(monkeypatch):
    """At eps0 = 5/11, 3/7, 7/17, 2/5, 9/23, 13/35 and 15/41 (u0 = 1/(n + 3))
    modular_rejection rejects all 207 distinct systems, and none reaches the
    exact solve."""
    exact_solves = []
    monkeypatch.setattr(kovacic, "_descent_solve", lambda *args: exact_solves.append(args))
    eps0 = {}
    for n, systems in _STAGE_B_SYSTEMS.items():
        u = Fraction(1, n + 3)
        eps0[n] = 2 * u / (1 - (n * n - 1) * u * u)
        res = run_kovacic(FuchsianODE.from_nve(equatorial_nve(n, eps0[n])))
        assert res.verdict == "Unsolvable" and len(res.ledger) == systems, n
        assert all(e.searched and not e.success for e in res.ledger), n
    assert list(eps0.values()) == [
        Fraction(5, 11), Fraction(3, 7), Fraction(7, 17), Fraction(2, 5),
        Fraction(9, 23), Fraction(13, 35), Fraction(15, 41),
    ]
    assert sum(_STAGE_B_SYSTEMS.values()) == 207 and exact_solves == []
