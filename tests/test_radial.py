import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from masym.radial import (NoSolution, RadialProfile, SolverDivergence, _cumtrapz,
                          _power_solve, radial_ma_operator, solve_coupled_radial,
                          solve_scalar_radial, uniqueness_probe)


def shooting_oracle(g, n, R, c, u0_lo, u0_hi):
    """Independent radial solve by shooting on u'' = g r^(n-1) / (u')^(n-1).

    Starts from a series expansion near r = 0 and adjusts the center
    value with brentq so that u(R) = c.  ``g`` is a function of r only.
    """
    eps = 1e-8

    def rhs(r, y):
        u, du = y
        return [du, g(r) * r ** (n - 1) / max(du, 1e-300) ** (n - 1)]

    def endpoint(u0):
        # u ~ u0 + g(0)^(1/n) r^2 / 2 close to the center
        a = g(0.0) ** (1.0 / n)
        y0 = [u0 + 0.5 * a * eps ** 2, a * eps]
        sol = solve_ivp(rhs, (eps, R), y0, rtol=1e-12, atol=1e-14,
                        dense_output=True)
        return sol.y[0, -1] - c, sol

    u0 = brentq(lambda v: endpoint(v)[0], u0_lo, u0_hi, xtol=1e-13)
    return u0, endpoint(u0)[1]


def test_quadratic_exact_n2():
    prof = solve_scalar_radial(lambda r, u, du: 4.0, n=2, R=1.0, c=0.0)
    assert abs(prof(0.0) + 1.0) <= 1e-8
    assert np.max(np.abs(prof.u - (prof.r ** 2 - 1.0))) <= 1e-8


def test_quadratic_exact_n3():
    prof = solve_scalar_radial(lambda r, u, du: 8.0, n=3, R=1.0, c=0.0)
    assert abs(prof(0.0) + 1.0) <= 1e-8


def test_monomial_source_closed_form():
    """g(r) = r integrates in closed form: u' = (2 r^3 / 3)^(1/2) for n = 2."""
    # the source must stay strictly positive, so clip the origin value
    prof = solve_scalar_radial(lambda r, u, du: np.maximum(r, 1e-12), n=2, R=1.0, c=0.0)
    du_exact = np.sqrt(2.0 * prof.r ** 3 / 3.0)
    u_exact = np.sqrt(2.0 / 3.0) * 0.4 * (prof.r ** 2.5 - 1.0)
    assert np.max(np.abs(prof.du - du_exact)) <= 1e-6
    assert np.max(np.abs(prof.u - u_exact)) <= 1e-6


def test_against_shooting_oracle_n2():
    g = lambda r: 1.0 + r ** 2
    prof = solve_scalar_radial(lambda r, u, du: g(r), n=2, R=1.0, c=0.0)
    u0, sol = shooting_oracle(g, 2, 1.0, 0.0, -2.0, -0.1)
    assert abs(prof(0.0) - u0) <= 1e-6
    rs = np.linspace(0.01, 0.99, 25)
    assert np.max(np.abs(prof(rs) - sol.sol(rs)[0])) <= 1e-6


def test_against_shooting_oracle_n3():
    g = lambda r: np.exp(r)
    prof = solve_scalar_radial(lambda r, u, du: g(r), n=3, R=1.0, c=0.0)
    u0, sol = shooting_oracle(g, 3, 1.0, 0.0, -2.0, -0.1)
    assert abs(prof(0.0) - u0) <= 1e-6


def test_solution_dependent_source():
    """g depending on u: compare the fixed point to the shooting oracle."""
    prof = solve_scalar_radial(lambda r, u, du: 1.0 - u, n=2, R=1.0, c=0.0)
    gr = lambda r: 1.0 - prof(r)
    u0, sol = shooting_oracle(gr, 2, 1.0, 0.0, -2.0, -0.05)
    assert abs(prof(0.0) - u0) <= 1e-6


def test_operator_residual_small():
    prof = solve_scalar_radial(lambda r, u, du: 1.0 + r ** 2, n=2, R=1.0, c=0.0)
    resid = radial_ma_operator(prof)[1:-1] - (1.0 + prof.r[1:-1] ** 2)
    assert np.max(np.abs(resid)) <= 1e-4


def test_scalar_residual_allowance_scales_with_the_source_once():
    """A large source gets the same relative residual allowance as a unit one:
    the kink of sqrt|r - 0.5| leaves a relative residual of ~6.5e-3, far above
    100 / G^2 = 2.4e-5, while a smooth source of the same size still solves."""
    with pytest.raises(SolverDivergence, match="residual"):
        solve_scalar_radial(lambda r, u, du: 1e3 * (1.0 + np.sqrt(np.abs(r - 0.5))),
                            n=2, R=1.0, c=0.0)
    solve_scalar_radial(lambda r, u, du: 1e3 * (1.0 + r ** 2), n=2, R=1.0, c=0.0)


@pytest.mark.parametrize("grid_size", [1, 2, 3])
def test_scalar_radial_rejects_grids_too_small_for_the_residual_check(grid_size):
    with pytest.raises(ValueError, match="grid_size must be at least 4"):
        solve_scalar_radial(lambda r, u, du: 4.0, n=2, R=1.0, c=0.0, grid_size=grid_size)


@pytest.mark.parametrize("grid_size", [1, 5])
def test_coupled_radial_rejects_grids_too_small_for_the_residual_check(grid_size):
    with pytest.raises(ValueError, match="grid_size must be at least 6"):
        solve_coupled_radial(1.0, 2.0, 2, grid_size=grid_size)


def test_cumulative_trapezoid_matches_scipy():
    """The numpy helper does scipy's operations, so profiles are unchanged."""
    from scipy.integrate import cumulative_trapezoid

    rng = np.random.default_rng(11)
    for size in (2, 3, 50, 2048):
        r = np.sort(rng.uniform(0.0, 1.0, size))
        y = rng.normal(size=size)
        np.testing.assert_array_equal(_cumtrapz(y, r), cumulative_trapezoid(y, r, initial=0.0))


def validate(prof):
    """Raise ValueError unless ``prof`` is a convex profile on a grid from 0,
    up to a slack of 1e-9, with u(R) = c exactly."""
    tol = 1e-9
    if prof.r[0] != 0.0 or np.any(np.diff(prof.r) <= 0):
        raise ValueError("radius grid must be strictly increasing from 0")
    if np.any(prof.du < -tol) or abs(prof.du[0]) > tol:
        raise ValueError("radial derivative must be nonnegative with u'(0) = 0")
    if np.any(np.diff(prof.du) < -tol * max(1.0, float(np.max(np.abs(prof.du))))):
        raise ValueError("radial derivative must be non-decreasing (convexity)")
    if prof.u[-1] != prof.c:
        raise ValueError("u(R) must equal the boundary value exactly")


def test_profile_validation():
    prof = solve_scalar_radial(lambda r, u, du: 4.0, n=2, R=1.0, c=0.0)
    validate(prof)
    bad = RadialProfile(r=prof.r, u=prof.u, du=-prof.du, n=2, c=0.0)
    with pytest.raises(ValueError):
        validate(bad)


def test_nonpositive_source_rejected():
    with pytest.raises(SolverDivergence):
        solve_scalar_radial(lambda r, u, du: r - 0.5, n=2, R=1.0, c=0.0)


def test_nonfinite_source_rejected_at_first_iteration():
    with pytest.raises(SolverDivergence) as err:
        solve_scalar_radial(lambda r, u, du: np.where(r > 0.5, np.nan, 1.0 + 3.0 * r ** 2),
                            n=2, R=1.0, c=0.0)
    assert "non-finite" in str(err.value)
    assert err.value.history == []


def test_coupled_subcritical_unique_solution():
    res = solve_coupled_radial(1.0, 2.0, 2)
    assert not isinstance(res, NoSolution)
    u1, u2 = res
    validate(u1)
    validate(u2)
    assert u1(0.0) < 0 and u2(0.0) < 0
    # the pair must solve its own equations: det D^2 u1 = (-u2)^1
    resid1 = radial_ma_operator(u1)[1:-1] - (-u2.u[1:-1]) ** 1.0
    resid2 = radial_ma_operator(u2)[1:-1] - (-u1.u[1:-1]) ** 2.0
    assert np.max(np.abs(resid1)) <= 1e-4
    assert np.max(np.abs(resid2)) <= 1e-4


def test_coupled_supercritical_solution_exists():
    res = solve_coupled_radial(3.0, 3.0, 2)
    assert not isinstance(res, NoSolution)


def test_coupled_critical_product_detected():
    res = solve_coupled_radial(2.0, 2.0, 2)
    assert isinstance(res, NoSolution)
    assert res.drift_sign in (-1, 1)
    assert res.drift_sign == -1  # the scaling family carries (2, 2) toward zero
    assert len(res.history) <= 10_000


@pytest.mark.parametrize("t", [1e-3, 2.0, 1e3])
def test_power_half_step_is_homogeneous(t):
    """T_e(t u) = t^(e/n) T_e(u): the scaling family the coupled solver factors out."""
    r = np.linspace(0.0, 1.0, 257)
    u = RadialProfile(r=r, u=0.5 * (r ** 2 - 1.0) * (1.0 + r), du=r * (1.0 + 1.5 * r),
                      n=2, c=0.0)
    tu = RadialProfile(r=r, u=t * u.u, du=t * u.du, n=2, c=0.0)
    for expo in (0.5, 2.0, 9.0):
        ref = t ** (expo / 2) * _power_solve(u, expo, 2).u
        got = _power_solve(tu, expo, 2).u
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("alpha,beta,n", [
    (1.9, 2, 2), (1.99, 2, 2), (2, 2, 2), (2.01, 2, 2), (2.1, 2, 2),
    (1, 1, 3), (3, 3, 3), (1, 9, 3), (4, 4, 3)])
def test_trichotomy_up_to_the_critical_line(alpha, beta, n):
    """No radial solution exactly when alpha*beta = n^2, however close."""
    res = solve_coupled_radial(float(alpha), float(beta), n)
    if alpha * beta == n * n:
        assert isinstance(res, NoSolution)
        assert len(res.history) < 100  # decided by algebra, not by watching a drift
        return
    assert not isinstance(res, NoSolution)
    for prof in res:
        assert np.all(np.isfinite(prof.u)) and np.all(np.isfinite(prof.du))
        assert np.all(prof.u[:-1] < 0) and prof.u[-1] == 0.0


def test_critical_in_three_dimensions():
    res = solve_coupled_radial(3.0, 3.0, 3)
    assert isinstance(res, NoSolution)


def test_near_critical_warns():
    with pytest.warns(RuntimeWarning):
        res = solve_coupled_radial(2.0, 2.0 + 1e-12, 2)
    assert isinstance(res, NoSolution)


def test_coupled_scaling_invariance_of_limit():
    """Different starting scales land on the same subcritical limit."""
    base = solve_coupled_radial(1.0, 2.0, 2)
    r = base[0].r
    init = (RadialProfile(r=r, u=5.0 * base[0].u, du=5.0 * base[0].du, n=2, c=0.0),
            RadialProfile(r=r, u=5.0 * base[1].u, du=5.0 * base[1].du, n=2, c=0.0))
    again = solve_coupled_radial(1.0, 2.0, 2, init=init)
    assert np.max(np.abs(again[0].u - base[0].u)) <= 1e-6


def test_uniqueness_probe_subcritical():
    rep = uniqueness_probe(1.0, 2.0, 2, n_starts=4)
    assert rep.uniqueness_claimed
    assert rep.max_pairwise_distance <= 1e-6
    assert all(o == "converged" for o in rep.outcomes)
