import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from masym.radial import (NoSolution, RadialProfile, SolverDivergence,
                          radial_ma_operator, solve_coupled_radial,
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


@pytest.mark.parametrize("grid_size", [1, 5])
def test_coupled_radial_rejects_grids_too_small_for_the_residual_check(grid_size):
    with pytest.raises(ValueError, match="grid_size must be at least 6"):
        solve_coupled_radial(1.0, 2.0, 2, grid_size=grid_size)


def test_profile_validation():
    prof = solve_scalar_radial(lambda r, u, du: 4.0, n=2, R=1.0, c=0.0)
    prof.validate()
    bad = RadialProfile(r=prof.r, u=prof.u, du=-prof.du, n=2, c=0.0)
    with pytest.raises(ValueError):
        bad.validate()


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
    u1.validate()
    u2.validate()
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
    assert len(res.history) <= 10_000
    assert res.scaling_residual <= 1e-6


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
