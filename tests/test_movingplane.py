import json

import numpy as np
import pytest

from masym.domains import Ball, SmoothLevelSet, Tube, critical_planes
from masym.expressions import parse
from masym.gridsolve import FdParams, GridSolution, StencilGrid, solve_system_fd
from masym.movingplane import (_SolutionData, adjugate, boundary_checks,
                               build_frame, certify_monotonicity, certify_symmetry,
                               det_gradient, lambda_sweep, linearize,
                               mean_value_matrix, verify_elliptic_inequality,
                               write_heatmap_svg)
from masym.rhs import RhsSystem, power_coupled_system

DISK = Ball(center=(0.0, 0.0), radius=1.0)
P32 = FdParams(h=1.0 / 32.0)


def random_spd(rng, n, k=1):
    A = rng.normal(size=(k, n, n))
    return A @ np.swapaxes(A, -1, -2) + 0.1 * np.eye(n)


@pytest.fixture(scope="module")
def coupled():
    sol = solve_system_fd(DISK, power_coupled_system(1.0, 1.0), (0.0, 0.0), P32)
    return sol


@pytest.fixture(scope="module")
def quadratic():
    grid = StencilGrid(DISK, 1.0 / 32.0, 2)
    u = np.sum(grid.node_xy ** 2, axis=1) - 1.0
    sol = GridSolution(grid=grid, fields=[u], cs=(0.0,))
    sol.convex = sol.convexity_audit()
    return sol


QUAD_SYSTEM = RhsSystem(components=(parse("4"),), n=2,
                        splits=((parse("0"), parse("4")),),
                        lipschitz_z=(0.0,), lipschitz_p=(0.0,))


def test_adjugate_matches_det_times_inverse():
    rng = np.random.default_rng(0)
    for n in (2, 3, 4):
        M = random_spd(rng, n, 20)
        expected = np.linalg.det(M)[:, None, None] * np.linalg.inv(M)
        assert np.allclose(adjugate(M), expected, atol=1e-10)


def test_det_gradient_finite_difference():
    """d det / dM = adj(M)^T, checked entrywise against central differences."""
    rng = np.random.default_rng(1)
    M = random_spd(rng, 2, 1000)
    G = det_gradient(M)
    eps = 1e-6
    worst = 0.0
    for a in range(2):
        for b in range(2):
            E = np.zeros((2, 2))
            E[a, b] = eps
            fd = (np.linalg.det(M + E) - np.linalg.det(M - E)) / (2 * eps)
            worst = max(worst, float(np.max(np.abs(fd - G[:, a, b])
                                            / np.maximum(1.0, np.abs(fd)))))
    assert worst <= 1e-6


def test_mean_value_identity_exact():
    """tr(A (H_b - H_a)) equals det H_b - det H_a to quadrature precision."""
    rng = np.random.default_rng(2)
    for n in (2, 3):
        Ha = random_spd(rng, n, 100)
        Hb = random_spd(rng, n, 100)
        A = mean_value_matrix(Ha, Hb)
        lhs = np.einsum("kab,kab->k", A, Hb - Ha)
        rhs = np.linalg.det(Hb) - np.linalg.det(Ha)
        rel = np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))
        assert np.max(rel) <= 1e-10


def test_mean_value_order_controls_exactness():
    rng = np.random.default_rng(3)
    Ha, Hb = random_spd(rng, 3, 1), random_spd(rng, 3, 1)
    A1 = mean_value_matrix(Ha, Hb, order=1)
    lhs = np.einsum("kab,kab->k", A1, Hb - Ha)
    rhs = np.linalg.det(Hb) - np.linalg.det(Ha)
    # midpoint rule is not exact for the degree-2 integrand in 3-D
    assert abs(lhs[0] - rhs[0]) > 1e-12


def test_frame_reflection_of_quadratic(quadratic):
    """u = |x|^2 - 1 reflects to U(x) = 4 lam (lam - x1) for nu = e1."""
    lam = -0.4
    frame = build_frame(quadratic, [1.0, 0.0], lam)
    assert not frame.empty
    ok = frame.deriv_ok
    x1 = frame.xy[ok, 0]
    expected = 4.0 * lam * (lam - x1)
    assert np.max(np.abs(frame.U[0, ok] - expected)) <= 5e-3
    # Hessians are constant 2 I on both sides, so the difference vanishes
    assert np.max(np.abs(frame.hess_U[0, ok])) <= 5e-2


def test_frame_on_plane_difference_vanishes(quadratic):
    frame = build_frame(quadratic, [1.0, 0.0], -0.25)
    onp = frame.on_plane()
    if onp.any():
        assert np.max(np.abs(frame.U[0, onp])) <= 1e-10


def test_symmetric_plane_zero_difference(quadratic):
    frame = build_frame(quadratic, [1.0, 0.0], 0.0)
    ok = frame.deriv_ok
    assert np.max(np.abs(frame.U[0, ok])) <= 1e-10


def test_elliptic_inequality_quadratic(quadratic):
    frame = build_frame(quadratic, [1.0, 0.0], -0.5)
    lin = linearize(frame, QUAD_SYSTEM)
    rep = verify_elliptic_inequality(lin, frame)
    assert rep["passed"]
    assert rep["total_violations"] == 0
    assert rep["d_nonpositive"]


def test_linearization_matrices_positive(quadratic):
    frame = build_frame(quadratic, [1.0, 0.0], -0.5)
    lin = linearize(frame, QUAD_SYSTEM)
    ok = frame.deriv_ok
    eig = np.linalg.eigvalsh(lin.A[0][ok])
    assert np.min(eig) > 0.0
    # constant source: no z or p dependence in the bound fields
    assert float(np.max(np.abs(lin.c[0]))) == 0.0
    assert float(np.max(np.abs(lin.d[0]))) == 0.0


def test_monotonicity_certificate(quadratic):
    planes = critical_planes(DISK, [1.0, 0.0])
    rep = certify_monotonicity(quadratic, [1.0, 0.0], planes)
    assert rep["passed"]
    assert rep["components"][0]["violations"] == 0


def test_monotonicity_catches_corruption(quadratic):
    planes = critical_planes(DISK, [1.0, 0.0])
    xy = quadratic.grid.node_xy
    bad = GridSolution(grid=quadratic.grid,
                       fields=[quadratic.fields[0] + 0.4 * xy[:, 0]],
                       cs=(0.0,))
    rep = certify_monotonicity(bad, [1.0, 0.0], planes)
    assert not rep["passed"]
    assert "worst_xy" in rep["components"][0]


def test_symmetry_certificate(quadratic):
    rep = certify_symmetry(quadratic, [1.0, 0.0], 0.0)
    assert rep["applicable"]
    assert rep["passed"]
    assert rep["mirror_residual"] <= rep["tolerance"]
    assert max(rep["angular_variation"]) <= rep["tolerance"]


def test_symmetry_not_applicable_on_asymmetric_domain():
    egg = SmoothLevelSet(
        phi=lambda x: (np.asarray(x, float)[..., 0] ** 2 * (1.0 + 0.4 * np.asarray(x, float)[..., 0])
                       + np.asarray(x, float)[..., 1] ** 2 - 0.5),
        grad_phi=lambda x: np.stack(
            [2.0 * np.asarray(x, float)[..., 0] + 1.2 * np.asarray(x, float)[..., 0] ** 2,
             2.0 * np.asarray(x, float)[..., 1]], axis=-1),
        bbox=((-1.0, 1.0), (-1.0, 1.0)),
    )
    grid = StencilGrid(egg, 1.0 / 16.0, 2)
    u = np.sum(grid.node_xy ** 2, axis=1) - 1.0
    sol = GridSolution(grid=grid, fields=[u], cs=(0.0,))
    rep = certify_symmetry(sol, [1.0, 0.0], 0.0)
    assert not rep["applicable"]


def test_boundary_checks_disk(coupled):
    rep = boundary_checks(coupled)
    assert rep["hopf"]["passed"]
    assert rep["hopf"]["min"] > 0.0
    assert rep["laplacian"]["passed"]
    assert rep["corner"].get("verdict") == "not-applicable"


def test_boundary_checks_tube():
    dom = Tube(cross_section=Ball(center=(0.0,), radius=1.0), half_height=1.5)
    sys1 = RhsSystem(components=(parse("4"),), n=2)
    sol = solve_system_fd(dom, sys1, (0.0,), P32)
    rep = boundary_checks(sol)
    corner = rep["corner"]["components"][0]
    assert corner["corner_top"] > 0.0
    assert corner["corner_bottom"] > 0.0


def test_lambda_sweep_passes(coupled):
    planes = critical_planes(DISK, [1.0, 0.0])
    rep = lambda_sweep(coupled, [1.0, 0.0], planes, n_lambdas=6,
                       system=power_coupled_system(1.0, 1.0))
    assert rep.passed
    assert rep.total_ei_violations == 0
    assert len(rep.entries) == 6
    text = json.dumps(rep.to_json(), sort_keys=True)
    assert "monotonicity" in text


def _perturbed(sol):
    """The negative control: u1 plus a ripple along x1, u2 unchanged."""
    xy = sol.grid.node_xy
    return GridSolution(grid=sol.grid,
                        fields=[sol.fields[0] + 0.02 * np.sin(8.0 * np.pi * xy[:, 0]),
                                sol.fields[1]],
                        cs=(0.0, 0.0))


def test_lambda_sweep_negative_control(coupled):
    planes = critical_planes(DISK, [1.0, 0.0])
    rep = lambda_sweep(_perturbed(coupled), [1.0, 0.0], planes, n_lambdas=6,
                       system=power_coupled_system(1.0, 1.0))
    assert not rep.passed
    assert rep.total_ei_violations >= 1


def test_oblique_sweep_of_radial_solution_passes(coupled):
    """det D^2 u_lam(x) = det D^2 u(x_lam): off-axis planes see no violation."""
    nu = (np.cos(0.4), np.sin(0.4))
    system = power_coupled_system(1.0, 1.0)
    planes = critical_planes(DISK, nu)
    rep = lambda_sweep(coupled, nu, planes, n_lambdas=16, system=system)
    assert rep.total_ei_violations == 0
    assert rep.passed
    rep = lambda_sweep(_perturbed(coupled), nu, planes, n_lambdas=16, system=system)
    assert not rep.passed
    assert rep.total_ei_violations >= 1


def test_diagonal_direction_sweep(coupled):
    s = 1.0 / np.sqrt(2.0)
    planes = critical_planes(DISK, [s, s])
    rep = lambda_sweep(coupled, [s, s], planes, n_lambdas=4,
                       system=power_coupled_system(1.0, 1.0))
    assert rep.total_ei_violations == 0


@pytest.fixture(scope="module")
def coupled16():
    return solve_system_fd(DISK, power_coupled_system(1.0, 1.0), (0.0, 0.0),
                           FdParams(h=1.0 / 16.0))


FRAME_ARRAYS = ("node_idx", "xy", "reflected_xy", "deriv_ok", "u", "u_lam", "U",
                "grad_u", "grad_u_lam", "grad_U", "hess_u", "hess_u_lam", "hess_U",
                "det_op", "det_op_lam", "op_ok")


@pytest.mark.parametrize("nu", [(1.0, 0.0), (1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0))])
def test_shared_sweep_data_changes_nothing(coupled16, nu):
    """Frames and sweep entries built from shared data equal standalone ones."""
    system = power_coupled_system(1.0, 1.0)
    planes = critical_planes(DISK, nu)
    n = 6
    rep = lambda_sweep(coupled16, nu, planes, n_lambdas=n, system=system)
    lams = planes.lam0 + (planes.Lam0 - planes.lam0) * (np.arange(1, n + 1) / n)
    data = _SolutionData(coupled16)
    for lam, entry in zip(lams, rep.entries):
        frame = build_frame(coupled16, nu, float(lam))
        shared = build_frame(coupled16, nu, float(lam), _data=data)
        assert shared.n_exited == frame.n_exited
        for name in FRAME_ARRAYS:
            np.testing.assert_array_equal(getattr(shared, name), getattr(frame, name))
        assert entry["n_nodes"] == len(frame.node_idx)
        assert entry["n_exited"] == frame.n_exited
        assert entry["U_max"] == float(np.max(frame.U))
        lin = linearize(frame, system)
        ei = verify_elliptic_inequality(lin, frame)
        assert entry["ei_violations"] == ei["total_violations"]
        assert entry["ei_worst_margin"] == ei["worst_margin"]
        assert entry["flagged_nonpd"] == list(lin.n_flagged)


def test_heatmap_svg(tmp_path, quadratic):
    path = tmp_path / "u.svg"
    write_heatmap_svg(quadratic.grid, quadratic.fields[0], path, title="u")
    text = path.read_text()
    assert text.lstrip().startswith("<svg") or "<svg" in text[:200]
    assert "rect" in text
