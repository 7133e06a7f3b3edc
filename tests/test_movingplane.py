import json

import numpy as np
import pytest

from masym.domains import Ball, Ellipse, SmoothLevelSet, Tube, critical_planes, reflect_point
from masym.expressions import parse
from masym.gridsolve import FdParams, GridSolution, StencilGrid, solve_system_fd
from masym.movingplane import (MovingPlaneFrame, _SolutionData, _bilinear, boundary_checks,
                               build_frame, certify_monotonicity, certify_symmetry,
                               lambda_sweep, linearize, verify_elliptic_inequality,
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


def _hessian_frame(H_lam, H):
    """A one-component frame that carries only a Hessian pair per node,
    reflected ``H_lam`` and original ``H``, so :func:`linearize` builds
    A = integral_0^1 adj((1-t) H_lam + t H) dt for it."""
    K = len(H)
    zero, zero2 = np.zeros((1, K)), np.zeros((1, K, 2))
    return MovingPlaneFrame(
        nu=np.array([1.0, 0.0]), lam=0.0, grid=None, node_idx=np.arange(K),
        xy=np.zeros((K, 2)), reflected_xy=np.zeros((K, 2)), deriv_ok=np.ones(K, bool),
        n_exited=0, u=zero, u_lam=zero, U=zero, grad_u=zero2, grad_u_lam=zero2,
        grad_U=zero2, hess_u=H[None], hess_u_lam=H_lam[None], hess_U=(H_lam - H)[None],
        det_op=zero, det_op_lam=zero, op_ok=np.ones(K, bool))


def test_adjugate_matches_det_times_inverse():
    """For H_lam = H = M the mean-value matrix of linearize is adj M."""
    rng = np.random.default_rng(0)
    M = random_spd(rng, 2, 20)
    lin = linearize(_hessian_frame(M, M), QUAD_SYSTEM)
    expected = np.linalg.det(M)[:, None, None] * np.linalg.inv(M)
    assert np.allclose(lin.A[0], expected, atol=1e-10)


def test_det_gradient_finite_difference():
    """d det / dM = adj(M)^T, checked entrywise against central differences
    of det at M on the A that linearize builds for H_lam = H = M."""
    rng = np.random.default_rng(1)
    M = random_spd(rng, 2, 1000)
    G = np.swapaxes(linearize(_hessian_frame(M, M), QUAD_SYSTEM).A[0], -1, -2)
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
    """tr(A (H - H_lam)) equals det H - det H_lam to quadrature precision
    on the A that linearize builds."""
    rng = np.random.default_rng(2)
    H_lam, H = random_spd(rng, 2, 100), random_spd(rng, 2, 100)
    lin = linearize(_hessian_frame(H_lam, H), QUAD_SYSTEM)
    assert lin.n_flagged == (0,)
    lhs = np.einsum("kab,kab->k", lin.A[0], H - H_lam)
    rhs = np.linalg.det(H) - np.linalg.det(H_lam)
    rel = np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))
    assert np.max(rel) <= 1e-10


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
    onp = np.abs(frame.xy @ frame.nu - frame.lam) <= frame.grid.h * 1e-9
    assert onp.any()
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


def test_elliptic_inequality_of_an_empty_cap_is_not_applicable(quadratic):
    """A plane at the first touch keeps no cap node: the audit certifies
    nothing, so it carries no pass."""
    frame = build_frame(quadratic, [1.0, 0.0], -1.0)
    assert frame.empty
    rep = verify_elliptic_inequality(linearize(frame, QUAD_SYSTEM), frame)
    assert rep["verdict"] == "not-applicable"
    assert "passed" not in rep
    assert rep["n_nodes"] == 0 and rep["total_violations"] == 0


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


@pytest.mark.parametrize("nu, applicable", [((2 ** -0.5, 2 ** -0.5), False),
                                             ((1.0, 0.0), True)],
                         ids=["diagonal", "axis"])
def test_symmetry_applicability_is_scale_free(nu, applicable):
    """A long ellipse is symmetric about its axes only, however large it is."""
    ellipse = Ellipse(center=(0.0, 0.0), semi_axes=(2e8, 1e8))
    grid = StencilGrid(ellipse, 1e7, 2)
    u = np.sum((grid.node_xy / np.array(ellipse.semi_axes)) ** 2, axis=1) - 1.0
    sol = GridSolution(grid=grid, fields=[u], cs=(0.0,))
    assert certify_symmetry(sol, nu, 0.0)["applicable"] is applicable


def test_boundary_checks_disk(coupled):
    rep = boundary_checks(coupled)
    assert rep["hopf"]["passed"]
    assert rep["hopf"]["min"] > 0.0
    assert rep["laplacian"]["passed"]
    assert rep["corner"].get("verdict") == "not-applicable"


@pytest.mark.parametrize("half_height", [1.5, 1.0])
def test_boundary_checks_tube(half_height):
    """Hopf holds on the tube's sides and caps; its corners, which have no
    interior disk, are left to the corner check."""
    dom = Tube(cross_section=Ball(center=(0.0,), radius=1.0), half_height=half_height)
    sys1 = RhsSystem(components=(parse("4"),), n=2)
    sol = solve_system_fd(dom, sys1, (0.0,), P32)
    rep = boundary_checks(sol)
    assert rep["hopf"]["passed"]
    corner = rep["corner"]["components"][0]
    assert corner["corner_top"] > 0.0
    assert corner["corner_bottom"] > 0.0


@pytest.mark.parametrize("h", [1.0 / 32.0, 1.0 / 64.0])
def test_level_set_disk_hopf_matches_ball(h):
    """Both disks sample their boundary about the centre, so a source that
    is not even under x -> -x reads the same Hopf minimum."""
    disk = SmoothLevelSet(phi=lambda x: np.sum(np.asarray(x, float) ** 2, axis=-1) - 1.0,
                          grad_phi=lambda x: 2.0 * np.asarray(x, float),
                          bbox=((-1.0, 1.0), (-1.0, 1.0)))
    system = RhsSystem(components=(parse("4 + x1"),), n=2)
    ball, level = [boundary_checks(solve_system_fd(dom, system, (0.0,), FdParams(h=h)))["hopf"]
                   for dom in (DISK, disk)]
    assert level["passed"]
    assert abs(ball["min"] - level["min"]) <= 1e-9


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


def _kernel_solution(domain):
    """Two smooth fields on a h = 1/16 grid: enough to fill every stack row."""
    grid = StencilGrid(domain, 1.0 / 16.0, 2)
    x, y = grid.node_xy.T
    fields = [x * x + 2.0 * y * y - 3.0, np.exp(0.5 * x) + y * y - 4.0]
    return GridSolution(grid=grid, fields=fields, cs=(0.0, 0.0))


@pytest.mark.parametrize("domain", [
    DISK,
    Ellipse(center=(0.3, -0.2), semi_axes=(1.5, 0.6)),
    Tube(cross_section=Ball(center=(0.0,), radius=1.0), half_height=1.5),
    SmoothLevelSet(phi=lambda x: np.sum(np.asarray(x, float) ** 2, axis=-1) - 1.0,
                   grad_phi=lambda x: 2.0 * np.asarray(x, float),
                   bbox=((-1.0, 1.0), (-1.0, 1.0))),
], ids=["ball", "ellipse", "tube", "levelset"])
def test_bilinear_kernel_matches_scipy(domain):
    """Every stack row equals scipy's linear RegularGridInterpolator to the
    bit: field rows as its 2-D path, operator rows as its N-D path."""
    from scipy.interpolate import RegularGridInterpolator

    sol = _kernel_solution(domain)
    data = _SolutionData(sol)
    g, stack, nf = sol.grid, data.stack, data.n_field
    assert stack.shape == (7 * sol.m + 1, g.nx * g.ny)
    lo, hi = np.array([g.xs[0], g.ys[0]]), np.array([g.xs[-1], g.ys[-1]])
    off_grid = np.random.default_rng(7).uniform(lo, hi, size=(400, 2))
    line = g.xs[int(np.searchsorted(g.xs, 0.5 * (lo[0] + hi[0])))]
    aligned = reflect_point(g.node_xy, (1.0, 0.0), line)
    aligned = aligned[domain.contains(aligned)]
    outside = np.array([[lo[0] - 1e-9, 0.0], [hi[0] + 0.5 * g.h, 0.0],
                        [lo[0], hi[1] * 1.01 + 1e-3], [np.nan, 0.0]])
    # interior nodes with an exterior node among their zero-weight corners
    i, j = g.node_ij.T
    rim = ~(g.inside[i + 1, j] & g.inside[i, j + 1] & g.inside[i + 1, j + 1])
    assert rim.any()
    rim_pts = np.stack([g.xs[i[rim]], g.ys[j[rim]]], axis=-1)

    field_rgi = [RegularGridInterpolator((g.xs, g.ys), row.reshape(g.nx, g.ny),
                                         bounds_error=False, fill_value=np.nan)
                 for row in stack[:nf]]
    op_rgi = RegularGridInterpolator((g.xs, g.ys), stack[nf:].T.reshape(g.nx, g.ny, sol.m),
                                     bounds_error=False, fill_value=np.nan)
    for pts in (off_grid, aligned, outside, rim_pts):
        got = _bilinear(g, stack, pts, nf)
        assert got.shape == (len(stack), len(pts))
        expected = np.vstack([f(pts) for f in field_rgi] + [op_rgi(pts).T])
        np.testing.assert_array_equal(got, expected)
    assert np.all(np.isnan(_bilinear(g, stack, outside, nf)))
    rim_vals = _bilinear(g, stack, rim_pts, nf)
    assert np.all(np.isnan(rim_vals[nf:]))
    assert np.all(np.isfinite(rim_vals[:nf]))


@pytest.mark.parametrize("nu", [(1.0, 0.0), (np.cos(0.4), np.sin(0.4))], ids=["axis", "oblique"])
def test_linearize_matches_stacked_mean_value_matrix(coupled, nu):
    """The quadrature in linearize gives adj((H_lam + H) / 2), which is the
    mean-value matrix exactly because the integrand is linear in t, and it
    flags the nodes the stacked integrand test flags."""
    system = power_coupled_system(1.0, 1.0)
    planes = critical_planes(DISK, nu)
    lam = 0.5 * (planes.lam0 + planes.Lam0)
    for sol in (coupled, _perturbed(coupled)):
        frame = build_frame(sol, nu, lam)
        lin = linearize(frame, system)
        t = 0.5 * (np.polynomial.legendre.leggauss(lin.quad_order)[0] + 1.0)
        for i in range(frame.m):
            Ha, Hb = frame.hess_u_lam[i], frame.hess_u[i]
            bad = np.zeros(len(frame.node_idx), dtype=bool)
            for tk in t:
                Mt = (1.0 - tk) * Ha + tk * Hb
                det = Mt[:, 0, 0] * Mt[:, 1, 1] - Mt[:, 0, 1] * Mt[:, 1, 0]
                bad |= ~((det > 0) & (np.trace(Mt, axis1=-2, axis2=-1) > 0))
            bad &= frame.deriv_ok
            assert lin.n_flagged[i] == int(bad.sum())
            M = 0.5 * (Ha + Hb)
            expected = np.stack([np.stack([M[:, 1, 1], -M[:, 0, 1]], axis=-1),
                                 np.stack([-M[:, 1, 0], M[:, 0, 0]], axis=-1)], axis=-2)
            # four weighted sums round each entry: a few ulps of the largest
            np.testing.assert_allclose(lin.A[i][~bad], expected[~bad], rtol=0.0,
                                       atol=4 * np.finfo(float).eps * np.max(np.abs(M)))
            assert np.all(np.linalg.eigvalsh(lin.A[i][bad]) > 0.0)
    assert sum(lin.n_flagged) > 0


def test_heatmap_svg(tmp_path, quadratic):
    path = tmp_path / "u.svg"
    write_heatmap_svg(quadratic.grid, quadratic.fields[0], path, title="u")
    text = path.read_text()
    assert text.lstrip().startswith("<svg") or "<svg" in text[:200]
    assert "rect" in text
