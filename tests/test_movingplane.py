import json
import multiprocessing
import sys
from fractions import Fraction
import threading
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from masym import movingplane
from masym.domains import (Ball, Ellipse, SmoothLevelSet, Tube, _as_unit, critical_planes,
                           reflect_point)
from masym.expressions import ExpressionDomainError, parse
from masym.gridsolve import FdParams, GridSolution, StencilGrid, solve_system_fd
from masym.movingplane import (MovingPlaneFrame, _bilinear, boundary_checks,
                               build_frame, certify_monotonicity, certify_symmetry,
                               lambda_sweep, linearize, verify_elliptic_inequality,
                               write_heatmap_svg)
from masym.radial import SolverDivergence
from masym.rhs import RhsSystem, d_ij as rhs_d_ij, power_coupled_system
from mean_value import frame_hessians, mean_value_matrix, stack_hessians

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
    return GridSolution(grid=grid, fields=[u], cs=(0.0,))


QUAD_SYSTEM = RhsSystem(components=(parse("4"),), n=2,
                        splits=((parse("0"), parse("4")),),
                        lipschitz_z=(0.0,), lipschitz_p=(0.0,))


def _hessian_frame(H_lam, H):
    """A one-component frame along e1 whose stack rows carry only a pair of
    symmetric Hessians per node, reflected ``H_lam`` and original ``H``: the
    rows at the reflections hold Q H_lam Q, which the frame reflects back
    exactly, as Q = diag(-1, 1).  Values, gradients and operator rows are
    zero, and every node has valid derivatives."""
    K = len(H)

    def rows(M):
        out = np.zeros((8, K))
        out[5], out[6], out[7], out[1] = M[:, 0, 0], M[:, 1, 1], M[:, 0, 1], 1.0
        return out

    Q = np.diag([-1.0, 1.0])
    return MovingPlaneFrame(
        nu=np.array([1.0, 0.0]), lam=0.0,
        grid=SimpleNamespace(h=1.0 / 32.0, node_xy=np.zeros((K, 2))), node_idx=np.arange(K),
        reflected_xy=np.zeros((K, 2)), n_exited=0, at_node=rows(H), at_refl=rows(Q @ H_lam @ Q))


def test_adjugate_matches_det_times_inverse():
    """For H_lam = H = M the mean-value matrix of a frame is adj M."""
    rng = np.random.default_rng(0)
    M = random_spd(rng, 2, 20)
    A = mean_value_matrix(*frame_hessians(_hessian_frame(M, M)))
    expected = np.linalg.det(M)[:, None, None] * np.linalg.inv(M)
    assert np.allclose(A[0], expected, atol=1e-10)


def test_det_gradient_finite_difference():
    """d det / dM = adj(M)^T, checked entrywise against central differences
    of det at M on the mean-value matrix of a frame with H_lam = H = M."""
    rng = np.random.default_rng(1)
    M = random_spd(rng, 2, 1000)
    G = np.swapaxes(mean_value_matrix(*frame_hessians(_hessian_frame(M, M)))[0], -1, -2)
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
    on the mean-value matrix of a frame, none of whose nodes linearize flags."""
    rng = np.random.default_rng(2)
    H_lam, H = random_spd(rng, 2, 100), random_spd(rng, 2, 100)
    frame = _hessian_frame(H_lam, H)
    assert linearize(frame, QUAD_SYSTEM).n_flagged == (0,)
    lhs = np.einsum("kab,kab->k", mean_value_matrix(*frame_hessians(frame))[0], H - H_lam)
    rhs = np.linalg.det(H) - np.linalg.det(H_lam)
    rel = np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))
    assert np.max(rel) <= 1e-10


def test_linearize_flags_a_node_by_the_ends_of_its_segment():
    """The integrand (1 - t) H_lam + t H is positive definite on all of [0, 1]
    exactly when both ends are.  Toward H = 2 I, H_lam = diag(2, -0.01) turns
    positive definite at t = 0.005, before any Gauss-Legendre node of [0, 1],
    yet its node is flagged, as is the node whose H is the indefinite end.
    The frame's A stays adj((H_lam + H) / 2) at every node, flagged or not."""
    H = np.tile(2.0 * np.eye(2), (3, 1, 1))
    H_lam = H.copy()
    H_lam[1] = np.diag([2.0, -0.01])
    H[2] = np.diag([-0.01, 2.0])
    frame = _hessian_frame(H_lam, H)
    lin = linearize(frame, QUAD_SYSTEM)
    assert lin.n_flagged == (2,)
    np.testing.assert_array_equal(lin.nonpd, [[False, True, True]])
    M = 0.5 * (H_lam + H)
    adj = np.stack([np.stack([M[:, 1, 1], -M[:, 0, 1]], -1),
                    np.stack([-M[:, 1, 0], M[:, 0, 0]], -1)], -2)
    np.testing.assert_array_equal(mean_value_matrix(*frame_hessians(frame))[0], adj)


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
    H_lam, H = frame_hessians(frame)
    assert np.max(np.abs((H_lam - H)[0, ok])) <= 5e-2


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
    eig = np.linalg.eigvalsh(mean_value_matrix(*frame_hessians(frame))[0][ok])
    assert np.min(eig) > 0.0
    # constant source: no z or p dependence in the bound fields, so the
    # margin is the operator difference det_op_lam - det_op alone
    assert float(np.max(np.abs(lin.d[0]))) == 0.0
    np.testing.assert_array_equal(lin.margin, frame.at_refl[2:3] - frame.at_node[2:3])


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


@pytest.mark.parametrize("h", [1.0 / 32.0, 1.0 / 64.0])
@pytest.mark.parametrize("nu", [(1.0, 0.0), (0.6, 0.8), (np.sqrt(0.5), np.sqrt(0.5)),
                                (np.cos(0.5), np.sin(0.5))])
def test_monotonicity_checks_the_valid_nodes_left_of_the_band(h, nu):
    """The check reads the valid nodes with x . nu < Lam0 - h - 1e-9 h, counted
    here with x . nu exact in rationals.  On the disk along (0.6, 0.8) the
    nodes on the line x . nu = Lam0 - h, such as (21/32, -17/32), are left out
    however the float product x . nu rounds."""
    grid = StencilGrid(DISK, h, 2)
    sol = GridSolution(grid=grid, fields=[np.sum(grid.node_xy ** 2, axis=1) - 1.0], cs=(0.0,))
    nu = _as_unit(nu, 2)
    planes = critical_planes(DISK, nu)
    valid = np.take(sol.stack[sol.m], sol.node_rows) == 1.0
    bound = Fraction(planes.Lam0) - Fraction(h) * (1 + Fraction(1e-9))
    nu_q = [Fraction(v) for v in nu]
    want = sum(Fraction(x) * nu_q[0] + Fraction(y) * nu_q[1] < bound
               for (x, y), ok in zip(grid.node_xy.tolist(), valid) if ok)
    rep = certify_monotonicity(sol, nu, planes)
    assert rep["components"][0]["n_checked"] == want


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


def test_failed_boundary_checks_fail_the_certificate():
    """u = -(1 - |x|^2)^4 is monotone and symmetric, but its outward derivative
    vanishes on the circle and its Laplacian is negative there: Hopf and the
    Laplacian sign fail, and so does the certificate."""
    grid = StencilGrid(DISK, 1.0 / 32.0, 2)
    u = -(1.0 - np.sum(grid.node_xy ** 2, axis=1)) ** 4
    sol = GridSolution(grid=grid, fields=[u], cs=(0.0,))
    rep = lambda_sweep(sol, [1.0, 0.0], critical_planes(DISK, [1.0, 0.0]), system=QUAD_SYSTEM)
    assert not rep.boundary["hopf"]["passed"] and not rep.boundary["laplacian"]["passed"]
    assert rep.monotonicity["passed"] and rep.symmetry["passed"]
    assert not rep.passed


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


FRAME_ARRAYS = ("node_idx", "xy", "reflected_xy", "deriv_ok", "U", "at_node", "at_refl")


ELLIPSE = Ellipse(center=(0.0, 0.0), semi_axes=(1.0, 0.6))


@pytest.fixture(scope="module")
def ellipse16():
    return solve_system_fd(ELLIPSE, power_coupled_system(1.0, 1.0), (0.0, 0.0),
                           FdParams(h=1.0 / 16.0))


def _gradient_system():
    """A non-power pair whose sources read p, with a declared gradient
    Lipschitz constant, so the linearization's B is not zero."""
    comps = tuple(parse(f) for f in ("(0 - z2) + 0.1 * p1 * p2 + 1",
                                     "(0 - z1) + exp(0.1 * p1)"))
    return RhsSystem(components=comps, n=2, splits=tuple((parse("0"), f) for f in comps),
                     lipschitz_z=(0.0, 0.0), lipschitz_p=(0.5, 0.5))


def _lipschitz_system():
    """A pair that declares a nonzero own-component constant for component 1
    and a nonzero gradient constant for component 2 only, so the sweep keeps
    the c U term of one component and the B . grad U term of the other."""
    comps = tuple(parse(f) for f in ("(0 - z2) + 0.2 * z1 + 1", "(0 - z1) + 0.1 * p2 + 1"))
    splits = ((parse("0.2 * z1"), parse("(0 - z2) + 1")),
              (parse("0.1 * p2"), parse("(0 - z1) + 1")))
    return RhsSystem(components=comps, n=2, splits=splits,
                     lipschitz_z=(0.2, 0.0), lipschitz_p=(0.0, 0.1))


def _p1_system():
    """A pair whose first source reads p1, with no gradient Lipschitz
    constant: the sweep reads the gradient rows for the sources alone."""
    comps = tuple(parse(f) for f in ("(0 - z2) + 0.1 * p1 + 1", "(0 - z1) + 1"))
    return RhsSystem(components=comps, n=2, splits=tuple((parse("0"), f) for f in comps),
                     lipschitz_z=(0.0, 0.0), lipschitz_p=(0.0, 0.0))


def _lipschitz_p_system():
    """A pair whose sources read no p but that declares the gradient constant
    (0.5, 0): the sweep reads the gradient rows for B alone."""
    comps = tuple(parse(f) for f in ("(0 - z2) + 1", "(0 - z1) + 1"))
    return RhsSystem(components=comps, n=2, splits=tuple((parse("0"), f) for f in comps),
                     lipschitz_z=(0.0, 0.0), lipschitz_p=(0.5, 0.0))


# the systems of the sweep-entry tests and whether the sweep reads the gradient rows
SWEEP_SYSTEMS = ((power_coupled_system(1.0, 1.0), False), (_p1_system(), True),
                 (_lipschitz_p_system(), True))


def _positions(planes, n):
    """The n plane positions of a sweep, the last exactly Lam0."""
    lams = planes.lam0 + (planes.Lam0 - planes.lam0) * (np.arange(1, n + 1) / n)
    lams[-1] = planes.Lam0
    return lams


def _one_position_entry(sol, nu, lam, system, cap_tol):
    """A sweep entry from the one-position frame, linearization and audit."""
    frame = build_frame(sol, nu, lam)
    entry = {"lambda": lam, "n_nodes": len(frame.node_idx), "n_exited": frame.n_exited}
    if frame.empty:
        return dict(entry, U_max=None, cap_nonpositive=True)
    u_max = float(np.max(frame.U))
    entry.update(U_max=u_max, cap_nonpositive=u_max <= cap_tol)
    if frame.deriv_ok.any():
        lin = linearize(frame, system)
        ei = verify_elliptic_inequality(lin, frame)
        entry.update(ei_violations=ei["total_violations"], ei_worst_margin=ei["worst_margin"],
                     flagged_nonpd=list(lin.n_flagged))
    return entry


def _recorded_batches(monkeypatch):
    """A list to which each :func:`movingplane._sweep_batch` call appends
    its cap sizes, one per plane position: the nodes x with
    x . nu < lam + 1e-9 h."""
    batches = []
    sweep_batch = movingplane._sweep_batch

    def recorded(solution, nu, lams, *args):
        s = solution.grid.node_xy @ np.asarray(nu)
        batches.append([int(np.count_nonzero(s < lam + solution.grid.h * 1e-9))
                        for lam in lams])
        return sweep_batch(solution, nu, lams, *args)

    monkeypatch.setattr(movingplane, "_sweep_batch", recorded)
    return batches


@pytest.mark.parametrize("nu", [(1.0, 0.0), (1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)),
                                (0.0, 1.0), (np.cos(0.5), np.sin(0.5))])
def test_shared_sweep_data_changes_nothing(coupled16, ellipse16, nu, monkeypatch):
    """Every entry of a 16-position sweep, whose positions run in batches on
    worker threads, equals the one from a frame, linearization and audit of
    that position alone, to the bit; so does the whole report with one
    worker, and the report of the sweep packed at the grid's node count,
    where every sweep here runs at least two batches, so the entries cover
    the seams between them.  The sweep leaves out the B . grad U and
    c U terms whose declared constants are 0, and the systems here declare
    both, one or neither of them nonzero; it reads the gradient rows only
    for systems whose sources read p or that declare a gradient constant.
    Frames of a swept solution, whose stack the sweep built, equal those
    of a fresh solution of the same fields."""
    n = 16
    batches = _recorded_batches(monkeypatch)
    for domain, sol in ((DISK, coupled16), (ELLIPSE, ellipse16)):
        planes = critical_planes(domain, nu)
        lams = _positions(planes, n)
        cap_tol = (10.0 * sol.grid.h ** 2) * max(sol.amplitude)
        reports = {}
        for system in (*(system for system, _ in SWEEP_SYSTEMS), _gradient_system(),
                       _lipschitz_system()):
            batches.clear()
            with monkeypatch.context() as patch:
                patch.setattr(movingplane, "_BATCH_BOUND", 1.0)
                seams = lambda_sweep(sol, nu, planes, n_lambdas=n, system=system)
            assert len(batches) >= 2
            rep = lambda_sweep(sol, nu, planes, n_lambdas=n, system=system)
            assert json.dumps(rep.to_json()) == json.dumps(seams.to_json())
            assert [json.dumps(e) for e in rep.entries] == [
                json.dumps(_one_position_entry(sol, nu, float(lam), system, cap_tol))
                for lam in lams]
            reports[system] = json.dumps(rep.to_json())
        with monkeypatch.context() as patch:
            patch.setattr(movingplane, "_available_cores", lambda: 1)
            for system, text in reports.items():
                assert json.dumps(lambda_sweep(sol, nu, planes, n_lambdas=n,
                                               system=system).to_json()) == text
        fresh = GridSolution(grid=sol.grid, fields=sol.fields, cs=sol.cs)
        for lam in lams:
            frame = build_frame(fresh, nu, float(lam))
            shared = build_frame(sol, nu, float(lam))
            assert shared.n_exited == frame.n_exited
            for name in FRAME_ARRAYS:
                np.testing.assert_array_equal(getattr(shared, name), getattr(frame, name))


@pytest.mark.parametrize("domain", [DISK, ELLIPSE], ids=["disk", "ellipse"])
def test_sweep_entries_of_empty_and_unaudited_caps(coupled16, ellipse16, domain, monkeypatch):
    """At 64 positions the first caps have no node, or nodes but none with
    valid derivatives to audit.  The sweep reduces each position's segment of
    the batch's nodes, and reduceat reads an empty segment as the element at
    its start: every entry still equals the one of that position alone, and
    every sweep here runs at least two batches, so the entries cover the
    seams between them.  Each batch reads the stack's 3m Hessian rows at
    its nodes, then at their reflections, and then the rows before them
    at both: the gradient rows exactly when the system reads p or declares
    a gradient constant, and the 2m + 1 rows of values, mask and operator
    else.  The symmetry certificate reads the m E rows once when the
    plane is a symmetry plane, and not at all else."""
    sol = coupled16 if domain is DISK else ellipse16
    cap_tol = (10.0 * sol.grid.h ** 2) * max(sol.amplitude)
    m = sol.m
    s = 1.0 / np.sqrt(2.0)
    kinds = set()
    rows_read = []
    read = movingplane._read_caps

    def recorded(solution, nu, lams):
        *caps, at_node, at_refl = read(solution, nu, lams)
        reads = []
        rows_read.append(reads)

        def spy(side, reader):
            def rows_of(rows):
                reads.append((side, rows.start, rows.stop))
                return reader(rows)
            return rows_of

        return (*caps, spy("node", at_node), spy("refl", at_refl))

    monkeypatch.setattr(movingplane, "_read_caps", recorded)
    batches = _recorded_batches(monkeypatch)
    symmetry = [("refl", 0, m), ("node", 0, m)]
    for system, grads in SWEEP_SYSTEMS:
        kept, hessians = (0, 4 * m + 1 if grads else 2 * m + 1), (4 * m + 1, 7 * m + 1)
        batch = [("node", *hessians), ("refl", *hessians), ("node", *kept), ("refl", *kept)]
        for nu in [(1.0, 0.0), (0.0, 1.0), (s, s), (np.cos(0.5), np.sin(0.5))]:
            planes = critical_planes(domain, nu)
            rows_read.clear()
            batches.clear()
            rep = lambda_sweep(sol, nu, planes, n_lambdas=64, system=system)
            assert len(batches) >= 2
            assert rows_read.count(symmetry) == int(rep.symmetry["applicable"])
            assert [reads for reads in rows_read if reads != symmetry] == [batch] * len(batches)
            assert [json.dumps(e) for e in rep.entries] == [
                json.dumps(_one_position_entry(sol, nu, float(lam), system, cap_tol))
                for lam in _positions(planes, 64)]
            kinds.update("empty" if not e["n_nodes"] else
                         "audited" if "ei_violations" in e else "unaudited"
                         for e in rep.entries)
    assert kinds == {"empty", "unaudited", "audited"}


SQUARE_TUBE = Tube(cross_section=Ball(center=(0.0,), radius=1.0), half_height=1.0)


@pytest.fixture(scope="module")
def tube16():
    return solve_system_fd(SQUARE_TUBE, power_coupled_system(1.0, 1.0), (0.0, 0.0),
                           FdParams(h=1.0 / 16.0))


@pytest.mark.parametrize("case, nu, applicable", [
    ("disk", (1.0, 0.0), True), ("disk", (0.0, 1.0), True),
    ("disk", (1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)), True),
    ("disk", (np.cos(0.5), np.sin(0.5)), True),
    ("ellipse", (1.0, 0.0), True), ("ellipse", (np.cos(0.5), np.sin(0.5)), False),
    ("tube", (1.0, 0.0), True),
], ids=["disk-x", "disk-y", "disk-diagonal", "disk-0.5", "ellipse-x", "ellipse-0.5", "tube-x"])
def test_sweep_certificates_are_the_public_ones(coupled16, ellipse16, tube16, case, nu,
                                                applicable):
    """A sweep's monotonicity, symmetry and boundary reports are, byte for
    byte, those of certify_monotonicity, certify_symmetry at Lam0 and
    boundary_checks called on their own."""
    domain, sol = {"disk": (DISK, coupled16), "ellipse": (ELLIPSE, ellipse16),
                   "tube": (SQUARE_TUBE, tube16)}[case]
    planes = critical_planes(domain, nu)
    rep = lambda_sweep(sol, nu, planes, system=power_coupled_system(1.0, 1.0))
    symmetry = certify_symmetry(sol, nu, planes.Lam0)
    assert symmetry["applicable"] is applicable
    assert json.dumps(rep.monotonicity) == json.dumps(certify_monotonicity(sol, nu, planes))
    assert json.dumps(rep.symmetry) == json.dumps(symmetry)
    assert json.dumps(rep.boundary) == json.dumps(boundary_checks(sol))


def test_sweep_batches_are_bounded_by_the_grid(coupled, monkeypatch):
    """Consecutive positions are packed greedily into batches of at most 1.5
    times the grid's node count; the sweep runs on the long-lived pool of
    one worker per available core, or per task (the batches and the
    certificates) when there are fewer, which the next sweep with as many
    workers shares, and the report does not depend on the number of
    workers."""
    # the 16 caps of the h = 1/64 disk along (1, 0), whose grid has 12,849 nodes
    sizes = [138, 362, 642, 966, 1326, 1716, 2130, 2566, 3020, 3490, 3972, 4464, 4964,
             5472, 5980, 6488]
    limit = movingplane._BATCH_BOUND * 12849
    assert limit == 1.5 * 12849
    batches = movingplane._batches(sizes, limit)
    assert batches == [(0, 10), (10, 14), (14, 16)]
    assert [k for a, b in batches for k in range(a, b)] == list(range(16))
    assert all(sum(sizes[a:b]) <= limit for a, b in batches)
    # at the grid's node count they took 5 batches
    assert len(movingplane._batches(sizes, 12849)) == 5
    # a cap at the bound fills a batch of its own, and so does one past it
    assert movingplane._batches([5, 1, 9, 3, 2], 9) == [(0, 2), (2, 3), (3, 5)]
    assert movingplane._batches([5, 12, 3], 9) == [(0, 1), (1, 2), (2, 3)]

    pools = []
    pool = movingplane._pool

    def recorded_pool(workers):
        pools.append((workers, pool(workers)))
        return pools[-1][1]

    batches = _recorded_batches(monkeypatch)
    monkeypatch.setattr(movingplane, "_pool", recorded_pool)
    planes = critical_planes(DISK, [1.0, 0.0])
    reports = []
    # more workers than cores, switching threads as often as the interpreter
    # allows: the report stays the one-worker report
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cores in (1, 2, 64):
            monkeypatch.setattr(movingplane, "_available_cores", lambda: cores)
            batches.clear()
            rep = lambda_sweep(coupled, [1.0, 0.0], planes, n_lambdas=16,
                               system=power_coupled_system(1.0, 1.0))
            reports.append(json.dumps(rep.to_json()))
            batch_nodes = [sum(sizes) for sizes in batches]
            assert 1 < len(batch_nodes) < 16
            assert coupled.grid.n_nodes < max(batch_nodes) <= 1.5 * coupled.grid.n_nodes
            assert sum(batch_nodes) == sum(e["n_nodes"] + e["n_exited"] for e in rep.entries)
            workers, used = pools[-1]
            assert isinstance(used, ThreadPoolExecutor)
            assert workers == used._max_workers == min(cores, len(batch_nodes) + 1)
            lambda_sweep(coupled, [1.0, 0.0], planes, n_lambdas=16,
                         system=power_coupled_system(1.0, 1.0))
            assert pools[-1] == (workers, used)
    finally:
        sys.setswitchinterval(interval)
    assert reports[1:] == reports[:1] * 2


@pytest.mark.parametrize("nu, n_lambdas", [((1.0, 0.0), 16),
                                            ((1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)), 16),
                                            ((1.0, 0.0), 256)],
                         ids=["axis", "diagonal", "axis-256"])
def test_sweep_working_set_is_bounded_by_the_stack(coupled, nu, n_lambdas, monkeypatch):
    """With one worker, a sweep's traced peak stays within 3.25 times the
    solution's stack: a batch holds at most 1.5 times the grid's node
    count, finds its own caps, and the bilinear read gathers one cell
    corner at a time.  The peaks read about 2.27, 2.17 and 2.53 times the
    stack along (1, 0), along the diagonal and along (1, 0) at 256
    positions.  With batches of the grid's node count, gathering all four
    corners at once read about 3.7 to 3.9 times the stack at 16 positions,
    and holding every position's cap through the sweep about 5.5 times it
    at 256."""
    monkeypatch.setattr(movingplane, "_available_cores", lambda: 1)
    planes = critical_planes(DISK, nu)
    system = power_coupled_system(1.0, 1.0)
    # built before tracing: the sweep reads them, and they outlive it
    coupled.stack, coupled.node_rows, coupled.grid.domain.interior_point
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        lambda_sweep(coupled, nu, planes, n_lambdas=n_lambdas, system=system)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * coupled.stack.nbytes


def test_sweeps_packed_at_the_grid_and_at_the_bound_agree(coupled, monkeypatch):
    """A sweep packed into batches of at most the grid's node count and one
    packed at 1.5 times it give the same report as JSON, with one worker
    and with two, along an axis and the diagonal and at 16, 64 and 256
    positions; the larger bound runs fewer batches."""
    batches = _recorded_batches(monkeypatch)
    system = power_coupled_system(1.0, 1.0)
    s = 1.0 / np.sqrt(2.0)
    for nu, n in (((1.0, 0.0), 16), ((s, s), 16), ((1.0, 0.0), 64), ((s, s), 256)):
        planes = critical_planes(DISK, nu)
        for cores in (1, 2):
            monkeypatch.setattr(movingplane, "_available_cores", lambda: cores)
            reports, counts = [], []
            for bound in (1.0, 1.5):
                monkeypatch.setattr(movingplane, "_BATCH_BOUND", bound)
                batches.clear()
                reports.append(json.dumps(lambda_sweep(coupled, nu, planes, n_lambdas=n,
                                                       system=system).to_json()))
                counts.append(len(batches))
            assert reports[0] == reports[1]
            assert counts[0] > counts[1] >= 2


def test_bench_disk_sweeps_run_in_three_batches(monkeypatch):
    """On the h = 1/64 disk, 16 positions along (1, 0), (0, 1) and the
    diagonal pack into 3 batches, each of at most 1.5 times the grid's node
    count; at the grid's node count they took 5, 5 and 4."""
    sol = _kernel_solution(DISK, 1.0 / 64.0)
    g = sol.grid
    assert g.n_nodes == 12849
    s = 1.0 / np.sqrt(2.0)
    for nu, before in (((1.0, 0.0), 5), ((0.0, 1.0), 5), ((s, s), 4)):
        lams = _positions(critical_planes(DISK, nu), 16)
        sizes = [int(np.count_nonzero(g.node_xy @ np.array(nu) < lam + g.h * 1e-9))
                 for lam in lams]
        assert len(movingplane._batches(sizes, g.n_nodes)) == before
        batches = movingplane._batches(sizes, movingplane._BATCH_BOUND * g.n_nodes)
        assert len(batches) == 3
        assert max(sum(sizes[a:b]) for a, b in batches) <= 1.5 * g.n_nodes
    recorded = _recorded_batches(monkeypatch)
    for nu in ((1.0, 0.0), (s, s)):
        recorded.clear()
        lambda_sweep(sol, nu, critical_planes(DISK, nu), system=power_coupled_system(1.0, 1.0))
        assert len(recorded) == 3


@pytest.mark.parametrize("n_lambdas", [2.5, 16.0, "16", None, True])
def test_lambda_sweep_refuses_a_non_integer_count(coupled16, n_lambdas):
    """A count of plane positions that is not an integer raises ValueError,
    where 2.5 ran three positions and reported n_lambdas 2; an integer of
    numpy's is taken."""
    planes = critical_planes(DISK, (1.0, 0.0))
    with pytest.raises(ValueError, match="n_lambdas must be an integer"):
        lambda_sweep(coupled16, (1.0, 0.0), planes, n_lambdas=n_lambdas,
                     system=power_coupled_system(1.0, 1.0))
    rep = lambda_sweep(coupled16, (1.0, 0.0), planes, n_lambdas=np.int64(3),
                       system=power_coupled_system(1.0, 1.0))
    assert rep.n_lambdas == 3 and len(rep.entries) == 3


def _cycle_system(m):
    """f_i = -z_(i+1) + 1 around the cycle of m components, split as (0, f_i)."""
    comps = tuple(parse(f"(0 - z{i % m + 1}) + 1") for i in range(1, m + 1))
    return RhsSystem(components=comps, n=2, splits=tuple((parse("0"), f) for f in comps),
                     lipschitz_z=(0.0,) * m, lipschitz_p=(0.0,) * m)


@pytest.mark.parametrize("m", [1, 3])
def test_a_system_of_another_component_count_is_refused(one_two, m):
    """On the (1, 2) pair's solution a system of 1 or 3 components raises
    ValueError naming both counts, in the sweep and in linearize, where a
    3-component system gave a report and a 1-component one an index
    error."""
    planes = critical_planes(DISK, (1.0, 0.0))
    frame = build_frame(one_two, (1.0, 0.0), 0.5 * (planes.lam0 + planes.Lam0))
    message = f"the system has {m} components, the solution 2"
    with pytest.raises(ValueError, match=message):
        lambda_sweep(one_two, (1.0, 0.0), planes, system=_cycle_system(m))
    with pytest.raises(ValueError, match=message):
        linearize(frame, _cycle_system(m))
    assert linearize(frame, _cycle_system(2)).margin.shape == (2, len(frame.node_idx))


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_build_frame_refuses_a_non_finite_position(coupled16, lam):
    """A NaN or infinite plane position raises ValueError, with no numpy
    warning: NaN gave an empty frame, and inf warned of an invalid value
    in a product."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="plane position must be finite"):
            build_frame(coupled16, (1.0, 0.0), lam)


class _Raised(Exception):
    """An error that only a patched certificate raises."""


def test_sweep_errors_and_errstate_reach_the_workers(coupled, monkeypatch):
    """An expression error on a cap node reaches the caller with its message,
    and the caller's np.errstate holds in the worker threads.  So does an
    error raised in the monotonicity, symmetry or boundary certificate,
    which run on the pool beside the batches; errors come in serial order,
    a batch's first, then monotonicity, symmetry and the boundary checks."""
    system = RhsSystem(components=("(0 - z2) + 1", "(0 - z1) + 1"), n=2,
                       splits=((0, "log(x1 + 0.5) + 1"), (0, "(0 - z1) + 1")))
    with pytest.raises(ExpressionDomainError) as direct:
        system.splits[0][1](coupled.grid.node_xy, np.zeros((len(coupled.grid.node_xy), 2)),
                            np.zeros((len(coupled.grid.node_xy), 2)))
    planes = critical_planes(DISK, [1.0, 0.0])
    with pytest.raises(ExpressionDomainError) as swept:
        lambda_sweep(coupled, [1.0, 0.0], planes, system=system)
    assert str(swept.value) == str(direct.value)
    assert "log of a non-positive argument" in str(swept.value)

    seen = []
    original = movingplane._quotients

    def recorded(system, xy, *args):
        seen.append((np.geterr(), threading.current_thread() is threading.main_thread(),
                     len(xy)))
        return original(system, xy, *args)

    monkeypatch.setattr(movingplane, "_quotients", recorded)
    with np.errstate(over="raise", under="warn"):
        expected = np.geterr()
        rep = lambda_sweep(coupled, [1.0, 0.0], planes, n_lambdas=64,
                           system=power_coupled_system(1.0, 1.0))
    assert len(seen) > 1
    assert all(err == expected and not on_main for err, on_main, _ in seen)
    # the sources are evaluated on the audited caps only, as one position at a
    # time evaluates them, though the sweep has caps with no node to audit
    assert any(e["n_nodes"] and "ei_violations" not in e for e in rep.entries)
    assert sum(n for _, _, n in seen) == sum(e["n_nodes"] for e in rep.entries
                                            if "ei_violations" in e)

    # the certificates beside the batches: raised as they were, each in the
    # caller's errstate, a batch's error first; every sweep reads a fresh
    # solution, whose boundary report no earlier sweep has kept
    def fresh():
        return GridSolution(grid=coupled.grid, fields=coupled.fields, cs=coupled.cs)

    certificates = {name: getattr(movingplane, name)
                    for name in ("certify_monotonicity", "certify_symmetry",
                                 "boundary_checks")}
    calls, raised = [], []

    def failing(name):
        def certificate(*args):
            calls.append((np.geterr(), threading.current_thread() is threading.main_thread()))
            certificates[name](*args)
            raised.append(_Raised(name))
            raise raised[-1]
        return certificate

    for name in certificates:
        monkeypatch.setattr(movingplane, name, failing(name))
        calls.clear()
        with np.errstate(over="raise", under="warn"):
            with pytest.raises(_Raised, match=name) as err:
                lambda_sweep(fresh(), [1.0, 0.0], planes, n_lambdas=8,
                             system=power_coupled_system(1.0, 1.0))
        assert err.value is raised[-1]
        assert calls == [(expected, False)]
        with pytest.raises(ExpressionDomainError):
            lambda_sweep(fresh(), [1.0, 0.0], planes, system=system)
        monkeypatch.setattr(movingplane, name, certificates[name])
    # several fail: the error a serial sweep would raise first
    for name in certificates:
        monkeypatch.setattr(movingplane, name, failing(name))
    with pytest.raises(ExpressionDomainError):
        lambda_sweep(fresh(), [1.0, 0.0], planes, system=system)
    for name in certificates:
        with pytest.raises(_Raised, match=name):
            lambda_sweep(fresh(), [1.0, 0.0], planes, n_lambdas=8,
                         system=power_coupled_system(1.0, 1.0))
        monkeypatch.setattr(movingplane, name, certificates[name])


def test_stack_overflow_stops_the_sweep_before_its_workers(coupled, monkeypatch):
    """Fields at the (2.01, 2) pair's 1e175 amplitude overflow the stack: the
    sweep raises the solve's divergence and submits no task."""
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was asked for")

    monkeypatch.setattr(movingplane, "_pool", no_pool)
    with pytest.raises(SolverDivergence, match="overflow a float64"):
        lambda_sweep(_scaled(coupled, 1e175), [1.0, 0.0], critical_planes(DISK, [1.0, 0.0]),
                     system=power_coupled_system(2.01, 2.0))


def test_sweeps_of_one_solution_share_its_stack(coupled16, monkeypatch):
    """Four sweeps of one solution extend and difference each component once
    in all."""
    calls = []
    extended_array = GridSolution.extended_array

    def counted(sol, i):
        calls.append(i)
        return extended_array(sol, i)

    monkeypatch.setattr(GridSolution, "extended_array", counted)
    sol = GridSolution(grid=coupled16.grid, fields=coupled16.fields, cs=coupled16.cs)
    system = power_coupled_system(1.0, 1.0)
    s = 1.0 / np.sqrt(2.0)
    for nu in [(1.0, 0.0), (0.0, 1.0), (s, s), (np.cos(0.4), np.sin(0.4))]:
        lambda_sweep(sol, nu, critical_planes(DISK, nu), n_lambdas=2, system=system)
    assert sorted(calls) == [0, 1]

def test_sweeps_of_one_solution_audit_its_boundary_and_rings_once(coupled16, monkeypatch):
    """Four sweeps of one solution run the boundary checks and read the disk
    rings once in all, and each report is the one a fresh solution of the
    same fields gives; every report holds its own copy of them."""
    calls = []
    for name in ("boundary_checks", "_ring_variations"):
        def counted(solution, name=name, original=getattr(movingplane, name)):
            calls.append(name)
            return original(solution)
        monkeypatch.setattr(movingplane, name, counted)

    def fresh():
        return GridSolution(grid=coupled16.grid, fields=coupled16.fields, cs=coupled16.cs)

    sol, system = fresh(), power_coupled_system(1.0, 1.0)
    s = 1.0 / np.sqrt(2.0)
    nus = [(1.0, 0.0), (0.0, 1.0), (s, s), (np.cos(0.4), np.sin(0.4))]
    reports = [lambda_sweep(sol, nu, critical_planes(DISK, nu), system=system) for nu in nus]
    assert sorted(calls) == ["_ring_variations", "boundary_checks"]
    texts = [json.dumps(lambda_sweep(fresh(), nu, critical_planes(DISK, nu),
                                     system=system).to_json()) for nu in nus]
    assert [json.dumps(rep.to_json()) for rep in reports] == texts
    reports[0].boundary["hopf"]["components"][0]["passed"] = None
    reports[0].symmetry["angular_variation"][0] = None
    assert json.dumps(lambda_sweep(sol, nus[0], critical_planes(DISK, nus[0]),
                                   system=system).to_json()) == texts[0]


def test_concurrent_sweeps_of_one_solution_share_its_figures(coupled16):
    """Eight callers sweeping one new solution at once, on more workers than
    cores and switching threads as often as the interpreter allows, each
    get the report that one caller gets alone; callers that race on the
    solution's first boundary report and rings store equal values."""
    system = power_coupled_system(1.0, 1.0)
    s = 1.0 / np.sqrt(2.0)
    nus = [(1.0, 0.0), (0.0, 1.0), (s, s), (np.cos(0.4), np.sin(0.4))] * 2

    def fresh():
        return GridSolution(grid=coupled16.grid, fields=coupled16.fields, cs=coupled16.cs)

    expected = [json.dumps(lambda_sweep(fresh(), nu, critical_planes(DISK, nu),
                                        system=system).to_json()) for nu in nus]
    sol = fresh()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(nus)) as callers:
            jobs = [callers.submit(lambda_sweep, sol, nu, critical_planes(DISK, nu),
                                   system=system) for nu in nus]
            got = [json.dumps(job.result(timeout=120).to_json()) for job in jobs]
    finally:
        sys.setswitchinterval(interval)
    assert got == expected


def test_per_solution_figures_belong_to_the_solution_object(coupled16):
    """The figures a sweep keeps per solution are keyed by the solution object,
    not by its address or its arrays': solutions of scaled fields, each made
    after the last is released, get their own boundary report and ring
    variations, and the kept figures do not keep a solution alive."""
    nu = (1.0, 0.0)
    planes = critical_planes(DISK, nu)
    system = power_coupled_system(1.0, 1.0)
    seen = set()
    for t in (1.0, 0.5, 2.0, 1e-200):
        sol = _scaled(coupled16, t)
        rep = lambda_sweep(sol, nu, planes, n_lambdas=4, system=system)
        assert json.dumps(rep.boundary) == json.dumps(boundary_checks(sol))
        assert rep.symmetry["angular_variation"] == movingplane._ring_variations(sol)
        seen.add(json.dumps(rep.boundary))
        released = weakref.ref(sol)
        del sol, rep
        assert released() is None
    assert len(seen) == 4


def _sweep_in_child(sol, nu, expected):
    rep = lambda_sweep(sol, nu, critical_planes(DISK, nu), system=power_coupled_system(1.0, 1.0))
    assert json.dumps(rep.to_json()) == expected


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork on this platform")
def test_a_forked_child_sweeps_on_a_pool_of_its_own(coupled16):
    """The long-lived pool's threads do not survive a fork: a child forked
    after its parent swept starts its own workers, and its sweep gives the
    parent's report rather than waiting on workers it does not have."""
    nu = (1.0, 0.0)
    sol = GridSolution(grid=coupled16.grid, fields=coupled16.fields, cs=coupled16.cs)
    expected = json.dumps(lambda_sweep(sol, nu, critical_planes(DISK, nu),
                                       system=power_coupled_system(1.0, 1.0)).to_json())
    child = multiprocessing.get_context("fork").Process(
        target=_sweep_in_child, args=(sol, nu, expected))
    child.start()
    child.join(60)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0


def _kernel_solution(domain, h=1.0 / 16.0):
    """Two smooth fields on a grid of step h: enough to fill every stack row."""
    grid = StencilGrid(domain, h, 2)
    x, y = grid.node_xy.T
    fields = [x * x + 2.0 * y * y - 3.0, np.exp(0.5 * x) + y * y - 4.0]
    return GridSolution(grid=grid, fields=fields, cs=(0.0, 0.0))


KERNEL_DOMAINS = pytest.mark.parametrize("domain", [
    DISK,
    Ellipse(center=(0.3, -0.2), semi_axes=(1.5, 0.6)),
    Tube(cross_section=Ball(center=(0.0,), radius=1.0), half_height=1.5),
    SmoothLevelSet(phi=lambda x: np.sum(np.asarray(x, float) ** 2, axis=-1) - 1.0,
                   grad_phi=lambda x: 2.0 * np.asarray(x, float),
                   bbox=((-1.0, 1.0), (-1.0, 1.0))),
], ids=["ball", "ellipse", "tube", "levelset"])


def _rim(g, pts):
    """Which of the points ``pts`` lie in a grid cell with an exterior corner,
    the cell :func:`_bilinear` reads them in."""
    x, y = np.asarray(pts, dtype=float).reshape(-1, 2).T
    i = np.clip(np.searchsorted(g.xs, x, side="right") - 1, 0, g.nx - 2)
    j = np.clip(np.searchsorted(g.ys, y, side="right") - 1, 0, g.ny - 2)
    ins = g.inside
    return ~(ins[i, j] & ins[i + 1, j] & ins[i, j + 1] & ins[i + 1, j + 1])


@KERNEL_DOMAINS
def test_stack_is_finite(domain):
    """The stack holds no NaN or infinity: the operator rows hold 0 off the
    interior nodes, and the mask row is 0 or 1."""
    sol = _kernel_solution(domain)
    stack = sol.stack
    assert np.isfinite(stack).all()
    off = np.ones(stack.shape[1], dtype=bool)
    off[sol.node_rows] = False
    assert off.any() and np.all(stack[sol.m + 1:2 * sol.m + 1, off] == 0.0)
    assert set(np.unique(stack[sol.m])) == {0.0, 1.0}


@KERNEL_DOMAINS
def test_bilinear_kernel_matches_scipy(domain):
    """Every stack row, the operator rows included, equals scipy's linear 2-D
    RegularGridInterpolator of that row to the bit; a point off the grid, a
    NaN or infinite coordinate included, reads NaN with no warning.  No
    point of a cell with an exterior corner reads a mask above 1 - 1e-12, so
    none is ``deriv_ok`` as a reflection, and a row that holds NaN spreads
    it through zero weights, as scipy's interpolant does."""
    from scipy.interpolate import RegularGridInterpolator

    sol = _kernel_solution(domain)
    g, stack = sol.grid, sol.stack
    # rows m + 1..2m are the operator rows
    op_rows = np.arange(sol.m + 1, 2 * sol.m + 1)
    assert stack.shape == (7 * sol.m + 1, g.nx * g.ny)
    lo, hi = np.array([g.xs[0], g.ys[0]]), np.array([g.xs[-1], g.ys[-1]])
    off_grid = np.random.default_rng(7).uniform(lo, hi, size=(400, 2))
    line = g.xs[int(np.searchsorted(g.xs, 0.5 * (lo[0] + hi[0])))]
    aligned = reflect_point(g.node_xy, (1.0, 0.0), line)
    aligned = aligned[domain.contains(aligned)]
    # non-finite coordinates too: under the error policy for RuntimeWarning,
    # an infinite weight times a zero one would fail the read
    outside = np.array([[lo[0] - 1e-9, 0.0], [hi[0] + 0.5 * g.h, 0.0],
                        [lo[0], hi[1] * 1.01 + 1e-3], [np.nan, 0.0], [0.0, np.nan],
                        [np.inf, 0.0], [-np.inf, 0.0], [0.0, np.inf], [0.0, -np.inf],
                        [np.inf, -np.inf], [1e308, 0.0]])
    # interior nodes with an exterior node among their zero-weight corners
    i, j = g.node_ij.T
    rim = ~(g.inside[i + 1, j] & g.inside[i, j + 1] & g.inside[i + 1, j + 1])
    assert rim.any()
    rim_pts = np.stack([g.xs[i[rim]], g.ys[j[rim]]], axis=-1)

    def rgi(rows, pts):
        return np.vstack([RegularGridInterpolator((g.xs, g.ys), row.reshape(g.nx, g.ny),
                                                  bounds_error=False, fill_value=np.nan)(pts)
                          for row in rows])

    for pts in (off_grid, aligned, outside, rim_pts):
        read = _bilinear(g, pts)
        got = read(stack)
        assert got.shape == (len(stack), len(pts))
        np.testing.assert_array_equal(got, rgi(stack, pts))
        # one reader serves every block of rows, each the rows of the whole
        for rows in (slice(0, sol.m), slice(sol.m, 4 * sol.m + 1), slice(4 * sol.m + 1, None)):
            np.testing.assert_array_equal(_bits(read(stack[rows])), _bits(got[rows]))
    assert np.all(np.isnan(_bilinear(g, outside)(stack)))
    assert np.all(np.isfinite(_bilinear(g, rim_pts)(stack)))
    # the mask row alone marks the cells an audit trusts
    assert _rim(g, rim_pts).all()
    for pts in (off_grid, aligned, rim_pts):
        mask = _bilinear(g, pts)(stack)[sol.m]
        assert not np.any((mask > 1.0 - 1e-12) & _rim(g, pts))
    # a NaN spreads from every corner, zero weights included
    nan_rows = np.where(g.inside.ravel(), stack[op_rows], np.nan)
    spread = _bilinear(g, rim_pts)(nan_rows)
    assert np.all(np.isnan(spread))
    np.testing.assert_array_equal(spread, rgi(nan_rows, rim_pts))


def _bits(a):
    """The float64 entries of ``a`` as integers, so that -0.0 and +0.0 differ."""
    return np.ascontiguousarray(a).view(np.uint64)


@KERNEL_DOMAINS
def test_node_reads_gather_the_bilinear_sum(domain, monkeypatch):
    """At nodes that start a cell one gather of the finite stack plus +0.0
    equals the four-corner sum to the bit, and scipy's interpolant: +0.0
    for a -0.0 value.  The cap reader takes that gather, and calls no
    :func:`_bilinear`, exactly when every reflection of a batch is such a
    node: a batch with one position off the grid lines, or an oblique
    direction, is the four-corner sum."""
    from scipy.interpolate import RegularGridInterpolator

    grid = StencilGrid(domain, 1.0 / 16.0, 2)
    x, y = grid.node_xy.T
    u = x * x + 2.0 * y * y - 3.0
    u[::5] = -0.0
    # a boundary constant of -0.0 puts -0.0 on the exterior E rows too
    sol = GridSolution(grid=grid, fields=[u, np.exp(0.5 * x) + y * y - 4.0], cs=(0.0, -0.0))
    g, stack = sol.grid, sol.stack
    # every node that starts a cell, exterior nodes included
    X, Y = np.meshgrid(g.xs[:-1], g.ys[:-1], indexing="ij")
    nodes = np.stack([X.ravel(), Y.ravel()], axis=-1)
    cols = (np.arange(g.nx - 1)[:, None] * g.ny + np.arange(g.ny - 1)).ravel()
    at_nodes = np.take(stack, cols, axis=1)
    read = at_nodes + 0.0
    np.testing.assert_array_equal(_bits(read), _bits(_bilinear(g, nodes)(stack)))
    np.testing.assert_array_equal(read, np.vstack([
        RegularGridInterpolator((g.xs, g.ys), row.reshape(g.nx, g.ny), bounds_error=False,
                                fill_value=np.nan)(nodes) for row in stack]))
    assert np.any((at_nodes == 0.0) & np.signbit(at_nodes))
    assert not np.any((read == 0.0) & np.signbit(read))
    # a spy on the bilinear kernel shows which read the cap reader takes
    kernel_reads = []

    def spy(grid, pts):
        kernel_reads.append(len(pts))
        return _bilinear(grid, pts)

    monkeypatch.setattr(movingplane, "_bilinear", spy)
    every = slice(None)
    centre = g.xs[int(np.searchsorted(g.xs, 0.5 * (g.xs[0] + g.xs[-1])))]
    on_lines = [centre - 2 * g.h, centre]
    between = [centre - 0.25 * g.h]
    _, refl, _, _, _, at_refl = movingplane._read_caps(sol, np.array([1.0, 0.0]), on_lines)
    nodal = at_refl(every)
    assert nodal.size and kernel_reads == []
    np.testing.assert_array_equal(_bits(nodal), _bits(_bilinear(g, refl)(stack)))
    for nu, lams in (((1.0, 0.0), on_lines + between), ((0.6, 0.8), [0.0, 0.25])):
        kernel_reads.clear()
        _, refl, _, _, _, at_refl = movingplane._read_caps(sol, np.array(nu), lams)
        got = at_refl(every)
        assert len(refl) and kernel_reads == [len(refl)]
        np.testing.assert_array_equal(_bits(got), _bits(_bilinear(g, refl)(stack)))


def _bench_level_set(c=0.3):
    """The level-set domain of the bench's level-set workload."""
    return SmoothLevelSet(
        phi=lambda x: x[..., 0] ** 2 + x[..., 1] ** 2 + c * np.exp(x[..., 0]) - 1.0 - c,
        grad_phi=lambda x: np.stack([2.0 * x[..., 0] + c * np.exp(x[..., 0]), 2.0 * x[..., 1]],
                                    axis=-1),
        bbox=((-1.2, 1.0), (-1.1, 1.1)))


def _read_all(solution, nu, lams):
    """What :func:`_read_caps` returns, with every row of the stack read at
    the nodes and at their reflections."""
    idx, refl, bounds, n_exited, at_node, at_refl = movingplane._read_caps(solution, nu, lams)
    return idx, refl, at_node(slice(None)), at_refl(slice(None)), bounds, n_exited


def _general_read(monkeypatch, solution, nu, lams):
    """What :func:`_read_all` returns with the lattice reader switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(movingplane, "_mirror_columns", lambda *args: None)
        return _read_all(solution, nu, lams)


LATTICE_CASES = [(name, domain, h) for name, domain in (
    ("disk", DISK), ("square", SQUARE_TUBE), ("levelset", _bench_level_set()),
    ("unit-levelset", SmoothLevelSet(phi=lambda x: np.sum(np.asarray(x, float) ** 2, axis=-1) - 1.0,
                                     grad_phi=lambda x: 2.0 * np.asarray(x, float),
                                     bbox=((-1.0, 1.0), (-1.0, 1.0)))))
                 for h in (1.0 / 16.0, 1.0 / 32.0, 0.05)] + [("ellipse", ELLIPSE, 1.0 / 32.0)]


@pytest.mark.parametrize("name, domain, h", LATTICE_CASES,
                         ids=[f"{name}-{h:g}" for name, _, h in LATTICE_CASES])
def test_lattice_reader_matches_the_general_path(name, domain, h, monkeypatch):
    """Along (+-1, 0) and (0, +-1), at 16 and 64 positions from -1 to 0 and
    for the critical planes where the domain has them, the cap reader
    gives the kept nodes, bounds, exits, reflections and rows of the
    general path, which reflects every cap node and interpolates: the
    same bits, reflections whose cell has an exterior corner included, and
    none of those is ``deriv_ok``.  At
    h = 1/16 and 1/32 the disk, the square and the unit level set take
    the lattice reader along every such direction, and the (1, 0.6)
    ellipse along (+-1, 0) only, as its grid is not symmetric about
    y = 0.  At h = 0.05, and on the bench level set, whose grid starts
    off the binary fractions, no batch maps."""
    sol = _kernel_solution(domain, h)
    taken, rim_refl = set(), False
    chosen = movingplane._mirror_columns

    def spy(*args):
        cols = chosen(*args)
        taken.add((tuple(args[1]), cols is not None))
        return cols

    monkeypatch.setattr(movingplane, "_mirror_columns", spy)
    for nu in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)):
        nu = np.array(nu)
        positions = [_positions(SimpleNamespace(lam0=-1.0, Lam0=0.0), n) for n in (16, 64)]
        try:
            planes = critical_planes(domain, nu)
        except Exception:  # a tube has no planes along its axis
            pass
        else:
            positions += [_positions(planes, n) for n in (16, 64)]
        for lams in positions:
            got = _read_all(sol, nu, lams)
            expected = _general_read(monkeypatch, sol, nu, lams)
            idx, refl, at_node, at_refl, bounds, n_exited = got
            np.testing.assert_array_equal(idx, expected[0])
            np.testing.assert_array_equal(refl, expected[1])
            np.testing.assert_array_equal(_bits(at_node), _bits(expected[2]))
            np.testing.assert_array_equal(_bits(at_refl), _bits(expected[3]))
            np.testing.assert_array_equal(bounds, expected[4])
            assert n_exited == expected[5]
            rim = _rim(sol.grid, refl)
            assert not np.any(movingplane._difference(at_node, at_refl, sol.m)[1] & rim)
            rim_refl |= bool(rim.any())
    assert rim_refl
    along_x, along_y = {(1.0, 0.0), (-1.0, 0.0)}, {(0.0, 1.0), (0.0, -1.0)}
    expected = (set() if h == 0.05 or name == "levelset" else
                along_x if name == "ellipse" else along_x | along_y)
    assert {nu for nu, ok in taken if ok} == expected


def test_ellipse_sweep_along_an_axis_reads_the_lattice(monkeypatch):
    """Along (1, 0) the (1, 0.6) ellipse's planes are closed forms, Lam0 = 0
    a grid line at h = 1/32, so every read of its sweep pairs each cap node
    with its mirror node by index, the batch at Lam0 and the symmetry
    certificate's included; the certificate passes."""
    system = power_coupled_system(1.0, 1.0)
    sol = solve_system_fd(ELLIPSE, system, (0.0, 0.0), P32)
    taken = []
    chosen = movingplane._mirror_columns

    def spy(*args):
        cols = chosen(*args)
        taken.append(cols is not None)
        return cols

    monkeypatch.setattr(movingplane, "_mirror_columns", spy)
    planes = critical_planes(ELLIPSE, (1.0, 0.0))
    assert (planes.lam0, planes.Lam0, planes.Lam2) == (-1.0, 0.0, 0.0)
    rep = lambda_sweep(sol, (1.0, 0.0), planes, system=system)
    assert rep.passed and rep.total_ei_violations == 0
    # the batches and the symmetry certificate's read
    assert len(taken) >= 2 and all(taken)


def test_axis_sweep_reads_caps_without_per_node_geometry(monkeypatch):
    """On the h = 1/64 disk along (1, 0) the cap reader reflects only the
    grid's columns, once per position, and never tests a point against the
    domain; along an oblique direction it reflects and tests every cap
    node.  On a level set along (1, 0) it asks the domain at the mirror
    nodes, once per cap node, and reflects no cap node."""
    sol = _kernel_solution(DISK, 1.0 / 64.0)
    g = sol.grid
    calls = {"reflect": [], "contains": []}
    reflect, contains = movingplane.reflect_point, Ball.contains

    def reflect_spy(x, nu, lam):
        calls["reflect"].append(np.shape(x)[:-1] + np.shape(lam))
        return reflect(x, nu, lam)

    def contains_spy(self, x):
        calls["contains"].append(np.shape(x)[:-1])
        return contains(self, x)

    monkeypatch.setattr(movingplane, "reflect_point", reflect_spy)
    monkeypatch.setattr(Ball, "contains", contains_spy)
    for nu in ((1.0, 0.0), (0.6, 0.8)):
        nu = np.array(nu)
        lams = _positions(critical_planes(DISK, nu), 16)
        calls["reflect"].clear(), calls["contains"].clear()
        idx = movingplane._read_caps(sol, nu, lams)[0]
        frame = build_frame(sol, nu, float(lams[-1]))
        assert len(idx) > 0 and not frame.empty
        if nu[1] == 0.0:
            assert calls == {"reflect": [(g.nx, 16, 1), (g.nx, 1, 1)], "contains": []}
        else:
            n_caps = sum(int(np.count_nonzero(g.node_xy @ nu < lam + g.h * 1e-9))
                         for lam in lams)
            assert calls["reflect"] == [(n_caps, n_caps), (len(frame.node_idx) + frame.n_exited,) * 2]
            assert calls["contains"] == [(n_caps,), (len(frame.node_idx) + frame.n_exited,)]
    # a level set runs user code, so its test is asked at the mirror nodes
    level = SmoothLevelSet(phi=lambda x: np.sum(np.asarray(x, float) ** 2, axis=-1) - 1.0,
                           grad_phi=lambda x: 2.0 * np.asarray(x, float),
                           bbox=((-1.0, 1.0), (-1.0, 1.0)))
    sol = _kernel_solution(level, 1.0 / 64.0)
    g, nu = sol.grid, np.array([1.0, 0.0])
    monkeypatch.setattr(SmoothLevelSet, "contains", contains_spy)
    lams = _positions(critical_planes(DISK, nu), 16)
    calls["reflect"].clear(), calls["contains"].clear()
    movingplane._read_caps(sol, nu, lams)
    n_caps = sum(int(np.count_nonzero(g.node_xy @ nu < lam + g.h * 1e-9)) for lam in lams)
    assert calls == {"reflect": [(g.nx, 16, 1)], "contains": [(n_caps,)]}


def _quadrature_mean_value_matrix(H_lam, H):
    """A = integral_0^1 adj((1 - t) H_lam + t H) dt accumulated over the
    4-node Gauss-Legendre rule, one entry array at a time."""
    t_nodes, t_weights = np.polynomial.legendre.leggauss(4)
    t_nodes, t_weights = 0.5 * (t_nodes + 1.0), 0.5 * t_weights
    a00 = a01 = a10 = a11 = 0.0
    for tk, wk in zip(t_nodes, t_weights):
        m00, m01, m10, m11 = ((1.0 - tk) * H_lam[..., r, s] + tk * H[..., r, s]
                              for r, s in ((0, 0), (0, 1), (1, 0), (1, 1)))
        a00, a01 = a00 + wk * m11, a01 + wk * -m01
        a10, a11 = a10 + wk * -m10, a11 + wk * m00
    return np.stack([np.stack([a00, a01], -1), np.stack([a10, a11], -1)], -2)


@pytest.mark.parametrize("nu", [(1.0, 0.0), (np.cos(0.4), np.sin(0.4))], ids=["axis", "oblique"])
def test_linearize_matches_stacked_mean_value_matrix(coupled, nu):
    """linearize flags the nodes where the mean-value integrand fails to be
    positive definite at one of 33 points of [0, 1], both ends included;
    and adj((H_lam + H) / 2), the mean-value matrix in closed form, is
    within 4 ulps of the node's Hessian scale of the accumulated
    quadrature at every node, flagged nodes included, as the integrand is
    linear in t."""
    system = power_coupled_system(1.0, 1.0)
    planes = critical_planes(DISK, nu)
    lam = 0.5 * (planes.lam0 + planes.Lam0)
    for sol in (coupled, _perturbed(coupled)):
        frame = build_frame(sol, nu, lam)
        lin = linearize(frame, system)
        H_lam, H = frame_hessians(frame)
        for i in range(frame.m):
            Ha, Hb = H_lam[i], H[i]
            bad = np.zeros(len(frame.node_idx), dtype=bool)
            for tk in np.linspace(0.0, 1.0, 33):
                Mt = (1.0 - tk) * Ha + tk * Hb
                det = Mt[:, 0, 0] * Mt[:, 1, 1] - Mt[:, 0, 1] * Mt[:, 1, 0]
                bad |= ~((det > 0) & (np.trace(Mt, axis1=-2, axis2=-1) > 0))
            bad &= frame.deriv_ok
            assert lin.n_flagged[i] == int(bad.sum())
        scale = np.maximum(np.max(np.abs(H), axis=(-2, -1)), np.max(np.abs(H_lam), axis=(-2, -1)))
        A = mean_value_matrix(H_lam, H)
        assert np.all(np.max(np.abs(A - _quadrature_mean_value_matrix(H_lam, H)), axis=(-2, -1))
                      <= 4 * np.spacing(scale))
    assert sum(lin.n_flagged) > 0


def _reference_linearization(frame, system):
    """Margins, tolerances, d and the flag counts by the entry-wise formulas
    on the frame's rows.  The margin is the operator difference det_op_lam
    - det_op, plus h_p^i |grad U^i| (B^i . grad U^i, as B^i is grad U^i
    scaled to length h_p^i), plus c^i U^i, minus d_ij U^j added up over j,
    every term added whatever its constant; grad u_lam = Q p is p - 2 (p .
    nu) nu for p = grad u(x_lam), entry by entry; d_ij is one call per (i,
    j); a node is flagged where H_lam or H is not positive definite.  The
    determinant and positivity of H_lam = Q D^2 u(x_lam) Q are read off the
    interpolated D^2 u(x_lam), as Q changes neither det nor trace."""
    m, K = frame.m, len(frame.node_idx)
    at_node, at_refl, U = frame.at_node, frame.at_refl, frame.U
    nu = frame.nu
    u, u_lam = at_node[:m], at_refl[:m]
    grad_u = np.stack([at_node[2 * m + 1:3 * m + 1], at_node[3 * m + 1:4 * m + 1]], axis=-1)
    p = np.stack([at_refl[2 * m + 1:3 * m + 1], at_refl[3 * m + 1:4 * m + 1]], axis=-1)
    p_nu = p[..., 0] * nu[0] + p[..., 1] * nu[1]
    grad_u_lam = np.stack([p[..., k] - 2.0 * p_nu * nu[k] for k in range(2)], axis=-1)
    H_refl, H = stack_hessians(at_refl, m), stack_hessians(at_node, m)
    margin, tolerance, d = np.zeros((m, K)), np.zeros((m, K)), np.zeros((m, m, K))
    flagged = []
    for i in range(m):
        dets = [M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0] for M in (H[i], H_refl[i])]
        bad = np.zeros(K, dtype=bool)
        for M, det in zip((H[i], H_refl[i]), dets):
            bad |= ~((det > 0) & (M[:, 0, 0] + M[:, 1, 1] > 0))
        flagged.append(int(np.sum(bad & frame.deriv_ok)))
        tolerance[i] = (10.0 * frame.grid.h ** 2) * np.maximum(np.abs(dets[0]), np.abs(dets[1]))
        grad_U_norm = np.linalg.norm(grad_u_lam[i] - grad_u[i], axis=-1)
        c = float(system.lipschitz_z[i] or 0.0)
        margin[i] = at_refl[m + 1 + i] - at_node[m + 1 + i]
        margin[i] += float(system.lipschitz_p[i]) * grad_U_norm
        margin[i] += c * U[i]
        coupling = 0.0
        for j in range(m):
            z = np.stack([u_lam[k] if k < j else u[k] for k in range(m)], axis=-1)
            d[i, j] = rhs_d_ij(system, i + 1, j + 1, frame.xy, z, grad_u_lam[i], U[j])
            coupling = coupling + d[i, j] * U[j]
        margin[i] -= coupling
    return margin, tolerance, d, tuple(flagged)


@pytest.mark.parametrize("nu, control", [
    ((1.0, 0.0), False), ((np.cos(0.4), np.sin(0.4)), False), ((1.0, 0.0), True),
], ids=["axis", "oblique", "control"])
def test_linearize_matches_the_entrywise_reference(coupled, nu, control):
    """The margins, tolerances, d and the flag counts of linearize equal the
    entry-wise reference to the bit, at six plane positions, for the power
    pair and for pairs that declare nonzero Lipschitz constants, one of
    them with sources that read p; the control, a perturbed solution, has
    flagged nodes."""
    sol = _perturbed(coupled) if control else coupled
    planes = critical_planes(DISK, nu)
    n_flagged = 0
    for lam in planes.lam0 + (planes.Lam0 - planes.lam0) * np.arange(1, 7) / 6:
        frame = build_frame(sol, nu, float(lam))
        for system in (power_coupled_system(1.0, 1.0), _lipschitz_system(),
                       _gradient_system()):
            lin = linearize(frame, system)
            margin, tolerance, d, flagged = _reference_linearization(frame, system)
            for got, want in ((lin.margin, margin), (lin.tolerance, tolerance), (lin.d, d)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert lin.n_flagged == flagged
        n_flagged += sum(flagged)
    assert (n_flagged > 0) == control


@pytest.fixture(scope="module")
def one_two():
    return solve_system_fd(DISK, power_coupled_system(1.0, 2.0), (0.0, 0.0), P32)


def test_reflection_keeps_the_determinant_and_trace_of_the_hessian(one_two):
    """The audit reads det and trace of H_lam = Q D^2 u(x_lam) Q off the
    interpolated D^2 u(x_lam), forming no Q H Q.  On the (1, 2) disk along
    five directions, at five plane positions each, the oracle's Q H Q has
    the determinant and trace of D^2 u(x_lam) within 32 eps of their
    scales, |uxx uyy| + uxy^2 and |uxx| + |uyy| + |uxy|, at every node with
    valid derivatives, and no audited node sees its determinant change
    sign."""
    eps = np.finfo(float).eps
    system = power_coupled_system(1.0, 2.0)
    n_audited = 0
    for theta in (0.4, np.pi / 4, 0.5, 1.3, 2.0):
        nu = (np.cos(theta), np.sin(theta))
        planes = critical_planes(DISK, nu)
        for lam in planes.lam0 + (planes.Lam0 - planes.lam0) * np.arange(1, 6) / 5:
            frame = build_frame(one_two, nu, float(lam))
            ok = frame.deriv_ok
            H_lam = frame_hessians(frame)[0][:, ok]
            D = stack_hessians(frame.at_refl, frame.m)[:, ok]
            uxx, uyy, uxy = D[..., 0, 0], D[..., 1, 1], D[..., 0, 1]
            det = uxx * uyy - uxy * uxy
            det_lam = H_lam[..., 0, 0] * H_lam[..., 1, 1] - H_lam[..., 0, 1] * H_lam[..., 1, 0]
            assert np.all(np.abs(det_lam - det) <= 32 * eps * (np.abs(uxx * uyy) + uxy * uxy))
            trace_lam = H_lam[..., 0, 0] + H_lam[..., 1, 1]
            assert np.all(np.abs(trace_lam - (uxx + uyy))
                          <= 32 * eps * (np.abs(uxx) + np.abs(uyy) + np.abs(uxy)))
            audited = linearize(frame, system).ok[ok]
            assert np.array_equal(np.sign(det_lam[:, audited]), np.sign(det[:, audited]))
            n_audited += int(np.count_nonzero(audited))
    assert n_audited > 0


def test_reflections_off_the_grid_box_are_dropped():
    """A level set whose declared box, x >= -0.7, is shorter than {phi < 0}:
    reflections that stay in the domain but leave the grid box are dropped
    from the frame without counting as exits."""
    domain = SmoothLevelSet(phi=lambda x: np.sum(np.asarray(x, float) ** 2, axis=-1) - 1.0,
                            grad_phi=lambda x: 2.0 * np.asarray(x, float),
                            bbox=((-0.7, 1.0), (-1.0, 1.0)))
    sol = _kernel_solution(domain)
    g, nu, lam = sol.grid, np.array([-1.0, 0.0]), 0.5
    cap = g.node_xy @ nu < lam + g.h * 1e-9
    refl = reflect_point(g.node_xy[cap], nu, lam)
    contained = domain.contains(refl)
    in_box = ((g.xs[0] <= refl[:, 0]) & (refl[:, 0] <= g.xs[-1])
              & (g.ys[0] <= refl[:, 1]) & (refl[:, 1] <= g.ys[-1]))
    assert (contained.sum(), (contained & ~in_box).sum()) == (150, 35)
    frame = build_frame(sol, nu, lam)
    assert len(frame.node_idx) == 115
    assert frame.n_exited == int((~contained).sum())
    np.testing.assert_array_equal(frame.reflected_xy, refl[contained & in_box])
    assert np.all(np.isfinite(frame.at_refl[:frame.m]))



def _linear_pair(mu):
    """f_i = mu (-z_j), declared as the split (0, f_i): its grid solution is
    exactly mu times the mu = 1 solution, since det is quadratic."""
    comps = tuple(parse(f"{mu!r} * -z{j}") for j in (2, 1))
    return RhsSystem(components=comps, n=2, splits=tuple((parse("0"), f) for f in comps),
                     lipschitz_z=(0.0, 0.0), lipschitz_p=(0.0, 0.0))


def _scaled(sol, t, bump=None):
    """t times the fields of ``sol``, with ``bump`` at the nodes added to u1 first."""
    u1 = sol.fields[0] + (0.0 if bump is None else bump(sol.grid.node_xy))
    return GridSolution(grid=sol.grid, fields=[t * u1, t * sol.fields[1]], cs=(0.0, 0.0))


def _verdicts(rep):
    return {"passed": rep.passed,
            "monotonicity": [c["violations"] for c in rep.monotonicity["components"]],
            "symmetry": rep.symmetry["passed"],
            "hopf": [c["passed"] for c in rep.boundary["hopf"]["components"]],
            "cap": [e["cap_nonpositive"] for e in rep.entries]}


@pytest.mark.parametrize("t", [1e-3, 1.0, 1e3])
def test_certificate_tolerances_scale_with_the_solution(coupled, t):
    """Every margin scales with the fields, so t u under mu = t reads the
    verdicts and counts of u under mu = 1; the ripple control fails at
    every t (its EI count may move, as the operator's penalty on negative
    second differences is not homogeneous)."""
    planes = critical_planes(DISK, [1.0, 0.0])

    def sweep(sol, mu):
        return lambda_sweep(sol, [1.0, 0.0], planes, n_lambdas=8, system=_linear_pair(mu))

    ref, rep = sweep(coupled, 1.0), sweep(_scaled(coupled, t), t)
    assert _verdicts(rep) == _verdicts(ref)
    assert rep.passed and rep.total_ei_violations == 0
    ripple = sweep(_scaled(coupled, t, lambda xy: 0.02 * np.sin(8.0 * np.pi * xy[:, 0])), t)
    assert not ripple.passed and ripple.total_ei_violations >= 1


@pytest.mark.parametrize("t", [1e-3, 1.0])
def test_tilt_and_bump_controls_fail_at_every_scale(coupled, t):
    """An odd tilt breaks the mirror symmetry and a bump left of the plane
    breaks monotonicity, however small the fields: no margin is floored at 1."""
    tilt = _scaled(coupled, t, lambda xy: 0.02 * xy[:, 0] * (1.0 - np.sum(xy ** 2, axis=1)))
    assert certify_symmetry(tilt, [1.0, 0.0], 0.0)["passed"] is False
    bump = _scaled(coupled, t, lambda xy: 0.05 * np.exp(
        -np.sum((xy + np.array([0.5, 0.0])) ** 2, axis=1) / 0.02))
    planes = critical_planes(DISK, [1.0, 0.0])
    assert certify_monotonicity(bump, [1.0, 0.0], planes)["passed"] is False


def test_heatmap_svg(tmp_path, quadratic):
    path = tmp_path / "u.svg"
    write_heatmap_svg(quadratic.grid, quadratic.fields[0], path, title="u")
    text = path.read_text()
    assert text.lstrip().startswith("<svg") or "<svg" in text[:200]
    assert "rect" in text
