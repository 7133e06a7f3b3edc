"""Acceptance suite: analytic, cross-oracle and property-based checks.

Each test prints a single PASS/FAIL line so the run doubles as a
human-readable certificate. Expensive solves at h = 1/64 are shared
through module fixtures.
"""

import hashlib
import json
import time
import warnings

import numpy as np
import pytest

from masym.cli import main as cli_main
from masym.domains import Ball, Ellipse, critical_planes
from masym.expressions import parse
from masym.gridsolve import FdParams, GridSolution, solve_scalar_fd, solve_system_fd
from masym.movingplane import (build_frame, certify_monotonicity,
                               certify_symmetry, lambda_sweep, linearize)
from masym.radial import (NoSolution, solve_coupled_radial, solve_scalar_radial,
                          uniqueness_probe)
from masym.rhs import RhsSystem, check_hypotheses, d_ij, power_coupled_system

DISK = Ball(center=(0.0, 0.0), radius=1.0)
H = 1.0 / 64.0
P64 = FdParams(h=H)


def report(num, ok, detail):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def coupled64():
    t0 = time.perf_counter()
    sol = solve_system_fd(DISK, power_coupled_system(1.0, 1.0), (0.0, 0.0), P64)
    return sol, time.perf_counter() - t0


@pytest.fixture(scope="module")
def coupled64_linearized(coupled64):
    """(frame, linearization) of the coupled solution at five planes along e1."""
    sol, _ = coupled64
    system = power_coupled_system(1.0, 1.0)
    frames = [build_frame(sol, [1.0, 0.0], lam) for lam in (-0.9, -0.6, -0.3, -0.1, 0.0)]
    return [(frame, linearize(frame, system)) for frame in frames]


def _unflagged(frame, lin, i):
    """deriv_ok nodes of component i whose mean-value integrand is positive
    definite at every quadrature node, so linearize kept its A unshifted."""
    H_lam, H_u = frame.hess_u_lam[i], frame.hess_u[i]
    ok = frame.deriv_ok.copy()
    for tk in 0.5 * (np.polynomial.legendre.leggauss(lin.quad_order)[0] + 1.0):
        M = (1.0 - tk) * H_lam + tk * H_u
        ok &= ((M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0] > 0)
               & (M[:, 0, 0] + M[:, 1, 1] > 0))
    assert int(np.sum(frame.deriv_ok & ~ok)) == lin.n_flagged[i]
    return ok


@pytest.fixture(scope="module")
def radial11():
    return solve_coupled_radial(1.0, 1.0, 2)


def test_criterion_01_exact_quadratics():
    t0 = time.perf_counter()
    errs = []
    for n in (2, 3):
        prof = solve_scalar_radial(lambda r, u, du: float(2 ** n), n=n, R=1.0, c=0.0)
        errs.append(abs(prof(0.0) + 1.0))
    u, grid = solve_scalar_fd(DISK, lambda xy, u_, grad: 4.0 + 0.0 * u_, 0.0, P64)
    fd_err = float(np.max(np.abs(u - (np.sum(grid.node_xy ** 2, axis=1) - 1.0))))
    dt = time.perf_counter() - t0
    ok = max(errs) <= 1e-8 and fd_err <= 5e-3 and dt < 10.0
    report(1, ok, f"radial center errs {errs[0]:.2e}/{errs[1]:.2e}, "
                  f"grid Linf {fd_err:.2e}, {dt:.1f}s")


def test_criterion_02_cross_solver_oracle(coupled64, radial11):
    sol, dt = coupled64
    u1, u2 = radial11
    rr = np.linalg.norm(sol.grid.node_xy, axis=1)
    e1 = float(np.max(np.abs(sol.fields[0] - u1(rr))))
    e2 = float(np.max(np.abs(sol.fields[1] - u2(rr))))
    ok = max(e1, e2) <= 5e-3 and dt < 120.0
    report(2, ok, f"grid vs radial Linf {e1:.2e}/{e2:.2e}, solve {dt:.1f}s")


def test_criterion_03_trichotomy():
    outcomes = []
    for a, b in ((1, 1), (1, 2), (2, 2), (3, 3)):
        res = solve_coupled_radial(float(a), float(b), 2)
        outcomes.append("none" if isinstance(res, NoSolution) else "solution")
    ok = outcomes == ["solution", "solution", "none", "solution"]
    report(3, ok, f"(1,1),(1,2),(2,2),(3,3) -> {outcomes}")


def test_criterion_04_uniqueness():
    rep = uniqueness_probe(1.0, 2.0, 2, n_starts=10)
    ok = (all(o == "converged" for o in rep.outcomes)
          and rep.max_pairwise_distance <= 1e-6)
    report(4, ok, f"10 starts, max pairwise Linf {rep.max_pairwise_distance:.2e}")


def test_criterion_05_symmetry_certification():
    sol_u, grid = solve_scalar_fd(
        DISK, lambda xy, u_, grad: 1.0 + np.sum(xy ** 2, axis=1), 0.0, P64)
    sol = GridSolution(grid=grid, fields=[sol_u], cs=(0.0,))
    sym = certify_symmetry(sol, [1.0, 0.0], 0.0)
    planes = critical_planes(DISK, [1.0, 0.0])
    mono = certify_monotonicity(sol, [1.0, 0.0], planes)
    angular = max(sym["angular_variation"])
    ok = (sym["passed"] and angular <= 20.0 * H ** 2
          and mono["passed"] and mono["components"][0]["violations"] == 0)
    report(5, ok, f"angular variation {angular:.2e} <= {20 * H ** 2:.2e}, "
                  f"monotonicity violations {mono['components'][0]['violations']}")


def test_criterion_06_mean_value_identity(coupled64_linearized):
    """tr(A (H_u - H_lam)) = det H_u - det H_lam on the A of linearize."""
    worst, n_nodes, n_flagged = 0.0, 0, 0
    for frame, lin in coupled64_linearized:
        for i in range(frame.m):
            ok = _unflagged(frame, lin, i)
            n_nodes += int(ok.sum())
            n_flagged += lin.n_flagged[i]
            H_lam, H_u = frame.hess_u_lam[i][ok], frame.hess_u[i][ok]
            lhs = np.einsum("kab,kab->k", lin.A[i][ok], H_u - H_lam)
            rhs = np.linalg.det(H_u) - np.linalg.det(H_lam)
            worst = max(worst, float(np.max(np.abs(lhs - rhs)
                                            / np.maximum(1.0, np.abs(rhs)))))
    frame, lin = coupled64_linearized[2]
    okn = _unflagged(frame, lin, 0)
    lhs = np.einsum("kab,kab->k", lin.A[0][okn], frame.hess_U[0][okn])
    rhs = (np.linalg.det(frame.hess_u_lam[0][okn])
           - np.linalg.det(frame.hess_u[0][okn]))
    field_worst = float(np.max(np.abs(lhs - rhs)))
    ok = n_nodes > 0 and worst <= 1e-10 and field_worst <= 10.0 * H ** 2
    report(6, ok, f"rel err {worst:.2e} on {n_nodes} nodes ({n_flagged} flagged), "
                  f"solved field at lambda = -0.3 {field_worst:.2e}")


def test_criterion_07_determinant_derivative(coupled64_linearized):
    """d det / dM at M = (H_u + H_lam) / 2 is the transpose of the A of
    linearize: the integrand is linear in t, so A = adj M."""
    eps = 1e-6
    worst, n_nodes = 0.0, 0
    for frame, lin in coupled64_linearized:
        for i in range(frame.m):
            ok = _unflagged(frame, lin, i)
            n_nodes += int(ok.sum())
            M = 0.5 * (frame.hess_u[i][ok] + frame.hess_u_lam[i][ok])
            G = np.swapaxes(lin.A[i][ok], -1, -2)
            for a in range(2):
                for b in range(2):
                    E = np.zeros((2, 2))
                    E[a, b] = eps
                    fd = (np.linalg.det(M + E) - np.linalg.det(M - E)) / (2 * eps)
                    worst = max(worst, float(np.max(np.abs(fd - G[:, a, b])
                                                    / np.maximum(1.0, np.abs(fd)))))
    report(7, n_nodes > 0 and worst <= 1e-6,
           f"finite-difference mismatch {worst:.2e} on {n_nodes} nodes")


def test_criterion_08_critical_planes():
    cp_b = critical_planes(Ball(center=(0.0, 0.0), radius=1.0), [1.0, 0.0])
    cp_e = critical_planes(Ellipse(center=(0.0, 0.0), semi_axes=(2.0, 1.0)),
                           [1.0, 0.0])
    errs = (abs(cp_b.lam0 + 1.0), abs(cp_b.Lam0), abs(cp_b.Lam2),
            abs(cp_e.lam0 + 2.0), abs(cp_e.Lam0), abs(cp_e.Lam2))
    worst = max(errs)
    report(8, worst <= 1e-9, f"ball/ellipse plane errors <= {worst:.2e}")


def test_criterion_09_hypothesis_checker():
    box = {"x": [[-1.0, 1.0], [-1.0, 1.0]],
           "z": [[-2.0, -0.1], [-2.0, -0.1]],
           "p": [[-1.0, 1.0], [-1.0, 1.0]]}
    sys_ = power_coupled_system(1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        rep = check_hypotheses(sys_, box, samples=10_000, seed=0)
    passes = rep.passed("positivity", "uniform_positivity", "cross_monotonicity",
                        "orthogonal_invariance")
    rng = np.random.default_rng(9)
    d_ok = True
    for _ in range(10_000 // 4):
        z = rng.uniform(-2.0, -0.1, size=2)
        h = rng.uniform(0.0, 0.5)
        x, p = np.zeros(2), np.zeros(2)
        for i, j in ((1, 2), (2, 1)):
            if d_ij(sys_, i, j, x, z, p, h) > 1e-12:
                d_ok = False
    bad = RhsSystem(components=(parse("z2"), parse("(0 - z1) ^ 1")), n=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        bad_rep = check_hypotheses(bad, box, samples=10_000, seed=0)
    caught = (bad_rep.statuses["positivity"] == "fail"
              and bad_rep.witnesses["positivity"] is not None)
    ok = passes and rep.quotient_sign_ok and d_ok and caught
    report(9, ok, f"hypotheses pass, d_ij nonpositive {d_ok}, "
                  f"planted sign flip caught {caught}")


def test_criterion_10_elliptic_inequality_sweep(coupled64):
    sol, _ = coupled64
    planes = critical_planes(DISK, [1.0, 0.0])
    system = power_coupled_system(1.0, 1.0)
    rep = lambda_sweep(sol, [1.0, 0.0], planes, n_lambdas=16, system=system)
    xy = sol.grid.node_xy
    bad = GridSolution(
        grid=sol.grid,
        fields=[sol.fields[0] + 0.02 * np.sin(8.0 * np.pi * xy[:, 0]),
                sol.fields[1]],
        cs=(0.0, 0.0))
    ctrl = lambda_sweep(bad, [1.0, 0.0], planes, n_lambdas=16, system=system)
    ok = (rep.passed and rep.total_ei_violations == 0
          and ctrl.total_ei_violations >= 1)
    report(10, ok, f"16-plane sweep violations {rep.total_ei_violations}, "
                   f"negative control {ctrl.total_ei_violations}")


def test_criterion_11_determinism(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"command": "solve-radial", "alpha": 1.0,
                               "beta": 2.0, "n": 2, "grid_size": 1024,
                               "seed": 42}) + "\n")
    digests = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = cli_main(["--config", str(cfg), "--out", str(out), "--quiet"])
        assert code == 0
        digests.append({name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                        for name in ("profile.csv", "summary.json", "manifest.json")})
    ok = digests[0] == digests[1]
    report(11, ok, "identical config+seed reproduces byte-identical artifacts")
