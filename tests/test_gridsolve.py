import numpy as np
import pytest

from masym.domains import Ball, Ellipse, SmoothLevelSet, Tube
from masym.gridsolve import (DivergenceError, FdParams, StencilGrid,
                             _ma_and_active, ma_operator_discrete,
                             read_solution_binary,
                             solve_scalar_fd, solve_system_fd,
                             stencil_directions, write_solution_binary,
                             write_solution_csv)
from masym.radial import solve_scalar_radial
from masym.rhs import power_coupled_system

DISK = Ball(center=(0.0, 0.0), radius=1.0)
P32 = FdParams(h=1.0 / 32.0)
OPERATOR_DOMAINS = {
    "ball": DISK,
    "ellipse": Ellipse(center=(0.1, 0.0), semi_axes=(1.0, 0.5)),
    "tube": Tube(cross_section=Ball(center=(0.0,), radius=1.0), half_height=0.75),
    "levelset": SmoothLevelSet(
        phi=lambda x: x[..., 0] ** 2 + x[..., 1] ** 2 + 0.3 * np.exp(x[..., 0]) - 1.3,
        grad_phi=lambda x: np.stack([2.0 * x[..., 0] + 0.3 * np.exp(x[..., 0]),
                                     2.0 * x[..., 1]], axis=-1),
        bbox=((-1.2, 1.0), (-1.1, 1.1))),
}


def test_stencil_directions_primitive():
    dirs = stencil_directions(2)
    seen = set()
    for v in dirs:
        assert np.gcd(abs(v[0]), abs(v[1])) == 1
        seen.add(tuple(v))
    assert (1, 0) in seen and (0, 1) in seen and (1, 1) in seen
    assert len(stencil_directions(3)) > len(dirs)


def test_grid_counts_disk_nodes():
    grid = StencilGrid(DISK, 1.0 / 16.0, 2)
    area = np.pi
    assert abs(grid.n_nodes * grid.h ** 2 - area) < 0.1
    assert np.all(np.linalg.norm(grid.node_xy, axis=1) < 1.0)


def test_quadratic_source_reproduced_exactly():
    """det D^2 (|x|^2 - 1) = 4: the scheme is exact on paraboloids."""
    u, grid = solve_scalar_fd(DISK, lambda xy, u, grad: 4.0 + 0.0 * u, 0.0, P32)
    exact = np.sum(grid.node_xy ** 2, axis=1) - 1.0
    assert np.max(np.abs(u - exact)) <= 1e-10


def test_boundary_constant_offset():
    u, grid = solve_scalar_fd(DISK, lambda xy, u, grad: 4.0 + 0.0 * u, 2.5, P32)
    exact = np.sum(grid.node_xy ** 2, axis=1) - 1.0 + 2.5
    assert np.max(np.abs(u - exact)) <= 1e-10


def test_discrete_operator_on_solution():
    u, grid = solve_scalar_fd(DISK, lambda xy, u, grad: 4.0 + 0.0 * u, 0.0, P32)
    vals = ma_operator_discrete(grid, u, c=0.0)
    assert np.max(np.abs(vals - 4.0)) <= 1e-8


def test_radial_source_matches_radial_solver():
    g = lambda r: 1.0 + r ** 2
    u, grid = solve_scalar_fd(
        DISK, lambda xy, u, grad: g(np.linalg.norm(xy, axis=1)), 0.0, P32)
    prof = solve_scalar_radial(lambda r, u_, du: g(r), n=2, R=1.0, c=0.0)
    rr = np.linalg.norm(grid.node_xy, axis=1)
    assert np.max(np.abs(u - prof(rr))) <= 5e-3


def test_solution_dependent_source_converges():
    u, grid = solve_scalar_fd(
        DISK, lambda xy, u, grad: 1.0 - u, 0.0, P32)
    prof = solve_scalar_radial(lambda r, u_, du: 1.0 - u_, n=2, R=1.0, c=0.0)
    rr = np.linalg.norm(grid.node_xy, axis=1)
    assert np.max(np.abs(u - prof(rr))) <= 5e-3


def test_ellipse_domain():
    dom = Ellipse(center=(0.0, 0.0), semi_axes=(1.0, 0.5))
    # u = x^2 + 4 y^2 - 1 has constant determinant 16 and zero boundary data
    u, grid = solve_scalar_fd(dom, lambda xy, u, grad: 16.0 + 0.0 * u, 0.0, P32)
    exact = grid.node_xy[:, 0] ** 2 + 4.0 * grid.node_xy[:, 1] ** 2 - 1.0
    assert np.max(np.abs(u - exact)) <= 1e-8


def test_tube_domain_solves():
    dom = Tube(cross_section=Ball(center=(0.0,), radius=1.0), half_height=2.0)
    u, grid = solve_scalar_fd(dom, lambda xy, u, grad: 4.0 + 0.0 * u, 0.0, P32)
    assert np.min(u) < -0.5
    assert np.max(u) < 0.0


def test_coupled_system_solution():
    sol = solve_system_fd(DISK, power_coupled_system(1.0, 1.0), (0.0, 0.0), P32)
    assert sol.m == 2
    assert all(sol.convex)
    assert np.min(sol.fields[0]) < 0 and np.min(sol.fields[1]) < 0
    # both components satisfy their own discrete equation
    det1 = ma_operator_discrete(sol.grid, sol.fields[0], c=0.0)
    assert np.max(np.abs(det1 - (-sol.fields[1]))) <= 1e-6


def test_divergence_reports_history():
    with pytest.raises(DivergenceError) as err:
        solve_scalar_fd(DISK, lambda xy, u, grad: 4.0 + np.sum(xy ** 2, axis=1), 0.0,
                        FdParams(h=1.0 / 32.0, max_newton=1, max_euler=3))
    assert len(err.value.history) > 0


def test_nonpositive_source_rejected():
    with pytest.raises(DivergenceError):
        solve_scalar_fd(DISK, lambda xy, u, grad: 0.0 * u - 1.0, 0.0, P32)


def test_field_and_extended_arrays():
    sol = solve_system_fd(DISK, power_coupled_system(1.0, 1.0), (0.0, 0.0), P32)
    arr = sol.field_array(0)
    assert arr.shape == (sol.grid.nx, sol.grid.ny)
    assert np.isnan(arr[0, 0])
    ext = sol.extended_array(0)
    assert not np.any(np.isnan(ext))
    inside = sol.grid.inside
    assert np.allclose(ext[inside], arr[inside], equal_nan=False)


def test_csv_output(tmp_path):
    sol = solve_system_fd(DISK, power_coupled_system(1.0, 1.0), (0.0, 0.0), P32)
    path = tmp_path / "sol.csv"
    write_solution_csv(sol, path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert len(data) == sol.grid.n_nodes
    assert np.allclose(data["u1"], sol.fields[0])


def test_binary_roundtrip(tmp_path):
    sol = solve_system_fd(DISK, power_coupled_system(1.0, 1.0), (0.0, 0.0), P32)
    path = tmp_path / "sol.bin"
    write_solution_binary(sol, path)
    back = read_solution_binary(path, DISK)
    assert back.grid.h == sol.grid.h
    for i in range(sol.m):
        assert np.array_equal(back.fields[i], sol.fields[i])
    assert back.cs == sol.cs


def test_convexity_audit_flags_corruption():
    sol = solve_system_fd(DISK, power_coupled_system(1.0, 1.0), (0.0, 0.0), P32)
    assert all(sol.convexity_audit())
    xy = sol.grid.node_xy
    sol.fields[0] = sol.fields[0] + 0.05 * np.sin(8.0 * np.pi * xy[:, 0])
    assert not all(sol.convexity_audit())


def _reference_arm(grid, v):
    """Arm table along v built directly from the node index and the domain."""
    ij2 = grid.node_ij + np.array(v)
    ok = (ij2[:, 0] >= 0) & (ij2[:, 0] < grid.nx) & (ij2[:, 1] >= 0) & (ij2[:, 1] < grid.ny)
    nbr = -np.ones(grid.n_nodes, dtype=int)
    nbr[ok] = grid.index[ij2[ok, 0], ij2[ok, 1]]
    rho = np.ones(grid.n_nodes)
    cut = nbr < 0
    rho[cut] = grid._boundary_fraction(grid.node_xy[cut], grid.h * np.array(v, dtype=float))
    return nbr, rho


def _reference_operator(grid, u, c):
    """Per-pair loop over second_difference: the operator without stacked tables."""
    vals = []
    for v, w in grid.pairs:
        a = grid.second_difference(v, u, c)[0]
        b = grid.second_difference(w, u, c)[0]
        vals.append(np.maximum(a, 0.0) * np.maximum(b, 0.0)
                    + np.minimum(a, 0.0) + np.minimum(b, 0.0))
    vals = np.stack(vals)
    active = np.argmin(vals, axis=0)
    return vals[active, np.arange(grid.n_nodes)], active


@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(OPERATOR_DOMAINS))
def test_stacked_operator_matches_per_pair_loop(name, width):
    grid = StencilGrid(OPERATOR_DOMAINS[name], 1.0 / 16.0, width)
    for p, q in stencil_directions(width):
        for v in ((p, q), (-p, -q)):
            nbr, rho = grid.arms(v)
            ref_nbr, ref_rho = _reference_arm(grid, v)
            np.testing.assert_array_equal(nbr, ref_nbr)
            np.testing.assert_array_equal(rho, ref_rho)
    xy = grid.node_xy
    rng = np.random.default_rng(width)
    for u, c in ((np.sum(xy ** 2, axis=1) - 1.0, 0.0),
                 (np.sin(3.0 * xy[:, 0]) * np.cos(2.0 * xy[:, 1]), 0.5),
                 (rng.normal(size=grid.n_nodes), -1.0)):
        vals, active = _ma_and_active(grid, u, c)
        ref_vals, ref_active = _reference_operator(grid, u, c)
        np.testing.assert_array_equal(vals, ref_vals)
        np.testing.assert_array_equal(active, ref_active)
