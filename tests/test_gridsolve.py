import itertools

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import masym.gridsolve as gridsolve
from masym.domains import Ball, Ellipse, GeometryError, SmoothLevelSet, Tube
from masym.gridsolve import (DivergenceError, FdParams, StencilGrid,
                             _factor_solve, _laplace_init, _ma_and_active,
                             _newton_matrix, _pair_rows,
                             gradient_at_nodes, ma_operator_discrete,
                             read_solution_binary,
                             solve_scalar_fd, solve_system_fd,
                             stencil_directions, write_solution_binary,
                             write_solution_csv)
from masym.expressions import parse
from masym.radial import NoSolution, solve_coupled_radial, solve_scalar_radial
from masym.rhs import RhsSystem, eval_f, power_coupled_system

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


def test_grid_point_bound_rejects_tiny_h_before_building(monkeypatch):
    """h = 1e-4 on the unit disk needs about 4e8 points; no grid array is built."""
    def contains(self, x):
        raise AssertionError("grid points were built")

    monkeypatch.setattr(Ball, "contains", contains)
    with pytest.raises(GeometryError, match="grid"):
        StencilGrid(DISK, 1e-4, 2)


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


@pytest.mark.parametrize("name", ["ball", "ellipse"])
def test_coupled_solve_returns_every_component_within_tol(name):
    system = power_coupled_system(1.0, 2.0)
    sol = solve_system_fd(OPERATOR_DOMAINS[name], system, (0.0, 0.0), P32)
    g = sol.grid
    for i, u in enumerate(sol.fields):
        f = eval_f(system, i + 1, g.node_xy, np.stack(sol.fields, axis=-1),
                   gradient_at_nodes(g, u, 0.0))
        res = ma_operator_discrete(g, u, c=0.0) - f
        assert np.max(np.abs(res)) <= P32.tol * np.max(np.abs(f))
    # the record ends with a sweep that neither factored nor stepped
    last = sol.history[-1]
    assert last["factorizations"] == 0 and len(last["residuals"]) == 2
    assert len(sol.history) <= P32.max_newton


def _center(sol, i):
    return float(sol.fields[i][np.argmin(np.linalg.norm(sol.grid.node_xy, axis=1))])


@pytest.mark.parametrize("domain", [DISK, Ellipse(center=(0.0, 0.0), semi_axes=(1.0, 0.6))],
                         ids=["disk", "ellipse"])
def test_power_pair_at_the_threshold_has_no_grid_solution(domain):
    """alpha*beta = 4 leaves the log-amplitude system singular: no field is
    returned, however small."""
    res = solve_system_fd(domain, power_coupled_system(2.0, 2.0), (0.0, 0.0), P32)
    assert isinstance(res, NoSolution)
    assert "singular" in res.reason
    # the scaling family carries (2, 2) toward zero, as on the radial line
    assert res.drift_sign == solve_coupled_radial(2.0, 2.0, 2).drift_sign == -1
    assert res.history[-1]["factorizations"] == 0


@pytest.mark.parametrize("alpha, beta", [(2.0, 3.0), (1.0, 2.0)])
def test_power_pair_center_matches_the_radial_solution(alpha, beta):
    sol = solve_system_fd(DISK, power_coupled_system(alpha, beta), (0.0, 0.0), P32)
    radial = solve_coupled_radial(alpha, beta, 2)
    for i in range(2):
        assert abs(_center(sol, i) / radial[i].u[0] - 1.0) <= 0.01


def test_scaled_power_pair_is_the_scaled_solution():
    """det D^2 u_i = mu (-u_j) has the solution mu u* of the mu = 1 pair; a
    source below 1 must not stop the sweeps near u = 0."""
    mu = 1e-4
    system = RhsSystem(components=(parse(f"{mu} * (-z2)"), parse(f"(0 - z1) * {mu}")), n=2)
    scaled = solve_system_fd(DISK, system, (0.0, 0.0), P32)
    plain = solve_system_fd(DISK, power_coupled_system(1.0, 1.0), (0.0, 0.0), P32)
    for i in range(2):
        assert abs(_center(scaled, i) / (mu * _center(plain, i)) - 1.0) <= 0.01


def test_small_source_is_solved_to_relative_tolerance():
    """The acceptance rule is tol |g|_inf: det D^2 u = 1e-6 g has the solution
    1e-3 u of det D^2 u = g, to the solver's tolerance, not to 1e-8 absolute."""
    def g(xy, u, grad):
        return 1.0 + np.sum(xy ** 2, axis=1)

    u, _ = solve_scalar_fd(DISK, g, 0.0, P32)
    small, _ = solve_scalar_fd(DISK, lambda xy, u_, grad: 1e-6 * g(xy, u_, grad), 0.0, P32)
    assert np.max(np.abs(small - 1e-3 * u)) <= 1e-7 * np.max(np.abs(1e-3 * u))


def test_divergence_reports_history():
    with pytest.raises(DivergenceError) as err:
        solve_scalar_fd(DISK, lambda xy, u, grad: 4.0 + np.sum(xy ** 2, axis=1), 0.0,
                        FdParams(h=1.0 / 32.0, max_newton=1))
    assert len(err.value.history) > 0
    assert "Newton reached max_newton = 1" in str(err.value)


def test_nonfinite_source_rejected_before_any_newton_step():
    def g(xy, u, grad):
        return np.where(xy[:, 0] > 0.5, np.nan, 1.0 + 3.0 * xy[:, 0] ** 2)

    with pytest.raises(DivergenceError) as err:
        solve_scalar_fd(DISK, g, 0.0, P32)
    assert "non-finite" in str(err.value)
    assert err.value.history == []


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


def test_csv_values_are_shortest_round_trip_repr(tmp_path):
    """Every CSV value is Python's float repr, so it reads back bit for bit:
    the sign of zero, the smallest subnormal and exact powers of ten too."""
    values = [-0.0, 5e-324, 1e16, 0.1, 1.0]
    path = tmp_path / "values.csv"
    gridsolve._write_csv(path, ["a", "b"], [np.array(values), np.array(values[::-1])])
    assert path.read_bytes() == (b"a,b\n-0.0,1.0\n5e-324,0.1\n1e+16,1e+16\n"
                                 b"0.1,5e-324\n1.0,-0.0\n")
    back = np.array([[float(v) for v in line.split(",")]
                     for line in path.read_text().splitlines()[1:]])
    assert back[:, 0].tobytes() == np.array(values).tobytes()


def test_binary_roundtrip(tmp_path):
    sol = solve_system_fd(DISK, power_coupled_system(1.0, 1.0), (0.0, 0.0), P32)
    path = tmp_path / "sol.bin"
    write_solution_binary(sol, path)
    back = read_solution_binary(path, DISK)
    assert back.grid.h == sol.grid.h
    for i in range(sol.m):
        assert np.array_equal(back.fields[i], sol.fields[i])
    assert back.cs == sol.cs


def test_mask_run_lengths_match_the_run_loop():
    """solution.bin stores the mask as the lengths of the runs of equal
    cells in row-major order, the first run holding ``first``."""
    masks = [StencilGrid(OPERATOR_DOMAINS[name], 1.0 / 16.0).inside
             for name in ("ball", "ellipse", "tube")]
    masks += [np.ones((3, 4), bool), np.zeros((3, 4), bool), np.eye(5, dtype=bool)]
    for mask in masks:
        flat = mask.ravel().tolist()
        runs = [len(list(run)) for _, run in itertools.groupby(flat)]
        rle = gridsolve._mask_rle(mask)
        assert rle == {"first": int(flat[0]), "runs": runs}
        assert all(type(r) is int for r in rle["runs"])
        back = gridsolve._mask_from_rle(rle, mask.shape)
        assert back.dtype == bool and np.array_equal(back, mask)


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
    rho[cut] = np.clip(grid.domain.ray_exit(grid.node_xy[cut], grid.h * np.array(v, dtype=float)),
                       1e-6, 1.0)
    return nbr, rho


def second_difference(grid, v, u, c):
    """Cut-cell second difference along v for interior values u, boundary c.

    Returns (value, coeff_center, coeff_plus, coeff_minus, nbr_plus,
    nbr_minus); the coefficient arrays define the linear dependence on
    the unknowns (boundary arms contribute constants).  The per-direction
    form is the reference for the stacked tables the solver reads.
    """
    np_, rp = grid.arms(v)
    nm, rm = grid.arms((-v[0], -v[1]))
    ell2 = (grid.h ** 2) * (v[0] ** 2 + v[1] ** 2)
    K = 2.0 / ((rp + rm) * ell2)
    gp = np.where(np_ >= 0, u[np.maximum(np_, 0)], c)
    gm = np.where(nm >= 0, u[np.maximum(nm, 0)], c)
    val = K * ((gp - u) / rp + (gm - u) / rm)
    cc = -K * (1.0 / rp + 1.0 / rm)
    cp = np.where(np_ >= 0, K / rp, 0.0)
    cm = np.where(nm >= 0, K / rm, 0.0)
    return val, cc, cp, cm, np_, nm


def _reference_operator(grid, u, c):
    """Per-pair loop over second_difference: the operator without stacked tables."""
    vals = []
    for v, w in grid.pairs:
        a = second_difference(grid, v, u, c)[0]
        b = second_difference(grid, w, u, c)[0]
        vals.append(np.maximum(a, 0.0) * np.maximum(b, 0.0)
                    + np.minimum(a, 0.0) + np.minimum(b, 0.0))
    vals = np.stack(vals)
    active = np.argmin(vals, axis=0)
    return vals[active, np.arange(grid.n_nodes)], active


def _reference_rows(grid, entries):
    """Per-pair second_difference assembly of gain-weighted pair rows.

    ``entries`` lists ((v, w), node mask, gain along v, gain along w);
    returns the matrix in sorted CSC form.
    """
    N = grid.n_nodes
    idx = np.arange(N)
    rows, cols, data = [], [], []
    for (v, w), sel, ga, gb in entries:
        _, acc, acp, acm, anp, anm = second_difference(grid, v, np.zeros(N), 0.0)
        _, bcc, bcp, bcm, bnp, bnm = second_difference(grid, w, np.zeros(N), 0.0)
        for coeff, nbr, gain in ((acc, idx, ga), (acp, anp, ga), (acm, anm, ga),
                                 (bcc, idx, gb), (bcp, bnp, gb), (bcm, bnm, gb)):
            ok = sel & (nbr >= 0) & (coeff != 0.0)
            rows.append(idx[ok]); cols.append(nbr[ok]); data.append((gain * coeff)[ok])
    A = sp.csr_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(N, N)).tocsc()
    A.sort_indices()
    return A


def _reference_newton_matrix(grid, u, c, active, floor=1e-8):
    entries = []
    for k, (v, w) in enumerate(grid.pairs):
        a = second_difference(grid, v, u, c)[0]
        b = second_difference(grid, w, u, c)[0]
        entries.append(((v, w), active == k,
                        np.where(a > 0, np.maximum(np.maximum(b, 0.0), floor), 1.0),
                        np.where(b > 0, np.maximum(np.maximum(a, 0.0), floor), 1.0)))
    return _reference_rows(grid, entries)


@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(OPERATOR_DOMAINS))
def test_pivot_free_solve_matches_pivoted_spsolve(name, width):
    grid = StencilGrid(OPERATOR_DOMAINS[name], 1.0 / 16.0, width)
    N = grid.n_nodes
    xy = grid.node_xy
    rng = np.random.default_rng(width)
    mats = [_pair_rows(grid, np.full(N, grid._row[(1, 0)] // 2), np.ones((2, N)))]
    for u, c in ((np.sum(xy ** 2, axis=1) - 1.0, 0.0),
                 (np.sin(3.0 * xy[:, 0]) * np.cos(2.0 * xy[:, 1]), 0.5),
                 (rng.normal(size=N), -1.0)):
        mats.append(_newton_matrix(grid, u, c, _ma_and_active(grid, u, c)[1]))
    for A in mats:
        b = rng.normal(size=N)
        ref = spla.spsolve(A.tocsc(), b)
        x = _factor_solve(A, b)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


def _assert_same_csc(A, ref):
    A = A.tocsc()
    A.sort_indices()
    np.testing.assert_array_equal(A.indptr, ref.indptr)
    np.testing.assert_array_equal(A.indices, ref.indices)
    np.testing.assert_array_equal(A.data, ref.data)


@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(OPERATOR_DOMAINS))
def test_stacked_operator_matches_per_pair_loop(name, width, monkeypatch):
    grid = StencilGrid(OPERATOR_DOMAINS[name], 1.0 / 16.0, width)
    for p, q in stencil_directions(width):
        for v in ((p, q), (-p, -q)):
            nbr, rho = grid.arms(v)
            ref_nbr, ref_rho = _reference_arm(grid, v)
            np.testing.assert_array_equal(nbr, ref_nbr)
            np.testing.assert_array_equal(rho, ref_rho)
    ones = np.ones(grid.n_nodes)
    solved = []
    monkeypatch.setattr(gridsolve, "_factor_solve", lambda A, b: solved.append(A) or 0.0 * b)
    _laplace_init(grid, ones, 0.0)
    _assert_same_csc(solved[0], _reference_rows(
        grid, [(((1, 0), (0, 1)), ones > 0, ones, ones)]))
    xy = grid.node_xy
    rng = np.random.default_rng(width)
    for u, c in ((np.sum(xy ** 2, axis=1) - 1.0, 0.0),
                 (np.sin(3.0 * xy[:, 0]) * np.cos(2.0 * xy[:, 1]), 0.5),
                 (rng.normal(size=grid.n_nodes), -1.0)):
        vals, active = _ma_and_active(grid, u, c)
        ref_vals, ref_active = _reference_operator(grid, u, c)
        np.testing.assert_array_equal(vals, ref_vals)
        np.testing.assert_array_equal(active, ref_active)
        _assert_same_csc(_newton_matrix(grid, u, c, active),
                         _reference_newton_matrix(grid, u, c, active))
        grad = gradient_at_nodes(grid, u, c)
        for k, v in enumerate(((1, 0), (0, 1))):
            gp, gm = (np.where(n >= 0, u[np.maximum(n, 0)], c)
                      for n, _ in (grid.arms(v), grid.arms((-v[0], -v[1]))))
            rho = grid.arms(v)[1] + grid.arms((-v[0], -v[1]))[1]
            np.testing.assert_array_equal(grad[:, k], (gp - gm) / (rho * grid.h))

