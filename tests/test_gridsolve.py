import dataclasses
import itertools
import math
import types
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import masym.gridsolve as gridsolve
from masym.domains import Ball, Ellipse, GeometryError, SmoothLevelSet, Tube
from masym.gridsolve import (FdParams, GridSolution, StencilGrid,
                             _factor, _power_pair, _laplace_init, _ma_and_active,
                             _newton_matrix, _pair_rows,
                             gradient_at_nodes, ma_operator_discrete,
                             read_solution_binary,
                             solve_scalar_fd, solve_system_fd,
                             stencil_directions, write_solution_binary,
                             write_solution_csv)
from masym.expressions import parse
from masym.radial import NoSolution, SolverDivergence, solve_coupled_radial, solve_scalar_radial
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


def test_extended_array_of_a_node_on_the_grid_edge():
    """A level set may declare a box shorter than {phi < 0}, which puts
    interior nodes on the grid's first column with no axis neighbour past
    it.  Their ghosts land nowhere, so the far column, outside the domain,
    keeps the boundary constant."""
    domain = SmoothLevelSet(phi=lambda x: np.sum(np.asarray(x, float) ** 2, axis=-1) - 1.0,
                            grad_phi=lambda x: 2.0 * np.asarray(x, float),
                            bbox=((-0.7, 1.0), (-1.0, 1.0)))
    grid = StencilGrid(domain, 1.0 / 16.0, 2)
    assert grid.node_ij[:, 0].min() == 0
    x, y = grid.node_xy.T
    E = GridSolution(grid=grid, fields=[x * x + 2.0 * y * y - 3.0], cs=(0.0,)).extended_array(0)
    assert np.all(E[-1] == 0.0)


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


@pytest.mark.parametrize("components, expected", [
    (("(0 - z2) + 1", "(0 - z1) + 1"), None),
    (("(0 - z1) ^ 2", "(0 - z1)"), None),
    (("(0 - z2) ^ 0", "(0 - z1)"), None),
    (("3 * (0 - z2) ^ 1.5", "(-z1) * 0.5"), ((3.0, 0.5), (1.5, 1.0))),
], ids=["sum", "own-unknown", "zero-exponent", "scaled-powers"])
def test_power_pair_reads_only_mu_times_a_power_of_the_other_unknown(components, expected):
    """mu_i (-z_j)^e_i with j != i and mu, e > 0 is a power pair; a sum, a
    component of its own unknown or a zero exponent is not."""
    system = RhsSystem(components=tuple(parse(c) for c in components), n=2)
    assert _power_pair(system, (0.0, 0.0)) == expected


def test_power_pair_needs_zero_boundary_data():
    assert _power_pair(power_coupled_system(1.0, 2.0), (0.0, 0.5)) is None


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
    with pytest.raises(SolverDivergence) as err:
        solve_scalar_fd(DISK, lambda xy, u, grad: 4.0 + np.sum(xy ** 2, axis=1), 0.0,
                        FdParams(h=1.0 / 32.0, max_newton=1))
    assert len(err.value.history) > 0
    assert "Newton reached max_newton = 1" in str(err.value)


def test_nonfinite_source_rejected_before_any_newton_step():
    def g(xy, u, grad):
        return np.where(xy[:, 0] > 0.5, np.nan, 1.0 + 3.0 * xy[:, 0] ** 2)

    with pytest.raises(SolverDivergence) as err:
        solve_scalar_fd(DISK, g, 0.0, P32)
    assert "non-finite" in str(err.value)
    assert err.value.history == []


def test_nonpositive_source_rejected():
    with pytest.raises(SolverDivergence):
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


def _rowwise_csv(names, cols):
    """The CSV the writer must give: each row joined from the values' repr."""
    rows = zip(*(np.asarray(col, dtype=float).tolist() for col in cols))
    return (",".join(names) + "\n" + "".join(",".join(map(repr, row)) + "\n"
                                             for row in rows)).encode()


@pytest.mark.parametrize("width, rows", [(5, 2049), (1, 300), (3, 0)],
                         ids=["profile", "one-column", "no-rows"])
def test_csv_writer_matches_the_rowwise_repr(tmp_path, width, rows):
    """The one-pass writer gives the bytes of joining each row's reprs: on
    random finite bit patterns across every exponent, and on nan, inf, -inf,
    -0.0, 0.0 and the subnormals 5e-324 and -5e-324."""
    rng = np.random.default_rng(29)
    bits = rng.integers(0, 2 ** 64, size=4 * width * rows + 1, dtype=np.uint64)
    finite = bits.view(np.float64)[np.isfinite(bits.view(np.float64))]
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324])
    values = np.resize(np.concatenate([special, finite]), width * rows) if rows else finite[:0]
    cols = list(values.reshape(width, rows))
    names = [f"c{k}" for k in range(width)]
    path = tmp_path / "table.csv"
    gridsolve._write_csv(path, names, cols)
    assert path.read_bytes() == _rowwise_csv(names, cols)


def test_binary_roundtrip(tmp_path):
    sol = solve_system_fd(DISK, power_coupled_system(1.0, 1.0), (0.0, 0.0), P32)
    path = tmp_path / "sol.bin"
    write_solution_binary(sol, path)
    back = read_solution_binary(path, DISK)
    assert back.grid.h == sol.grid.h
    for i in range(sol.m):
        assert np.array_equal(back.fields[i], sol.fields[i])
    assert back.cs == sol.cs


def test_binary_read_rejects_a_foreign_file_or_another_mask(tmp_path):
    """A file without the MAGS magic, or one whose stored mask is not the
    domain's at the stored h, is refused."""
    sol = solve_system_fd(DISK, RhsSystem(components=("4",), n=2), (0.0,), FdParams(h=0.125))
    path = tmp_path / "sol.bin"
    write_solution_binary(sol, path)
    with pytest.raises(ValueError, match="stored mask does not match"):
        read_solution_binary(path, Ellipse(center=(0.0, 0.0), semi_axes=(1.0, 0.5)))
    path.write_bytes(b"MAGX" + path.read_bytes()[4:])
    with pytest.raises(ValueError, match="not a grid-solution file"):
        read_solution_binary(path, DISK)


def test_binary_read_rejects_a_cut_or_padded_file(tmp_path):
    """A file cut inside its header length, its header or its fields, or one
    with bytes after its fields, is refused with a ValueError that names
    the fault; the intact file still reads back."""
    sol = solve_system_fd(DISK, RhsSystem(components=("4",), n=2), (0.0,), FdParams(h=0.125))
    path = tmp_path / "sol.bin"
    write_solution_binary(sol, path)
    data = path.read_bytes()
    hlen = int.from_bytes(data[4:8], "little")
    for bad, message in ((data[:6], "ends inside its header"),
                         (data[:8 + hlen // 2], "ends inside its header"),
                         (data[:-4], f"holds {len(data) - 12 - hlen} field bytes"),
                         (data + b"\0" * 8, f"holds {len(data) - hlen} field bytes")):
        path.write_bytes(bad)
        with pytest.raises(ValueError, match=message):
            read_solution_binary(path, DISK)
    path.write_bytes(data)
    assert np.array_equal(read_solution_binary(path, DISK).fields[0], sol.fields[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_field_is_rejected(bad):
    """A NaN or infinite field value, or boundary constant, raises ValueError
    naming its component, rather than reading as the boundary constant in
    the solution's stack."""
    grid = StencilGrid(DISK, 1.0 / 16.0, 2)
    u = np.sum(grid.node_xy ** 2, axis=1) - 1.0
    v = u.copy()
    v[int(np.argmin(u))] = bad
    with pytest.raises(ValueError, match="component 2 of the solution is not finite"):
        GridSolution(grid=grid, fields=[u, v], cs=(0.0, 0.0))
    with pytest.raises(ValueError, match="component 1 of the solution is not finite"):
        GridSolution(grid=grid, fields=[u, u], cs=(bad, 0.0))


def test_binary_read_rejects_a_non_finite_field(tmp_path):
    """A file whose field bytes hold a NaN or an infinity at a node of the
    domain, or whose header's boundary constant is NaN, is refused with a
    ValueError, as every other malformed file is."""
    sol = solve_system_fd(DISK, RhsSystem(components=("4",), n=2), (0.0,), FdParams(h=0.125))
    path = tmp_path / "sol.bin"
    write_solution_binary(sol, path)
    data = path.read_bytes()
    hlen = int.from_bytes(data[4:8], "little")
    g = sol.grid
    i, j = g.node_ij[int(np.argmin(np.sum(g.node_xy ** 2, axis=1)))]
    at = 8 + hlen + 8 * (i * g.ny + j)
    for bad in (np.nan, np.inf, -np.inf):
        path.write_bytes(data[:at] + np.array(bad, dtype="<f8").tobytes() + data[at + 8:])
        with pytest.raises(ValueError, match="component 1 of the solution is not finite"):
            read_solution_binary(path, DISK)
    assert data.count(b'"cs": [0.0]') == 1
    path.write_bytes(data.replace(b'"cs": [0.0]', b'"cs": [NaN]'))
    with pytest.raises(ValueError, match="component 1 of the solution is not finite"):
        read_solution_binary(path, DISK)
    path.write_bytes(data)
    assert np.array_equal(read_solution_binary(path, DISK).fields[0], sol.fields[0])


@pytest.mark.parametrize("center", [(0.5, 0.0), (0.03, -0.01), (0.0625, 0.0)])
def test_binary_read_rejects_a_shifted_grid(tmp_path, center):
    """A unit disk moved by whole or partial steps of h = 1/16 has the stored
    grid's size and mask, but not its origin: the file is refused, not read
    onto the shifted grid."""
    sol = solve_system_fd(DISK, RhsSystem(components=("4",), n=2), (0.0,), FdParams(h=0.0625))
    path = tmp_path / "sol.bin"
    write_solution_binary(sol, path)
    with pytest.raises(ValueError, match="spacing or origin does not match"):
        read_solution_binary(path, Ball(center=center, radius=1.0))
    assert np.array_equal(read_solution_binary(path, DISK).fields[0], sol.fields[0])


@pytest.mark.parametrize("obj, key, message", [
    ({"h": 0.0625, "max_euler": 3}, "max_euler",
     "unknown params key 'max_euler'; allowed: h, tol, stencil_width, max_newton"),
    ([0.0625], "params", "params must be a JSON object"),
    ({"h": True}, "h", "h must be a positive finite number, got True"),
    ({"tol": float("nan")}, "tol", "tol must be a positive finite number"),
    ({"stencil_width": 4}, "stencil_width", "stencil_width must be 1, 2 or 3"),
    ({"max_newton": 0}, "max_newton", "max_newton must be an integer >= 1"),
], ids=["unknown-key", "not-an-object", "h-true", "tol-nan", "width-4", "max-newton-0"])
def test_params_from_json_rejects_naming_the_key(obj, key, message):
    with pytest.raises(ValueError, match=message) as err:
        FdParams.from_json(obj)
    assert err.value.key == key


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
    assert all(sol.convex)
    xy = sol.grid.node_xy
    bad = GridSolution(grid=sol.grid,
                       fields=[sol.fields[0] + 0.05 * np.sin(8.0 * np.pi * xy[:, 0]),
                               sol.fields[1]],
                       cs=sol.cs)
    assert not all(bad.convex)


@pytest.mark.parametrize("s", [1.0, 1e-6, 1e-12])
def test_convexity_audit_scales_with_the_field(s):
    """-s x1^2 has second differences -2s along (1, 0) and is flagged at every
    scale; s (|x|^2 - 1) is convex and is flagged at none."""
    grid = StencilGrid(DISK, 1.0 / 32.0, 2)
    x = grid.node_xy
    concave = GridSolution(grid=grid, fields=[-s * x[:, 0] ** 2], cs=(0.0,))
    convex = GridSolution(grid=grid, fields=[s * (np.sum(x * x, axis=1) - 1.0)], cs=(0.0,))
    assert concave.convex == (False,)
    assert convex.convex == (True,)


def test_solution_is_frozen_and_holds_read_only_copies():
    grid = StencilGrid(DISK, 1.0 / 8.0, 2)
    u = np.sum(grid.node_xy ** 2, axis=1) - 1.0
    sol = GridSolution(grid=grid, fields=[u], cs=(0.0,))
    assert isinstance(sol.fields, tuple) and np.array_equal(sol.fields[0], u)
    with pytest.raises(ValueError):
        sol.fields[0][0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        sol.fields = (u,)
    u[0] = 2.0
    assert u.flags.writeable and sol.fields[0][0] != 2.0
    assert sol != GridSolution(grid=grid, fields=sol.fields, cs=(0.0,)) and sol == sol


def test_read_back_solution_reports_the_solved_convexity(tmp_path):
    sol = solve_system_fd(DISK, power_coupled_system(1.0, 1.0), (0.0, 0.0), FdParams(h=0.0625))
    path = tmp_path / "sol.bin"
    write_solution_binary(sol, path)
    assert read_solution_binary(path, DISK).convex == sol.convex == (True, True)


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
        mats.append(_newton_matrix(grid, u, c, _ma_and_active(grid, u, c)[1], 1e-8))
    for A in mats:
        b = rng.normal(size=N)
        ref = spla.spsolve(A.tocsc(), b)
        x = _factor(A).solve(b)
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
    zero_lu = types.SimpleNamespace(solve=lambda b: 0.0 * b)
    monkeypatch.setattr(gridsolve, "_factor", lambda A: solved.append(A) or zero_lu)
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
        _assert_same_csc(_newton_matrix(grid, u, c, active, 1e-8),
                         _reference_newton_matrix(grid, u, c, active))
        grad = gradient_at_nodes(grid, u, c)
        for k, v in enumerate(((1, 0), (0, 1))):
            gp, gm = (np.where(n >= 0, u[np.maximum(n, 0)], c)
                      for n, _ in (grid.arms(v), grid.arms((-v[0], -v[1]))))
            rho = grid.arms(v)[1] + grid.arms((-v[0], -v[1]))[1]
            np.testing.assert_array_equal(grad[:, k], (gp - gm) / (rho * grid.h))



@pytest.mark.parametrize("domain", [DISK, Ellipse(center=(0.0, 0.0), semi_axes=(1.0, 0.6))],
                         ids=["disk", "ellipse"])
@pytest.mark.parametrize("s", [1e-20, 1e-40])
def test_tiny_source_solves_as_a_scaled_unit_source(domain, s):
    """det D^2 u = s (4 + x1) has the solution sqrt(s) u of the unit source:
    the start and the Newton gain floors scale with the source, so the solve
    takes the sweeps of s = 1 (fixed floors stalled it at a residual of
    about 1e-19 until max_newton)."""
    params = FdParams(h=1.0 / 16.0)

    def solve(scale):
        system = RhsSystem(components=(parse(f"{scale!r} * (4 + x1)"),), n=2)
        return solve_system_fd(domain, system, (0.0,), params)

    unit, small = solve(1.0), solve(s)
    assert len(small.history) == len(unit.history)
    ref = math.sqrt(s) * unit.fields[0]
    assert np.max(np.abs(small.fields[0] - ref)) <= 1e-12 * np.max(np.abs(ref))


class _CountedLU:
    """An LU that a weak reference can follow, so a test sees when it is freed."""

    def __init__(self, lu):
        self.solve = lu.solve


@pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (1.0, 2.0), (2.0, 3.0)])
def test_power_pair_factors_its_shared_first_newton_matrix_once(alpha, beta, monkeypatch):
    """Both components of a power pair step first from the shared Laplace
    start, so their first Newton matrices are the same: the solve factors
    it once and steps the second component with that LU.  Every ``splu``
    call then factors a different matrix, the calls are the Laplace solve
    plus every Newton step but the second, the history counts them, no
    factorization starts while another LU is alive, and none outlives the
    solve.  Refactoring the matrix instead gives the same fields to the
    bit and one more factorization."""
    factored, alive, reused = [], [], []
    splu, step = spla.splu, gridsolve._newton_step

    def counted(A, **kwargs):
        assert all(ref() is None for ref in alive)
        factored.append(A.copy())
        lu = _CountedLU(splu(A, **kwargs))
        alive.append(weakref.ref(lu))
        return lu

    def solve():
        factored.clear(), alive.clear(), reused.clear()
        sol = solve_system_fd(DISK, power_coupled_system(alpha, beta), (0.0, 0.0),
                              FdParams(h=1.0 / 16.0))
        assert all(ref() is None for ref in alive)
        return sol

    monkeypatch.setattr(gridsolve.spla, "splu", counted)
    monkeypatch.setattr(gridsolve, "_newton_step",
                        lambda *args: reused.append(args[-1] is not None) or step(*args))
    sol = solve()
    assert len(factored) == sum(r["factorizations"] for r in sol.history) == len(reused)
    assert reused.index(True) == 1 and reused.count(True) == 1
    for A, B in itertools.combinations(factored, 2):
        assert not (np.array_equal(A.indptr, B.indptr) and np.array_equal(A.indices, B.indices)
                    and np.array_equal(A.data, B.data))
    # the caller still holds the LU it passes while the step factors anew
    monkeypatch.setattr(gridsolve.spla, "splu", lambda A, **kwargs: factored.append(A) or splu(
        A, **kwargs))
    monkeypatch.setattr(gridsolve, "_newton_step",
                        lambda *args: reused.append(False) or step(*args[:-1], None))
    again = solve()
    assert len(factored) == len(reused) + 1 == sum(r["factorizations"] for r in sol.history) + 1
    for u, v in zip(sol.fields, again.fields):
        np.testing.assert_array_equal(u.view(np.uint64), v.view(np.uint64))


def test_generic_pair_factors_every_newton_matrix(monkeypatch):
    """A system that is not a power pair starts each component from its own
    Laplace solve, so no two steps share a Newton matrix: the solve hands
    no LU to ``_newton_step``, its ``splu`` calls are the two Laplace solves
    plus one per step, the history counts them, no factorization starts
    while another LU is alive, and none outlives the solve."""
    factored, alive, handed = [], [], []
    splu, step = spla.splu, gridsolve._newton_step

    def counted(A, **kwargs):
        assert all(ref() is None for ref in alive)
        factored.append(A)
        lu = _CountedLU(splu(A, **kwargs))
        alive.append(weakref.ref(lu))
        return lu

    monkeypatch.setattr(gridsolve.spla, "splu", counted)
    monkeypatch.setattr(gridsolve, "_newton_step",
                        lambda *args: handed.append(args[-1] is not None) or step(*args))
    system = RhsSystem(components=(parse("(0 - z2) + 1"), parse("(0 - z1) + 1")), n=2)
    sol = solve_system_fd(Ellipse(center=(0.0, 0.0), semi_axes=(1.0, 0.6)), system, (0.0, 0.0),
                          FdParams(h=1.0 / 16.0))
    assert all(ref() is None for ref in alive)
    assert handed and not any(handed)
    assert len(factored) == sum(r["factorizations"] for r in sol.history) == len(handed) + 2


def _paraboloid_step(field_of, res_sign):
    """_newton_step on DISK at h = 1/16 for MA(u) = 8, from u = field_of(xy)
    with the residual times ``res_sign``; returns the divergence it raises."""
    grid = StencilGrid(DISK, 1.0 / 16.0, 2)
    u = field_of(grid.node_xy)
    gh = np.full(grid.n_nodes, 8.0)
    ma, active = _ma_and_active(grid, u, 0.0)
    history = [{"sweep": 0, "residuals": [4.0], "halvings": 0, "factorizations": 1}]
    with pytest.raises(SolverDivergence) as err:
        gridsolve._newton_step(grid, gh, 0.0, u, res_sign * (ma - gh), active, 1e-8, history)
    assert err.value.history == history
    return err.value


def test_newton_step_with_a_nan_field_is_non_finite():
    def u(xy):
        out = np.sum(xy ** 2, axis=1) - 1.0
        out[len(out) // 2] = np.nan
        return out

    assert "Newton step is singular or non-finite at residual" in str(_paraboloid_step(u, 1.0))


def test_newton_step_against_the_residual_exhausts_the_line_search():
    """u = |x|^2 - 1 has MA = 4 to rounding: a step solved for the negated
    residual lowers MA further from 8 at every step length."""
    err = _paraboloid_step(lambda xy: np.sum(xy ** 2, axis=1) - 1.0, -1.0)
    assert "Newton line search exhausted at residual 4.000e+00" in str(err)
