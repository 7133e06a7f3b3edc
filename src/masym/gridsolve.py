"""Monotone wide-stencil finite differences for det D^2 u on 2-D domains.

The operator at a node is the minimum over discrete orthogonal direction
pairs of the product of (clamped) second differences, a degenerate
elliptic scheme that selects convex solutions.  Stencil arms that cross
the boundary are shortened to the exact crossing point against the
constant Dirichlet value (cut cells), so smooth domains carry no
staircase error.  Scalar problems and coupled systems run one sweep
loop: each sweep re-evaluates every component's source at the current
fields and takes one damped Newton step on that component's operator
equation, unless its residual is already within tolerance, relative to
the source.  The power pair det D^2 u_i = mu_i (-u_j)^e_i runs that loop
on unit profiles and takes its amplitudes from a 2x2 log-amplitude
system, as the radial solver does.  Every linearization (the Newton
Jacobian, the Laplace start and the gradient) reads the stacked arm
table of the grid, and every linear solve factors its matrix once,
without pivoting.
"""

from __future__ import annotations

import json
import math
import numbers
import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .domains import GeometryError
from .radial import NoSolution, log_amplitudes, out_of_range
from .rhs import eval_f

__all__ = [
    "FdParams",
    "StencilGrid",
    "GridSolution",
    "DivergenceError",
    "stencil_directions",
    "ma_operator_discrete",
    "solve_scalar_fd",
    "solve_system_fd",
    "write_solution_csv",
    "write_solution_binary",
    "read_solution_binary",
]


class DivergenceError(RuntimeError):
    """The grid solve failed; carries the sweep history.

    Raised when a source is non-positive or non-finite, when a Newton
    step is singular or non-finite, when the line search is exhausted or
    when the sweeps reach ``max_newton``.  ``history`` holds one record
    per sweep, as :attr:`GridSolution.history` does.
    """

    def __init__(self, message, history):
        super().__init__(message)
        self.history = list(history)


@dataclass(frozen=True)
class FdParams:
    """Grid spacing, residual tolerance, stencil width (1, 2 or 3) and sweep cap.

    Raises ``ValueError`` naming the first field that is out of range.
    """

    h: float = 1.0 / 64.0
    tol: float = 1e-8
    stencil_width: int = 2
    max_newton: int = 60

    def __post_init__(self):
        def typed(v, kind):
            return isinstance(v, kind) and not isinstance(v, bool)

        def positive_finite(v):
            try:
                return typed(v, numbers.Real) and 0.0 < float(v) < math.inf
            except OverflowError:  # an int beyond the float64 range
                return False

        for name in ("h", "tol"):
            v = getattr(self, name)
            if not positive_finite(v):
                raise ValueError(f"{name} must be a positive finite number, got {v!r}")
        if not (typed(self.stencil_width, numbers.Integral) and 1 <= self.stencil_width <= 3):
            raise ValueError(f"stencil_width must be 1, 2 or 3, got {self.stencil_width!r}")
        if not (typed(self.max_newton, numbers.Integral) and self.max_newton >= 1):
            raise ValueError(f"max_newton must be an integer >= 1, got {self.max_newton!r}")

    @staticmethod
    def from_json(obj):
        return FdParams(**obj)


# bounding-box grid points a StencilGrid may allocate (h = 1/1000 on the unit disk)
MAX_GRID_POINTS = 2 ** 22


def stencil_directions(width):
    """Primitive integer directions (p, q) in the closed upper half plane."""
    if width not in (1, 2, 3):
        raise ValueError("stencil_width must be 1, 2 or 3")
    dirs = []
    for p in range(-width, width + 1):
        for q in range(0, width + 1):
            if (p, q) == (0, 0) or (q == 0 and p <= 0):
                continue
            if math.gcd(abs(p), q) != 1:
                continue
            dirs.append((p, q))
    return dirs


def _orthogonal_pairs(width):
    """Unordered orthogonal pairs {v, v_perp} of stencil directions."""
    dirs = stencil_directions(width)

    def canon(v):
        p, q = v
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        return (p, q)

    seen, pairs = set(), []
    for v in dirs:
        w = canon((-v[1], v[0]))
        if max(abs(w[0]), abs(w[1])) > width:
            continue
        key = frozenset((canon(v), w))
        if key in seen:
            continue
        seen.add(key)
        pairs.append((canon(v), w))
    return pairs


class StencilGrid:
    """Uniform grid over the domain's bounding box with cut-cell arms.

    Interior nodes are the grid nodes strictly inside the domain.  For
    every stencil direction each node stores either an interior
    neighbor or the fraction rho of the arm at which the boundary is
    crossed, from :meth:`Domain.ray_exit` (the arm value there is the
    Dirichlet constant).

    The arm tables of all D stencil directions and their opposites are
    built once, in the constructor, and stacked: an ``int32`` neighbor
    array and a rho array of shape (2 D, N), row k for the k-th
    direction of ``pairs`` (flattened pair by pair) and row D + k for
    its opposite, plus the per-direction factor
    K = 2 / ((rho+ + rho-) |v|^2 h^2).  :meth:`arms` returns row views,
    and the operator reads every second difference of a field with one
    gather from ``append(u, c)``.

    Raises :class:`GeometryError` before allocating anything when the
    padded bounding box holds more than ``MAX_GRID_POINTS`` grid points.
    """

    def __init__(self, domain, h, stencil_width=2):
        if domain.dimension != 2:
            raise GeometryError("grid solver is 2-D")
        self.domain = domain
        self.h = float(h)
        self.width = stencil_width
        bb = domain.bounding_box()
        pad = 2 * h
        self.x0, self.y0 = bb[0, 0] - pad, bb[1, 0] - pad
        self.nx = int(math.ceil((bb[0, 1] + pad - self.x0) / h)) + 1
        self.ny = int(math.ceil((bb[1, 1] + pad - self.y0) / h)) + 1
        if self.nx * self.ny > MAX_GRID_POINTS:
            raise GeometryError(
                f"h = {self.h} needs a {self.nx} x {self.ny} grid, more than "
                f"{MAX_GRID_POINTS} points")
        self.xs = self.x0 + h * np.arange(self.nx)
        self.ys = self.y0 + h * np.arange(self.ny)
        X, Y = np.meshgrid(self.xs, self.ys, indexing="ij")
        self.points = np.stack([X, Y], axis=-1)           # (nx, ny, 2)
        self.inside = domain.contains(self.points.reshape(-1, 2)).reshape(self.nx, self.ny)
        self.index = -np.ones((self.nx, self.ny), dtype=int)
        ii, jj = np.nonzero(self.inside)
        self.index[ii, jj] = np.arange(len(ii))
        self.node_ij = np.stack([ii, jj], axis=1)
        self.node_xy = self.points[ii, jj]                # (N, 2)
        self.n_nodes = len(ii)
        if self.n_nodes == 0:
            raise GeometryError(f"no node of the grid with h = {self.h} lies inside the domain")
        self.pairs = _orthogonal_pairs(stencil_width)
        dirs = [v for pair in self.pairs for v in pair]
        rows = dirs + [(-p, -q) for p, q in dirs]
        self._row = {v: k for k, v in enumerate(rows)}
        tables = [self._arm_table(v) for v in rows]
        self._nbr = np.array([nbr for nbr, _ in tables], dtype=np.int32)
        self._rho = np.array([rho for _, rho in tables])
        D = len(dirs)
        ell2 = (self.h ** 2) * np.array([[p * p + q * q] for p, q in dirs], dtype=float)
        self._K = 2.0 / ((self._rho[:D] + self._rho[D:]) * ell2)
        for a in (self._nbr, self._rho, self._K):
            a.flags.writeable = False

    def _arm_table(self, v):
        """Arm table along +v: (neighbor unknown index or -1, rho)."""
        dv = np.array(v)
        ij2 = self.node_ij + dv
        ok = (ij2[:, 0] >= 0) & (ij2[:, 0] < self.nx) & (ij2[:, 1] >= 0) & (ij2[:, 1] < self.ny)
        nbr = -np.ones(self.n_nodes, dtype=int)
        nbr[ok] = self.index[ij2[ok, 0], ij2[ok, 1]]
        rho = np.ones(self.n_nodes)
        cut = nbr < 0
        rho[cut] = np.clip(self.domain.ray_exit(self.node_xy[cut], self.h * dv), 1e-6, 1.0)
        return nbr, rho

    def arms(self, v):
        """Arm table along stencil direction ``v`` or its opposite.

        Returns read-only row views ``(neighbor unknown index or -1, rho)``
        of the stacked tables.
        """
        k = self._row[tuple(v)]
        return self._nbr[k], self._rho[k]

    def _second_differences(self, u, c):
        """Every stencil second difference of ``u``, shape (pairs, 2, N).

        One gather from ``append(u, c)`` reads all arm values; index -1
        picks up the boundary constant.  Along direction v with arms
        rho+ and rho- the value is the cut-cell second difference
        K ((u+ - u) / rho+ + (u- - u) / rho-), K = 2 / ((rho+ + rho-) |v|^2 h^2).
        """
        D = len(self._K)
        g = np.append(u, c)[self._nbr]
        val = self._K * ((g[:D] - u) / self._rho[:D] + (g[D:] - u) / self._rho[D:])
        return val.reshape(len(self.pairs), 2, self.n_nodes)


def _ma_and_active(grid, u, c):
    """Vectorized operator value and the active pair index per node.

    Negative directional second differences are clamped out of the
    product and re-added as a linear penalty, the usual convexification
    of the determinant scheme.  For a positive source the two forms have
    the same solutions, but the penalty keeps the linearization
    nondegenerate at non-convex iterates, which Newton needs to recover
    from them.
    """
    sd = grid._second_differences(u, c)
    a, b = sd[:, 0], sd[:, 1]
    vals = np.maximum(a, 0.0) * np.maximum(b, 0.0) + np.minimum(a, 0.0) + np.minimum(b, 0.0)
    active = np.argmin(vals, axis=0)
    return vals[active, np.arange(vals.shape[1])], active


def ma_operator_discrete(grid, u, c=0.0):
    """Wide-stencil determinant-of-Hessian approximation at every interior
    node, for interior values ``u`` and boundary constant ``c``."""
    return _ma_and_active(grid, np.asarray(u, dtype=float), c)[0]


def _pair_rows(grid, pair, gains):
    """Gain-weighted linear rows of the second differences of one pair per node.

    Row i is ``gains[0, i]`` times the cut-cell second difference along
    the first direction of pair ``pair[i]`` plus ``gains[1, i]`` times the
    one along its second direction, as a linear map of the interior
    values.  All rows come from the stacked arm table in one pass;
    boundary arms hold no unknown and drop out.
    """
    N = grid.n_nodes
    D = len(grid._K)
    idx = np.arange(N)
    r = 2 * pair + np.arange(2)[:, None]              # (2, N) direction rows
    K = grid._K[r, idx]
    rp, rm = grid._rho[r, idx], grid._rho[D + r, idx]
    nbr = np.stack([np.broadcast_to(idx, (2, N)), grid._nbr[r, idx], grid._nbr[D + r, idx]])
    coeff = np.stack([-K * (1.0 / rp + 1.0 / rm), K / rp, K / rm])
    ok = nbr >= 0
    rows = np.broadcast_to(idx, nbr.shape)[ok]
    return sp.csr_matrix(((gains * coeff)[ok], (rows, nbr[ok])), shape=(N, N))


def _laplace_init(grid, rhs, c):
    """Solve the cut-cell Poisson problem Delta u = rhs with u = c on the boundary.

    A constant is harmonic against its own boundary value, so u - c
    solves the problem with zero boundary data.
    """
    N = grid.n_nodes
    axes = np.full(N, grid._row[(1, 0)] // 2)
    return _factor_solve(_pair_rows(grid, axes, np.ones((2, N))), rhs) + c


def _newton_matrix(grid, u, c, active):
    """Linearization of the operator at the active pair per node.

    Where a factor is clamped the penalty contributes a unit gain, and a
    positive factor's gain is at least 1e-8, so every row stays uniformly
    elliptic.
    """
    sd = grid._second_differences(u, c)[active, :, np.arange(grid.n_nodes)].T
    gains = np.where(sd > 0, np.maximum(np.maximum(sd[::-1], 0.0), 1e-8), 1.0)
    return _pair_rows(grid, active, gains)


def gradient_at_nodes(grid, u, c):
    """Centered cut-cell first differences at interior nodes, shape (N, 2)."""
    plus = [grid._row[(1, 0)], grid._row[(0, 1)]]
    minus = [grid._row[(-1, 0)], grid._row[(0, -1)]]
    g = np.append(u, c)[grid._nbr[plus + minus]]
    return ((g[:2] - g[2:]) / ((grid._rho[plus] + grid._rho[minus]) * grid.h)).T


def _factor_solve(A, b):
    """Solve A x = b by a sparse LU factored without pivoting, then drop it.

    The Newton and Laplace matrices are negated M-matrices (a Z-pattern
    with weak row dominance, strict at cut arms), for which Gaussian
    elimination is stable without pivoting; a symmetric minimum-degree
    ordering on A + A^T then keeps the fill low.  SuperLU raises
    ``RuntimeError`` when the factor is exactly singular.
    """
    return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True}).solve(b)


def _newton_step(grid, gh, c, u, res, active, history):
    """One damped Newton step for MA(u) = gh from ``u`` with residual ``res``.

    Returns the new field and the number of line-search halvings; raises
    DivergenceError, carrying ``history``, naming why the step failed.
    """
    best = float(np.max(np.abs(res)))
    try:
        delta = _factor_solve(_newton_matrix(grid, u, c, active), -res)
    except RuntimeError:  # SuperLU: factor is exactly singular
        delta = None
    if delta is None or not np.all(np.isfinite(delta)):
        raise DivergenceError(
            f"Newton step is singular or non-finite at residual {best:.3e}", history)
    merit = float(np.linalg.norm(res))
    step = 1.0
    for halvings in range(30):
        u_try = u + step * delta
        m_try = float(np.linalg.norm(_ma_and_active(grid, u_try, c)[0] - gh))
        if m_try < merit * (1.0 - 1e-4 * step):
            return u_try, halvings
        step *= 0.5
    raise DivergenceError(f"Newton line search exhausted at residual {best:.3e}", history)


def _sweep_solve(grid, source, cs, params, shared_start=False):
    """Fixed point of det D^2 u_i = source(i, fields) over the components.

    Each sweep evaluates every component's source at the current fields
    (the components already updated in this sweep included).  A component
    whose residual is within tol |source|_inf takes no step; any other
    takes one damped Newton step.  The first sweep starts component i from
    the Laplace solve of Delta u = 2 sqrt(source), with u_i = c_i and the
    later components at c_j - 0.1; with ``shared_start`` every component
    starts, before any step, from the first component's solve.  The loop
    returns after the first sweep in which no component was initialized or
    stepped, so every returned component is within tol at the returned
    fields; ``params.max_newton`` caps the sweeps.

    Returns the fields and the history: one record per sweep with the
    residual of each component before its step, the line-search halvings
    and the factorizations of that sweep.
    """
    N = grid.n_nodes
    fields = [np.full(N, c - 0.1) for c in cs]
    history = []
    for sweep in range(params.max_newton):
        record = {"sweep": sweep, "residuals": [], "halvings": 0, "factorizations": 0}
        for i, c in enumerate(cs):
            if sweep == 0 and (i == 0 or not shared_start):
                fields[i] = np.full(N, c)
                g0 = np.broadcast_to(source(i, fields), (N,))
                fields[i] = _laplace_init(grid, 2.0 * np.sqrt(np.maximum(g0, 1e-12)), c)
                record["factorizations"] += 1
                if shared_start:
                    fields = [fields[0]] * len(cs)
            gh = np.broadcast_to(np.asarray(source(i, fields), dtype=float), (N,))
            bad = ~(gh > 0)
            if bad.any():
                raise DivergenceError(
                    f"source of component {i + 1} is non-positive or non-finite at "
                    f"{int(bad.sum())} nodes (ellipticity needs f > 0)", history)
            ma, active = _ma_and_active(grid, fields[i], c)
            res = ma - gh
            best = float(np.max(np.abs(res)))
            record["residuals"].append(best)
            if best <= params.tol * float(np.max(gh)):
                continue
            fields[i], halvings = _newton_step(grid, gh, c, fields[i], res, active,
                                               history + [record])
            record["halvings"] += halvings
            record["factorizations"] += 1
        history.append(record)
        if record["factorizations"] == 0:
            return fields, history
    worst = max(history[-1]["residuals"]) if history else math.nan
    raise DivergenceError(
        f"Newton reached max_newton = {params.max_newton} at residual {worst:.3e}", history)


def _power_term(expr, i):
    """(mu, e) when ``expr`` reads mu (-z_j)^e with j != i and constants mu, e > 0.

    mu is the product of any constant factors, in any order; a missing
    factor or exponent is 1, and -z_j may read neg(z_j) or (0 - z_j).
    Returns None for any other tree.
    """
    mu = 1.0
    while expr.op == "*" and any(a.op == "const" for a in expr.args):
        a, b = expr.args
        factor, expr = (a, b) if a.op == "const" else (b, a)
        mu *= factor.value
    e = 1.0
    if expr.op == "^" and expr.args[1].op == "const":
        e, expr = expr.args[1].value, expr.args[0]
    if expr.op == "neg":
        z = expr.args[0]
    elif expr.op == "-" and expr.args[0].op == "const" and expr.args[0].value == 0.0:
        z = expr.args[1]
    else:
        return None
    if not (z.op == "var" and z.name in ("z1", "z2") and z.name != f"z{i + 1}"):
        return None
    if not (0.0 < mu < math.inf and 0.0 < e < math.inf):
        return None
    return mu, e


def _power_pair(system, cs):
    """((mu_1, mu_2), (e_1, e_2)) when the system is det D^2 u_i = mu_i (-u_j)^e_i,
    j != i, with zero boundary data; None for any other system."""
    if system.m != 2 or tuple(cs) != (0.0, 0.0):
        return None
    terms = [_power_term(f, i) for i, f in enumerate(system.components)]
    if None in terms:
        return None
    return tuple(zip(*terms))


def _solve_power_pair(grid, mu, expo, params):
    """Unit profiles and a 2x2 log-amplitude system for det D^2 u_i = mu_i (-u_j)^e_i.

    Both sides are homogeneous at convex fields, MA_h(t v) = t^2 MA_h(v),
    so the sweeps solve MA_h(w_i) = (-v_j)^e_i for the unit profiles
    v_j = w_j / max(-w_j), and u_i = t_i v_i with the amplitudes t_i read
    off :func:`masym.radial.log_amplitudes` (n = 2, rhs_i =
    2 log max(-w_i) + log mu_i).  The unit sources are bounded by 1
    whatever the amplitudes, so the acceptance rule cannot settle near
    u = 0, and the amplitudes cost no sweeps.  Both components start
    from the unit source 1, so they share one Laplace solve.

    Returns the fields and the history, or :class:`NoSolution` when
    e_1 e_2 = 4 or the amplitudes leave the float64 range.
    """
    def unit_source(i, fields):
        w = np.maximum(-fields[1 - i], 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            return (w / np.max(w)) ** expo[i]

    fields, history = _sweep_solve(grid, unit_source, (0.0, 0.0), params, shared_start=True)
    amp = [float(np.max(-w)) for w in fields]
    log_t = log_amplitudes(expo[0], expo[1], 2, 2.0 * np.log(amp) + np.log(mu), history)
    if isinstance(log_t, NoSolution):
        return log_t
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        t = np.exp(log_t)
        fields = [t[i] * (w / amp[i]) for i, w in enumerate(fields)]
    if not all(np.all(np.isfinite(u)) and np.all(u < 0.0) for u in fields):
        return out_of_range(log_t, history)
    return fields, history


@dataclass
class GridSolution:
    """Solution fields for all components on a cut-cell grid."""

    grid: StencilGrid
    fields: list                 # per component, values at interior nodes (N,)
    cs: tuple                    # boundary constants
    convex: tuple = ()           # per-field convexity audit outcome
    history: list = field(default_factory=list)  # per-sweep records of the solve

    @property
    def m(self):
        return len(self.fields)

    def field_array(self, i, fill=np.nan):
        """Dense (nx, ny) array of component i, `fill` outside the domain."""
        out = np.full((self.grid.nx, self.grid.ny), fill)
        ij = self.grid.node_ij
        out[ij[:, 0], ij[:, 1]] = self.fields[i]
        return out

    def extended_array(self, i):
        """Dense array with first-layer exterior ghosts linearly extrapolated.

        Ghost values continue the solution through the boundary crossing
        against the Dirichlet constant, so bilinear interpolation near
        the boundary stays second order.  Remaining exterior nodes hold
        the boundary constant.
        """
        g = self.grid
        c = self.cs[i]
        out = self.field_array(i, fill=np.nan)
        acc = np.zeros_like(out)
        cnt = np.zeros_like(out)
        for v in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nbr, rho = g.arms(v)
            cut = nbr < 0
            ij2 = g.node_ij[cut] + np.array(v)
            ok = (ij2[:, 0] >= 0) & (ij2[:, 0] < g.nx) & (ij2[:, 1] >= 0) & (ij2[:, 1] < g.ny)
            vals = self.fields[i][cut][ok]
            r = rho[cut][ok]
            ghost = vals + (c - vals) / r
            np.add.at(acc, (ij2[ok, 0], ij2[ok, 1]), ghost)
            np.add.at(cnt, (ij2[ok, 0], ij2[ok, 1]), 1.0)
        ghost_mask = (cnt > 0) & ~self.grid.inside
        out[ghost_mask] = acc[ghost_mask] / cnt[ghost_mask]
        out[np.isnan(out)] = c
        return out

    def convexity_audit(self):
        """Directional second differences >= -1e-8 / h^2 along every stencil direction."""
        g = self.grid
        flags = []
        for i in range(self.m):
            sd = g._second_differences(self.fields[i], self.cs[i])
            flags.append(not np.any(sd < -1e-8 / g.h ** 2))
        return tuple(flags)


def solve_scalar_fd(domain, g, c, params=None):
    """Solve det D^2 u = g(x, u, grad u) with constant Dirichlet data.

    ``g`` is a vectorized callable g(xy, u, grad) -> (N,); dependence on
    (u, grad u) is handled by the sweep loop of :func:`solve_system_fd`
    with one component.  Returns the interior value array and the grid
    (or use :func:`solve_system_fd` for a full :class:`GridSolution`).
    """
    params = params or FdParams()
    grid = StencilGrid(domain, params.h, params.stencil_width)

    def source(i, fields):
        return g(grid.node_xy, fields[0], gradient_at_nodes(grid, fields[0], c))

    (u,), _ = _sweep_solve(grid, source, (c,), params)
    return u, grid


def solve_system_fd(domain, system, cs, params=None):
    """Solve the coupled system by sweeps over its components.

    Each sweep takes at most one damped Newton step per component, with
    the other components at their latest values (gradients included).
    A power pair det D^2 u_i = mu_i (-u_j)^e_i with zero boundary data,
    recognized from its expression trees, is solved for unit profiles and
    a 2x2 log-amplitude system instead (:func:`_solve_power_pair`).

    Returns a :class:`GridSolution` whose ``history`` holds one record per
    sweep: the residual of each component before its step, the
    line-search halvings and the factorizations.  For a power pair
    without a solution a float can hold (e_1 e_2 = 4, or amplitudes out
    of the float64 range) returns :class:`masym.radial.NoSolution`, its
    ``history`` the same sweep records.
    """
    params = params or FdParams()
    if len(cs) != system.m:
        raise ValueError("one boundary constant per component is required")
    grid = StencilGrid(domain, params.h, params.stencil_width)
    pair = _power_pair(system, cs)
    if pair is not None:
        res = _solve_power_pair(grid, *pair, params)
        if isinstance(res, NoSolution):
            return res
        fields, history = res
    else:
        def source(i, fields):
            grad = gradient_at_nodes(grid, fields[i], cs[i])
            return eval_f(system, i + 1, grid.node_xy, np.stack(fields, axis=-1), grad)

        fields, history = _sweep_solve(grid, source, cs, params)
    sol = GridSolution(grid=grid, fields=fields, cs=tuple(cs), history=history)
    sol.convex = sol.convexity_audit()
    return sol


def _write_csv(path, names, cols):
    """CSV with a header of ``names`` and one row per entry of the columns
    ``cols``, each value as the shortest ``repr`` that reads back as the same
    float64."""
    rows = zip(*(np.asarray(col, dtype=float).tolist() for col in cols))
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def write_solution_csv(sol, path):
    """CSV with one row per interior node: x, y, u1..um."""
    xy = sol.grid.node_xy
    _write_csv(path, ["x", "y"] + [f"u{i+1}" for i in range(sol.m)],
               [xy[:, 0], xy[:, 1]] + list(sol.fields))


def _mask_rle(mask):
    """Run lengths of the row-major mask, the first run holding ``first``."""
    flat = mask.ravel(order="C").astype(np.int8)
    ends = np.concatenate(([0], np.flatnonzero(np.diff(flat)) + 1, [flat.size]))
    return {"first": int(flat[0]), "runs": np.diff(ends).tolist()}


def _mask_from_rle(rle, shape):
    runs = rle["runs"]
    vals = (np.arange(len(runs)) % 2 == 0) == bool(rle["first"])
    return np.repeat(vals, runs).reshape(shape)


_MAGIC = b"MAGS"


def write_solution_binary(sol, path):
    """Compact binary layout: header JSON + row-major float64 fields."""
    g = sol.grid
    header = {
        "h": g.h, "x0": g.x0, "y0": g.y0, "nx": g.nx, "ny": g.ny,
        "m": sol.m, "cs": list(sol.cs), "width": g.width,
        "mask": _mask_rle(g.inside),
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for i in range(sol.m):
            arr = sol.field_array(i, fill=sol.cs[i]).astype("<f8")
            fh.write(arr.tobytes(order="C"))


def read_solution_binary(path, domain):
    """Read fields written by :func:`write_solution_binary`."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError("not a grid-solution file")
        (hlen,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(hlen).decode())
        g = StencilGrid(domain, header["h"], header["width"])
        mask = _mask_from_rle(header["mask"], (header["nx"], header["ny"]))
        if g.nx != header["nx"] or g.ny != header["ny"] or not np.array_equal(mask, g.inside):
            raise ValueError("stored mask does not match the domain discretization")
        fields = []
        for _ in range(header["m"]):
            arr = np.frombuffer(fh.read(8 * g.nx * g.ny), dtype="<f8").reshape(g.nx, g.ny)
            fields.append(arr[g.node_ij[:, 0], g.node_ij[:, 1]].copy())
    return GridSolution(grid=g, fields=fields, cs=tuple(header["cs"]))
