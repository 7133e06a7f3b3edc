"""Monotone wide-stencil finite differences for det D^2 u on 2-D domains.

The operator at a node is the minimum over discrete orthogonal direction
pairs of the product of (clamped) second differences, a degenerate
elliptic scheme that selects convex solutions.  Stencil arms that cross
the boundary are shortened to the exact crossing point against the
constant Dirichlet value (cut cells), so smooth domains carry no
staircase error.  Scalar problems go through damped Newton with an
explicit Euler fallback; coupled systems run Gauss-Seidel sweeps over
the components with the coupling frozen one sweep back.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .rhs import RhsSystem, eval_f

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
    """Both Newton and the Euler fallback failed; carries iteration history."""

    def __init__(self, message, history):
        super().__init__(message)
        self.history = list(history)


@dataclass(frozen=True)
class FdParams:
    h: float = 1.0 / 64.0
    tol: float = 1e-8
    stencil_width: int = 2
    newton_damping: float = 1.0
    max_newton: int = 60
    max_euler: int = 200_000
    max_picard: int = 200
    max_sweeps: int = 400
    sweep_relaxation: float = 1.0
    tol_convex: float = 1e-8

    def to_json(self):
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @staticmethod
    def from_json(obj):
        return FdParams(**obj)


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
    crossed (the arm value there is the Dirichlet constant).

    The arm tables of all D stencil directions and their opposites are
    built once, in the constructor, and stacked: an ``int32`` neighbor
    array and a rho array of shape (2 D, N), row k for the k-th
    direction of ``pairs`` (flattened pair by pair) and row D + k for
    its opposite, plus the per-direction factor
    K = 2 / ((rho+ + rho-) |v|^2 h^2).  :meth:`arms` returns row views,
    and the operator reads every second difference of a field with one
    gather from ``append(u, c)``.
    """

    def __init__(self, domain, h, stencil_width=2):
        if domain.dimension != 2:
            raise ValueError("grid solver is 2-D")
        self.domain = domain
        self.h = float(h)
        self.width = stencil_width
        bb = domain.bounding_box()
        pad = 2 * h
        self.x0, self.y0 = bb[0, 0] - pad, bb[1, 0] - pad
        self.nx = int(math.ceil((bb[0, 1] + pad - self.x0) / h)) + 1
        self.ny = int(math.ceil((bb[1, 1] + pad - self.y0) / h)) + 1
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

    def _boundary_fraction(self, pts, step):
        """Largest t in (0, 1] with pts + t*step still inside, by bisection."""
        lo = np.zeros(len(pts))
        hi = np.ones(len(pts))
        for _ in range(52):
            mid = 0.5 * (lo + hi)
            ins = self.domain.contains(pts + mid[:, None] * step)
            lo = np.where(ins, mid, lo)
            hi = np.where(ins, hi, mid)
        return np.maximum(0.5 * (lo + hi), 1e-6)

    def _arm_table(self, v):
        """Arm table along +v: (neighbor unknown index or -1, rho)."""
        dv = np.array(v)
        ij2 = self.node_ij + dv
        ok = (ij2[:, 0] >= 0) & (ij2[:, 0] < self.nx) & (ij2[:, 1] >= 0) & (ij2[:, 1] < self.ny)
        nbr = -np.ones(self.n_nodes, dtype=int)
        nbr[ok] = self.index[ij2[ok, 0], ij2[ok, 1]]
        rho = np.ones(self.n_nodes)
        cut = nbr < 0
        if cut.any():
            step = self.h * dv.astype(float)
            rho[cut] = self._boundary_fraction(self.node_xy[cut], step)
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
        picks up the boundary constant.  The arithmetic is that of
        :meth:`second_difference`, so the values are bit-identical.
        """
        D = len(self._K)
        g = np.append(u, c)[self._nbr]
        val = self._K * ((g[:D] - u) / self._rho[:D] + (g[D:] - u) / self._rho[D:])
        return val.reshape(len(self.pairs), 2, self.n_nodes)

    def second_difference(self, v, u, c):
        """Cut-cell second difference along v for interior values u, boundary c.

        Returns (value, coeff_center, coeff_plus, coeff_minus, nbr_plus,
        nbr_minus); the coefficient arrays define the linear dependence on
        the unknowns (boundary arms contribute constants).
        """
        np_, rp = self.arms(v)
        nm, rm = self.arms((-v[0], -v[1]))
        ell2 = (self.h ** 2) * (v[0] ** 2 + v[1] ** 2)
        K = 2.0 / ((rp + rm) * ell2)
        gp = np.where(np_ >= 0, u[np.maximum(np_, 0)], c)
        gm = np.where(nm >= 0, u[np.maximum(nm, 0)], c)
        val = K * ((gp - u) / rp + (gm - u) / rm)
        cc = -K * (1.0 / rp + 1.0 / rm)
        cp = np.where(np_ >= 0, K / rp, 0.0)
        cm = np.where(nm >= 0, K / rm, 0.0)
        return val, cc, cp, cm, np_, nm


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
    return vals[active, np.arange(grid.n_nodes)], active


def ma_operator_discrete(grid, u, node=None, c=0.0):
    """Wide-stencil determinant-of-Hessian approximation.

    ``u`` holds interior values; ``node`` selects a single node or None
    for the full array.
    """
    vals, _ = _ma_and_active(grid, np.asarray(u, dtype=float), c)
    return vals if node is None else float(vals[node])


def _laplace_init(grid, rhs, c):
    """Solve the cut-cell Poisson problem Delta u = rhs with u = c on the boundary."""
    N = grid.n_nodes
    rows, cols, data = [], [], []
    b = np.asarray(rhs, dtype=float).copy()
    u0 = np.zeros(N)
    for v in ((1, 0), (0, 1)):
        _, cc, cp, cm, np_, nm = grid.second_difference(v, u0, 0.0)
        rows.append(np.arange(N)); cols.append(np.arange(N)); data.append(cc)
        okp = np_ >= 0
        rows.append(np.arange(N)[okp]); cols.append(np_[okp]); data.append(cp[okp])
        b[~okp] -= c * (2.0 / ((grid.arms(v)[1] + grid.arms((-v[0], -v[1]))[1]) * grid.h ** 2) / grid.arms(v)[1])[~okp]
        okm = nm >= 0
        rows.append(np.arange(N)[okm]); cols.append(nm[okm]); data.append(cm[okm])
        b[~okm] -= c * (2.0 / ((grid.arms(v)[1] + grid.arms((-v[0], -v[1]))[1]) * grid.h ** 2) / grid.arms((-v[0], -v[1]))[1])[~okm]
    A = sp.csr_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(N, N))
    return spla.spsolve(A, b)


def _newton_matrix(grid, u, c, active, floor=1e-8):
    """Linearization of the operator at the active pair per node.

    Where a factor is clamped the penalty contributes a unit gain, so
    every row stays uniformly elliptic.
    """
    N = grid.n_nodes
    rows, cols, data = [], [], []
    idx = np.arange(N)
    for k, (v, w) in enumerate(grid.pairs):
        sel = active == k
        if not sel.any():
            continue
        a, acc, acp, acm, anp, anm = grid.second_difference(v, u, c)
        bq, bcc, bcp, bcm, bnp, bnm = grid.second_difference(w, u, c)
        ap = np.maximum(a, 0.0)
        bp = np.maximum(bq, 0.0)
        ga = np.where(a > 0, np.maximum(bp, floor), 1.0)
        gb = np.where(bq > 0, np.maximum(ap, floor), 1.0)
        for coeff, nbr, gain in ((acc, idx, ga), (acp, anp, ga), (acm, anm, ga),
                                 (bcc, idx, gb), (bcp, bnp, gb), (bcm, bnm, gb)):
            ok = sel & (nbr >= 0) & (coeff != 0.0)
            rows.append(idx[ok]); cols.append(nbr[ok]); data.append((gain * coeff)[ok])
    return sp.csr_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(N, N))


def _solve_operator_equation(grid, gh, c, u, params, history):
    """Newton iterations for MA(u) = gh, with an Euler fallback on stagnation."""
    res, active = _ma_and_active(grid, u, c)
    res = res - gh
    best = float(np.max(np.abs(res)))
    merit = float(np.linalg.norm(res))
    scale = max(1.0, float(np.max(np.abs(gh))))
    for it in range(params.max_newton):
        if best <= params.tol * scale:
            return u
        J = _newton_matrix(grid, u, c, active)
        try:
            delta = spla.spsolve(J, -res)
        except Exception:
            break
        if not np.all(np.isfinite(delta)):
            break
        step = params.newton_damping
        improved = False
        for _ in range(30):
            u_try = u + step * delta
            r_try, a_try = _ma_and_active(grid, u_try, c)
            r_try = r_try - gh
            m_try = float(np.linalg.norm(r_try))
            if m_try < merit * (1.0 - 1e-4 * step):
                u, res, active = u_try, r_try, a_try
                merit = m_try
                best = float(np.max(np.abs(res)))
                improved = True
                break
            step *= 0.5
        history.append(("newton", it, best))
        if not improved:
            break
    if best <= params.tol * scale:
        return u
    # Euler fallback: parabolic relaxation toward MA(u) = gh
    dt = grid.h ** 2 / 4.0
    for it in range(params.max_euler):
        res, _ = _ma_and_active(grid, u, c)
        res = res - gh
        nrm = float(np.max(np.abs(res)))
        if nrm <= params.tol * scale:
            history.append(("euler", it, nrm))
            return u
        u = u + dt * res
    history.append(("euler", params.max_euler, nrm))
    raise DivergenceError(f"operator solve stalled at residual {nrm:.3e}", history)


@dataclass
class GridSolution:
    """Solution fields for all components on a cut-cell grid."""

    grid: StencilGrid
    fields: list                 # per component, values at interior nodes (N,)
    cs: tuple                    # boundary constants
    convex: tuple = ()           # per-field convexity audit outcome

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

    def convexity_audit(self, tol=1e-8):
        """Directional second differences >= -tol along every stencil direction."""
        g = self.grid
        flags = []
        for i in range(self.m):
            sd = g._second_differences(self.fields[i], self.cs[i])
            flags.append(not np.any(sd < -tol / g.h ** 2))
        return tuple(flags)


def solve_scalar_fd(domain, g, c, params=None, grid=None, init=None):
    """Solve det D^2 u = g(x, u, grad u) with constant Dirichlet data.

    ``g`` is a vectorized callable g(xy, u, grad) -> (N,); dependence on
    (u, grad u) is handled by an outer Picard loop around the Newton
    operator solve.  Returns the interior value array; pair with the grid
    (or use :func:`solve_system_fd` for a full :class:`GridSolution`).
    """
    params = params or FdParams()
    if grid is None:
        grid = StencilGrid(domain, params.h, params.stencil_width)
    history = []
    zeros = np.zeros(grid.n_nodes)
    if init is None:
        g0 = np.maximum(np.asarray(g(grid.node_xy, np.full(grid.n_nodes, c), np.zeros((grid.n_nodes, 2))), dtype=float), 1e-12)
        g0 = np.broadcast_to(g0, (grid.n_nodes,))
        u = _laplace_init(grid, 2.0 * np.sqrt(g0), c)
    else:
        u = init.copy()
    for it in range(params.max_picard):
        grad = gradient_at_nodes(grid, u, c)
        gh = np.broadcast_to(np.asarray(g(grid.node_xy, u, grad), dtype=float),
                             (grid.n_nodes,))
        if np.any(gh <= 0):
            raise DivergenceError("source must stay positive (ellipticity)", history)
        u_new = _solve_operator_equation(grid, gh, c, u, params, history)
        change = float(np.max(np.abs(u_new - u)))
        u = u_new
        history.append(("picard", it, change))
        if change <= params.tol * max(1.0, float(np.max(np.abs(u)))):
            break
    else:
        raise DivergenceError("outer Picard loop did not converge", history)
    return u, grid


def gradient_at_nodes(grid, u, c):
    """Centered cut-cell first differences at interior nodes."""
    out = np.zeros((grid.n_nodes, 2))
    for k, v in enumerate(((1, 0), (0, 1))):
        np_, rp = grid.arms(v)
        nm, rm = grid.arms((-v[0], -v[1]))
        gp = np.where(np_ >= 0, u[np.maximum(np_, 0)], c)
        gm = np.where(nm >= 0, u[np.maximum(nm, 0)], c)
        out[:, k] = (gp - gm) / ((rp + rm) * grid.h)
    return out


def solve_system_fd(domain, system, cs, params=None):
    """Gauss-Seidel over components for the coupled system.

    Each sweep solves every scalar problem with the other components
    frozen from the previous sweep (gradients included).  Returns a
    :class:`GridSolution`.
    """
    params = params or FdParams()
    if len(cs) != system.m:
        raise ValueError("one boundary constant per component is required")
    grid = StencilGrid(domain, params.h, params.stencil_width)
    m = system.m
    fields = [np.full(grid.n_nodes, cs[i] - 0.1) for i in range(m)]
    first = True
    for sweep in range(params.max_sweeps):
        change = 0.0
        for i in range(m):
            def g(xy, u, grad, i=i):
                z = np.stack([fields[j] if j != i else u for j in range(m)], axis=-1)
                return eval_f(system, i + 1, xy, z, grad)
            u_new, _ = solve_scalar_fd(domain, g, cs[i], params, grid=grid,
                                       init=None if first else fields[i])
            w = params.sweep_relaxation if not first else 1.0
            u_rel = (1.0 - w) * fields[i] + w * u_new
            change = max(change, float(np.max(np.abs(u_rel - fields[i]))))
            fields[i] = u_rel
        first = False
        if change <= params.tol * 10:
            break
    else:
        raise DivergenceError("component sweeps did not converge", [("sweep", sweep, change)])
    sol = GridSolution(grid=grid, fields=fields, cs=tuple(cs))
    sol.convex = sol.convexity_audit(params.tol_convex)
    return sol


def write_solution_csv(sol, path):
    """CSV with one row per interior node: x, y, u1..um."""
    xy = sol.grid.node_xy
    cols = [xy[:, 0], xy[:, 1]] + list(sol.fields)
    header = "x,y," + ",".join(f"u{i+1}" for i in range(sol.m))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in zip(*cols):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _mask_rle(mask):
    flat = mask.ravel(order="C").astype(np.int8)
    runs, val, count = [], int(flat[0]), 0
    for b in flat:
        if int(b) == val:
            count += 1
        else:
            runs.append(count)
            val, count = int(b), 1
    runs.append(count)
    return {"first": int(flat[0]), "runs": runs}


def _mask_from_rle(rle, shape):
    out = np.empty(int(np.prod(shape)), dtype=bool)
    pos, val = 0, bool(rle["first"])
    for run in rle["runs"]:
        out[pos:pos + run] = val
        pos += run
        val = not val
    return out.reshape(shape)


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
