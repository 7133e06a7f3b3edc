"""Moving-plane diagnostics on solved determinant-equation fields.

Given a grid solution, a direction nu and a plane position lambda, the
frame machinery reflects the fields across the plane, forms the
difference U = u_reflected - u on the cap, and linearizes the
determinant difference through the matrix mean value identity

    det(H_refl) - det(H) = tr(A (H_refl - H)),
    A = integral_0^1 adj((1-t) H_refl + t H) dt,

whose integrand entries are polynomials of degree n-1 in t, so a fixed
Gauss-Legendre rule evaluates the integral exactly.  On top of the
frames sit certificates: cap monotonicity, mirror symmetry, a Hopf
boundary derivative check, tube corner cross-derivatives and an audit
of the elliptic inequality satisfied by U.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .domains import reflect_point, _as_unit, Ball, Tube
from .gridsolve import _ma_and_active
from .rhs import d_ij as rhs_d_ij

__all__ = [
    "MovingPlaneFrame",
    "LinearizationFields",
    "MovingPlaneReport",
    "adjugate",
    "det_gradient",
    "mean_value_matrix",
    "build_frame",
    "linearize",
    "verify_elliptic_inequality",
    "certify_monotonicity",
    "certify_symmetry",
    "boundary_checks",
    "lambda_sweep",
    "write_heatmap_svg",
]


# ---------------------------------------------------------------------------
# matrix algebra helpers

def adjugate(M):
    """Adjugate (transposed cofactor matrix), batched over leading axes."""
    M = np.asarray(M, dtype=float)
    n = M.shape[-1]
    if M.shape[-2] != n:
        raise ValueError("adjugate needs square matrices")
    if n == 1:
        return np.ones_like(M)
    if n == 2:
        out = np.empty_like(M)
        out[..., 0, 0] = M[..., 1, 1]
        out[..., 1, 1] = M[..., 0, 0]
        out[..., 0, 1] = -M[..., 0, 1]
        out[..., 1, 0] = -M[..., 1, 0]
        return out
    if n == 3:
        out = np.empty_like(M)
        for j in range(3):
            for k in range(3):
                r = [a for a in range(3) if a != k]
                c = [a for a in range(3) if a != j]
                minor = (M[..., r[0], c[0]] * M[..., r[1], c[1]]
                         - M[..., r[0], c[1]] * M[..., r[1], c[0]])
                out[..., j, k] = (-1.0) ** (j + k) * minor
        return out
    # generic fallback through explicit minors
    out = np.empty_like(M)
    idx = np.arange(n)
    for j in range(n):
        for k in range(n):
            minor = M[..., idx != k, :][..., :, idx != j]
            out[..., j, k] = (-1.0) ** (j + k) * np.linalg.det(minor)
    return out


def det_gradient(M):
    """Entrywise derivative of the determinant: d det / d M_jk = cofactor_jk."""
    return np.swapaxes(adjugate(M), -1, -2)


@lru_cache(maxsize=None)
def _gauss_legendre01(order):
    """Gauss-Legendre nodes and weights mapped to [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def _det2(M):
    """Determinants of a stack of 2x2 matrices in closed form."""
    return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]


def mean_value_matrix(H_a, H_b, order=None):
    """A = integral_0^1 adj((1-t) H_a + t H_b) dt by Gauss-Legendre.

    Satisfies tr(A (H_b - H_a)) = det(H_b) - det(H_a) for any pair; with
    order >= n the rule is exact because the integrand is polynomial of
    degree n-1 in t.
    """
    H_a = np.asarray(H_a, dtype=float)
    H_b = np.asarray(H_b, dtype=float)
    n = H_a.shape[-1]
    if order is None:
        order = max(4, n + 1)
    t, w = _gauss_legendre01(int(order))
    A = np.zeros_like(H_a)
    for tk, wk in zip(t, w):
        A += wk * adjugate((1.0 - tk) * H_a + tk * H_b)
    return A


# ---------------------------------------------------------------------------
# discrete derivative fields

def _derivative_fields(sol, i):
    """Dense centered-difference derivatives of component i with a validity mask.

    Derivatives are taken on the ghost-extended array; the mask keeps
    only nodes whose full 3x3 neighborhood lies inside the domain, so no
    extrapolated ghost value enters a reported derivative.
    """
    g = sol.grid
    h = g.h
    E = sol.extended_array(i)
    nan = np.full_like(E, np.nan)
    ux, uy = nan.copy(), nan.copy()
    uxx, uyy, uxy = nan.copy(), nan.copy(), nan.copy()
    ux[1:-1, :] = (E[2:, :] - E[:-2, :]) / (2 * h)
    uy[:, 1:-1] = (E[:, 2:] - E[:, :-2]) / (2 * h)
    uxx[1:-1, :] = (E[2:, :] - 2 * E[1:-1, :] + E[:-2, :]) / h ** 2
    uyy[:, 1:-1] = (E[:, 2:] - 2 * E[:, 1:-1] + E[:, :-2]) / h ** 2
    uxy[1:-1, 1:-1] = (E[2:, 2:] - E[2:, :-2] - E[:-2, 2:] + E[:-2, :-2]) / (4 * h ** 2)
    valid = np.zeros_like(g.inside)
    ins = g.inside
    valid[1:-1, 1:-1] = (ins[1:-1, 1:-1] & ins[2:, 1:-1] & ins[:-2, 1:-1]
                         & ins[1:-1, 2:] & ins[1:-1, :-2]
                         & ins[2:, 2:] & ins[2:, :-2] & ins[:-2, 2:] & ins[:-2, :-2])
    return {"E": E, "ux": ux, "uy": uy, "uxx": uxx, "uyy": uyy, "uxy": uxy,
            "valid": valid}


def _interp(grid, arr):
    return RegularGridInterpolator((grid.xs, grid.ys), arr, method="linear",
                                   bounds_error=False, fill_value=np.nan)


class _SolutionData:
    """Plane-independent data of one solution, each piece built on first use.

    A sweep makes one and hands it to every frame and certificate, so
    the derivative fields, the discrete operator of the unreflected
    fields and the interpolators of both are computed once per solution
    instead of once per plane position.
    """

    def __init__(self, solution):
        self.solution = solution

    @cached_property
    def derivs(self):
        """Per component: :func:`_derivative_fields` of the ghost-extended array."""
        return [_derivative_fields(self.solution, i) for i in range(self.solution.m)]

    @cached_property
    def valid(self):
        """Nodes whose derivative stencil is valid for every component."""
        valid_all = np.ones(self.solution.grid.inside.shape, dtype=bool)
        for f in self.derivs:
            valid_all &= f["valid"]
        return valid_all

    @cached_property
    def cell_ok(self):
        """Interpolator of the combined validity mask (1 where a cell is valid)."""
        return _interp(self.solution.grid, self.valid.astype(float))

    @cached_property
    def interp(self):
        """Per component: interpolators of the value and derivative fields."""
        g = self.solution.grid
        return [{k: _interp(g, f[k]) for k in ("E", "ux", "uy", "uxx", "uyy", "uxy")}
                for f in self.derivs]

    @cached_property
    def det_op(self):
        """(m, N) discrete operator values of the unreflected fields."""
        sol = self.solution
        return np.stack([_ma_and_active(sol.grid, u, c)[0]
                         for u, c in zip(sol.fields, sol.cs)])

    @cached_property
    def det_op_interp(self):
        """Interpolator of :attr:`det_op`; NaN unless the whole cell is interior."""
        g = self.solution.grid
        dense = np.full(g.inside.shape + (self.solution.m,), np.nan)
        dense[g.node_ij[:, 0], g.node_ij[:, 1]] = self.det_op.T
        return _interp(g, dense)


def _hessian_at_nodes(fields, ij):
    H = np.empty((len(ij), 2, 2))
    H[:, 0, 0] = fields["uxx"][ij[:, 0], ij[:, 1]]
    H[:, 1, 1] = fields["uyy"][ij[:, 0], ij[:, 1]]
    H[:, 0, 1] = H[:, 1, 0] = fields["uxy"][ij[:, 0], ij[:, 1]]
    return H


def _hessian_at(fns, pts):
    """Interpolated Hessians at ``pts`` from the interpolators in ``fns``."""
    H = np.empty((len(pts), 2, 2))
    H[:, 0, 0] = fns["uxx"](pts)
    H[:, 1, 1] = fns["uyy"](pts)
    H[:, 0, 1] = H[:, 1, 0] = fns["uxy"](pts)
    return H


# ---------------------------------------------------------------------------
# frames

@dataclass
class MovingPlaneFrame:
    """Reflected-difference data on the cap {x . nu <= lam}.

    Arrays are indexed by the kept cap nodes; ``deriv_ok`` marks the
    subset where both the node's own derivative stencil and the
    reflected interpolation cell stay clear of the boundary, which is
    where gradients and Hessians are trustworthy.
    """

    nu: np.ndarray
    lam: float
    grid: object
    node_idx: np.ndarray          # (K,) indices into the solution's nodes
    xy: np.ndarray                # (K, 2)
    reflected_xy: np.ndarray      # (K, 2)
    deriv_ok: np.ndarray          # (K,) bool
    n_exited: int                 # cap nodes dropped: reflection left the domain
    u: np.ndarray                 # (m, K)
    u_lam: np.ndarray             # (m, K)
    U: np.ndarray                 # (m, K)
    grad_u: np.ndarray            # (m, K, 2)
    grad_u_lam: np.ndarray        # (m, K, 2)
    grad_U: np.ndarray            # (m, K, 2)
    hess_u: np.ndarray            # (m, K, 2, 2)
    hess_u_lam: np.ndarray        # (m, K, 2, 2)
    hess_U: np.ndarray            # (m, K, 2, 2)
    det_op: np.ndarray            # (m, K) discrete operator of u at the nodes
    det_op_lam: np.ndarray        # (m, K) det_op interpolated at the reflected points
    op_ok: np.ndarray             # (K,) where det_op_lam is finite

    @property
    def m(self):
        return self.u.shape[0]

    @property
    def empty(self):
        return len(self.node_idx) == 0

    def on_plane(self, tol=None):
        """Mask of frame nodes lying on the plane (within tol)."""
        tol = self.grid.h * 1e-9 if tol is None else tol
        return np.abs(self.xy @ self.nu - self.lam) <= tol


def build_frame(solution, nu, lam, include_plane=True, *, _data=None):
    """Reflect the solution across {x . nu = lam} and assemble U = u_lam - u.

    Off-grid reflected points use bilinear interpolation of the values
    and of the centered-difference derivative fields; when the
    reflection is grid aligned the weights collapse and the pairing is
    exact.  Reflected Hessians are conjugated with the reflection matrix
    rather than re-differenced, so they inherit the interior accuracy of
    the unreflected fields.  By reflection invariance of the
    determinant, the reflected discrete operator is the unreflected one
    interpolated at the reflected points, where ``op_ok`` finds it finite.
    """
    data = _data if _data is not None else _SolutionData(solution)
    g = solution.grid
    nu = _as_unit(nu, 2)
    lam = float(lam)
    proj = solution.grid.node_xy @ nu
    eps = 1e-12 * max(1.0, abs(lam))
    sel = proj < lam + (g.h * 1e-9 if include_plane else -eps)
    idx = np.nonzero(sel)[0]
    xy = g.node_xy[idx]
    refl = reflect_point(xy, nu, lam)

    m = solution.m
    # value interpolation needs the reflected cell in the padded box;
    # derivatives need the whole cell and the node's own stencil valid
    refl_inside = g.domain.contains(refl)
    with np.errstate(invalid="ignore"):
        cell = data.cell_ok(refl)
    keep = refl_inside & np.isfinite(cell)
    n_exited = int(np.sum(~refl_inside))
    idx, xy, refl, cell = idx[keep], xy[keep], refl[keep], cell[keep]
    K = len(idx)
    ij = g.node_ij[idx]
    deriv_ok = data.valid[ij[:, 0], ij[:, 1]] & (cell > 1.0 - 1e-12)

    Q = np.eye(2) - 2.0 * np.outer(nu, nu)
    u = np.empty((m, K))
    u_lam = np.empty((m, K))
    grad_u = np.empty((m, K, 2))
    grad_u_lam = np.empty((m, K, 2))
    hess_u = np.empty((m, K, 2, 2))
    hess_u_lam = np.empty((m, K, 2, 2))
    for i in range(m):
        f, fns = data.derivs[i], data.interp[i]
        u[i] = solution.fields[i][idx]
        u_lam[i] = fns["E"](refl)
        grad_u[i, :, 0] = f["ux"][ij[:, 0], ij[:, 1]]
        grad_u[i, :, 1] = f["uy"][ij[:, 0], ij[:, 1]]
        graw = np.stack([fns["ux"](refl), fns["uy"](refl)], axis=-1)
        grad_u_lam[i] = graw @ Q.T
        hess_u[i] = _hessian_at_nodes(f, ij)
        hess_u_lam[i] = Q @ _hessian_at(fns, refl) @ Q

    # det D^2 u_lam(x) = det(Q D^2 u(x_lam) Q) = det D^2 u(x_lam)
    det_op = data.det_op[:, idx]
    det_op_lam = data.det_op_interp(refl).T
    op_ok = np.all(np.isfinite(det_op_lam), axis=0)

    return MovingPlaneFrame(
        nu=nu, lam=lam, grid=g, node_idx=idx, xy=xy, reflected_xy=refl,
        deriv_ok=deriv_ok, n_exited=n_exited,
        u=u, u_lam=u_lam, U=u_lam - u,
        grad_u=grad_u, grad_u_lam=grad_u_lam, grad_U=grad_u_lam - grad_u,
        hess_u=hess_u, hess_u_lam=hess_u_lam, hess_U=hess_u_lam - hess_u,
        det_op=det_op, det_op_lam=det_op_lam, op_ok=op_ok,
    )


# ---------------------------------------------------------------------------
# linearization

@dataclass
class LinearizationFields:
    """Coefficients of the elliptic inequality satisfied by U on the cap."""

    A: np.ndarray                 # (m, K, 2, 2) mean-value matrices
    B: np.ndarray                 # (m, K, 2) gradient coefficient
    c: np.ndarray                 # (m,) own-component Lipschitz constant
    d: np.ndarray                 # (m, m, K) coupling difference quotients
    quad_order: int
    n_flagged: tuple = ()         # per component: nodes with a non-PD integrand


def linearize(frame, system, quad_order=None):
    """Mean-value matrices, Lipschitz coefficients and coupling quotients.

    A^i comes from the Hessian pair (reflected, original); B^i points
    along grad U with the declared gradient Lipschitz constant as length
    (zero where grad U vanishes); c^i is the declared own-component
    constant; d_ij is the difference quotient of f^i along unknown j,
    evaluated at the telescoped argument (components before j reflected,
    j and later unreflected) with step U^j.
    """
    if quad_order is None:
        quad_order = max(4, frame.hess_u.shape[-1] + 1)
    m, K = frame.m, len(frame.node_idx)
    A = np.zeros((m, K, 2, 2))
    B = np.zeros((m, K, 2))
    c = np.zeros(m)
    d = np.zeros((m, m, K))
    flagged = []
    t_samples, _ = _gauss_legendre01(int(quad_order))
    for i in range(m):
        Ha, Hb = frame.hess_u_lam[i], frame.hess_u[i]
        A[i] = mean_value_matrix(Ha, Hb, order=quad_order)
        bad = np.zeros(K, dtype=bool)
        for tk in t_samples:
            Mt = (1.0 - tk) * Ha + tk * Hb
            bad |= ~((_det2(Mt) > 0) & (np.trace(Mt, axis1=-2, axis2=-1) > 0))
        bad &= frame.deriv_ok
        if bad.any():
            # symmetrize and push eigenvalues up to a tiny floor
            Ab = 0.5 * (A[i][bad] + np.swapaxes(A[i][bad], -1, -2))
            lam_min = np.linalg.eigvalsh(Ab)[:, 0]
            shift = np.maximum(0.0, -lam_min) + 1e-12
            Ab += shift[:, None, None] * np.eye(2)
            A[i][bad] = Ab
        flagged.append(int(bad.sum()))

        hp = system.lipschitz_p[i]
        hp = 0.0 if hp is None else float(hp)
        gU = frame.grad_U[i]
        norm = np.linalg.norm(gU, axis=-1)
        nz = norm > 0
        B[i][nz] = hp * gU[nz] / norm[nz, None]
        hz = system.lipschitz_z[i]
        c[i] = 0.0 if hz is None else float(hz)

        for j in range(m):
            # components before j see the reflected values, j and later the originals
            z = np.stack([frame.u_lam[k] if k < j else frame.u[k] for k in range(m)],
                         axis=-1)
            d[i, j] = np.asarray(rhs_d_ij(system, i + 1, j + 1, frame.xy, z,
                                          frame.grad_u_lam[i], frame.U[j]))
    return LinearizationFields(A=A, B=B, c=c, d=d, quad_order=int(quad_order),
                               n_flagged=tuple(flagged))


def verify_elliptic_inequality(lin, frame, tol=None):
    """Audit tr(A dD2U) + B . dU + c U >= sum_j d_ij U_j on the cap.

    Checked at cap nodes with trustworthy derivatives and a finite
    reflected operator (``frame.op_ok``).  The default tolerance is
    10 h^2 times a local determinant scale; nodes breaking the
    inequality beyond it are counted and the worst one is reported.

    The trace term is the determinant difference of the discrete
    wide-stencil operator, ``det_op_lam - det_op``; the two are equal by
    the mean value identity, which is audited separately at machine
    precision.  Both operator values come from the one operator field
    of the solution, so its directional resolution bias cancels between
    a node and its reflection, unlike that of raw Hessian determinants.
    """
    g = frame.grid
    ok = frame.deriv_ok & frame.op_ok
    report = {"tolerance_rule": "10*h^2*scale", "h": g.h, "components": [],
              "n_nodes": int(ok.sum()), "total_violations": 0,
              "worst_margin": float("inf"), "worst_xy": None,
              "d_nonpositive": bool(np.all(lin.d[:, :, ok] <= 1e-12)) if ok.any() else True}
    for i in range(frame.m):
        lhs = (frame.det_op_lam[i] - frame.det_op[i]
               + np.einsum("ka,ka->k", lin.B[i], frame.grad_U[i])
               + lin.c[i] * frame.U[i])
        rhs = np.einsum("jk,jk->k", lin.d[i], frame.U)
        scale = np.maximum(1.0, np.maximum(np.abs(_det2(frame.hess_u[i])),
                                           np.abs(_det2(frame.hess_u_lam[i]))))
        tol_node = (10.0 * g.h ** 2) * scale if tol is None else tol
        margin = lhs - rhs
        bad = ok & (margin < -tol_node)
        entry = {"component": i + 1, "violations": int(bad.sum())}
        if ok.any():
            k = int(np.argmin(np.where(ok, margin, np.inf)))
            entry["worst_margin"] = float(margin[k])
            entry["worst_xy"] = [float(v) for v in frame.xy[k]]
            if margin[k] < report["worst_margin"]:
                report["worst_margin"] = float(margin[k])
                report["worst_xy"] = entry["worst_xy"]
        report["components"].append(entry)
        report["total_violations"] += entry["violations"]
    if not np.isfinite(report["worst_margin"]):
        report["worst_margin"] = 0.0
    report["passed"] = report["total_violations"] == 0
    return report


# ---------------------------------------------------------------------------
# certificates

def certify_monotonicity(solution, nu, planes, tol=None, *, _data=None):
    """Directional derivative check: d_nu u < 0 strictly left of the plane.

    Certifies the strict inequality as <= -margin at every interior node
    with x . nu < Lam0 - h, margin defaulting to 10 h^2 times a local
    gradient scale.  Failure is a verdict with a witness, not an error.
    """
    data = _data if _data is not None else _SolutionData(solution)
    g = solution.grid
    nu = _as_unit(nu, 2)
    h = g.h
    out = {"direction": [float(v) for v in nu], "Lam0": float(planes.Lam0),
           "components": [], "passed": True}
    proj = g.node_xy @ nu
    for i in range(solution.m):
        f = data.derivs[i]
        ij = g.node_ij
        ok = f["valid"][ij[:, 0], ij[:, 1]] & (proj < planes.Lam0 - h)
        dnu = (f["ux"][ij[:, 0], ij[:, 1]] * nu[0]
               + f["uy"][ij[:, 0], ij[:, 1]] * nu[1])
        scale = np.maximum(1.0, np.hypot(f["ux"][ij[:, 0], ij[:, 1]],
                                         f["uy"][ij[:, 0], ij[:, 1]]))
        margin = (10.0 * h ** 2) * scale if tol is None else tol
        viol = ok & (dnu > -margin)
        entry = {"component": i + 1, "n_checked": int(ok.sum()),
                 "violations": int(viol.sum())}
        if ok.any():
            k = int(np.argmax(np.where(ok, dnu, -np.inf)))
            entry["worst_value"] = float(dnu[k])
            entry["worst_xy"] = [float(v) for v in g.node_xy[k]]
        out["components"].append(entry)
        out["passed"] = out["passed"] and entry["violations"] == 0
    return out


def _domain_symmetric(domain, nu, lam, samples=512):
    """Sampled check that reflection across the plane maps the domain to itself."""
    try:
        t = np.linspace(0.0, 1.0, samples, endpoint=False)
        pts = domain.boundary_param(t)
    except NotImplementedError:
        bb = domain.bounding_box()
        rng = np.random.default_rng(0)
        pts = bb[:, 0] + (bb[:, 1] - bb[:, 0]) * rng.random((4096, domain.dimension))
        refl = reflect_point(pts, nu, lam)
        inside = domain.contains(pts)
        ok_refl = domain.contains(refl)
        return bool(np.all(inside == ok_refl))
    refl = reflect_point(pts, nu, lam)
    return bool(np.max(np.abs(domain.level(refl))) < 1e-7 * domain.bbox_diameter())


def certify_symmetry(solution, nu, Lam0, tol=None, n_angles=720, *, _data=None,
                     _frame=None):
    """Mirror residual across the critical plane, plus disk angular variation.

    Returns a not-applicable verdict when the domain is not symmetric
    about the plane.  The residual floor is the bilinear interpolation
    error, order h^2, and is stated in the report.  ``_frame`` is the
    frame at Lam0 when the caller has already built it.
    """
    g = solution.grid
    nu = _as_unit(nu, 2)
    h = g.h
    report = {"applicable": True, "Lam0": float(Lam0), "h": h,
              "floor": 2.0 * h ** 2}
    if not _domain_symmetric(g.domain, nu, Lam0):
        report["applicable"] = False
        report["verdict"] = "not-applicable"
        return report
    data = _data if _data is not None else _SolutionData(solution)
    frame = _frame if _frame is not None else build_frame(solution, nu, Lam0, _data=data)
    resid = float(np.max(np.abs(frame.U))) if not frame.empty else 0.0
    report["mirror_residual"] = resid
    scale = max(1.0, max(float(np.max(np.abs(f))) for f in solution.fields))
    report["tolerance"] = (20.0 * h ** 2) * scale if tol is None else tol
    if isinstance(g.domain, Ball):
        c = np.asarray(g.domain.center)
        variations = []
        th = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
        ring = np.stack([np.cos(th), np.sin(th)], axis=-1)
        for i in range(solution.m):
            fn = data.interp[i]["E"]
            worst = 0.0
            for frac in (0.2, 0.4, 0.6, 0.8):
                vals = fn(c + frac * g.domain.radius * ring)
                worst = max(worst, float(np.max(vals) - np.min(vals)))
            variations.append(worst)
        report["angular_variation"] = variations
        resid = max(resid, max(variations))
    report["passed"] = resid <= report["tolerance"]
    return report


def _boundary_samples(domain, k=256):
    """Boundary points with outward normals, or None when unavailable."""
    try:
        t = np.linspace(0.0, 1.0, k, endpoint=False)
        pts = domain.boundary_param(t)
        return pts, domain.boundary_normal(pts)
    except NotImplementedError:
        pass
    if isinstance(domain, Tube) and domain.dimension == 2:
        bb = domain.bounding_box()
        (x0, x1), (y0, y1) = bb
        s = np.linspace(0.05, 0.95, k // 4)
        pts, nrm = [], []
        for xv, n in ((x0, (-1.0, 0.0)), (x1, (1.0, 0.0))):
            pts.append(np.stack([np.full_like(s, xv), y0 + (y1 - y0) * s], axis=-1))
            nrm.append(np.tile(n, (len(s), 1)))
        for yv, n in ((y0, (0.0, -1.0)), (y1, (0.0, 1.0))):
            pts.append(np.stack([x0 + (x1 - x0) * s, np.full_like(s, yv)], axis=-1))
            nrm.append(np.tile(n, (len(s), 1)))
        return np.concatenate(pts), np.concatenate(nrm)
    return None, None


def boundary_checks(solution, domain=None, *, _data=None):
    """Hopf outward derivative, interior Laplacian sign and tube corner checks.

    The normal derivative is a one-sided difference from just inside the
    boundary toward it; the corner check differences the field into the
    two corners where the first lateral plane meets the caps, where the
    cross derivative taken along the inward axis directions must be
    positive.
    """
    data = _data if _data is not None else _SolutionData(solution)
    g = solution.grid
    domain = domain or g.domain
    h = g.h
    report = {"h": h}
    pts, normals = _boundary_samples(domain)
    if pts is None:
        report["hopf"] = {"verdict": "not-applicable"}
    else:
        entries = []
        s = 2.0 * h
        for i in range(solution.m):
            fn = data.interp[i]["E"]
            innerv = fn(pts - s * normals)
            keep = np.isfinite(innerv) & domain.contains(pts - s * normals)
            dn = (solution.cs[i] - innerv[keep]) / s
            entries.append({
                "component": i + 1,
                "min_normal_derivative": float(np.min(dn)) if keep.any() else None,
                "passed": bool(keep.any() and np.min(dn) > 10.0 * h ** 2),
            })
        report["hopf"] = {"components": entries,
                          "min": min(e["min_normal_derivative"] for e in entries),
                          "passed": all(e["passed"] for e in entries)}
    lap_entries = []
    ij = g.node_ij
    for i in range(solution.m):
        f = data.derivs[i]
        ok = f["valid"][ij[:, 0], ij[:, 1]]
        lap = f["uxx"][ij[:, 0], ij[:, 1]] + f["uyy"][ij[:, 0], ij[:, 1]]
        lap_entries.append({"component": i + 1,
                            "min_laplacian": float(np.min(lap[ok])),
                            "passed": bool(np.min(lap[ok]) > 0.0)})
    report["laplacian"] = {"components": lap_entries,
                           "passed": all(e["passed"] for e in lap_entries)}
    if isinstance(domain, Tube) and domain.dimension == 2:
        bb = domain.bounding_box()
        x_min, H = bb[0, 0], domain.half_height
        s = 2.0 * h
        entries = []
        for i in range(solution.m):
            fn = data.interp[i]["E"]
            ci = solution.cs[i]
            # inward one-sided cross differences; boundary faces carry c
            top = float((ci - fn([[x_min + s, H - s]])[0]) / s ** 2)
            bot = float((ci - fn([[x_min + s, -H + s]])[0]) / s ** 2)
            entries.append({"component": i + 1,
                            "corner_top": top, "corner_bottom": bot,
                            "passed": bool(top > 0.0 and bot > 0.0)})
        report["corner"] = {"components": entries,
                            "passed": all(e["passed"] for e in entries)}
    else:
        report["corner"] = {"verdict": "not-applicable"}
    report["passed"] = (report["laplacian"]["passed"]
                        and report.get("hopf", {}).get("passed", True)
                        and report["corner"].get("passed", True))
    return report


# ---------------------------------------------------------------------------
# sweep and report

@dataclass
class MovingPlaneReport:
    """Aggregated verdicts from a full moving-plane sweep."""

    nu: tuple
    lam0: float
    Lam0: float
    n_lambdas: int
    entries: list
    monotonicity: dict
    symmetry: dict
    boundary: dict
    total_ei_violations: int
    passed: bool

    def to_json(self):
        return {
            "nu": list(self.nu),
            "lam0": self.lam0,
            "Lam0": self.Lam0,
            "n_lambdas": self.n_lambdas,
            "entries": self.entries,
            "monotonicity": self.monotonicity,
            "symmetry": self.symmetry,
            "boundary": self.boundary,
            "total_ei_violations": self.total_ei_violations,
            "passed": self.passed,
        }

    def dumps(self):
        return json.dumps(self.to_json(), sort_keys=True, indent=2)


def lambda_sweep(solution, nu, planes, n_lambdas=16, system=None, tol=None):
    """Sweep plane positions over (lam0, Lam0] and aggregate all certificates.

    Each position gets a frame, the cap bound U <= tol, and (when the
    system is supplied) a linearization with the elliptic-inequality
    audit.  The final position is exactly Lam0, and its frame doubles as
    the symmetry certificate's.

    Everything that does not depend on the plane position is computed
    once per call and shared by every frame, the symmetry frame, the
    monotonicity certificate and the boundary checks: the derivative
    fields of the ghost-extended arrays, the combined validity mask and
    its interpolator, the interpolators of the value and derivative
    fields, and the discrete operator of the unreflected fields with its
    interpolator, which gives every frame its reflected operator.
    """
    if n_lambdas < 2:
        raise ValueError("need at least two plane positions")
    g = solution.grid
    nu = _as_unit(nu, 2)
    h = g.h
    lams = planes.lam0 + (planes.Lam0 - planes.lam0) * (
        np.arange(1, n_lambdas + 1) / n_lambdas)
    lams[-1] = planes.Lam0
    data = _SolutionData(solution)
    entries = []
    total_viol = 0
    all_ok = True
    for lam in lams:
        frame = build_frame(solution, nu, float(lam), _data=data)
        entry = {"lambda": float(lam), "n_nodes": int(len(frame.node_idx)),
                 "n_exited": frame.n_exited}
        if frame.empty:
            entry["U_max"] = None
            entry["cap_nonpositive"] = True
        else:
            scale = max(1.0, float(np.max(np.abs(frame.u))))
            cap_tol = (10.0 * h ** 2) * scale if tol is None else tol
            u_max = float(np.max(frame.U))
            entry["U_max"] = u_max
            entry["cap_nonpositive"] = u_max <= cap_tol
            if system is not None and frame.deriv_ok.any():
                lin = linearize(frame, system)
                ei = verify_elliptic_inequality(lin, frame, tol=tol)
                entry["ei_violations"] = ei["total_violations"]
                entry["ei_worst_margin"] = ei["worst_margin"]
                entry["flagged_nonpd"] = list(lin.n_flagged)
                total_viol += ei["total_violations"]
        all_ok = all_ok and entry["cap_nonpositive"]
        entries.append(entry)
    mono = certify_monotonicity(solution, nu, planes, _data=data)
    sym = certify_symmetry(solution, nu, planes.Lam0, _data=data, _frame=frame)
    bnd = boundary_checks(solution, _data=data)
    passed = (all_ok and total_viol == 0 and mono["passed"]
              and sym.get("passed", True))
    return MovingPlaneReport(
        nu=tuple(float(v) for v in nu), lam0=float(planes.lam0),
        Lam0=float(planes.Lam0), n_lambdas=int(n_lambdas), entries=entries,
        monotonicity=mono, symmetry=sym, boundary=bnd,
        total_ei_violations=int(total_viol), passed=bool(passed))


# ---------------------------------------------------------------------------
# minimal SVG output

def write_heatmap_svg(grid, values, path, title="field"):
    """One colored square per interior node, blue-white-red by value."""
    values = np.asarray(values, dtype=float)
    vmax = float(np.max(np.abs(values))) or 1.0
    side = 640.0
    bb = grid.domain.bounding_box()
    span = max(bb[0, 1] - bb[0, 0], bb[1, 1] - bb[1, 0])
    px = side * grid.h / span
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side:.0f}" height="{side:.0f}">',
        f"<!-- {title}: {len(values)} nodes, |value| max {vmax:.6e} -->",
    ]
    for (x, y), v in zip(grid.node_xy, values):
        t = max(-1.0, min(1.0, v / vmax))
        r = int(255 * max(0.0, t) + 255 * (1 - abs(t)))
        b = int(255 * max(0.0, -t) + 255 * (1 - abs(t)))
        gcol = int(255 * (1 - abs(t)))
        sx = (x - bb[0, 0]) / span * side
        sy = side - (y - bb[1, 0]) / span * side
        lines.append(f'<rect x="{sx:.1f}" y="{sy:.1f}" width="{px:.1f}" '
                     f'height="{px:.1f}" fill="rgb({r},{gcol},{b})"/>')
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
